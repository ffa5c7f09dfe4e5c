"""End-to-end tests of the command-line interface (subprocess level)."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from compctrl import (
    controller_from_json_dict,
    plant_to_json_dict,
    controller_to_json_dict,
    synth_h2_ih,
    synth_hinf,
)
from compctrl.mpc import PendulumScenario, scenario_to_json_dict
from compctrl.sim import DisturbanceSpec

from conftest import cli_env, scalar_lti


def run_cli(*args, env_extra=None, cwd=None):
    env = cli_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "compctrl", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture()
def plant_file(tmp_path):
    plant = scalar_lti(a=0.5)
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(plant_to_json_dict(plant)))
    return str(path)


@pytest.fixture()
def h2_controller_file(tmp_path):
    plant = scalar_lti(a=0.5)
    path = tmp_path / "h2.json"
    path.write_text(json.dumps(controller_to_json_dict(synth_h2_ih(plant))))
    return str(path)


# ---------------------------------------------------------------------------
# synth


def test_synth_h2_builtin_plant(tmp_path):
    out = str(tmp_path / "ctrl.json")
    proc = run_cli("synth", "--plant", "builtin:boeing747", "--kind", "h2",
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["kind"] == "h2"
    assert report["gamma"] is None
    ctrl = controller_from_json_dict(json.load(open(out)))
    assert ctrl.kind == "h2"
    assert ctrl.Kx.shape == (2, 4)


def test_synth_fixed_gamma_feasible(tmp_path, plant_file):
    out = str(tmp_path / "hinf.json")
    report_path = str(tmp_path / "report.json")
    proc = run_cli(
        "synth", "--plant", plant_file, "--kind", "hinf", "--gamma", "50.0",
        "--out", out, "--report", report_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""  # the report went to the file instead
    report = json.load(open(report_path))
    assert report["feasible"] is True
    assert report["gamma"] == 50.0
    assert report["gamma_squared"] == 2500.0
    assert controller_from_json_dict(json.load(open(out))).gamma == 50.0


def test_synth_fixed_gamma_infeasible_exits_2(tmp_path, plant_file):
    proc = run_cli(
        "synth", "--plant", plant_file, "--kind", "hinf", "--gamma", "0.001",
        "--out", str(tmp_path / "never.json"),
    )
    assert proc.returncode == 2
    verdict = json.loads(proc.stdout)
    assert verdict["feasible"] is False
    assert verdict["gamma"] == 0.001
    assert verdict["reason"]
    assert not (tmp_path / "never.json").exists()


def test_synth_bisected_competitive(tmp_path, plant_file):
    out = str(tmp_path / "comp.json")
    proc = run_cli(
        "synth", "--plant", plant_file, "--kind", "competitive", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["gamma"] > 1.0
    assert report["gamma_bracket"][0] < report["gamma"]
    assert report["audit_warnings"] == []
    assert report["feasibility_evaluations"] > 0
    probes = report["probes"]
    assert len(probes) == report["feasibility_evaluations"]
    assert report["gamma"] in {p["gamma"] for p in probes if p["feasible"]}
    for p in probes:
        assert isinstance(p["iterations"], int)
        assert (p["reason"] is None) == p["feasible"]
    ctrl = controller_from_json_dict(json.load(open(out)))
    assert ctrl.kind == "competitive"
    assert ctrl.gamma == report["gamma"]


def test_synth_bad_plant_path_exits_1(tmp_path):
    proc = run_cli(
        "synth", "--plant", str(tmp_path / "nope.json"), "--kind", "h2",
        "--out", str(tmp_path / "x.json"),
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "flag, value", [("--horizon", "50"), ("--gamma", "3")], ids=["horizon", "gamma"]
)
def test_synth_h2_rejects_level_and_horizon(tmp_path, plant_file, flag, value):
    # h2 is the steady-state LQR law: a horizon or a level would be ignored
    out = tmp_path / "h2.json"
    proc = run_cli(
        "synth", "--plant", plant_file, "--kind", "h2", flag, value, "--out", str(out),
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr and flag in proc.stderr
    assert not out.exists()


def test_usage_error_exits_2():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_traces_and_comparison(tmp_path, plant_file, h2_controller_file):
    trace_dir = str(tmp_path / "traces")
    out = str(tmp_path / "cmp.json")
    proc = run_cli(
        "simulate", "--plant", plant_file,
        "--controller", f"h2={h2_controller_file}",
        "--steps", "40", "--seed", "3", "--trace-dir", trace_dir, "--out", out,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    echoed = json.loads(proc.stdout)
    written = json.load(open(out))
    assert echoed == written
    entry = written["controllers"][0]
    assert entry["name"] == "h2"
    assert entry["total_cost"] > 0
    assert entry["ratio_to_opt"] >= 1.0
    assert written["opt_cost"] > 0

    trace = os.path.join(trace_dir, "trace_h2.csv")
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert rows[0]["t"] == "0"


def test_simulate_default_controller_name_is_file_stem(tmp_path, plant_file, h2_controller_file):
    proc = run_cli(
        "simulate", "--plant", plant_file, "--controller", h2_controller_file,
        "--steps", "10", "--trace-dir", str(tmp_path), "--out",
        str(tmp_path / "c.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["controllers"][0]["name"] == "h2"
    assert (tmp_path / "trace_h2.csv").exists()


def test_simulate_requires_steps_for_lti(tmp_path, plant_file, h2_controller_file):
    proc = run_cli(
        "simulate", "--plant", plant_file, "--controller", h2_controller_file,
        "--trace-dir", str(tmp_path), "--out", str(tmp_path / "c.json"),
    )
    assert proc.returncode == 1
    assert "--steps" in proc.stderr


def test_simulate_seed_env_fallback(tmp_path, plant_file, h2_controller_file):
    def run_with(seed_args, env_extra, tag):
        d = tmp_path / tag
        d.mkdir()
        proc = run_cli(
            "simulate", "--plant", plant_file,
            "--controller", f"h2={h2_controller_file}",
            "--steps", "25", "--trace-dir", str(d), "--out",
            str(d / "c.json"), *seed_args, env_extra=env_extra,
        )
        assert proc.returncode == 0, proc.stderr
        return (d / "trace_h2.csv").read_bytes()

    explicit = run_with(["--seed", "7"], None, "a")
    from_env = run_with([], {"COMPCTRL_SEED": "7"}, "b")
    default = run_with([], None, "c")
    assert explicit == from_env
    assert explicit != default  # default seed is 0


def test_simulate_custom_disturbance_file(tmp_path, plant_file, h2_controller_file):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"kind": "step", "levels": [2.0], "switch_times": []}))
    proc = run_cli(
        "simulate", "--plant", plant_file,
        "--controller", f"h2={h2_controller_file}",
        "--disturbance", str(dist), "--steps", "12",
        "--trace-dir", str(tmp_path), "--out", str(tmp_path / "c.json"),
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "trace_h2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["w_0"]) == 2.0 for r in rows)


def test_simulate_sanitizes_trace_names(tmp_path, plant_file, h2_controller_file):
    proc = run_cli(
        "simulate", "--plant", plant_file,
        "--controller", f"h inf/x={h2_controller_file}",
        "--steps", "5", "--trace-dir", str(tmp_path), "--out",
        str(tmp_path / "c.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trace_h_inf_x.csv").exists()


# ---------------------------------------------------------------------------
# freq


def test_freq_sweep_csv_and_summary(tmp_path, plant_file, h2_controller_file):
    out = str(tmp_path / "freq.csv")
    proc = run_cli(
        "freq", "--plant", plant_file, "--controller", f"h2={h2_controller_file}",
        "--points", "16", "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["points"] == 16
    info = summary["controllers"]["h2"]
    assert info["peak_sigma_max"] > 0
    assert info["max_per_freq_cr"] >= 1.0
    assert info["degenerate_frequencies"] == 0
    with open(out, newline="") as fh:
        text = fh.read()
    assert text.startswith("controller,omega,sigma_max_TK,per_freq_cr\n")
    assert len(text.splitlines()) == 1 + 16


# ---------------------------------------------------------------------------
# mpc


def _scenario_file(tmp_path, **kwargs):
    scenario = PendulumScenario(
        steps=kwargs.pop("steps", 120),
        disturbance=DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
        quantum=kwargs.pop("quantum", 0.05),
        **kwargs,
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json_dict(scenario)))
    return str(path)


def test_mpc_scenario_run(tmp_path):
    scen = _scenario_file(tmp_path, kind="h2")
    trace = str(tmp_path / "mpc_trace.csv")
    out = str(tmp_path / "mpc.json")
    proc = run_cli("mpc", "--scenario", scen, "--seed", "2", "--trace", trace,
                   "--out", out)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary == json.load(open(out))
    assert summary["kind"] == "h2"
    assert summary["status"] == "ok"
    assert summary["steps_completed"] == 120
    assert summary["seed"] == 2
    assert summary["ratio_to_comparator"] >= 1.0 - 1e-9
    assert summary["comparator_status"] == "ok"
    assert summary["bins_synthesized"] >= 1
    assert summary["bin_cache_hits"] >= 0
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    assert "bins_synthesized" not in rows[0] and "bin_cache_hits" not in rows[0]


def test_mpc_infeasible_scenario_exits_2(tmp_path):
    scen = _scenario_file(
        tmp_path, kind="hinf", gamma_policy={"fixed": 0.001}, steps=50
    )
    proc = run_cli("mpc", "--scenario", scen)
    assert proc.returncode == 2
    verdict = json.loads(proc.stdout)
    assert verdict["feasible"] is False
    assert "initial linearization" in verdict["reason"]


# ---------------------------------------------------------------------------
# verify


def test_verify_builtin_plant():
    proc = run_cli("verify", "--plant", "builtin:boeing747", "--horizon", "24")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["horizon"] == 24
    names = {c["name"] for c in report["checks"]}
    assert "fh-factorization-identity" in names
    assert "ih-factorization-identity" in names
    assert "offline-route-agreement" in names
    assert all(c["ok"] for c in report["checks"])
    assert report["info"]["pbh_stabilizable"] is True
    assert report["info"]["spectral_radius_A"] < 1.0


def test_verify_scalar_plant_file(plant_file):
    proc = run_cli("verify", "--plant", plant_file, "--horizon", "10",
                   "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["seed"] == 5
