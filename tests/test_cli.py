"""End-to-end tests of the command-line interface (subprocess level)."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import compctrl.cli as cli
from compctrl import factorization
from compctrl.freq import gram_cache
from compctrl import (
    controller_from_json_dict,
    plant_to_json_dict,
    controller_to_json_dict,
    load_bundled_plant,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
)
from compctrl.mpc import (
    PendulumParams,
    PendulumScenario,
    linearize_pendulum,
    scenario_to_json_dict,
)
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


@pytest.mark.parametrize("kind", ["hinf", "competitive"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_gamma_exits_1(tmp_path, plant_file, kind, value):
    out = tmp_path / "never.json"
    proc = run_cli(
        "synth", "--plant", plant_file, "--kind", kind, "--gamma", value,
        "--out", str(out),
    )
    assert proc.returncode == 1
    assert "gamma must be finite and positive" in proc.stderr
    assert not out.exists()


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
    assert report["gamma_squared"] == report["gamma"] * report["gamma"]
    ctrl = controller_from_json_dict(json.load(open(out)))
    assert ctrl.kind == "competitive"
    assert ctrl.gamma == report["gamma"]


def test_synth_report_squares_gamma_as_the_game(tmp_path, capsys):
    # gamma * gamma, the game's gamma^2, not gamma**2 (one ulp apart here)
    rc = cli.main([
        "synth", "--plant", "builtin:boeing747", "--kind", "competitive",
        "--gamma", "2.759", "--out", str(tmp_path / "c.json"),
    ])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["gamma_squared"] == 7.612081 != 2.759**2


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
    # the wall times are echoed only, never written
    wall_ms = echoed.pop("wall_ms")
    assert set(wall_ms) == {"offline", "rollouts", "csv"}
    assert all(ms >= 0 for ms in wall_ms.values())
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
    assert not any("wall" in col for col in rows[0])


def test_simulate_default_controller_name_is_file_stem(tmp_path, plant_file, h2_controller_file):
    proc = run_cli(
        "simulate", "--plant", plant_file, "--controller", h2_controller_file,
        "--steps", "10", "--trace-dir", str(tmp_path), "--out",
        str(tmp_path / "c.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["controllers"][0]["name"] == "h2"
    assert (tmp_path / "trace_h2.csv").exists()


def test_simulate_rejects_inconsistent_controller_file(tmp_path, plant_file):
    # a finite-horizon controller edited to "horizon": null is refused, not
    # rolled out with its step-0 matrices
    ctrl = synth_competitive(scalar_lti(a=0.5), 3.0, horizon=20)
    obj = controller_to_json_dict(ctrl)
    obj["horizon"] = None
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    proc = run_cli(
        "simulate", "--plant", plant_file, "--controller", str(path),
        "--steps", "20", "--trace-dir", str(tmp_path), "--out", str(tmp_path / "c.json"),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "horizon" in proc.stderr
    assert not (tmp_path / "c.json").exists()


def test_simulate_rejects_controller_file_with_mismatched_dimensions(tmp_path):
    # a Boeing competitive file with one column dropped from every row of
    # Kxi is refused when loaded, naming the field
    obj = controller_to_json_dict(synth_competitive(load_bundled_plant("boeing747"), 1.4))
    for row in obj["gains"]["Kxi"]:
        row.pop()
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(obj))
    proc = run_cli(
        "simulate", "--plant", "builtin:boeing747", "--controller", str(path),
        "--steps", "20", "--trace-dir", str(tmp_path), "--out", str(tmp_path / "c.json"),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: controller file: Kxi has shape (2, 7)")
    assert not (tmp_path / "c.json").exists()


def test_simulate_rejects_controller_file_made_for_another_plant(tmp_path, h2_controller_file):
    # a scalar plant's controller on the Boeing plant names the dimension,
    # in a rollout and in a frequency sweep
    proc = run_cli(
        "simulate", "--plant", "builtin:boeing747", "--controller", h2_controller_file,
        "--steps", "20", "--trace-dir", str(tmp_path), "--out", str(tmp_path / "c.json"),
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: controller is made for n = 1, but the plant has n = 4\n"
    assert not (tmp_path / "c.json").exists()
    proc = run_cli(
        "freq", "--plant", "builtin:boeing747", "--controller", h2_controller_file,
        "--points", "16", "--out", str(tmp_path / "f.csv"),
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: controller is made for n = 1, but the plant has n = 4\n"
    assert not (tmp_path / "f.csv").exists()


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


def test_seed_env_is_read_when_the_command_runs(
    tmp_path, plant_file, h2_controller_file, monkeypatch, capsys
):
    # the parser is built once per process, so --seed's default must not be
    # fixed when it is built: two in-process calls see two COMPCTRL_SEEDs
    def comparison(seed_args):
        out = tmp_path / "c.json"
        rc = cli.main([
            "simulate", "--plant", plant_file, "--controller", f"h2={h2_controller_file}",
            "--steps", "25", "--trace-dir", str(tmp_path), "--out", str(out), *seed_args,
        ])
        capsys.readouterr()
        assert rc == 0
        return out.read_bytes()

    monkeypatch.setenv("COMPCTRL_SEED", "7")
    from_env_7 = comparison([])
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setenv("COMPCTRL_SEED", "8")
    from_env_8 = comparison([])
    monkeypatch.delenv("COMPCTRL_SEED")
    assert from_env_7 == comparison(["--seed", "7"])
    assert from_env_8 == comparison(["--seed", "8"])
    assert from_env_7 != from_env_8


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
    assert summary["gram_cached"] is False  # a fresh process
    assert set(summary["wall_ms"]) == {"sweep", "csv"}
    assert all(ms >= 0 for ms in summary["wall_ms"].values())
    with open(out, newline="") as fh:
        text = fh.read()
    assert text.startswith("controller,omega,sigma_max_TK,per_freq_cr\n")
    assert len(text.splitlines()) == 1 + 16


def test_freq_reports_a_cached_gram(tmp_path, plant_file, h2_controller_file, capsys):
    # a second in-process pass finds the plant's Gram kept, says so on stdout
    # only, and writes the same CSV bytes
    gram_cache.clear()
    texts, cached = [], []
    for k in range(2):
        out = tmp_path / f"freq{k}.csv"
        rc = cli.main([
            "freq", "--plant", plant_file, "--controller", f"h2={h2_controller_file}",
            "--points", "16", "--out", str(out),
        ])
        assert rc == 0
        cached.append(json.loads(capsys.readouterr().out)["gram_cached"])
        texts.append(out.read_bytes())
    assert cached == [False, True]
    assert texts[0] == texts[1]


@pytest.mark.parametrize("points", ["0", "-3"])
def test_freq_points_below_one_exits_1(tmp_path, plant_file, h2_controller_file, points):
    out = tmp_path / "freq.csv"
    proc = run_cli(
        "freq", "--plant", plant_file, "--controller", f"h2={h2_controller_file}",
        "--points", points, "--out", str(out),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "--points" in proc.stderr
    assert not out.exists()


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
    # the synthesis time is echoed only, never written
    synth_s = summary.pop("synth_s")
    assert synth_s >= 0
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
    assert "synth_s" not in rows[0]


def test_mpc_infeasible_scenario_exits_2(tmp_path):
    scen = _scenario_file(
        tmp_path, kind="hinf", gamma_policy={"fixed": 0.001}, steps=50
    )
    proc = run_cli("mpc", "--scenario", scen)
    assert proc.returncode == 2
    verdict = json.loads(proc.stdout)
    assert verdict["feasible"] is False
    assert "initial linearization" in verdict["reason"]


def test_mpc_failed_first_bin_exits_2(tmp_path):
    # the level search's factorization fails in the bin of theta = pi/2,
    # where B_u = cos(pi/2) dt leaves (A, B_u) not stabilizable, as a later
    # bin's failure would: a verdict, not an error
    scen = _scenario_file(tmp_path, kind="competitive", quantum=math.pi / 2,
                          x0=(math.pi / 2, 0.0), steps=20)
    proc = run_cli("mpc", "--scenario", scen)
    assert proc.returncode == 2, proc.stderr
    verdict = json.loads(proc.stdout)
    assert verdict["feasible"] is False
    assert verdict["reason"].startswith("initial linearization: ")


@pytest.mark.parametrize("x0", [(0.0, 0.0, 0.0), (), (math.inf, 0.0), (math.nan, 0.0)])
def test_mpc_bad_x0_is_an_error(tmp_path, x0):
    scen = _scenario_file(tmp_path, kind="h2", x0=x0, steps=20)
    proc = run_cli("mpc", "--scenario", scen)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "x0" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_mpc_zero_quantum_is_an_error(tmp_path):
    scen = _scenario_file(tmp_path, kind="h2", quantum=0.0, steps=20)
    proc = run_cli("mpc", "--scenario", scen)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "quantum" in proc.stderr and "Traceback" not in proc.stderr


def test_mpc_quantum_too_small_for_a_bin_is_an_error(tmp_path):
    # 1e-320 is > 0, but a bin index overflows once theta leaves 0
    scen = _scenario_file(tmp_path, kind="h2", quantum=1e-320, steps=20)
    out = tmp_path / "out.json"
    proc = run_cli("mpc", "--scenario", scen, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: quantum 1e-320 is too small")
    assert proc.stderr.count("\n") == 1 and not out.exists()


# ---------------------------------------------------------------------------
# input files


def _scenario_with(**edits):
    obj = scenario_to_json_dict(PendulumScenario(steps=20, kind="h2", quantum=0.05))
    return {**obj, **edits}


def _h2_file_with(**edits):
    return {**controller_to_json_dict(synth_h2_ih(scalar_lti(a=0.5))), **edits}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _competitive_file_without(key):
    doc = controller_to_json_dict(synth_competitive(scalar_lti(a=0.5), 3.0))
    return {**doc, "synthetic": _without(doc["synthetic"], key)}


EMPTY_MIXTURE = {"kind": "mixture", "components": []}


def _reading(role, path, tmp_path, plant_file, h2_controller_file):
    """The command line that reads ``path`` as its ``role`` input file."""
    return {
        "plant": ["synth", "--plant", str(path), "--kind", "h2"],
        "controller": ["simulate", "--plant", plant_file, "--controller", str(path),
                       "--steps", "20", "--trace-dir", str(tmp_path)],
        "disturbance": ["simulate", "--plant", plant_file, "--controller",
                        h2_controller_file, "--disturbance", str(path), "--steps", "20",
                        "--trace-dir", str(tmp_path)],
        "scenario": ["mpc", "--scenario", str(path)],
    }[role]


@pytest.mark.parametrize(
    "role, doc, message",
    [
        ("plant", lambda: [1, 2], "plant must be a JSON object, got list"),
        ("controller", lambda: [], "controller must be a JSON object, got list"),
        ("controller", lambda: None, "controller must be a JSON object, got null"),
        ("controller", lambda: _h2_file_with(causality="bogus"),
         "controller file: causality must be 'causal' or 'strictly-causal'"),
        ("disturbance", lambda: [], "disturbance spec must be a JSON object, got list"),
        ("disturbance", lambda: EMPTY_MIXTURE, "mixture needs at least one component"),
        ("scenario", lambda: [], "scenario must be a JSON object, got list"),
        ("scenario", lambda: _scenario_with(controller=None),
         "scenario controller must be a JSON object, got null"),
        ("scenario", lambda: _scenario_with(params=None),
         "scenario params must be a JSON object, got null"),
        ("scenario", lambda: _scenario_with(disturbance=None),
         "disturbance spec must be a JSON object, got null"),
        ("scenario", lambda: _scenario_with(disturbance=EMPTY_MIXTURE),
         "mixture needs at least one component"),
        ("scenario", lambda: _scenario_with(params={"dt": -0.01}),
         "pendulum dt must be finite and > 0, got -0.01"),
        ("plant", lambda: {**plant_to_json_dict(scalar_lti()), "A": None},
         "plant JSON field 'A' is null"),
        ("disturbance", lambda: {"sigma": 1.0},
         "disturbance spec JSON missing required field 'kind'"),
        ("disturbance", lambda: {"kind": "mixture", "components": None},
         "disturbance spec JSON field 'components' is null"),
        ("controller", lambda: _without(_h2_file_with(), "kind"),
         "controller JSON missing required field 'kind'"),
        ("controller", lambda: _without(_h2_file_with(), "horizon"),
         "controller JSON missing required field 'horizon'"),
        ("controller", lambda: _h2_file_with(gains=None),
         "controller JSON field 'gains' is null"),
        ("controller", lambda: _competitive_file_without("A_filter"),
         "controller synthetic JSON missing required field 'A_filter'"),
        ("scenario", lambda: _without(_scenario_with(), "steps"),
         "scenario JSON missing required field 'steps'"),
        ("scenario", lambda: _without(_scenario_with(), "disturbance"),
         "scenario JSON missing required field 'disturbance'"),
        ("scenario", lambda: _scenario_with(quantum=None),
         "scenario JSON field 'quantum' is null"),
        ("scenario", lambda: _scenario_with(params={"dt": None}),
         "scenario params JSON field 'dt' is null"),
        ("scenario", lambda: _scenario_with(x0=None), "scenario JSON field 'x0' is null"),
        ("scenario", lambda: _scenario_with(controller={"kind": "h2", "gamma_policy": None}),
         "scenario controller JSON field 'gamma_policy' is null"),
        ("scenario", lambda: _scenario_with(steps="abc"),
         "scenario JSON field 'steps' cannot be read: "
         "invalid literal for int() with base 10: 'abc'"),
        ("scenario", lambda: _scenario_with(controller={"kind": "h2",
                                                        "gamma_policy": {"fixd": 3.8}}),
         "gamma_policy keys must be 'fixed' or 'margin', got ['fixd']"),
        ("disturbance", lambda: {"kind": "step"},
         "step disturbance spec JSON missing required field 'levels'"),
        ("disturbance", lambda: {"kind": "sinusoid"},
         "sinusoid disturbance spec JSON missing required field 'omega'"),
        ("disturbance", lambda: {"kind": "sinusoid", "omega": None},
         "sinusoid disturbance spec JSON field 'omega' is null"),
        ("disturbance", lambda: {"kind": "white-gaussian", "sigma": "abc"},
         "white-gaussian disturbance spec JSON field 'sigma' cannot be read: "
         "could not convert string to float: 'abc'"),
        ("disturbance", lambda: {"kind": "mixture", "components": [{"kind": "dc"}],
                                 "weights": [None]},
         "mixture disturbance spec JSON field 'weights' cannot be read: "
         "float() argument must be a string or a real number, not 'NoneType'"),
        ("plant", lambda: {**plant_to_json_dict(scalar_lti()), "horizon": "abc"},
         "plant JSON field 'horizon' cannot be read: "
         "invalid literal for int() with base 10: 'abc'"),
        ("controller", lambda: {"kind": "zero", "gains": {"m": "abc"}},
         "controller gains JSON field 'm' cannot be read: "
         "invalid literal for int() with base 10: 'abc'"),
    ],
    ids=["plant-list", "controller-list", "controller-null", "controller-bogus-causality",
         "disturbance-list", "disturbance-empty-mixture", "scenario-list",
         "scenario-controller-null", "scenario-params-null", "scenario-disturbance-null",
         "scenario-empty-mixture", "scenario-negative-dt", "plant-null-A", "disturbance-no-kind",
         "disturbance-null-components", "controller-no-kind", "controller-no-horizon",
         "controller-null-gains", "controller-no-synthetic-array", "scenario-no-steps",
         "scenario-no-disturbance", "scenario-null-quantum", "scenario-null-dt",
         "scenario-null-x0", "scenario-null-gamma-policy", "scenario-text-steps",
         "scenario-misspelt-gamma-policy", "disturbance-step-no-levels",
         "disturbance-sinusoid-no-omega", "disturbance-sinusoid-null-omega",
         "disturbance-text-sigma", "disturbance-null-weight", "plant-text-horizon",
         "controller-text-m"],
)
def test_unreadable_input_file_is_a_one_line_error(
    tmp_path, plant_file, h2_controller_file, role, doc, message
):
    # at the parent each of these ended in a traceback, or ran to exit 0
    path = tmp_path / f"{role}.json"
    path.write_text(json.dumps(doc()))
    out = tmp_path / "out.json"
    proc = run_cli(*_reading(role, path, tmp_path, plant_file, h2_controller_file),
                   "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("role", ["plant", "controller", "disturbance", "scenario"])
def test_a_malformed_json_file_names_its_path(tmp_path, plant_file, h2_controller_file, role):
    # json's own message names no file, so the reader adds the path
    path = tmp_path / f"{role}.json"
    path.write_text("{")
    out = tmp_path / "out.json"
    proc = run_cli(*_reading(role, path, tmp_path, plant_file, h2_controller_file),
                   "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {path} is not a JSON file: Expecting property name "
                           f"enclosed in double quotes: line 1 column 2 (char 1)\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify


#: the phases whose wall times verify's stdout JSON reports
VERIFY_PHASES = {"fh_factorization", "wprime_causality", "offline_routes", "ih_checks"}


def test_verify_builtin_plant():
    proc = run_cli("verify", "--plant", "builtin:boeing747", "--horizon", "24")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["horizon"] == 24
    names = {c["name"] for c in report["checks"]}
    assert "fh-factorization-identity" in names
    assert "ih-factorization-identity" in names
    assert "spectral-factor-relative-residual" in names
    assert "offline-route-agreement" in names
    assert all(c["ok"] for c in report["checks"])
    assert report["info"]["pbh_stabilizable"] is True
    assert report["info"]["spectral_radius_A"] < 1.0
    assert report["wall_ms"].keys() == VERIFY_PHASES
    assert all(v >= 0.0 for v in report["wall_ms"].values())


def test_verify_factors_the_finite_horizon_plant_once(monkeypatch):
    # the w' causality check runs the filter of the whitening schedule that
    # the factorization check made, the synthetic plant's filter bit for bit
    whitening, calls = cli.whitening_fh, []

    def counted(plant):
        calls.append(plant)
        return whitening(plant)

    for module in (cli, factorization):
        monkeypatch.setattr(module, "whitening_fh", counted)
    report = cli.run_verification(load_bundled_plant("boeing747"), 24, seed=0)
    assert report["ok"] is True and len(calls) == 1


def test_verify_checks_the_outer_factor_when_p_is_below_n(tmp_path):
    # the pendulum's linearization has n = 2 > p = 1, so the exact reduction
    # factors its w' filter: L*L = H*H on verify's 64-point grid
    path = tmp_path / "pendulum.json"
    path.write_text(json.dumps(plant_to_json_dict(linearize_pendulum(PendulumParams(), 0.0))))
    proc = run_cli("verify", "--plant", str(path), "--horizon", "10", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    check = {c["name"]: c for c in report["checks"]}["outer-factor-identity"]
    assert check["ok"] and check["threshold"] == 1e-7 and check["value"] < 1e-12
    assert 0.0 <= report["info"]["outer_factor_residual"] < 1e-10
    check = {c["name"]: c for c in report["checks"]}["outer-factor-relative-residual"]
    assert check["ok"] and check["threshold"] == 1e-9
    assert check["value"] == report["info"]["outer_factor_residual_rel"] < 1e-12


def test_verify_checks_the_relative_factor_residual_of_a_badly_scaled_plant(tmp_path):
    # Boeing with Q s and B_u / sqrt(s) at s = 1e10 poses the ratio problem
    # of s = 1, and its spectral factor's P is about 1e-9: an absolute
    # residual reads small on any such P, a relative one does not
    boeing, s = load_bundled_plant("boeing747"), 1e10
    scaled = dataclasses.replace(boeing, Q=boeing.Q * s, Bu=boeing.Bu / np.sqrt(s))
    path = tmp_path / "boeing_1e10.json"
    path.write_text(json.dumps(plant_to_json_dict(scaled)))
    proc = run_cli("verify", "--plant", str(path), "--horizon", "10", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    check = {c["name"]: c for c in report["checks"]}["spectral-factor-relative-residual"]
    assert check["ok"] and check["threshold"] == 1e-9
    assert check["value"] == report["info"]["spectral_factor_residual_rel"] < 1e-12
    assert report["ok"] is True


def test_verify_scalar_plant_file(plant_file):
    proc = run_cli("verify", "--plant", plant_file, "--horizon", "10",
                   "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["seed"] == 5
    assert report["wall_ms"].keys() == VERIFY_PHASES
    assert all(v >= 0.0 for v in report["wall_ms"].values())
