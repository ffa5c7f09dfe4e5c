"""Self-test of the benchmark at reduced size.

Usage, from the root of a checkout::

    python3 bench/selftest.py

1. Runs every workload at reduced size, untraced and traced, and checks
   that the result line carries exactly the metrics BENCHMARK.json declares,
   with their units, that each workload's named metrics are present with
   their units, and that no operation fails.
2. Feeds every output check a deliberately corrupted result and requires a
   rejection, so that no check passes vacuously.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must exit non-zero without a result line.

Exits non-zero on the first failed expectation.  Takes about two minutes.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before numpy is imported

SMALL = {
    "boeing-synth": {"fh_horizon": 50},
    "boeing-competitive": {"fh_horizon": 50},
    "boeing-evaluate": {"horizon": 60, "points": 32, "sweep_every": 3},
    "pendulum": {"steps": 201},
    "cli-pipeline": {"steps": 200, "points": 32, "mpc_steps": 201},
}
NAMED = {
    "boeing-synth": {"hinf_search_s": "s", "competitive_search_s": "s",
                     "competitive_fh_search_s": "s", "certified_gamma2": "ratio"},
    "boeing-competitive": {"competitive_search_s": "s", "competitive_fh_search_s": "s",
                           "certified_gamma2": "ratio"},
    "boeing-evaluate": {"compare_ms.p50": "ms", "sweep_s": "s"},
    "pendulum": {"pendulum_op_s.p50": "s", "pendulum_ops_per_s": "1/s"},
    "cli-pipeline": {"cli_pipeline_s": "s"},
}


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def rejects(fails, what):
    expect(bool(fails), f"rejects {what}: {fails[:1]}")


def check_emission():
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(SMALL)
           == sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json, run.py and workloads.py list the same workloads")
    for name in SMALL:
        for trace in (False, True):
            result = run.run_workload(name, seed=3, seconds=0.5, trace=trace,
                                      sizes=SMALL[name])
            tag = f"{name} trace={int(trace)}"
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: {result['attempted']} operations, none failed "
                   f"{result['failures'][:1]}")
            line = run.result_line(result)
            declared = run.declared_metrics(trace)
            expect(list(line["metrics"]) == [n for n, _ in declared],
                   f"{tag}: result line has exactly the declared metrics")
            expect(all(line["metrics"][n]["unit"] == u for n, u in declared),
                   f"{tag}: units match BENCHMARK.json")
            expect(all(math.isfinite(m["value"]) for m in line["metrics"].values()),
                   f"{tag}: every value is finite")
            if not trace:
                expect(all(line["metrics"][n]["value"] > 0 for n, _ in declared),
                       f"{tag}: every end-to-end metric is positive")
                expect(result["host_samples"] > 0 and all(op["ref"] > 0 for op in result["ops"]),
                       f"{tag}: {result['host_samples']} host-speed samples, "
                       "every operation costed in reference kernels")
                expect(all(result["named"].get(n, (None, None))[1] == u
                           for n, u in NAMED[name].items()),
                       f"{tag}: named metrics {sorted(NAMED[name])} with units")
            else:
                layer = result["per_layer"]
                expect(result["nesting_errors"] == 0, f"{tag}: spans nest")
                shares = sum(v for n, (v, _) in layer.items() if n.endswith("self_share"))
                expect(abs(shares - 100.0) < 1e-6, f"{tag}: layer shares sum to 100 %")


def check_rejections():
    import compctrl as cc
    import workloads as wl

    # gamma searches
    plant = cc.load_bundled_plant("boeing747")
    comp = cc.min_gamma_competitive(plant)
    good = {"competitive": comp}
    expect(wl.check_searches(good, ["competitive"]) == [], "accepts the real search")
    rejects(wl.check_searches(
        {"competitive": dataclasses.replace(comp, gamma=0.9 * comp.gamma)}, ["competitive"]),
        "a certified level of 0.9 gamma*")
    rejects(wl.check_searches(
        {"competitive": dataclasses.replace(comp, audit_warnings=["x"])}, ["competitive"]),
        "an audit warning")
    rejects(wl.check_searches(
        {"competitive": dataclasses.replace(comp, controller=None)}, ["competitive"]),
        "a search without a controller")

    # Boeing evaluation: set-up gate, cost bounds, sweep bands
    infeasible = cc.synth_competitive(plant, 0.9 * comp.gamma)
    try:
        wl.require_controller(infeasible, "competitive at 0.9 gamma*")
        expect(False, "rejects a competitive controller at 0.9 gamma*")
    except wl.SetupError as exc:
        expect(True, f"rejects a competitive controller at 0.9 gamma*: {exc}")
    ev = wl.make("boeing-evaluate", 5, None, **SMALL["boeing-evaluate"])
    ev.setup()
    out = ev.run(0)
    res, w = out["result"], out["w"]
    expect(ev.check(out) == [], "accepts a real comparison")
    rejects(wl.check_compare(dataclasses.replace(res, opt_cost=res.opt_cost / 2),
                             w, ev.gamma2, wl.HINF_GAMMA), "OPT halved")
    rejects(wl.check_compare(dataclasses.replace(res, opt_cost=0.0),
                             w, ev.gamma2, wl.HINF_GAMMA), "OPT = 0")
    rejects(wl.check_compare(res, 0.01 * w, ev.gamma2, wl.HINF_GAMMA),
            "||w||^2 shrunk 1e4 times")
    diverged = dict(res.rollouts)
    diverged["hinf"] = dataclasses.replace(diverged["hinf"], status="diverged")
    rejects(wl.check_compare(dataclasses.replace(res, rollouts=diverged),
                             w, ev.gamma2, wl.HINF_GAMMA), "a diverged rollout")
    rejects(wl.check_compare(res, w, 0.81 * ev.gamma2, wl.HINF_GAMMA),
            "a certified ratio of (0.9 gamma*)^2")
    sweep = ev.run(ev.sweep_every - 1)["sweep"]
    expect(wl.check_sweep(sweep) == [], "accepts a real sweep")

    def with_ratios(name, ratios):
        return dataclasses.replace(sweep, per_freq_cr=dict(sweep.per_freq_cr, **{name: ratios}))

    rejects(wl.check_sweep(with_ratios("h2", [1.2 * r for r in sweep.per_freq_cr["h2"]])),
            "h2 ratios scaled by 1.2")
    rejects(wl.check_sweep(with_ratios(
        "competitive", [r + 0.1 for r in sweep.per_freq_cr["competitive"]])),
        "competitive ratios raised by 0.1")
    rejects(wl.check_sweep(with_ratios(
        "hinf", ["degenerate-frequency"] + sweep.per_freq_cr["hinf"][1:])),
        "a degenerate frequency")

    # pendulum: competitive never undercuts the comparator
    params = cc.PendulumParams()
    ctrl = cc.RelinearizingController(params, kind="competitive",
                                      gamma_policy={"fixed": 3.8}, quantum=0.05)
    wd = cc.generate(wl.STEP_NOISE, 201, 1, seed=2)
    runs = {"competitive": cc.run_pendulum(params, ctrl, wd),
            "comparator": cc.clairvoyant_comparator_run(params, wd, quantum=0.05)}
    expect(wl.check_pendulum({"step-noise": runs}) == [], "accepts a real pendulum run")
    above = dataclasses.replace(runs["comparator"],
                                total_cost=runs["competitive"].total_cost + 1.0)
    rejects(wl.check_pendulum({"step-noise": dict(runs, comparator=above)}),
            "a comparator cost above the competitive cost")
    bad = dataclasses.replace(runs["competitive"], status="infeasible-linearization")
    rejects(wl.check_pendulum({"step-noise": dict(runs, competitive=bad)}),
            "a truncated pendulum run")

    # cli pipeline: two passes with one seed
    cli = wl.make("cli-pipeline", 5, run.WORK_DIR / "selftest-cli", **SMALL["cli-pipeline"])
    try:
        cli.setup()
        expect(cli.check(cli.run(0)) == [], "accepts the first real CLI pass")
        first = cli.previous
        out = cli.run(1)
        expect(cli.check(out) == [], "accepts a second pass with the same seed")
        codes, stdout, second = out["codes"], out["stdout"], cli.previous
    finally:
        cli.close()
    expect(wl.check_cli_pass(codes, stdout, second, first) == [], "re-check passes")
    rejects(wl.check_cli_pass(dict(codes, verify=1), stdout, second, first),
            "a non-zero exit code")
    report = json.loads(stdout["verify"])
    report["checks"][0]["ok"] = False
    rejects(wl.check_cli_pass(codes, dict(stdout, verify=json.dumps(report)),
                              second, first), "a failed verify check")
    mpc = json.loads(stdout["mpc"])
    mpc["status"] = "diverged"
    rejects(wl.check_cli_pass(codes, dict(stdout, mpc=json.dumps(mpc)), second, first),
            "a diverged mpc run")
    changed = dict(second, **{"freq.csv": second["freq.csv"] + b"\n"})
    rejects(wl.check_cli_pass(codes, stdout, changed, first), "CSV bytes that differ")


def check_without_program():
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "boeing-synth", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    run.import_compctrl()
    check_emission()
    check_rejections()
    check_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
