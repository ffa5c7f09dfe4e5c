"""Smoke tests of the scripts under ``tools/``."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_src_size_rows_add_up_to_the_total():
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_size.py"), src],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].split() == ["module", "code", "docstring"]
    rows = {name: (int(code), int(doc)) for name, code, doc in map(str.split, out[1:])}
    total = rows.pop("total")
    modules = {os.path.relpath(os.path.join(d, f), src)
               for d, _, files in os.walk(src) for f in files if f.endswith(".py")}
    assert set(rows) == modules and "compctrl/mpc.py" in rows
    assert tuple(map(sum, zip(*rows.values()))) == total
    assert all(code > 0 for code, _ in rows.values())


def _bench_pairs():
    path = os.path.join(ROOT, "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(ops, rss, failed=0, correct=True):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_bench_pairs_summarizes_alternated_pairs():
    bench_pairs = _bench_pairs()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = bench_pairs.metric_specs(json.load(fh))
    assert specs["ops_per_s"] == ("higher", 0.2) and specs["wall_s"] == ("lower", None)
    # ops_per_s: parent 10..19, change 11..20, so the change wins every pair;
    # peak_rss_mb: the change is lower in the first 3 pairs only
    pairs = [{"parent": _run(10.0 + i, 40.0), "change": _run(11.0 + i, 39.0 if i < 3 else 41.0,
                                                             failed=int(i == 9))}
             for i in range(10)]
    summary = bench_pairs.summarize(pairs, specs)
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"q1": 11.75, "median": 14.5, "q3": 17.25}
    assert ops["change"] == {"q1": 12.75, "median": 15.5, "q3": 18.25}
    assert (ops["change_better"], ops["pairs"], ops["bound"]) == (10, 10, 0.2)
    assert ops["median_change_rel"] == 15.5 / 14.5 - 1.0
    rss = summary["peak_rss_mb"]
    assert (rss["change_better"], rss["bound"]) == (3, 0.1)
    assert rss["median_change_rel"] == 41.0 / 40.0 - 1.0
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["all_correct"] is True
    pairs[4]["parent"]["correct"] = False
    assert bench_pairs.summarize(pairs, specs)["all_correct"] is False


def test_bench_pairs_claim_rule():
    bench_pairs = _bench_pairs()
    spread = {"q1": 9.0, "median": 10.0, "q3": 11.0}  # the parent's IQR is 2

    def metric(change_median, better_pairs):
        return {"parent": spread, "change": {**spread, "median": change_median},
                "change_better": better_pairs, "pairs": 10}

    assert bench_pairs.judge(metric(12.5, 9), "higher")["met"] is True
    assert bench_pairs.judge(metric(12.5, 8), "higher")["met"] is False  # too few pairs
    assert bench_pairs.judge(metric(11.5, 10), "higher")["met"] is False  # within the IQR
    assert bench_pairs.judge(metric(7.5, 10), "lower")["met"] is True
    assert bench_pairs.judge(metric(12.5, 10), "lower")["met"] is False  # worse, not better
    verdict = bench_pairs.judge(metric(12.5, 9), "higher")
    assert verdict == {"parent_median": 10.0, "change_median": 12.5, "change_better": "9/10",
                       "parent_iqr": 2.0, "met": True}


def test_bench_pairs_takes_the_environment_a_run_saved(tmp_path):
    bench_pairs = _bench_pairs()
    out = tmp_path / ".bench_out"
    out.mkdir()
    env = {"nproc": 2, "blas": "scipy-openblas 0.3.31.188.0",
           "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}
    saved = {"workload": "pendulum", "environment": {**env, "git_commit": "unknown"}}
    (out / "pendulum-seed7-trace0.json").write_text(json.dumps(saved))
    assert bench_pairs.saved_environment(tmp_path, "pendulum", 7) == env
