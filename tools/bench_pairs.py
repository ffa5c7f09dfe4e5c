"""Run the benchmark on a parent commit and on a change in alternated pairs,
and write the comparison as a BENCH file.

Usage, from the root of a git checkout::

    python3 tools/bench_pairs.py --parent REV [--change REV] \\
        --workloads W[,W...] --seeds FIRST-LAST \\
        --out BENCH_N.json [--claim METRIC:W[,W...]]

Both commits (the change defaults to HEAD) are exported by ``git archive``
into a temporary directory.  Each tree runs its own, unmodified
``bench/run.py --workload W --seed S --seconds T --trace 0`` from its root,
with T the ``run_seconds`` of BENCHMARK.json, and the last line of its
stdout is the run.  The workload name ``tier1``
times Tier-1 instead: ``python3 -m pytest`` on the tree's tests, run from a
directory outside both trees, with the tree's ``src/`` on PYTHONPATH; its
run records ``wall_s``, it is correct when pytest reached its summary, and
its ``failed`` is the number of failed tests.  For every seed the two trees
run one after the other, and the side that runs first alternates from seed
to seed.

The output holds ``about``, ``command``, ``parent``, ``change``, ``claim``,
``end_to_end``, ``runs`` and ``environment``.  ``end_to_end[W]["summary"]``
gives each metric's quartiles on both sides, the pairs in which the change
is better, the bound that BENCHMARK.json sets (None if it sets none) and
the change's median relative to the parent's, plus the failed operations of
each side and whether every run was correct.  ``environment`` is the one that
the change tree's last benchmark run saved under its ``.bench_out/``, less
its ``git_commit`` (an exported tree has no ``.git``); it is None when only
``tier1`` ran.  A claim is met on a workload
when the change is better in at least 9 of 10 pairs and its median is
better than the parent's by more than the parent's interquartile distance
(:func:`judge`).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIER1 = "tier1"
#: the benchmark's own thread pinning, used for Tier-1 too
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: a claim needs the change better in at least this share of the pairs
CLAIM_SHARE = 0.9
RULE = ("the change is better in at least 9 of 10 alternated pairs and its median "
        "is better than the parent median by more than the parent's interquartile distance")
#: metrics that are not in BENCHMARK.json: name -> (better, bound)
EXTRA_METRICS = {"wall_s": ("lower", None)}


def metric_specs(benchmark: dict) -> dict:
    """name -> (better, bound) of every end-to-end metric of BENCHMARK.json,
    and of the Tier-1 wall time."""
    specs = dict(EXTRA_METRICS)
    for metric in benchmark["end_to_end"]:
        specs[metric["name"]] = (metric["better"], metric.get("bound"))
    return specs


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def is_better(change: float, parent: float, better: str) -> bool:
    return change > parent if better == "higher" else change < parent


def summarize(pairs: list, specs: dict) -> dict:
    """The summary of one workload's runs: ``pairs`` is a list of
    {"parent": run, "change": run}, each run a result line
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        better, bound = specs[name]
        parent, change = ([pair[side]["metrics"][name]["value"] for pair in pairs]
                          for side in ("parent", "change"))
        summary[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_better": sum(map(is_better, change, parent, [better] * len(pairs))),
            "pairs": len(pairs),
            "bound": bound,
            "median_change_rel": statistics.median(change) / statistics.median(parent) - 1.0,
        }
    summary["failed"] = {side: sum(pair[side]["failed"] for pair in pairs)
                         for side in ("parent", "change")}
    summary["all_correct"] = all(pair[side]["correct"] for pair in pairs
                                 for side in ("parent", "change"))
    return summary


def judge(metric: dict, better: str) -> dict:
    """Whether a metric's summary (of :func:`summarize`) meets the claim rule."""
    parent, change = metric["parent"], metric["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = change["median"] - parent["median"]
    if better == "lower":
        gain = -gain
    return {
        "parent_median": parent["median"],
        "change_median": change["median"],
        "change_better": f"{metric['change_better']}/{metric['pairs']}",
        "parent_iqr": iqr,
        "met": metric["change_better"] >= CLAIM_SHARE * metric["pairs"] and gain > iqr,
    }


def claim_record(claim: str, end_to_end: dict, specs: dict):
    """The ``claim`` entry for ``METRIC:W[,W...]``, or None without one."""
    if not claim:
        return None
    metric, workloads = claim.split(":", 1)
    record = {"metric": metric, "workloads": workloads.split(","), "rule": RULE}
    for workload in record["workloads"]:
        summary = end_to_end[workload]["summary"]
        record[workload] = judge(summary[metric], specs[metric][0])
    return record


def export(repo: Path, rev: str, dest: Path) -> str:
    """Write the tree of commit ``rev`` into dest by ``git archive``;
    returns the commit's full hash."""
    dest.mkdir(parents=True)
    git = ["git", "-C", str(repo)]
    archive = subprocess.run(git + ["archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return subprocess.run(git + ["rev-parse", rev], capture_output=True, text=True,
                          check=True).stdout.strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tier1(tree: Path, outside: Path) -> dict:
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", str(tree / "tests")],
        cwd=outside, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {
        "correct": proc.returncode in (0, 1) and "passed" in counts,
        "attempted": sum(counts.values()),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "metrics": {"wall_s": {"value": wall, "unit": "s"}},
    }


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def saved_environment(tree: Path, workload: str, seed: int) -> dict:
    """The environment record of a run that ``bench/run.py`` saved in tree."""
    saved = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    saved["environment"].pop("git_commit", None)
    return saved["environment"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the change's revision")
    parser.add_argument("--workloads", required=True, help="comma-separated; tier1 times Tier-1")
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, one pair per seed")
    parser.add_argument("--claim", default=None, help="METRIC:W[,W...] to judge")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    benchmark = json.loads((repo / "BENCHMARK.json").read_text())
    specs, seconds = metric_specs(benchmark), benchmark["run_seconds"]
    workloads, seeds = args.workloads.split(","), seed_range(args.seeds)
    runs, env = {}, None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        parent_commit = export(repo, args.parent, trees["parent"])
        change_commit = export(repo, args.change, trees["change"])
        outside = Path(tmp) / "outside"
        outside.mkdir()
        for workload in workloads:
            runs[workload] = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                record = {"seed": seed, "first": order[0]}
                for side in order:
                    if workload == TIER1:
                        record[side] = run_tier1(trees[side], outside)
                    else:
                        record[side] = run_bench(trees[side], workload, seed, seconds)
                runs[workload].append(record)
                print(f"{workload} seed {seed}: " + json.dumps(
                    {side: record[side]["metrics"] for side in order}), flush=True)
            if workload != TIER1:
                env = saved_environment(trees["change"], workload, seeds[-1])
    end_to_end = {w: {"summary": summarize(runs[w], specs)} for w in workloads}
    result = {
        "about": (
            f"Parent and change runs by tools/bench_pairs.py: {len(seeds)} alternated pairs "
            f"per workload on seeds {seeds[0]}-{seeds[-1]}, each commit exported by git "
            f"archive and running its own bench/run.py (--seconds {seconds:g}); tier1 is "
            "the wall time of Tier-1 run from outside both trees. The side that runs first "
            "alternates from pair to pair, and 'first' names it. Quartiles are "
            "statistics.quantiles(n=4)."),
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "parent": {"commit": parent_commit},
        "change": {"commit": change_commit},
        "claim": claim_record(args.claim, end_to_end, specs),
        "end_to_end": end_to_end,
        "runs": runs,
        "environment": env,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
