"""Traced-run report: where each workload's time goes, and what tracing costs.

Usage, from the root of a checkout::

    python3 bench/report.py [--workloads a,b,...] [--seed N] [--seconds S]

For each workload it runs ``bench/run.py`` with one seed, one process at a
time, as ``PAIRS`` alternated pairs of an untraced and a traced run.  It
prints

* the self time of each layer as a share of the traced wall time (set-up
  plus the traced operations), and the time left to the benchmark's own
  code, which tracing does not attribute to any layer.  The layers cover the
  wall time when that rest is at most ``COVERAGE_SHARE`` of it;
* the tracing overhead: the median over the pairs of traced wall time minus
  the untraced wall time of the same set-up and the same operations, with
  its range.  When the range holds zero or the median is not positive, the
  overhead is below the host's noise and is reported as unresolved;
* whether the exact counts repeat across the traced runs.

The report is also written to ``.bench_out/trace-report.md``.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import OUT_DIR, ROOT, WORKLOADS
from tracing import BENCH, LAYERS

#: headline counts that must repeat for a seed; every other count is compared too
KEY_COUNTS = ("riccati.dare_fixed_point.iterations", "search.probes",
              "mpc.bins_synthesized", "mpc.comparator_passes")
#: untraced/traced run pairs per workload
PAIRS = 3
#: largest share of the traced wall time the layers may leave unattributed
COVERAGE_SHARE = 0.01


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def wall(result: dict, n_ops: int) -> float:
    """First set-up plus the first n_ops operations, in seconds."""
    return result["setup_runs_s"][0] + sum(op["s"] for op in result["ops"][:n_ops])


def report(workload: str, seed: int, seconds: float) -> list:
    pairs = [(run(workload, seed, seconds, 0), run(workload, seed, seconds, 1))
             for _ in range(PAIRS)]
    traced = [t for _, t in pairs]
    first = traced[0]
    n_ops = min(len(r["ops"]) for pair in pairs for r in pair)
    traced_s = wall(first, n_ops)
    diffs = sorted(wall(t, n_ops) - wall(p, n_ops) for p, t in pairs)
    overhead = statistics.median(diffs)
    plain_s = statistics.median(wall(p, n_ops) for p, _ in pairs)
    resolved = overhead > 0 and diffs[0] > 0
    layer = first["per_layer"]
    unattributed = layer["layer.bench.self_share"][0] / 100.0 * traced_s

    lines = [f"## {workload} (seed {seed})", ""]
    lines.append(f"traced wall {traced_s:.3f} s over set-up and {n_ops} operations; "
                 f"untraced median {plain_s:.3f} s; {first['spans']} spans, "
                 f"{first['nesting_errors']} nesting errors")
    lines.append(f"tracing overhead, median of {PAIRS} pairs: {overhead:+.3f} s "
                 f"({100.0 * overhead / plain_s:+.1f} %), range {diffs[0]:+.3f} to "
                 f"{diffs[-1]:+.3f} s"
                 + ("" if resolved else "; unresolved: below the host's noise"))
    verdict = "covered" if unattributed <= COVERAGE_SHARE * traced_s else "NOT covered"
    lines.append(f"unattributed time {unattributed:.3f} s "
                 f"({100.0 * unattributed / traced_s:.2f} % of the traced wall time): "
                 f"{verdict} (limit {100.0 * COVERAGE_SHARE:g} %)")
    lines += ["", "| layer | self time share |", "|---|---:|"]
    for name in LAYERS + (BENCH,):
        lines.append(f"| {name} | {layer[f'layer.{name}.self_share'][0]:.2f} % |")

    counts = [name for name, (_, unit) in layer.items() if unit in ("count", "B")]
    mismatched = [name for name in counts
                  if len({t["per_layer"][name][0] for t in traced}) > 1]
    runs = range(1, len(traced) + 1)
    lines += ["", "| exact count | " + " | ".join(f"run {i}" for i in runs) + " |",
              "|---|" + "---:|" * len(traced)]
    for name in KEY_COUNTS:
        lines.append(f"| {name} | "
                     + " | ".join(str(t["per_layer"][name][0]) for t in traced) + " |")
    lines.append("")
    lines.append(f"{len(counts) - len(mismatched)} of {len(counts)} counts repeat exactly "
                 f"in {len(traced)} traced runs"
                 + (f"; differing: {', '.join(mismatched)}" if mismatched else ""))
    lines.append("")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)
    lines = ["# Traced-run report", ""]
    for workload in args.workloads.split(","):
        lines += report(workload, args.seed, args.seconds)
    text = "\n".join(lines) + "\n"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "trace-report.md").write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
