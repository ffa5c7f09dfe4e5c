"""compctrl benchmark: one workload, one process, one result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs as a closed loop for S seconds and the
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric of BENCHMARK.json.  Its times are in reference
seconds (see hostspeed.py): the host's speed is sampled throughout the run
and one reference second is the time in which the host, at the speed it had
then, runs ``REF_KERNELS_PER_S`` reference kernels.  With ``--trace 1`` every public
compctrl function is wrapped in a span (see tracing.py), the run does a fixed
amount of work (set-up plus the workload's ``trace_ops`` operations, so its
counts repeat exactly for a seed) and the metrics are the per-layer ones.
The full result, with the environment record, goes to ``.bench_out/``.
"""

import os

#: pinned before numpy is imported: one BLAS thread per process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_tmp"

WORKLOADS = ("boeing-synth", "boeing-competitive", "boeing-evaluate", "pendulum",
             "cli-pipeline")
#: set-up is repeated up to this many times while it stays under the budget,
#: and its median is reported
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0
#: the import is timed this many times before set-up and as many again after
#: the last operation, each in a fresh interpreter; the median of all of them
#: is the import share of setup_s
IMPORT_REPEATS = 3
#: prints the import time and, right after it, the host's kernel rate
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import numpy, compctrl; t1 = time.perf_counter(); sys.path.insert(0, sys.argv[2]); "
    "import hostspeed; print(t1 - t0, hostspeed.rate(%d))"
)
#: kernel runs the import probe times for the host's rate after its import
IMPORT_PROBE_KERNELS = 30
#: reference kernels in one reference second: about one wall second on a
#: 2-vCPU cloud host, where a kernel takes about 1.1 ms
REF_KERNELS_PER_S = 1000.0


def import_compctrl() -> None:
    """Import numpy and compctrl from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import compctrl

    if not Path(compctrl.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"compctrl was imported from {compctrl.__file__}, not {SRC}")


def import_times() -> list:
    """(seconds, reference kernels) to import numpy and compctrl, once per
    fresh interpreter."""
    times = []
    probe = IMPORT_PROBE % IMPORT_PROBE_KERNELS
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, check=True, timeout=120)
        seconds, rate = (float(x) for x in proc.stdout.split())
        times.append((seconds, seconds * rate))
    return times


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None) -> dict:
    """Set up and run one workload; returns the full result record.

    setup_s is the median import time of fresh interpreters, taken before
    set-up and after the last operation so that it spans the run, plus the
    median set-up of the workload.  Untraced, the host-speed sampler runs
    from the first set-up to the last operation; every recorded time ``s``
    is net of the sampler's own time and ``ref`` is the same interval in
    reference kernels.  Traced runs take no samples, and their
    end-to-end section holds wall times only.
    """
    import compctrl
    import hostspeed
    import tracing
    import workloads

    wl = workloads.make(name, seed, WORK_DIR / f"{name}-{os.getpid()}", **(sizes or {}))
    tracer = tracing.Tracer() if trace else None
    undo = tracing.install(tracer, compctrl) if trace else None
    if trace:
        wl.span = tracer.call
    sampler = None if trace else hostspeed.Sampler()
    clock = time.perf_counter

    def interval(t0, t1):
        """(net seconds, reference kernels) of [t0, t1]."""
        if sampler is None:
            return t1 - t0, None
        return sampler.net(t0, t1), sampler.cost(t0, t1)

    def more(k, elapsed, records):
        """Whether to start operation k.  Untraced, it starts only if an
        operation of the mean duration so far would end inside the window,
        so a run ends near ``seconds`` even when one operation is long."""
        if trace:
            return k < wl.trace_ops
        if k == 0:
            return True
        mean = sum(r["s"] for r in records) / len(records)
        return elapsed + mean <= seconds

    imports, setups, records = import_times(), [], []
    if sampler is not None:
        sampler.start()
    try:
        while True:
            t0 = clock()
            wl.span("bench.setup", wl.setup)
            setups.append(interval(t0, clock()))
            if (trace or len(setups) >= SETUP_REPEATS
                    or sum(s for s, _ in setups) >= SETUP_BUDGET_S):
                break
        start = clock()
        k = 0
        while more(k, clock() - start, records):
            if trace:
                tracer.op = k + 1
            t0 = clock()
            try:
                out = wl.span("bench.op", wl.run, k)
            except Exception:
                out = None
                fails = [f"raised:\n{traceback.format_exc()}"]
            elapsed, ref = interval(t0, clock())
            if out is not None:
                try:
                    fails = wl.check(out)
                except Exception:
                    fails = [f"check raised:\n{traceback.format_exc()}"]
            records.append({
                "kind": out["kind"] if out else "error",
                "s": elapsed,
                "ref": ref,
                "stats": out.get("stats") if out else None,
                "failures": fails,
            })
            k += 1
    finally:
        if sampler is not None:
            sampler.stop()
        if undo is not None:
            undo()
        wl.close()

    imports += import_times()
    durations = [r["s"] for r in records]
    failed = sum(1 for r in records if r["failures"])
    end_to_end = {}
    if sampler is not None:
        import_ref = statistics.median(ref for _, ref in imports)
        setup_ref = statistics.median(ref for _, ref in setups)
        end_to_end["setup_s"] = ((import_ref + setup_ref) / REF_KERNELS_PER_S, "s")
        end_to_end["ops_per_s"] = (
            REF_KERNELS_PER_S * len(records) / sum(r["ref"] for r in records), "1/s")
    end_to_end.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_wall_s": (statistics.median(s for s, _ in imports)
                         + statistics.median(s for s, _ in setups), "s"),
        "op_wall_s.p50": (statistics.median(durations), "s"),
        "ops_per_wall_s": (len(durations) / sum(durations), "1/s"),
    })
    named, info = wl.summary(records)
    info["fail_frac"] = failed / len(records)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0,
        "end_to_end": end_to_end,
        "named": named,
        "info": info,
        "host_samples": len(sampler.durations) if sampler else 0,
        "kernel_ms.p50": 1e3 * statistics.median(sampler.durations) if sampler else None,
        "import_runs_s": [s for s, _ in imports],
        "setup_runs_s": [s for s, _ in setups],
        "import_runs_ref": [ref for _, ref in imports],
        "setup_runs_ref": [ref for _, ref in setups],
        "ops": [{"kind": r["kind"], "s": r["s"], "ref": r["ref"]} for r in records],
        "failures": [f for r in records for f in r["failures"]][:20],
    }
    if trace:
        result["per_layer"] = tracing.layer_metrics(tracer.spans, wl.counters)
        result["spans"] = len(tracer.spans)
        result["nesting_errors"] = len(tracing.check_nesting(tracer.spans))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_csv(str(OUT_DIR / f"{name}-seed{seed}-spans.csv"))
    return result


def declared_metrics(trace: bool) -> list:
    """(name, unit) of the metrics BENCHMARK.json asks for in this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(result: dict) -> dict:
    """The contract's last line: exactly the metrics BENCHMARK.json declares."""
    trace = bool(result["trace"])
    have = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for name, unit in declared_metrics(trace):
        value, got_unit = have[name]
        if got_unit != unit:
            raise ValueError(f"{name}: measured in {got_unit}, declared as {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def save(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    return path


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  ops {result['attempted']}  failed {result['failed']}")
    sections = [("end-to-end", result["end_to_end"]), ("named", result["named"])]
    if result["trace"]:
        sections.append(("per-layer", result["per_layer"]))
    for title, metrics in sections:
        print(f"-- {title}")
        for name, (value, unit) in metrics.items():
            print(f"   {name:44s} {value:>14.6g} {unit}")
    print("-- info")
    for name, value in result["info"].items():
        print(f"   {name:44s} {value}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("environment " + json.dumps(result["environment"], sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_compctrl()
    except ImportError as exc:
        print(f"error: cannot import compctrl from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    line = result_line(result)
    path = save(result)
    print_report(result)
    print(f"saved {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
