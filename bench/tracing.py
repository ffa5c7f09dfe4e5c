"""Span tracing of compctrl for the traced benchmark run.

The tracer replaces compctrl's public functions at every module attribute
that holds them, so a caller's ordinary global lookup (``search`` calling
``synth_hinf``, ``sim.compare`` calling ``rollout``, ...) goes through a
wrapper that records a span.  Nothing under ``src/`` changes.  A span is
``[name, start, end, parent, op, attrs]``; spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children.

Three call sites get a span of their own on top of the callee's:

* ``search.probe``: a feasibility probe, i.e. ``synth_hinf`` or
  ``synth_competitive`` as the ``search`` module binds them;
* ``mpc.bin_synth``: ``spectral_factor_ih`` / ``synth_*`` as the ``mpc``
  module binds them, when called outside controller construction, i.e. on a
  cache miss of a scheduled controller;
* ``mpc.linearize_pendulum`` counts as a comparator pass when it runs under
  ``mpc.clairvoyant_comparator_run`` (one affine sweep per bin).
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from collections import defaultdict

LAYERS = (
    "riccati",
    "factorization",
    "search",
    "controllers",
    "model",
    "sim",
    "freq",
    "mpc",
    "cli",
)
#: layer of the benchmark's own root spans (set-up and operations)
BENCH = "bench"

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder with a call stack."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self.active: dict = defaultdict(int)

    def wrap(self, name, fn, attrs_of=None):
        """Return ``fn`` wrapped to record a span per call.

        ``attrs_of(args, kwargs, result)`` attaches a small dict.
        """
        spans, stack, active = self.spans, self._stack, self.active
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                active[name] -= 1
            if attrs_of is not None:
                rec[ATTRS] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span (used for the benchmark's own roots)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op", "attrs"])
            for i, s in enumerate(self.spans):
                attrs = "" if s[ATTRS] is None else ";".join(
                    f"{k}={v}" for k, v in s[ATTRS].items()
                )
                out.writerow(
                    [i, s[NAME], f"{s[START]:.9f}", f"{s[END]:.9f}", s[PARENT], s[OP], attrs]
                )


# ---------------------------------------------------------------------------
# installing the wrappers


def _search_attrs(args, kwargs, result):
    """What a search span keeps to split its probes into phases."""
    return {"history": list(result.history), "gamma_lo": result.gamma_lo,
            "gamma": result.gamma}


def _riccati_attrs(args, kwargs, fp):
    return {"iterations": fp.iterations, "rejected": not fp.feasible}


def _infeasible_attrs(cc):
    def attrs(args, kwargs, result):
        return {"infeasible": isinstance(result, cc.Infeasible)}

    return attrs


def _steps(args, kwargs, result):
    return {"steps": result.steps_completed}


def install(tracer: Tracer, cc) -> callable:
    """Wrap compctrl's public functions; returns a function that undoes it."""
    mods = {
        name: importlib.import_module(f"compctrl.{name}")
        for name in ("riccati", "factorization", "search", "controllers",
                     "model", "sim", "freq", "mpc", "cli")
    }
    mods["compctrl"] = cc
    saved = []

    def put(obj, attr, value):
        saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def everywhere(fn, traced, overrides=None):
        """Replace ``fn`` by ``traced`` at every module attribute holding it."""
        overrides = overrides or {}
        for mod_name, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    put(mod, attr, overrides.get(mod_name, traced))

    w = tracer.wrap
    infeasible = _infeasible_attrs(cc)

    # functions whose span needs nothing beyond its name and attributes
    plain = {
        "riccati.dare_fixed_point": (cc.riccati.dare_fixed_point, _riccati_attrs),
        "riccati.hinf_backward": (cc.riccati.hinf_backward, None),
        "factorization.whitening_fh": (cc.factorization.whitening_fh, None),
        "factorization.build_synthetic": (cc.factorization.build_synthetic, None),
        "model.build_dense_operators": (cc.model.build_dense_operators, None),
        "sim.generate": (cc.sim.generate, None),
        "sim.compare": (cc.sim.compare, None),
        "sim.rollout": (cc.sim.rollout, _steps),
        "sim.write_trace_csv": (
            cc.sim.write_trace_csv,
            lambda a, k, r: {"bytes": os.path.getsize(a[0])},
        ),
        "freq.sweep": (cc.freq.sweep, None),
        "freq.closed_loop": (cc.freq.closed_loop, None),
        "freq.sigma_max": (cc.freq.sigma_max, None),
        "freq.per_freq_cr": (cc.freq.per_freq_cr, None),
        "freq.write_sweep_csv": (cc.freq.write_sweep_csv, None),
        "mpc.run_pendulum": (cc.mpc.run_pendulum, _steps),
        "mpc.clairvoyant_comparator_run": (cc.mpc.clairvoyant_comparator_run, None),
        "search.min_gamma_hinf": (cc.search.min_gamma_hinf, _search_attrs),
        "search.min_gamma_competitive": (cc.search.min_gamma_competitive, _search_attrs),
        "controllers.offline_optimal": (cc.controllers.offline_optimal, None),
    }
    for name, (fn, attrs_of) in plain.items():
        everywhere(fn, w(name, fn, attrs_of))

    sf = cc.factorization.spectral_factor_ih
    sf_traced = w(
        "factorization.spectral_factor_ih", sf,
        lambda a, k, r: {"iterations": r.iterations},
    )

    def in_build():
        return tracer.active["mpc.controller_build"] > 0

    def bin_synth(fn, kind):
        """mpc's binding: a bin synthesis unless inside construction."""
        as_bin = w("mpc.bin_synth", fn, lambda a, k, r: {"kind": kind})

        def call(*args, **kwargs):
            return fn(*args, **kwargs) if in_build() else as_bin(*args, **kwargs)

        return call

    everywhere(sf, sf_traced, {"mpc": bin_synth(sf_traced, "factor")})

    for name in ("synth_h2_ih", "synth_hinf", "synth_competitive"):
        fn = getattr(cc.controllers, name)
        t = w(f"controllers.{name}", fn, infeasible)
        probe = w(
            "search.probe", t,
            lambda a, k, r: {"feasible": not isinstance(r, cc.Infeasible)},
        )
        everywhere(fn, t, {"search": probe, "mpc": bin_synth(t, "synth")})

    lin = cc.mpc.linearize_pendulum
    everywhere(lin, w(
        "mpc.linearize_pendulum", lin,
        lambda a, k, r: {
            "comparator": tracer.active["mpc.clairvoyant_comparator_run"] > 0
        },
    ))

    # methods callers reach through the class
    for cls in (cc.controllers.StateFeedbackController,
                cc.controllers.CompetitiveController):
        put(cls, "step", w("controllers.step", cls.step))
    put(cc.model.LtiPlant, "to_ltv", w("model.to_ltv", cc.model.LtiPlant.to_ltv))
    rc = cc.mpc.RelinearizingController
    put(rc, "__init__", w("mpc.controller_build", rc.__init__))
    put(rc, "step", w("mpc.scheduled_step", rc.step))

    def undo():
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)

    return undo


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> list:
    """Duration minus the durations of direct children, per span."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _search_phases(attrs) -> tuple[int, int, int]:
    """(doubling, bisection, audit) probe counts of one search result.

    Doubling ends at the first feasible probe.  Bisection ends at the last
    probe of either end of the final bracket (gamma_lo, gamma); every later
    probe is an audit probe, and none of those lies on the bracket's ends.
    """
    hist = attrs["history"]
    first_ok = next((i for i, (_, feas) in enumerate(hist) if feas), None)
    if first_ok is None:  # doubling hit the cap: every probe was doubling
        return len(hist), 0, 0
    ends = (attrs["gamma_lo"], attrs["gamma"])
    last = max(i for i, (g, _) in enumerate(hist) if g in ends)
    doubling = first_ok + 1
    return doubling, last + 1 - doubling, len(hist) - 1 - last


def span_names(spans) -> list:
    """Span names, with offline_optimal named after the route it took: dense
    when it built the dense operators, Riccati otherwise."""
    dense = {s[PARENT] for s in spans if s[NAME] == "model.build_dense_operators"}
    off = "controllers.offline_optimal"
    return [
        f"{off}.{'dense' if i in dense else 'riccati'}" if s[NAME] == off else s[NAME]
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans, counters=None) -> dict:
    """Every per-layer metric, name -> (value, unit)."""
    own = self_times(spans)
    names = span_names(spans)
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    incl_ms = defaultdict(float)
    max_ms = defaultdict(float)
    attrs_by = defaultdict(list)
    for i, (name, s) in enumerate(zip(names, spans)):
        dur = 1e3 * (s[END] - s[START])
        calls[name] += 1
        self_ms[name] += 1e3 * own[i]
        incl_ms[name] += dur
        max_ms[name] = max(max_ms[name], dur)
        if s[ATTRS] is not None:
            attrs_by[name].append(s[ATTRS])

    def attrs(name):
        return attrs_by.get(name, [])

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls_ms(name, key=None):
        key = key or name
        put(f"{key}.calls", calls[name], "count")
        put(f"{key}.ms", self_ms[name], "ms")

    # riccati
    calls_ms("riccati.dare_fixed_point")
    dfp = attrs("riccati.dare_fixed_point")
    put("riccati.dare_fixed_point.iterations", sum(a["iterations"] for a in dfp), "count")
    put("riccati.dare_fixed_point.max_iterations",
        max((a["iterations"] for a in dfp), default=0), "count")
    put("riccati.dare_fixed_point.rejected", sum(a["rejected"] for a in dfp), "count")
    calls_ms("riccati.hinf_backward")

    # factorization
    calls_ms("factorization.spectral_factor_ih")
    put("factorization.spectral_factor_ih.iterations",
        sum(a["iterations"] for a in attrs("factorization.spectral_factor_ih")), "count")
    calls_ms("factorization.whitening_fh")
    calls_ms("factorization.build_synthetic")

    # search
    probes = attrs("search.probe")
    phases = [
        _search_phases(a)
        for a in attrs("search.min_gamma_hinf") + attrs("search.min_gamma_competitive")
    ]
    put("search.probes", len(probes), "count")
    put("search.probes_feasible", sum(a["feasible"] for a in probes), "count")
    put("search.audit_probes", sum(p[2] for p in phases), "count")
    put("search.useful_ratio",
        sum(p[1] for p in phases) / len(probes) if probes else 0.0, "ratio")
    put("search.max_probe_ms", max_ms["search.probe"], "ms")

    # controllers
    for kind in ("h2_ih", "hinf", "competitive"):
        calls_ms(f"controllers.synth_{kind}")
    for kind in ("hinf", "competitive"):
        put(f"controllers.synth_{kind}.infeasible",
            sum(a["infeasible"] for a in attrs(f"controllers.synth_{kind}")), "count")
    calls_ms("controllers.offline_optimal.dense")
    calls_ms("controllers.offline_optimal.riccati")
    calls_ms("controllers.step")

    # model
    calls_ms("model.build_dense_operators")
    calls_ms("model.to_ltv")

    # sim
    calls_ms("sim.rollout")
    steps = sum(a["steps"] for a in attrs("sim.rollout"))
    put("sim.rollout.steps", steps, "count")
    put("sim.rollout.us_per_step",
        1e3 * incl_ms["sim.rollout"] / steps if steps else 0.0, "us")
    calls_ms("sim.generate")
    calls_ms("sim.compare")
    put("sim.write_trace_csv.ms", self_ms["sim.write_trace_csv"], "ms")
    put("sim.write_trace_csv.bytes",
        sum(a["bytes"] for a in attrs("sim.write_trace_csv")), "B")

    # freq
    for name in ("closed_loop", "sigma_max", "per_freq_cr"):
        calls_ms(f"freq.{name}")
    put("freq.write_sweep_csv.ms", self_ms["freq.write_sweep_csv"], "ms")

    # mpc (the two composite phases are inclusive times)
    put("mpc.controller_build.ms", incl_ms["mpc.controller_build"], "ms")
    bins = sum(1 for a in attrs("mpc.bin_synth") if a["kind"] == "synth")
    lookups = calls["mpc.scheduled_step"]
    put("mpc.bins_synthesized", bins, "count")
    put("mpc.bin_synth_ms", incl_ms["mpc.bin_synth"], "ms")
    put("mpc.bin_hit_ratio", (lookups - bins) / lookups if lookups else 0.0, "ratio")
    calls_ms("mpc.run_pendulum")
    put("mpc.run_pendulum.steps", sum(a["steps"] for a in attrs("mpc.run_pendulum")), "count")
    calls_ms("mpc.clairvoyant_comparator_run")
    put("mpc.comparator_passes",
        sum(1 for a in attrs("mpc.linearize_pendulum") if a["comparator"]), "count")

    # cli
    for sub in ("synth", "simulate", "freq", "mpc", "verify"):
        put(f"cli.{sub}.ms", self_ms[f"cli.{sub}"], "ms")
    put("cli.bytes_written", (counters or {}).get("cli.bytes_written", 0), "B")

    # layer self time as a share of traced wall time
    wall = sum(e - s for _, s, e, parent, *_ in spans if parent < 0)
    by_layer = defaultdict(float)
    for i, s in enumerate(spans):
        by_layer[s[NAME].split(".", 1)[0]] += own[i]
    for layer in LAYERS + (BENCH,):
        put(f"layer.{layer}.self_share", 100.0 * by_layer[layer] / wall if wall else 0.0, "%")
    put("trace.wall_ms", 1e3 * wall, "ms")
    return out


def check_nesting(spans) -> list:
    """Spans must nest: every child lies inside its parent's interval."""
    bad = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0 and not (spans[p][START] <= s[START] <= s[END] <= spans[p][END]):
            bad.append(i)
    return bad

