"""The traced benchmark still finds every compctrl name it wraps.

``bench/tracing.install`` replaces functions and methods by name; a rename
under ``src/`` would break ``bench/run.py --trace 1`` with nothing else
noticing.  This installs the tracer, runs a small Boeing comparison, the
two Boeing competitive searches (infinite and finite horizon), a short
pendulum run with its comparator and a competitive scheduled controller
that meets an uncached bin, and checks the spans recorded; a second test
does the same for a Boeing frequency sweep.
"""

import importlib
import os
import sys

import numpy as np
import pytest

import compctrl
from compctrl.controllers import (
    OfflineController, control_step, schedule_cache, synth_h2_ih, synthetic_cache,
)
from compctrl.mpc import PendulumParams, RelinearizingController

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture()
def tracing():
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def test_tracer_wraps_every_name_it_looks_for(tracing, boeing):
    h2 = synth_h2_ih(boeing)
    original = compctrl.sim.rollout
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, compctrl)
    try:
        schedule_cache.clear()  # so the comparison misses and replicates the plant
        synthetic_cache.clear()  # so the searches and the new bin build theirs
        w = compctrl.generate(compctrl.DisturbanceSpec("white-gaussian", {}), 50, boeing.p, seed=1)
        compctrl.compare(boeing, [("h2", h2), ("offline", OfflineController())], w)
        control_step(h2, h2.make_state(), np.zeros(boeing.n), w[0])
        record = np.random.default_rng(2).standard_normal((60, 1))
        ctrl = RelinearizingController(PendulumParams(), kind="h2", quantum=0.01)
        compctrl.mpc.run_pendulum(PendulumParams(), ctrl, record)
        compctrl.mpc.clairvoyant_comparator_run(PendulumParams(), record, quantum=0.01)
        for horizon in (None, 30):
            assert compctrl.min_gamma_competitive(boeing, horizon=horizon, audit=False).ok
        competitive = RelinearizingController(
            PendulumParams(), gamma_policy={"fixed": 3.8}, quantum=0.01
        )
        # x0 starts two bins from the one built at construction
        compctrl.mpc.run_pendulum(PendulumParams(), competitive, record[:5], x0=(0.02, 0.0))
    finally:
        undo()
    assert compctrl.sim.rollout is original
    names = set(tracing.span_names(tracer.spans))
    for name in (
        "sim.generate", "sim.compare", "sim.rollout",
        "controllers.offline_optimal.riccati", "controllers.step", "model.to_ltv",
        "mpc.controller_build", "mpc.scheduled_step", "mpc.run_pendulum",
        "mpc.clairvoyant_comparator_run", "mpc.linearize_pendulum", "mpc.bin_synth",
        "search.min_gamma_competitive", "factorization.build_synthetic",
        "factorization.whitening_fh", "factorization.spectral_factor_ih",
    ):
        assert name in names, name
    assert tracing.check_nesting(tracer.spans) == []
    spans = tracer.spans

    def ancestors(i):
        while spans[i][tracing.PARENT] >= 0:
            i = spans[i][tracing.PARENT]
            yield spans[i][tracing.NAME]

    builds = [i for i, s in enumerate(spans) if s[tracing.NAME] == "factorization.build_synthetic"]
    # one synthetic plant per search, and one for the uncached bin
    assert sum("search.min_gamma_competitive" in ancestors(i) for i in builds) == 2
    assert sum("mpc.bin_synth" in ancestors(i) for i in builds) == 1
    # build_synthetic reaches its factors through the module's globals
    for s in spans:
        if s[tracing.NAME] in ("factorization.whitening_fh", "factorization.spectral_factor_ih"):
            assert spans[s[tracing.PARENT]][tracing.NAME] == "factorization.build_synthetic"
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mpc.comparator_passes"][0] >= 1
    assert metrics["sim.rollout.steps"][0] == 100


def test_tracer_wraps_the_sweep(tracing, boeing):
    # the traced boeing-evaluate and cli-pipeline workloads sweep
    named = {"h2": synth_h2_ih(boeing), "zero": compctrl.ZeroController(m=boeing.m)}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, compctrl)
    try:
        compctrl.freq.sweep(boeing, named, 65)
    finally:
        undo()
    spans = tracer.spans
    assert {"freq.sweep", "freq.closed_loop"} <= set(tracing.span_names(spans))
    assert tracing.check_nesting(spans) == []
    loops = [s for s in spans if s[tracing.NAME] == "freq.closed_loop"]
    assert [spans[s[tracing.PARENT]][tracing.NAME] for s in loops] == ["freq.sweep"] * 2
    assert tracing.layer_metrics(spans)["freq.closed_loop.calls"][0] == 2
