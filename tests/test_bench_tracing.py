"""The traced benchmark still finds every compctrl name it wraps.

``bench/tracing.install`` replaces functions and methods by name; a rename
under ``src/`` would break ``bench/run.py --trace 1`` with nothing else
noticing.  This installs the tracer, runs a small Boeing comparison and a
short pendulum run with its comparator, and checks the spans recorded.
"""

import importlib
import os
import sys

import numpy as np
import pytest

import compctrl
from compctrl.controllers import OfflineController, control_step, schedule_cache, synth_h2_ih
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
        w = compctrl.generate(compctrl.DisturbanceSpec("white-gaussian", {}), 50, boeing.p, seed=1)
        compctrl.compare(boeing, [("h2", h2), ("offline", OfflineController())], w)
        control_step(h2, h2.make_state(), np.zeros(boeing.n), w[0])
        record = np.random.default_rng(2).standard_normal((60, 1))
        ctrl = RelinearizingController(PendulumParams(), kind="h2", quantum=0.01)
        compctrl.mpc.run_pendulum(PendulumParams(), ctrl, record)
        compctrl.mpc.clairvoyant_comparator_run(PendulumParams(), record, quantum=0.01)
    finally:
        undo()
    assert compctrl.sim.rollout is original
    names = set(tracing.span_names(tracer.spans))
    for name in (
        "sim.generate", "sim.compare", "sim.rollout",
        "controllers.offline_optimal.riccati", "controllers.step", "model.to_ltv",
        "mpc.controller_build", "mpc.scheduled_step", "mpc.run_pendulum",
        "mpc.clairvoyant_comparator_run", "mpc.linearize_pendulum",
    ):
        assert name in names, name
    assert tracing.check_nesting(tracer.spans) == []
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mpc.comparator_passes"][0] >= 1
    assert metrics["sim.rollout.steps"][0] == 100
