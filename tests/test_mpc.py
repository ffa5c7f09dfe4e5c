"""Tests for the relinearizing pendulum controller and its comparator."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compctrl import (
    DisturbanceSpec,
    MpcInfeasibleError,
    PendulumParams,
    PendulumScenario,
    RelinearizingController,
    clairvoyant_comparator_run,
    generate,
    linearize_pendulum,
    min_gamma_competitive,
    offline_optimal,
    pendulum_step,
    run_pendulum,
    run_scenario,
)
from compctrl import controllers, mpc
from compctrl.controllers import ZeroController, schedule_cache
from compctrl.mpc import scenario_from_json_dict, scenario_to_json_dict
from compctrl.sim import rollout

import oracles
from conftest import assert_same_rollout, rollout_digest

QUANTUM = 0.05  # coarse bins keep per-test synthesis counts small


# ---------------------------------------------------------------------------
# dynamics and linearization


def test_pendulum_step_euler_formula():
    p = PendulumParams()
    x = np.array([0.3, -0.2])
    nxt = pendulum_step(p, x, u=[0.5], w=[-0.1])
    acc = math.sin(0.3) + (0.5 - 0.1) * math.cos(0.3)
    assert nxt[0] == 0.3 + 1e-3 * (-0.2)
    assert nxt[1] == -0.2 + 1e-3 * acc


def test_linearization_at_origin_frozen():
    plant = linearize_pendulum(PendulumParams(), 0.0)
    assert_array_equal(plant.A, [[1.0, 1e-3], [1e-3, 1.0]])
    assert_array_equal(plant.Bu, [[0.0], [1e-3]])
    assert_array_equal(plant.Bw, [[0.0], [1e-3]])
    assert_array_equal(plant.Q, np.eye(2))
    assert_array_equal(plant.R_half, np.eye(1))


@pytest.mark.parametrize("name", ["m", "l", "g", "J", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pendulum_params_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"^pendulum {name} must be finite"):
        PendulumParams(**{name: value})


@pytest.mark.parametrize("name", ["J", "dt"])
@pytest.mark.parametrize("value", [0.0, -0.01])
def test_pendulum_step_and_inertia_must_be_positive(name, value):
    with pytest.raises(ValueError, match=re.escape(
            f"pendulum {name} must be finite and > 0, got {value!r}")):
        PendulumParams(**{name: value})


def test_pendulum_params_may_be_zero_or_negative_where_nothing_divides():
    p = PendulumParams(m=0.0, l=-1.0, g=-9.8)
    assert (p.m, p.l, p.g) == (0.0, -1.0, -9.8)


def test_linearization_scales_with_cos_theta():
    p = PendulumParams(m=2.0, l=0.5, g=9.8, J=1.5, dt=0.01)
    theta = math.pi / 3
    plant = linearize_pendulum(p, theta)
    k = 2.0 * 9.8 * 0.5 / 1.5
    c = math.cos(theta)
    assert plant.A[1, 0] == 0.01 * k * c
    assert plant.Bu[1, 0] == 0.01 * (0.5 / 1.5) * c
    # the input channel vanishes as the arm goes horizontal
    flat = linearize_pendulum(p, math.pi / 2)
    assert abs(flat.Bu[1, 0]) < 1e-17


def test_linear_and_nonlinear_dynamics_agree_near_origin():
    params = PendulumParams()
    ctrl = RelinearizingController(params, kind="h2", quantum=QUANTUM)
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 0.01}), 200, 1, seed=2)
    a = run_pendulum(params, ctrl, w, dynamics="nonlinear")
    b = run_pendulum(params, ctrl, w, dynamics="linear")
    assert a.status == b.status == "ok"
    assert sorted(ctrl._cache) == [0]  # both runs stay in the bin at theta = 0
    assert np.abs(a.x - b.x).max() < 1e-6


def test_run_pendulum_validates_dynamics():
    params = PendulumParams()
    ctrl = RelinearizingController(params, kind="h2", quantum=QUANTUM)
    with pytest.raises(ValueError, match="dynamics"):
        run_pendulum(params, ctrl, np.zeros((4, 1)), dynamics="exact")


def test_misspelt_dynamics_rejected_by_both_entry_points():
    # a misspelt model must not fall through to the nonlinear one
    params = PendulumParams()
    ctrl = RelinearizingController(params, kind="h2", quantum=QUANTUM)
    with pytest.raises(ValueError, match="dynamics"):
        run_pendulum(params, ctrl, np.zeros((4, 1)), dynamics="lineer")
    with pytest.raises(ValueError, match="dynamics"):
        clairvoyant_comparator_run(
            params, np.ones((30, 1)), quantum=0.05, dynamics="lineer"
        )


@pytest.mark.parametrize("x0", [(0.0, 0.0, 0.0), (0.1,), (), (math.nan, 0.0), (math.inf, 0.0)])
def test_both_pendulum_rollouts_name_a_bad_x0(x0):
    params = PendulumParams()
    ctrl = RelinearizingController(params, kind="h2", quantum=QUANTUM)
    with pytest.raises(ValueError, match="x0"):
        run_pendulum(params, ctrl, np.zeros((4, 1)), x0=x0)
    with pytest.raises(ValueError, match="x0"):
        clairvoyant_comparator_run(params, np.zeros((4, 1)), x0=x0, quantum=QUANTUM)


# ---------------------------------------------------------------------------
# controller construction


def test_kind_validated():
    with pytest.raises(ValueError, match="kind"):
        RelinearizingController(PendulumParams(), kind="lqr")


def test_h2_kind_has_no_gamma():
    ctrl = RelinearizingController(PendulumParams(), kind="h2", quantum=QUANTUM)
    assert ctrl.gamma is None


def test_fixed_gamma_policy_is_held():
    ctrl = RelinearizingController(
        PendulumParams(),
        kind="competitive",
        gamma_policy={"fixed": 3.7},
        quantum=QUANTUM,
    )
    assert ctrl.gamma == 3.7


def test_margin_gamma_policy_scales_bisection_optimum():
    # Use a faster sampling rate so the fixed-point solves converge quickly.
    params = PendulumParams(dt=0.01)
    plant0 = linearize_pendulum(params, 0.0)
    found = min_gamma_competitive(plant0, audit=False)
    assert found.ok
    ctrl = RelinearizingController(
        params, kind="competitive", gamma_policy={"margin": 1.05}, quantum=QUANTUM
    )
    assert ctrl.gamma == pytest.approx(1.05 * found.gamma, rel=1e-12)


def test_searched_level_and_first_bin_build_one_synthetic_plant(monkeypatch):
    # the level search and the first bin's synthesis pose the same
    # linearization, whose synthetic plant is built once
    build, calls = controllers.build_synthetic, []
    monkeypatch.setattr(controllers, "build_synthetic", lambda p: calls.append(p) or build(p))
    controllers.synthetic_cache.clear()
    ctrl = RelinearizingController(PendulumParams(dt=0.01), kind="competitive", quantum=QUANTUM)
    assert ctrl.gamma is not None
    assert len(calls) == 1


def test_infeasible_fixed_gamma_raises_at_construction():
    with pytest.raises(MpcInfeasibleError, match="initial linearization"):
        RelinearizingController(
            PendulumParams(),
            kind="hinf",
            gamma_policy={"fixed": 1e-3},
            quantum=QUANTUM,
        )
    with pytest.raises(MpcInfeasibleError, match="initial linearization"):
        RelinearizingController(
            PendulumParams(),
            kind="competitive",
            gamma_policy={"fixed": 1.0001},
            quantum=QUANTUM,
        )


def test_first_bin_failure_is_an_infeasible_linearization():
    # with quantum = theta_init = pi/2 the first bin's linearization has
    # B_u = cos(pi/2) dt, about 6e-20, so (A, B_u) is not stabilizable; the
    # factorization error of the level search becomes the verdict a later
    # bin's error becomes
    with pytest.raises(
        MpcInfeasibleError,
        match=r"^initial linearization: precondition failed: \(A, B_u\) not stabilizable$",
    ):
        RelinearizingController(
            PendulumParams(), kind="competitive", quantum=math.pi / 2, theta_init=math.pi / 2
        )


def test_a_level_search_without_a_feasible_level_fails_the_first_bin():
    # at theta = pi/2 the input channel is cos(pi/2) dt, about 6e-20: the
    # H-infinity search finds no level, and says why
    with pytest.raises(MpcInfeasibleError, match="^initial linearization: unbounded-gamma$"):
        RelinearizingController(
            PendulumParams(), kind="hinf", quantum=math.pi / 2, theta_init=math.pi / 2
        )


def test_a_bin_whose_synthesis_raises_ends_the_run():
    # x0 = 1.0 lies in bin 1, theta = pi/2, whose linearization LQR refuses
    # as unstabilizable: the run ends there, at step 0, and a step names the bin
    params = PendulumParams()
    ctrl = RelinearizingController(params, kind="h2", quantum=math.pi / 2)
    res = run_pendulum(params, ctrl, np.zeros((5, 1)), x0=(1.0, 0.0))
    assert res.status == "infeasible-linearization"
    assert res.steps_completed == 0
    ctrl.reset(np.zeros((5, 1)))
    with pytest.raises(MpcInfeasibleError,
                       match=r"^bin 1: precondition failed: \(A, B_u\) not stabilizable$"):
        ctrl.step(np.array([1.0, 0.0]))
    assert ctrl.bins_synthesized == 1  # the initial bin alone


def test_bad_arguments_are_argument_errors():
    # not a bin's failure, so not an MpcInfeasibleError
    with pytest.raises(ValueError, match="causality"):
        RelinearizingController(PendulumParams(), kind="h2", causality="acausal")
    for policy in ({"fixed": 0.0}, {"fixed": -1.0}, {"fixed": math.nan}, {"margin": 0.0}):
        with pytest.raises(ValueError, match="finite and positive"):
            RelinearizingController(PendulumParams(), kind="hinf", gamma_policy=policy)


@pytest.mark.parametrize("kind", ["competitive", "h2"])
def test_a_misspelt_gamma_policy_key_is_refused(kind):
    # a misspelt key must not be dropped: {"fixd": 3.8} would run the
    # competitive kind at the searched level instead of 3.8
    with pytest.raises(ValueError, match=r"must be 'fixed' or 'margin', got \['fixd'\]"):
        RelinearizingController(
            PendulumParams(), kind=kind, gamma_policy={"fixd": 3.8}, quantum=QUANTUM
        )
    with pytest.raises(ValueError, match="gamma_policy JSON field 'fixed' is null"):
        RelinearizingController(
            PendulumParams(), kind=kind, gamma_policy={"fixed": None}, quantum=QUANTUM
        )


def test_initial_bin_follows_theta_init():
    ctrl = RelinearizingController(
        PendulumParams(),
        kind="h2",
        quantum=QUANTUM,
        theta_init=0.2,
    )
    assert ctrl._bin_init == 4


# ---------------------------------------------------------------------------
# rollouts


def test_rollout_cost_accounting():
    params = PendulumParams()
    ctrl = RelinearizingController(params, kind="h2", quantum=QUANTUM)
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 150, 1, seed=4)
    res = run_pendulum(params, ctrl, w)
    assert res.status == "ok"
    assert res.steps_completed == 150
    expected = np.einsum("ti,ti->t", res.x[:-1], res.x[:-1]) + res.u[:, 0] ** 2
    assert_allclose(res.step_cost, expected, rtol=1e-12, atol=0)
    assert_allclose(res.cum_cost, np.cumsum(res.step_cost), rtol=1e-12, atol=0)
    # replay the forward-Euler recursion from the logged inputs
    x = np.array([0.0, 0.0])
    for t in range(150):
        assert_allclose(res.x[t], x, rtol=0, atol=1e-12)
        x = pendulum_step(params, x, res.u[t], w[t])


def test_competitive_rollout_logs_wprime():
    params = PendulumParams()
    ctrl = RelinearizingController(
        params,
        kind="competitive",
        gamma_policy={"fixed": 3.7},
        quantum=QUANTUM,
    )
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 80, 1, seed=6)
    res = run_pendulum(params, ctrl, w)
    assert res.status == "ok"
    assert_array_equal(res.wprime[0], np.zeros(2))
    assert np.any(res.wprime[1:] != 0)

    h2 = RelinearizingController(params, kind="h2", quantum=QUANTUM)
    res2 = run_pendulum(params, h2, w)
    assert_array_equal(res2.wprime, np.zeros((80, 2)))


@pytest.mark.parametrize("kind", ["competitive", "h2", "hinf"])
def test_run_pendulum_is_bit_identical_to_stepping(kind):
    # run_pendulum calls each bin's bound law: the same bits, and the same
    # bin counters, as a loop over the public step; a law without a filter
    # leaves no w' (None), which the rollout logs as a row of zeros
    params = PendulumParams()
    policy = {"competitive": {"fixed": 3.8}, "hinf": {"fixed": 5.0}}.get(kind)
    w = generate(DisturbanceSpec("step", {"levels": [1.5, -1.5], "switch_times": [150]}),
                 300, 1, seed=3)
    w += generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 300, 1, seed=3)

    def make():
        return RelinearizingController(params, kind=kind, gamma_policy=policy, quantum=0.01)

    ran, stepped = make(), make()
    res = run_pendulum(params, ran, w)
    assert res.status == "ok"
    stepped.reset()
    x, running = np.zeros(2), 0.0
    xs, us, wps, costs, cums = [x], [], [], [], []
    for t in range(300):
        u = stepped.step(x, w[t])
        assert (stepped.last_wprime is None) == (kind != "competitive")
        wps.append(np.zeros(2) if stepped.last_wprime is None else stepped.last_wprime)
        cost = float(x @ np.eye(2) @ x + u @ u)
        running += cost
        us.append(u)
        costs.append(cost)
        cums.append(running)
        x = pendulum_step(params, x, u, w[t])
        xs.append(x)
    for got, want in ((res.x, xs), (res.u, us), (res.wprime, wps),
                      (res.step_cost, costs), (res.cum_cost, cums)):
        assert np.array_equal(got, np.array(want))
    assert len(ran._cache) > 1  # the run crossed bins
    assert (ran.bins_synthesized, ran.bin_cache_hits) == (
        stepped.bins_synthesized, stepped.bin_cache_hits)
    assert ran.bins_synthesized + ran.bin_cache_hits == 1 + 300


def test_infeasible_bin_truncates_run():
    # A sustained torque drags theta toward bins whose optimal ratio exceeds
    # the fixed level resolved near the origin, so the run must stop with the
    # infeasibility status rather than silently switching behavior.  The
    # exact per-bin optima are gamma = 2.6282 at theta = 0.25 and 2.6359 at
    # theta = 0.30, so the held level 2.632 fails first in the bin at 0.30.
    params = PendulumParams()
    ctrl = RelinearizingController(
        params,
        kind="competitive",
        gamma_policy={"fixed": 2.632},
        quantum=QUANTUM,
    )
    w = generate(DisturbanceSpec("step", {"levels": [2.0]}), 1500, 1)
    res = run_pendulum(params, ctrl, w)
    assert res.status == "infeasible-linearization"
    assert 0 < res.steps_completed < 1500
    assert 0.25 < res.x[res.steps_completed, 0] < 0.31
    # arrays are truncated consistently, like any other failed rollout
    assert res.w.shape[0] == res.steps_completed
    assert res.x.shape[0] == res.steps_completed + 1


def _pendulum_oracle(params, ctrl, w, x0=(0.0, 0.0), dynamics="nonlinear"):
    """The parent's loop: a fresh controller stepped by its public ``step``
    (each bin's law bound to that step's w alone), costs summed per step."""
    T = w.shape[0]
    ctrl.reset()
    lin = linearize_pendulum(params, ctrl._bin_init * ctrl.quantum).to_ltv(T)
    lin = dataclasses.replace(lin, x0=np.asarray(x0, dtype=float))

    def policy(t, x, w_t):
        return ctrl.step(x, w_t), ctrl.last_wprime

    def advance(x, u, w_t):
        return pendulum_step(params, x, u, w_t)

    return oracles.stepped_rollout(
        lin, policy, w, advance=None if dynamics == "linear" else advance,
        stops=(MpcInfeasibleError,))


@pytest.mark.parametrize("dynamics", ["nonlinear", "linear"])
@pytest.mark.parametrize("kind", ["competitive", "h2", "hinf"])
def test_run_pendulum_equals_stepped_oracle(kind, dynamics):
    # each bin's law is bound to the tail of the record at its first visit,
    # and the costs come after the loop: the same bits as the oracle's loop
    params = PendulumParams()
    policy = {"competitive": {"fixed": 3.8}, "hinf": {"fixed": 5.0}}.get(kind)
    w = 1.5 * generate(DisturbanceSpec("sine-mean-gaussian", {}), 400, 1, seed=8)

    def make():
        return RelinearizingController(params, kind=kind, gamma_policy=policy, quantum=0.01)

    ran, stepped = make(), make()
    res = run_pendulum(params, ran, w, x0=(0.02, 0.0), dynamics=dynamics)
    assert res.status == "ok"
    assert len(ran._cache) > 1
    assert_same_rollout(res, _pendulum_oracle(params, stepped, w, (0.02, 0.0), dynamics))
    assert (ran.bins_synthesized, ran.bin_cache_hits) == (
        stepped.bins_synthesized, stepped.bin_cache_hits)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.3, 0.0)], ids=["mid-way", "at-step-0"])
def test_stopped_pendulum_runs_equal_stepped_oracle(x0):
    # MpcInfeasibleError cuts the run in a bin infeasible at the held level
    # (see test_infeasible_bin_truncates_run): mid-way from rest, or at step
    # 0 when the run starts in that bin, leaving empty arrays and a total of
    # 0.0 as a Python float
    params = PendulumParams()

    def make():
        return RelinearizingController(
            params, kind="competitive", gamma_policy={"fixed": 2.632}, quantum=QUANTUM)

    w = generate(DisturbanceSpec("step", {"levels": [2.0]}), 1500, 1)
    res = run_pendulum(params, make(), w, x0=x0)
    assert res.status == "infeasible-linearization"
    assert_same_rollout(res, _pendulum_oracle(params, make(), w, x0))
    if x0[0] == 0.3:
        assert res.steps_completed == 0
        assert res.u.shape == (0, 1) and res.x.shape == (1, 2)
        assert res.step_cost.shape == res.cum_cost.shape == (0,)
        assert type(res.total_cost) is float and res.total_cost == 0.0
    else:
        assert 0 < res.steps_completed < 1500


def test_competitive_pendulum_returns_from_an_initial_angle():
    # each bin's law reads the measured angle, so with no disturbance the
    # scheduled ratio-optimal controller brings the pendulum back upright
    params = PendulumParams()
    ctrl = RelinearizingController(params, kind="competitive", quantum=0.01)
    res = run_pendulum(params, ctrl, np.zeros((5000, 1)), x0=(0.05, 0.0))
    assert res.status == "ok"
    assert abs(res.x[-1, 0]) < 0.01


def test_divergence_truncates_pendulum_runs():
    # a huge torque throws the state past the divergence norm in one step;
    # the controller and the comparator share the rollout loop's truncation
    params = PendulumParams()
    w = np.full((50, 1), 1e12)
    ctrl = RelinearizingController(params, kind="h2", quantum=0.01)
    runs = (
        run_pendulum(params, ctrl, w),
        clairvoyant_comparator_run(params, w, quantum=0.01),
    )
    for res in runs:
        assert res.status == "diverged"
        assert res.steps_completed == 1
        assert res.x.shape == (2, 2)
        assert res.u.shape == (1, 1)
        assert res.w.shape == (1, 1)
        assert res.total_cost == res.cum_cost[-1]


@pytest.mark.parametrize("shape", [(50, 2), (2, 50), (50, 1, 1), ()])
def test_disturbance_record_must_be_one_channel(shape):
    # the pendulum has one disturbance channel: a (50, 2) record must not
    # be read as 100 steps of one channel, nor fail deep inside a matmul
    params = PendulumParams()
    w = np.zeros(shape)
    ctrl = RelinearizingController(params, kind="h2", quantum=0.01)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        clairvoyant_comparator_run(params, w, quantum=0.01)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        run_pendulum(params, ctrl, w)


def test_disturbance_record_may_be_flat():
    params = PendulumParams()
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 60, 1, seed=4)
    ctrl = RelinearizingController(params, kind="h2", quantum=0.01)
    for run in (
        lambda v: clairvoyant_comparator_run(params, v, quantum=0.01),
        lambda v: run_pendulum(params, ctrl, v),
    ):
        column, flat = run(w), run(w[:, 0])
        assert flat.steps_completed == 60
        assert_array_equal(flat.u, column.u)


@pytest.mark.parametrize("quantum", [0.0, -0.05, np.nan, np.inf])
def test_quantum_must_be_finite_and_positive(quantum):
    params = PendulumParams()
    with pytest.raises(ValueError, match="quantum"):
        RelinearizingController(params, kind="h2", quantum=quantum)
    with pytest.raises(ValueError, match="quantum"):
        clairvoyant_comparator_run(params, np.zeros(10), quantum=quantum)


def test_a_bin_beyond_any_int_names_the_quantum():
    # 1e-320 passes the quantum check, but theta / 1e-320 overflows an int
    # as soon as the pendulum leaves theta = 0
    params = PendulumParams()
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 20, 1, seed=4)
    ctrl = RelinearizingController(params, kind="h2", quantum=1e-320)
    with pytest.raises(ValueError, match="quantum 1e-320 is too small"):
        run_pendulum(params, ctrl, w)
    with pytest.raises(ValueError, match="quantum 1e-320 is too small"):
        clairvoyant_comparator_run(params, w, quantum=1e-320)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_a_non_finite_angle_is_refused_by_name(theta):
    # a non-finite angle has no bin; the error names theta, not the quantum
    # (inf would overflow the bin index, NaN would fail its conversion)
    ctrl = RelinearizingController(PendulumParams(), kind="h2", quantum=0.01)
    for record, w in ((np.zeros((5, 1)), None), (None, [0.0])):
        ctrl.reset(record)
        with pytest.raises(ValueError, match=r"^theta must be finite, got (-?inf|nan)$"):
            ctrl.step(np.array([theta, 0.0]), w)


def test_a_step_reads_the_bound_record():
    # after reset(w) a step reads row t of w itself; after reset() it must
    # be given w_t
    params = PendulumParams()
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 5, 1, seed=2)
    bound, given = (RelinearizingController(params, kind="h2", quantum=0.05) for _ in range(2))
    bound.reset(w)
    given.reset()
    x = np.array([0.01, -0.02])
    for t in range(5):
        assert np.array_equal(bound.step(x), given.step(x, w[t]))
    given.reset()
    with pytest.raises(ValueError, match="needs w_t"):
        given.step(x)


def test_a_refused_step_changes_neither_the_state_nor_last_wprime():
    # a live step is the bin controller's shared step, which refuses a
    # missing w_t and one of the wrong length by name; after reset(w) a
    # step reads the record and refuses a given w_t instead of dropping it.
    # A refusal moves no bin counter, in a cached bin or an unvisited one
    params = PendulumParams()
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 5, 1, seed=2)
    x, unvisited = np.array([0.01, -0.02]), np.array([0.5, 0.0])

    def make():
        return RelinearizingController(
            params, kind="competitive", gamma_policy={"fixed": 3.8}, quantum=0.05)

    ctrl, unrefused = make(), make()

    def snapshot():
        state = ctrl._state
        counters = ctrl.bins_synthesized, ctrl.bin_cache_hits
        return state.t, state.z.tolist(), ctrl.last_wprime.tolist(), counters

    refusals = {
        "live": [(x, None, "^step needs w_t$"),
                 (x, [1.0, 2.0], "^disturbance has dimension 2, expected 1$"),
                 (unvisited, None, "^step needs w_t$")],
        "record": [(x, [123.0], r"^step takes no w_t: reset\(w\) bound a record$"),
                   (unvisited, [123.0], r"^step takes no w_t: reset\(w\) bound a record$")],
    }
    for mode, refused in refusals.items():
        record = w if mode == "record" else None
        ctrl.reset(record)
        unrefused.reset(record)
        for t in range(2):  # so that z and w' are nonzero
            given = None if mode == "record" else w[t]
            assert np.array_equal(ctrl.step(x, given), unrefused.step(x, given))
        before = snapshot()
        assert np.any(before[1]) and np.any(before[2])
        for x_t, w_t, message in refused:
            with pytest.raises(ValueError, match=message):
                ctrl.step(x_t, w_t)
            assert snapshot() == before
        given = None if mode == "record" else w[2]
        assert np.array_equal(ctrl.step(x, given), unrefused.step(x, given))
        assert np.array_equal(ctrl.last_wprime, unrefused.last_wprime)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_disturbance_diverges_after_one_step(bad):
    # a NaN or inf state has a NaN or inf norm, which the one divergence
    # test of the rollout loop catches at the first step
    params = PendulumParams()
    w = np.zeros((20, 1))
    w[0] = bad
    ctrl = RelinearizingController(params, kind="h2", quantum=0.01)
    runs = (
        rollout(linearize_pendulum(params, 0.0), ZeroController(m=1), w),
        run_pendulum(params, ctrl, w),
        clairvoyant_comparator_run(params, w, quantum=0.01),
    )
    for res in runs:
        assert res.status == "diverged"
        assert res.steps_completed == 1
        assert res.x.shape == (2, 2) and res.u.shape == (1, 1)
        assert res.w.shape == (1, 1) and res.step_cost.shape == (1,)
        assert not np.all(np.isfinite(res.x[1]))


def test_deterministic_across_fresh_controllers():
    scenario = PendulumScenario(
        steps=250,
        disturbance=DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
        kind="competitive",
        gamma_policy={"fixed": 3.7},
        quantum=QUANTUM,
    )
    a = run_scenario(scenario, seed=3)
    b = run_scenario(scenario, seed=3)
    assert_array_equal(a["rollout"].x, b["rollout"].x)
    assert_array_equal(a["rollout"].u, b["rollout"].u)
    assert a["ratio_to_comparator"] == b["ratio_to_comparator"]


def test_warm_cache_is_visit_order_independent():
    # Each bin's gains come from its own linearization alone, never from
    # whichever bin happened to be solved before it, so a controller reused
    # across seeds replays exactly the trajectories that fresh controllers
    # produce.
    scenario = PendulumScenario(
        steps=400,
        disturbance=DisturbanceSpec(
            "mixture",
            {
                "components": [
                    DisturbanceSpec("step", {"levels": [1.5]}),
                    DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
                ],
                "weights": [1.0, 1.0],
            },
        ),
        kind="competitive",
        gamma_policy={"fixed": 3.8},
        quantum=QUANTUM,
    )
    shared_3 = run_scenario(scenario, seed=3)
    shared = shared_3["controller"]
    bins_after_3 = sorted(shared._cache)
    assert len(bins_after_3) > 1  # the first run populated extra bins
    shared_7 = run_scenario(scenario, seed=7, controller=shared)

    fresh_7 = run_scenario(scenario, seed=7)
    assert_array_equal(shared_7["rollout"].x, fresh_7["rollout"].x)
    assert_array_equal(shared_7["rollout"].u, fresh_7["rollout"].u)


# ---------------------------------------------------------------------------
# comparator


def test_comparator_matches_offline_optimal_on_linear_single_bin():
    # With one bin (huge quantum) and linear dynamics the receding-horizon
    # clairvoyant comparator solves the same quadratic program as the batch
    # clairvoyant optimum, so the two must coincide to rounding.
    params = PendulumParams()
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 200, 1, seed=5)
    comp = clairvoyant_comparator_run(params, w, quantum=1e6, dynamics="linear")
    assert comp.status == "ok"
    lin = linearize_pendulum(params, 0.0)
    u_opt, opt = offline_optimal(lin.to_ltv(200), w)
    assert_allclose(comp.total_cost, opt, rtol=1e-10, atol=0)
    assert np.abs(comp.u - u_opt).max() < 1e-12


def test_comparator_applies_each_bins_clairvoyant_policy():
    # at step t in bin b the comparator applies u_t = -K_t x_t - h_t of the
    # clairvoyant policy over the whole record for bin b's linearization,
    # though it binds that policy only at the bin's first visit: checked
    # against the independent sweep oracle on a record visiting many bins
    params, quantum, T = PendulumParams(), 0.01, 300
    spec = DisturbanceSpec(
        "mixture",
        {
            "components": [
                DisturbanceSpec("step", {"levels": [1.5]}),
                DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
            ],
        },
    )
    w = generate(spec, T, 1, seed=4)
    res = clairvoyant_comparator_run(params, w, quantum=quantum)
    assert res.status == "ok"
    policies = {}
    for t, x in enumerate(res.x[:T]):
        b = round(x[0] / quantum)
        if b not in policies:
            plant = linearize_pendulum(params, b * quantum).to_ltv(T)
            policies[b] = oracles.affine_sweep(plant, w)
        K, h = policies[b]
        assert_allclose(res.u[t], -(K[t] @ x) - h[t], rtol=1e-10, atol=1e-13)
    assert len(policies) > 2  # bins first visited after step 0


def test_comparator_is_independent_of_its_schedule_cache(monkeypatch):
    # the shared cache keys a schedule by the bytes of its linearization and
    # T alone, so a cold cache, one warmed by other records, one also filled
    # by another family and one last filled with another bin width give
    # identical runs; a cold run makes one backward pass per bin, a warm one
    # binds the cached bins of its first visit in one
    passes = []
    affine_pass = controllers._affine_pass

    def counted_pass(schedules, w):
        passes.append(len(schedules))
        return affine_pass(schedules, w)

    monkeypatch.setattr(controllers, "_affine_pass", counted_pass)
    params = PendulumParams()
    spec = DisturbanceSpec(
        "mixture",
        {
            "components": [
                DisturbanceSpec("step", {"levels": [1.5]}),
                DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
            ],
            "weights": [1.0, 1.0],
        },
    )
    w = generate(spec, 300, 1, seed=4)

    def run():
        return clairvoyant_comparator_run(params, w, quantum=0.01)

    schedule_cache.clear()
    passes.clear()
    cold = run()
    bins = set(np.round(cold.x[:-1, 0] / 0.01).astype(int))
    assert len(schedule_cache) > 1  # the record visits several bins
    # bins b and -b share a linearization (cos is even); this record has b >= 0
    assert min(bins) >= 0
    assert len(passes) == len(bins) > 2
    for seed in (5, 6):
        clairvoyant_comparator_run(params, generate(spec, 300, 1, seed=seed), quantum=0.01)
    passes.clear()
    warm = run()
    assert len(passes) <= 2
    clairvoyant_comparator_run(PendulumParams(dt=2e-3), w[:200], quantum=0.01)
    other_family = run()
    schedule_cache.clear()
    clairvoyant_comparator_run(params, w, quantum=0.02)
    other_quantum = run()
    for res in (warm, other_family, other_quantum):
        assert_array_equal(res.x, cold.x)
        assert_array_equal(res.u, cold.u)
        assert res.total_cost == cold.total_cost
    for schedule in schedule_cache.values():
        for arr in schedule:
            with pytest.raises(ValueError):
                arr[0] = 0.0


@pytest.mark.parametrize("quantum", [2 * math.pi, math.pi], ids=["2pi", "pi"])
def test_comparator_scan_stops_where_bins_share_a_linearization(monkeypatch, quantum):
    # the linearization reads theta through cos alone, so at these widths
    # every bin (2 pi) or every other bin (pi) has one cached schedule; a
    # warm run's neighbour scan stops after as many bins as the cache holds,
    # and cold and warm runs equal binding each bin alone at its first visit
    params = PendulumParams()
    w = np.full((300, 1), 50.0)  # swings theta into bin 1 at a width of pi

    def each_bin_alone():
        laws = {}

        def law(t, x, z):
            b = int(round(float(x[0]) / quantum))
            if b not in laws:
                lin = linearize_pendulum(params, b * quantum)
                laws[b] = controllers._clairvoyant_law([lin], w[t:], t)[0]
            return laws[b](t, x, z)

        return mpc._simulate(params, law, w, (0.0, 0.0), "nonlinear")

    schedule_cache.clear()
    ref = each_bin_alone()
    schedule_cache.clear()
    cold = clairvoyant_comparator_run(params, w, quantum=quantum)
    lin = mpc.linearize_pendulum
    calls = []
    monkeypatch.setattr(mpc, "linearize_pendulum", lambda *a: calls.append(a) or lin(*a))
    warm = clairvoyant_comparator_run(params, w, quantum=quantum)
    assert len(schedule_cache) == (1 if quantum > 4 else 2)
    assert len(calls) <= 1 + 2 * len(schedule_cache)
    for res in (cold, warm):
        assert res.status == ref.status == "ok"
        assert_array_equal(res.x, ref.x)
        assert_array_equal(res.u, ref.u)
        assert res.total_cost == ref.total_cost
    bins = set(np.round(ref.x[:-1, 0] / quantum).astype(int))
    assert bins == ({0} if quantum > 4 else {0, 1})


def test_comparator_beats_causal_controller():
    scenario = PendulumScenario(
        steps=250,
        disturbance=DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
        kind="h2",
        quantum=QUANTUM,
    )
    out = run_scenario(scenario, seed=11)
    assert out["rollout"].status == "ok"
    assert out["comparator"].status == "ok"
    assert out["ratio_to_comparator"] >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# pinned bits

#: the benchmark's two pendulum records
PIN_NOISES = {
    "sine-mean": DisturbanceSpec(
        "sine-mean-gaussian", {"sigma": 1.0, "mean_amplitude": 1.0, "mean_omega": 1e-3}),
    "step-noise": DisturbanceSpec("mixture", {
        "components": [
            DisturbanceSpec("step", {"levels": [1.0, -1.0], "switch_times": [500]}),
            DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
        ],
        "weights": [1.0, 0.1],
    }),
}

#: :func:`~conftest.rollout_digest` of each 1,001-step rollout at bin width
#: 0.01, by (record, seed, controller); recorded with numpy 2.4.6 on x86-64
PENDULUM_PINS = {
    ("sine-mean", 0, "competitive"):
        "b114f4e5c86459f998315415aade5905edbb04925d11fc582ea9f7942d012ca0",
    ("sine-mean", 0, "h2"):
        "4ce5aa29a409eebbcf6fe5a13f7e304a0b0a37308322a1299c147538f55ef60d",
    ("sine-mean", 0, "hinf"):
        "893f2dade22bfb209bcf6efce3186d48a086e9fe5aa53e8d2ea0eb9340cb0a37",
    ("sine-mean", 0, "comparator"):
        "e4f642bd003c163d955ab7278a8c9699f75b4a10a826ce8da38755ca64175899",
    ("sine-mean", 7, "competitive"):
        "1c131d21a40038f11c57d46166f090aaf39761874f0f18e2db704dd51bda158f",
    ("sine-mean", 7, "h2"):
        "e34db90226f497bcd9ac150977303596c35cffbf9946d4ce0452ae720d584511",
    ("sine-mean", 7, "hinf"):
        "8254fc64681f6aa6330824f78c8a62e42f733f425c164f3225159eaee5105c95",
    ("sine-mean", 7, "comparator"):
        "04ace324fae58f0ab80feabfb0951d285ac8f71981961fe8c528c69e094f14cf",
    ("step-noise", 0, "competitive"):
        "8933457a4a4135170319357dac779507654f17d7895b0248f943f21bdf684ef9",
    ("step-noise", 0, "h2"):
        "c1856c746de7c7aab4c95b6898836b0aefdf643df1759bec7c49e28eedcdbede",
    ("step-noise", 0, "hinf"):
        "db9122ca10022c49b67166a86e26aa063e3ef94e22a6cd01df5694be79c1aff5",
    ("step-noise", 0, "comparator"):
        "5a48384c3f9240b8e0e5f7079ad1f62adb15e50154098485104f87e7c3f13ebe",
    ("step-noise", 7, "competitive"):
        "c8073b7e02c6d03f2f47ea4afb000901f871ed9ec88eafa2c8f0a492cc0c963a",
    ("step-noise", 7, "h2"):
        "ff62b9d5359745e5b523ddd2d6a76fa498744d51f8f683e2c365b307d31d903d",
    ("step-noise", 7, "hinf"):
        "225af12f80a421370638e1718e9162385cbf0522f1daab0dc278d1e2ecc13ee7",
    ("step-noise", 7, "comparator"):
        "cd0134c52a22054e134ce4be25b29f90e30e570f7990ac2d5a907c05242bff9e",
}


@pytest.fixture(scope="module")
def pin_controllers():
    params = PendulumParams()
    return {kind: RelinearizingController(params, kind=kind, quantum=0.01)
            for kind in ("competitive", "h2", "hinf")}


@pytest.mark.parametrize("noise, seed", [(n, s) for n in PIN_NOISES for s in (0, 7)])
def test_pendulum_rollouts_keep_their_pinned_bits(noise, seed, pin_controllers):
    # every float of the three scheduled controllers' and the comparator's
    # rollouts, on the benchmark's records: a change to how a step is
    # computed must leave these bits alone
    params = PendulumParams()
    w = generate(PIN_NOISES[noise], 1001, 1, seed=seed)
    runs = {kind: run_pendulum(params, ctrl, w) for kind, ctrl in pin_controllers.items()}
    runs["comparator"] = clairvoyant_comparator_run(params, w, quantum=0.01)
    assert {kind: r.status for kind, r in runs.items()} == dict.fromkeys(runs, "ok")
    got = {kind: rollout_digest(r) for kind, r in runs.items()}
    assert got == {kind: PENDULUM_PINS[noise, seed, kind] for kind in runs}


# ---------------------------------------------------------------------------
# scenario plumbing


def test_run_scenario_fields():
    scenario = PendulumScenario(
        steps=150,
        disturbance=DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
        kind="h2",
        quantum=QUANTUM,
    )
    out = run_scenario(scenario, seed=9)
    assert set(out) == {
        "rollout",
        "comparator",
        "controller",
        "gamma",
        "ratio_to_comparator",
        "seed",
    }
    assert out["seed"] == 9
    assert out["gamma"] is None  # h2 has no level
    assert isinstance(out["controller"], RelinearizingController)
    assert out["ratio_to_comparator"] == pytest.approx(
        out["rollout"].total_cost / out["comparator"].total_cost, rel=1e-12
    )


def test_run_scenario_degenerate_ratio_convention():
    scenario = PendulumScenario(
        steps=50,
        disturbance=DisturbanceSpec("white-gaussian", {"sigma": 0.0}),
        kind="h2",
        quantum=QUANTUM,
    )
    out = run_scenario(scenario, seed=0)
    assert out["rollout"].total_cost < 1e-12
    assert out["comparator"].total_cost < 1e-12
    assert out["ratio_to_comparator"] == 1.0


def test_scenario_json_round_trip():
    scenario = PendulumScenario(
        params=PendulumParams(m=2.0, l=0.7, g=9.8, J=1.1, dt=2e-3),
        steps=321,
        disturbance=DisturbanceSpec(
            "step", {"levels": [1.0, -1.0], "switch_times": [100]}
        ),
        kind="hinf",
        causality="strictly-causal",
        gamma_policy={"fixed": 40.0},
        quantum=0.01,
        x0=(0.1, -0.05),
    )
    blob = json.dumps(scenario_to_json_dict(scenario))
    back = scenario_from_json_dict(json.loads(blob))
    assert back == scenario


def test_scenario_schema_version_checked():
    obj = scenario_to_json_dict(PendulumScenario())
    obj["schema_version"] = "99"
    with pytest.raises(ValueError, match="schema_version"):
        scenario_from_json_dict(obj)
