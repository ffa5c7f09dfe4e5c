import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_lti, random_ltv, random_unstable_stabilizable, scalar_lti
from oracles import (
    affine_forward,
    affine_sweep,
    brute_force_offline,
    rollout_cost,
    stacked_opt_cost,
    stepped_rollout,
    three_branch_rollout,
)

from compctrl import controllers
from compctrl.controllers import (
    AffineSchedule,
    CompetitiveController,
    _affine_pass,
    _affine_schedule,
    _attenuation,
    _controller,
    _cost_of_controls,
    Infeasible,
    SCHEDULE_CACHE_BYTES,
    OfflineController,
    PlantCache,
    StateFeedbackController,
    ZeroController,
    control_step,
    controller_from_json_dict,
    controller_to_json_dict,
    offline_optimal,
    schedule_cache,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
    synthetic_cache,
)
from compctrl.factorization import FactorizationError, build_synthetic
from compctrl.freq import closed_loop, gram_cache, peak_gain
from compctrl.model import load_bundled_plant
from compctrl.mpc import PendulumParams, linearize_pendulum
from compctrl.riccati import is_stable
from compctrl.search import min_gamma_competitive, min_gamma_hinf
from compctrl.sim import compare, rollout

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# --- H2 -----------------------------------------------------------------


def test_h2_scalar_frozen_gains():
    plant = scalar_lti()
    ctrl = synth_h2_ih(plant)
    assert ctrl.kind == "h2" and ctrl.causality == "causal"
    assert_allclose(ctrl.Kx[0, 0], 1.0 / GOLDEN, rtol=1e-8)
    assert_allclose(ctrl.Kw[0, 0], 1.0 / GOLDEN, rtol=1e-8)
    strict = synth_h2_ih(plant, causality="strictly-causal")
    assert_allclose(strict.Kx, ctrl.Kx, rtol=1e-12)
    assert np.all(strict.Kw == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_h2_closes_the_loop_stably(seed):
    rng = np.random.default_rng(6000 + seed)
    plant = random_unstable_stabilizable(rng, n=3)
    ctrl = synth_h2_ih(plant)
    assert is_stable(plant.A - plant.Bu @ ctrl.Kx)
    P = ctrl.diagnostics["P"]
    H = np.eye(plant.m) + plant.Bu.T @ P @ plant.Bu
    assert_allclose(ctrl.Kx, np.linalg.solve(H, plant.Bu.T @ P @ plant.A), atol=1e-9)


def test_h2_causal_beats_strictly_causal_on_white_noise(rng):
    plant = random_lti(rng, n=3, m=2, p=2)
    causal = synth_h2_ih(plant)
    strict = synth_h2_ih(plant, causality="strictly-causal")
    w = rng.standard_normal((3000, 2))
    total_c = rollout(plant, causal, w).total_cost
    total_s = rollout(plant, strict, w).total_cost
    assert total_c < total_s


def test_h2_rejects_undetectable():
    from compctrl.model import LtiPlant

    plant = LtiPlant(
        A=np.diag([2.0, 0.5]),
        Bu=np.eye(2),
        Bw=np.eye(2),
        Q=np.diag([0.0, 1.0]),
        R_half=np.eye(2),
        x0=np.zeros(2),
    )
    with pytest.raises(ValueError):
        synth_h2_ih(plant)


def test_h2_rejects_a_time_varying_plant_and_an_unstabilizable_one(rng):
    with pytest.raises(TypeError):
        synth_h2_ih(random_ltv(rng, T=4, n=2, m=1, p=1))
    with pytest.raises(ValueError, match=re.escape(
            "precondition failed: (A, B_u) not stabilizable")):
        synth_h2_ih(scalar_lti(a=2.0, bu=0.0))


# --- H-infinity ----------------------------------------------------------


def test_hinf_rejects_nonpositive_gamma(rng):
    plant = random_lti(rng)
    with pytest.raises(ValueError):
        synth_hinf(plant, 0.0)
    with pytest.raises(ValueError):
        synth_hinf(plant, -1.0)
    with pytest.raises(ValueError):
        synth_hinf(plant, 1.0, causality="acausal")


@pytest.mark.parametrize("synth", [synth_hinf, synth_competitive])
def test_fixed_level_synthesis_validates_its_arguments_in_order(synth, rng):
    lti, ltv = scalar_lti(), random_ltv(rng, T=4, n=1, m=1, p=1)
    with pytest.raises(ValueError, match="horizon argument conflicts with the plant's horizon"):
        synth(ltv, 3.0, horizon=5)
    with pytest.raises(TypeError, match="plant must be LtiPlant or LtvPlant"):
        synth("plant", 3.0)
    with pytest.raises(ValueError, match="gamma must be a single level"):
        synth(lti, np.array([3.0, 4.0]))
    # the causality is checked first, then the level, then the plant
    with pytest.raises(ValueError, match="causality must be"):
        synth("plant", np.array([3.0, 4.0]), causality="acausal")
    with pytest.raises(ValueError, match="gamma must be a single level"):
        synth("plant", np.array([3.0, 4.0]))


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_a_converged_fixed_point_that_fails_acceptance_is_infeasible(causality):
    # x_1 is unstable, uncontrollable and unweighted: value iteration leaves
    # it at P = 0 and converges, but the closed loop keeps its eigenvalue 2,
    # so the verdict is the acceptance check's, before any strictly causal test
    from compctrl.model import LtiPlant

    plant = LtiPlant(A=np.diag([2.0, 0.5]), Bu=np.array([[0.0], [1.0]]),
                     Bw=np.array([[0.0], [1.0]]), Q=np.diag([0.0, 1.0]),
                     R_half=np.eye(1), x0=np.zeros(2))
    res = synth_hinf(plant, 10.0, causality=causality)
    assert isinstance(res, Infeasible)
    assert res.reason == "condition-violated"
    assert res.details["closed_loop_radius"] == 2.0
    assert res.details["inertia_match"] and res.details["psd"]
    assert "strict_w_channel_ok" not in res.details


def test_hinf_feasibility_bracket(rng):
    plant = random_lti(rng, n=3, m=1, p=1)
    found = min_gamma_hinf(plant, audit=False)
    assert found.ok
    low = synth_hinf(plant, 0.9 * found.gamma)
    assert isinstance(low, Infeasible)
    assert low.gamma == pytest.approx(0.9 * found.gamma)
    assert isinstance(low.reason, str) and low.reason
    high = synth_hinf(plant, 1.1 * found.gamma)
    assert isinstance(high, StateFeedbackController)
    assert is_stable(plant.A - plant.Bu @ high.Kx)


def test_hinf_attenuation_bound_in_time_domain(rng):
    """gamma certifies sup_w cost/||w||^2; spot check on random records."""
    plant = random_lti(rng, n=3, m=2, p=2)
    found = min_gamma_hinf(plant, audit=False)
    gamma = 1.05 * found.gamma
    ctrl = synth_hinf(plant, gamma)
    assert isinstance(ctrl, StateFeedbackController)
    for seed in range(5):
        w = np.random.default_rng(7000 + seed).standard_normal((400, 2))
        res = rollout(plant, ctrl, w)
        assert res.total_cost <= gamma**2 * float(np.sum(w * w)) + 1e-9


def test_hinf_strictly_causal_attains_levels_below_the_old_gate():
    """B_w'PB_w < gamma^2 I is the whole strictly causal condition.

    On the dt = 0.05 pendulum linearization an extra positivity gate used to
    refuse gamma in [1.0518, 1.0664), and the search certified 1.0664.  The
    law at 1.053 closes a stable loop whose peak gain stays within 1.053.
    """
    plant = linearize_pendulum(PendulumParams(dt=0.05), 0.0)
    ctrl = synth_hinf(plant, 1.053, causality="strictly-causal")
    assert isinstance(ctrl, StateFeedbackController)
    loop = closed_loop(plant, ctrl)
    assert is_stable(loop.A)
    assert peak_gain(loop, np.linspace(0.0, np.pi, 20001)) <= 1.053
    found = min_gamma_hinf(plant, causality="strictly-causal")
    assert found.ok and found.gamma < 1.055
    assert found.audit_warnings == []


@pytest.mark.parametrize("a, bu, q, message", [
    (1.0, 1e-8, 1e-16, "^LQR closed loop is not stable$"),
    (1e160, 1e-7, 1.0, "^LQR fixed point failed: no-stabilizing-solution$"),
], ids=["not-stabilizing", "diverged"])
def test_synth_h2_ih_names_a_failed_fixed_point(a, bu, q, message):
    # both plants pass the PBH tests (threshold 1e-8).  The first's LQR
    # solve converges to a closed loop of radius 1 after rounding; the
    # second's P is about a^2/b^2 = 1e334, past the largest double, and
    # value iteration's second step a^2 q already overflows
    with pytest.raises(ValueError, match=message):
        synth_h2_ih(scalar_lti(a=a, bu=bu, q=q))


def test_hinf_large_gamma_limits_to_lqr(rng):
    plant = random_lti(rng, n=4, m=2, p=2)
    hinf = synth_hinf(plant, 1e6)
    h2 = synth_h2_ih(plant)
    assert_allclose(hinf.Kx, h2.Kx, atol=1e-6)
    assert_allclose(hinf.Kw, h2.Kw, atol=1e-6)


def test_hinf_fh_terminal_gain_is_zero(rng):
    plant = random_ltv(rng, T=6, n=2, m=1, p=1)
    ctrl = synth_hinf(plant, 20.0)
    assert isinstance(ctrl, StateFeedbackController)
    assert ctrl.horizon == 6
    assert ctrl.Kx.shape == (6, 1, 2)
    assert np.all(ctrl.Kx[5] == 0.0) and np.all(ctrl.Kw[5] == 0.0)


def test_hinf_fh_attenuation_bound(rng):
    plant = random_ltv(rng, T=10, n=2, m=2, p=2)
    gamma = 15.0
    ctrl = synth_hinf(plant, gamma)
    assert isinstance(ctrl, StateFeedbackController)
    for seed in range(4):
        w = np.random.default_rng(7100 + seed).standard_normal((10, 2))
        res = rollout(plant, ctrl, w)
        assert res.total_cost <= gamma**2 * float(np.sum(w * w)) + 1e-9


def test_hinf_fh_infeasible_reports_first_violation(rng):
    plant = scalar_lti().to_ltv(2)
    res = synth_hinf(plant, 0.9, causality="strictly-causal")
    assert isinstance(res, Infeasible)
    assert res.details["first_violation"] == 0


def test_infinite_horizon_game_weight_squares_gamma_as_the_backward_recursion(
    boeing, monkeypatch
):
    # gamma^2 is gamma * gamma, correctly rounded, in both horizons: the R~
    # that reaches the fixed-point solver, lone or stacked, holds the
    # 2.759 * 2.759 = 7.612081 of hinf_backward (2.759**2 can round one ulp
    # below it, to 7.612080999999999)
    seen = []

    def spy(solve):
        def call(A, Btil, Rtil, Q, *defer):
            seen.append(np.array(Rtil))
            return solve(A, Btil, Rtil, Q, *defer)

        return call

    monkeypatch.setattr(controllers, "dare_fixed_point", spy(controllers.dare_fixed_point))
    monkeypatch.setattr(controllers, "_dare_fixed_points", spy(controllers._dare_fixed_points))
    synth_hinf(boeing, 2.759)
    _attenuation(boeing, [2.759, 2.76], "causal")
    m, p = boeing.m, boeing.p
    lone, stack = seen
    assert stack.shape == (2, m + p, m + p)
    for Rtil, level in ((lone, 2.759), (stack[0], 2.759), (stack[1], 2.76)):
        assert_array_equal(Rtil[:m, :m], np.eye(m))
        assert_array_equal(Rtil[m:, m:], -(level * level) * np.eye(p))
        assert not Rtil[:m, m:].any() and not Rtil[m:, :m].any()
    assert lone[m, m] == stack[0][m, m] == -7.612081


def test_state_feedback_step_past_horizon(rng):
    # every finite-horizon controller steps T times, then refuses: the
    # state-feedback law and the ratio-optimal one, whose final step is u = 0
    plant = random_ltv(rng, T=3, n=2, m=1, p=1)
    for ctrl in (synth_hinf(plant, 25.0), synth_competitive(plant, 6.0)):
        assert ctrl.horizon == 3
        state = ctrl.make_state()
        for t in range(3):
            u, _ = control_step(ctrl, state, np.zeros(2), np.ones(1))
        assert state.t == 3
        with pytest.raises(IndexError):
            control_step(ctrl, state, np.zeros(2), np.zeros(1))
    assert np.array_equal(u, np.zeros(1))


# --- competitive ----------------------------------------------------------


def test_competitive_ratio_bound_against_clairvoyant(rng):
    plant = random_lti(rng, n=2, m=1, p=2)
    found = min_gamma_competitive(plant, audit=False)
    assert found.ok and found.gamma > 1.0
    ctrl = found.controller
    T = 240
    for seed in range(4):
        w = np.random.default_rng(7200 + seed).standard_normal((T, 2))
        res = rollout(plant, ctrl, w)
        _, opt = offline_optimal(plant.to_ltv(T), w)
        assert res.total_cost <= found.gamma**2 * opt * (1.0 + 1e-6) + 1e-9


def test_competitive_fh_ratio_bound(rng):
    plant = random_ltv(rng, T=12, n=2, m=1, p=1)
    gamma = 4.0
    ctrl = synth_competitive(plant, gamma)
    assert isinstance(ctrl, CompetitiveController), getattr(ctrl, "reason", None)
    for seed in range(4):
        w = np.random.default_rng(7300 + seed).standard_normal((12, 1))
        res = rollout(plant, ctrl, w)
        _, opt = offline_optimal(plant, w)
        assert res.total_cost <= gamma**2 * opt * (1.0 + 1e-6) + 1e-9


def test_competitive_strictly_causal_has_no_feedforward(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    ctrl = synth_competitive(plant, 3.0, causality="strictly-causal")
    assert isinstance(ctrl, CompetitiveController)
    assert np.all(ctrl.Kwp == 0.0)


def test_competitive_causality_split(rng):
    """u_t may react to w_t only in the causal variant."""
    plant = random_lti(rng, n=2, m=1, p=1)
    t0 = 6
    T = 10
    w1 = np.random.default_rng(42).standard_normal((T, 1))
    w2 = w1.copy()
    w2[t0] += 1.0
    for causality, same_at_t0 in (("causal", False), ("strictly-causal", True)):
        ctrl = synth_competitive(plant, 3.0, causality=causality)
        u1 = rollout(plant, ctrl, w1).u
        u2 = rollout(plant, ctrl, w2).u
        assert np.array_equal(u1[:t0], u2[:t0])
        assert np.array_equal(u1[t0], u2[t0]) == same_at_t0
        assert not np.array_equal(u1[t0 + 1], u2[t0 + 1])


@pytest.mark.parametrize(
    "p, horizon",
    [(2, None), (1, None), (1, 12), (3, None), (3, 12)],
    ids=["doubled", "exact", "finite-horizon", "wide", "wide-finite-horizon"],
)
def test_competitive_reuses_provided_factor(p, horizon, rng):
    # the gamma search builds its controller from a synthetic plant it built
    # once; that controller keeps the plant and has a fresh synthesis' gains.
    # The infinite horizon picks the exact plant for p < n and the doubled
    # plant for p >= n (its outer factor would be singular for p > n)
    plant = random_lti(rng, n=2, m=1, p=p)
    normalized = plant if horizon is None else plant.to_ltv(horizon)
    syn = build_synthetic(normalized)
    a = _controller(_attenuation(syn.as_plant(), 3.0, "causal"), syn)
    b = synth_competitive(plant, 3.0, horizon=horizon)
    assert isinstance(a, CompetitiveController)
    assert a.synthetic is syn
    assert syn.horizon == horizon
    assert syn.exact == (horizon is None and p < 2)
    assert syn.Bwhat.shape[-1] == (p if syn.exact else 2)
    assert np.array_equal(a.Kxi, b.Kxi)
    assert np.array_equal(a.Kwp, b.Kwp)


def test_competitive_fh_final_step_control_is_zero(rng):
    plant = random_ltv(rng, T=5, n=2, m=1, p=1)
    ctrl = synth_competitive(plant, 5.0)
    assert isinstance(ctrl, CompetitiveController)
    w = rng.standard_normal((5, 1))
    res = rollout(plant, ctrl, w)
    assert np.all(res.u[-1] == 0.0)


# --- offline / clairvoyant -------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_offline_matches_brute_force(seed):
    rng = np.random.default_rng(8000 + seed)
    T = int(rng.integers(4, 12))
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    plant = random_ltv(rng, T=T, n=n, m=m, p=p)
    w = rng.standard_normal((T, p))
    u_ref, opt_ref = brute_force_offline(plant, w)
    for method in ("dense", "riccati"):
        u, opt = offline_optimal(plant, w, method=method)
        assert_allclose(u, u_ref, atol=1e-8)
        assert opt == pytest.approx(opt_ref, rel=1e-8, abs=1e-12)
    assert opt_ref == pytest.approx(stacked_opt_cost(plant, w), rel=1e-8, abs=1e-12)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize(
    "case", ["p<n-0", "p<n-1", "p=n-0", "p=n-1", "pendulum"]
)
def test_affine_schedule_and_pass_match_sweep_oracle(case):
    # the w-independent schedule followed by the linear pass is the affine
    # sweep, split at its dependence on w; a stacked pass over k schedules
    # of one horizon gives each schedule's own pass bit for bit, also over
    # the tail of a record, where the comparator binds a group of bins
    rng = np.random.default_rng(8100 + sum(map(ord, case)))
    if case == "pendulum":
        plants = [linearize_pendulum(PendulumParams(), 0.01 * b).to_ltv(1001) for b in range(3, 8)]
    else:
        n = 3
        p = n if case.startswith("p=n") else 1
        plants = [random_ltv(rng, T=40, n=n, m=2, p=p) for _ in range(5)]
    plant = plants[0]
    w = rng.standard_normal((plant.T, plant.p))
    K_ref, h_ref = affine_sweep(plant, w)
    schedules = [_affine_schedule(pl) for pl in plants]
    schedule = schedules[0]
    (h,) = _affine_pass([schedule], w)
    assert schedule.K.shape == K_ref.shape and h.shape == h_ref.shape
    assert _rel(schedule.K, K_ref) < 1e-12
    assert _rel(h, h_ref) < 1e-12
    # the schedule serves any disturbance: the pass is linear in w
    w2 = rng.standard_normal(w.shape)
    assert _rel(_affine_pass([schedule], w2)[0], affine_sweep(plant, w2)[1]) < 1e-12
    for arr in schedule:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    lone = [_affine_pass([s], w)[0] for s in schedules]
    t0 = plant.T // 3
    tails = [AffineSchedule(s.K[t0:], s.M[t0:]) for s in schedules]
    for k in (1, 2, 5):
        stacked = _affine_pass(schedules[:k], w)
        assert len(stacked) == k
        for got, ref in zip(stacked, lone):
            assert_array_equal(got, ref)
        for got, ref in zip(_affine_pass(tails[:k], w[t0:]), lone):
            assert_array_equal(got, ref[t0:])


def test_one_state_schedule_keeps_the_zeros_of_matmul():
    # with n = 1 every factor of the backward loop is 1x1, which ndarray.dot
    # takes for a scalar: from P_T = 0 and B_u < 0 it would make the last
    # gain (-1)(0)(0.5) = -0.0, where matmul's product is +0.0
    schedule = _affine_schedule(scalar_lti(a=0.5, bu=-1.0).to_ltv(3))
    assert schedule.K[-1].tobytes() == np.zeros((1, 1)).tobytes()
    assert not np.signbit(schedule.M[-1][:, 1:]).any()


def _schedules_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_schedule_cache_keys_exactly(rng):
    # a hit needs the same T and the same bits of A, B_u, B_w and Q: one ulp
    # in one B_w entry, a -0.0 for a +0.0 or another horizon each miss, and
    # each miss is the schedule of its own plant
    cache = PlantCache(schedule_cache.solve)
    base = random_lti(rng, n=3, m=1, p=2)
    Bw = base.Bw.copy()
    Bw[2, 1] = 0.0
    base = dataclasses.replace(base, Bw=Bw)
    ulp, neg_zero = Bw.copy(), Bw.copy()
    ulp[0, 0] = np.nextafter(ulp[0, 0], np.inf)
    neg_zero[2, 1] = -0.0
    first = cache.get(base, 20)
    assert len(cache) == 1
    assert cache.get(base, 20) is first
    others = [
        (dataclasses.replace(base, Bw=ulp), 20),
        (dataclasses.replace(base, Bw=neg_zero), 20),
        (base, 21),
    ]
    for k, (plant, T) in enumerate(others, start=2):
        schedule = cache.get(plant, T)
        assert len(cache) == k and schedule is not first
        assert _schedules_equal(schedule, _affine_schedule(plant.to_ltv(T)))
    assert cache.get(base, 20) is first


def test_schedule_cache_computes_time_varying_plants_fresh(rng):
    # every LtvPlant is solved afresh, one whose steps are all equal too:
    # time-invariance is the LtiPlant type, not a property found in the data
    cache = PlantCache(schedule_cache.solve)
    lti = random_lti(rng, n=2, m=1, p=1)
    ltv = random_ltv(rng, T=12, n=2, m=1, p=1)
    for plant in (ltv, lti.to_ltv(12), ltv, lti.to_ltv(12)):
        schedule = cache.get(plant, 12)
        assert _schedules_equal(schedule, _affine_schedule(plant))
        assert cache.get(plant, 12) is not schedule
    assert len(cache) == 0 and cache.held_bytes == 0
    # the replicated plant's fresh schedule is the bits of the cached one
    assert _schedules_equal(cache.get(lti.to_ltv(12), 12), cache.get(lti, 12))
    assert len(cache) == 1


def test_schedule_cache_evicts_least_recently_used(rng):
    plants = [random_lti(rng, n=3, m=1, p=1) for _ in range(6)]
    probe = PlantCache(schedule_cache.solve)
    probe.get(plants[0], 50)
    one = probe.held_bytes
    bound = 3 * one + one // 2  # room for three entries
    cache = PlantCache(schedule_cache.solve, max_bytes=bound)
    got = [cache.get(plant, 50) for plant in plants[:1]]
    for plant in plants[1:]:
        got.append(cache.get(plant, 50))
        assert cache.held_bytes <= bound
        assert cache.get(plants[0], 50) is got[0]  # a hit makes it the most recent
    assert len(cache) == 3 and cache.held_bytes == 3 * one
    # recency, oldest first, is now 4, 5, 0: hits keep 4 and 5 ...
    assert cache.get(plants[4], 50) is got[4] and cache.get(plants[5], 50) is got[5]
    # ... 1 went long ago and comes back as the same bits, evicting 0
    again = cache.get(plants[1], 50)
    assert again is not got[1] and _schedules_equal(again, got[1])
    assert cache.get(plants[0], 50) is not got[0]
    assert len(cache) == 3 and cache.held_bytes == 3 * one
    # an entry larger than the bound is computed but never kept
    small = PlantCache(schedule_cache.solve, max_bytes=one - 1)
    assert _schedules_equal(small.get(plants[0], 50), got[0])
    assert len(small) == 0 and small.held_bytes == 0
    cache.clear()
    assert len(cache) == 0 and cache.held_bytes == 0


def test_schedule_cache_bound_holds_a_pendulum_family():
    # a family of pendulum runs (T = 1001, quantum 0.01) visits about 21 bins
    cache = PlantCache(schedule_cache.solve)
    cache.get(linearize_pendulum(PendulumParams(), 0.03), 1001)
    assert 21 * cache.held_bytes <= SCHEDULE_CACHE_BYTES == schedule_cache.max_bytes


def _synthetics_equal(a, b):
    return all(
        x is y is None or np.array_equal(x, y)
        for x, y in zip(vars(a).values(), vars(b).values())
    )


def test_synthetic_cache_keys_exactly_and_shares_read_only_plants(rng):
    # the synthetic plant of an LtiPlant is cached per (horizon, bits of A,
    # B_u, B_w, Q): one ulp in one B_w entry or a -0.0 for a +0.0 misses, in
    # either horizon; each value is build_synthetic's on its own plant, its
    # arrays read-only and none of them the caller's
    cache = PlantCache(synthetic_cache.solve)
    base = random_lti(rng, n=3, m=1, p=2)  # p < n: the exact plant, with an outer factor
    Bw = base.Bw.copy()
    Bw[2, 1] = 0.0
    base = dataclasses.replace(base, Bw=Bw)
    ulp, neg_zero = Bw.copy(), Bw.copy()
    ulp[0, 0] = np.nextafter(ulp[0, 0], np.inf)
    neg_zero[2, 1] = -0.0
    for T in (None, 20):
        first = cache.get(base, T)
        assert cache.get(base, T) is first
        for plant in (dataclasses.replace(base, Bw=ulp), dataclasses.replace(base, Bw=neg_zero)):
            syn = cache.get(plant, T)
            assert syn is not first
            assert _synthetics_equal(syn, build_synthetic(plant if T is None else plant.to_ltv(T)))
    assert len(cache) == 6 and (cache.hits, cache.misses) == (2, 6)
    assert cache.values()[0].exact and cache.values()[-1].horizon == 20
    for syn in cache.values():
        for arr in vars(syn).values():
            if arr is not None:
                with pytest.raises(ValueError):
                    arr[...] = 0.0
    assert base.Bw.flags.writeable and base.A.flags.writeable
    assert _synthetics_equal(cache.get(base, None), build_synthetic(base))
    assert synthetic_cache.max_bytes == SCHEDULE_CACHE_BYTES


def test_synthetic_cache_builds_time_varying_plants_fresh_and_stores_no_failure(rng):
    cache = PlantCache(synthetic_cache.solve)
    ltv = random_ltv(rng, T=12, n=2, m=1, p=1)
    syn = cache.get(ltv, 12)
    assert cache.get(ltv, 12) is not syn and _synthetics_equal(syn, build_synthetic(ltv))
    # a failing factorization raises on every call and is never stored
    unstabilizable = scalar_lti(a=2.0, bu=0.0)
    for _ in range(2):
        with pytest.raises(FactorizationError, match="not stabilizable"):
            cache.get(unstabilizable, None)
    assert len(cache) == 0 and cache.held_bytes == 0
    assert (cache.hits, cache.misses) == (0, 4)


def test_synthetic_cache_evicts_least_recently_used(rng):
    plants = [random_lti(rng, n=3, m=1, p=1) for _ in range(3)]
    probe = PlantCache(synthetic_cache.solve)
    probe.get(plants[0], None)
    one = probe.held_bytes
    cache = PlantCache(synthetic_cache.solve, max_bytes=2 * one + one // 2)  # room for two
    first = cache.get(plants[0], None)
    cache.get(plants[1], None)
    assert cache.get(plants[0], None) is first  # a hit makes it the most recent
    cache.get(plants[2], None)  # so 1 goes
    assert [cache.holds(plant, None) for plant in plants] == [True, False, True]
    assert len(cache) == 2 and cache.held_bytes == 2 * one


@pytest.mark.parametrize("name", ["schedule", "synthetic", "gram"])
def test_no_cached_value_aliases_the_plant(rng, name):
    # a miss solves the caller's plant itself and makes only the value's
    # arrays read-only: every array of the plant stays writeable, and no
    # array of the value is one of the plant's or a view of one
    cache, keys = {
        "schedule": (schedule_cache, [20]),
        "synthetic": (synthetic_cache, [None, 20]),
        "gram": (gram_cache, [(100, 0), (100, 64)]),
    }[name]
    for p in (2, 3):  # p < n: the exact synthetic plant, with an outer factor
        plant = random_lti(rng, n=3, m=1, p=p)
        plant.Q_half  # a cached property: an array of the plant too
        fresh = PlantCache(cache.solve)
        for key in keys:
            value = fresh.get(plant, key)
            fields = value if isinstance(value, tuple) else vars(value).values()
            held = [a for a in fields if isinstance(a, np.ndarray)]
            own = [a for a in vars(plant).values() if isinstance(a, np.ndarray)]
            assert len(own) == 7 and all(a.flags.writeable for a in own)
            assert not any(np.shares_memory(a, b) for a in held for b in own)
        assert (fresh.hits, fresh.misses) == (0, len(keys))


def test_compare_cold_and_warm_cache_are_bit_identical(boeing):
    w = np.random.default_rng(8400).standard_normal((300, boeing.p))
    ctrls = [("h2", synth_h2_ih(boeing)), ("offline", OfflineController())]
    schedule_cache.clear()
    cold = compare(boeing, ctrls, w)
    assert len(schedule_cache) == 1
    warm = compare(boeing, ctrls, w)
    assert warm.opt_cost == cold.opt_cost
    for name in cold.names:
        a, b = cold.rollouts[name], warm.rollouts[name]
        for field in ("w", "wprime", "x", "u", "step_cost", "cum_cost"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), (name, field)
        assert a.total_cost == b.total_cost


def test_offline_cost_equals_simulation(rng):
    plant = random_ltv(rng, T=9, n=2, m=2, p=1)
    w = rng.standard_normal((9, 1))
    u, opt = offline_optimal(plant, w)
    assert opt == pytest.approx(rollout_cost(plant, u, w), rel=1e-10)


def test_offline_local_optimality(rng):
    plant = random_ltv(rng, T=8, n=2, m=1, p=1)
    w = rng.standard_normal((8, 1))
    u, opt = offline_optimal(plant, w)
    for k in range(3):
        du = 1e-4 * np.random.default_rng(k).standard_normal(u.shape)
        assert rollout_cost(plant, u + du, w) >= opt - 1e-12


def test_offline_default_is_the_riccati_sweep(rng, boeing):
    # the sweep is the route at every size: T*n = 16, 2002 and 1200
    pendulum = linearize_pendulum(PendulumParams(), 0.03).to_ltv(1001)
    for plant in (random_ltv(rng, T=8, n=2, m=1, p=1), pendulum, boeing.to_ltv(300)):
        w = rng.standard_normal((plant.T, plant.p))
        u_auto, opt_auto = offline_optimal(plant, w)
        u_ric, opt_ric = offline_optimal(plant, w, method="riccati")
        assert np.array_equal(u_auto, u_ric) and opt_auto == opt_ric
        # OPT is summed along the sweep's own forward pass
        assert opt_auto == _cost_of_controls(plant, u_auto, w)
    # so a rollout of the clairvoyant controller costs exactly OPT
    res = compare(plant, [("offline", OfflineController())], w)
    assert res.ratios == [1.0]


def test_offline_forward_pass_equals_stepped_oracle(rng, boeing):
    # B_w w_t is taken for every step before the forward pass and OPT from
    # the step costs after it: u* and OPT are the bits of the per-step loop,
    # on a plant with time-varying Q and on time-invariant ones, given as an
    # LtiPlant or replicated; so is the cost of open-loop controls
    pendulum = linearize_pendulum(PendulumParams(), 0.03)
    cases = [(random_ltv(rng, T=30, n=3, m=2, p=2), None), (pendulum, 1001), (boeing, 300)]
    cases += [(pendulum.to_ltv(1001), None), (boeing.to_ltv(300), None)]
    for plant, T in cases:
        ltv = plant if T is None else plant.to_ltv(T)
        w = rng.standard_normal((ltv.T, ltv.p))
        schedule = schedule_cache.get(plant, ltv.T)
        u_ref, opt_ref = affine_forward(ltv, schedule.K, _affine_pass([schedule], w)[0], w)
        u, opt = offline_optimal(plant, w)
        assert np.array_equal(u, u_ref) and opt == opt_ref
        v = u + 1e-3 * rng.standard_normal(u.shape)
        ref = stepped_rollout(ltv, lambda t, x, w_t: (v[t], None), w)
        assert _cost_of_controls(plant, v, w) == ref["total_cost"]


@pytest.mark.parametrize(
    "case", ["boeing", (125, 2, 1, 1), (200, 3, 2, 2), (400, 5, 2, 3)], ids=str
)
def test_offline_sweep_matches_dense_route(case, boeing):
    """The default sweep agrees with the dense normal equations at the sizes
    users run (T*n from 250 to 2000; Boeing at T = 300)."""
    if case == "boeing":
        plant = boeing.to_ltv(300)
    else:
        T, n, m, p = case
        plant = random_ltv(np.random.default_rng(8200 + T), T=T, n=n, m=m, p=p)
    rng = np.random.default_rng(8300 + plant.T)
    w = rng.standard_normal((plant.T, plant.p))
    u, opt = offline_optimal(plant, w)
    u_dense, opt_dense = offline_optimal(plant, w, method="dense")
    assert abs(opt - opt_dense) <= 1e-10 * opt_dense
    assert np.abs(u - u_dense).max() <= 1e-9 * np.abs(u_dense).max()


def test_offline_validations(rng):
    plant = random_ltv(rng, T=4, n=2, m=1, p=1)
    w = rng.standard_normal((4, 1))
    with pytest.raises(ValueError):
        offline_optimal(plant, w, method="magic")
    with pytest.raises(ValueError):
        offline_optimal(plant, w[:3])
    # an LtiPlant runs over len(w): the same bits as its replication
    lti = random_lti(rng, n=2, m=1, p=1)
    for method in ("dense", "riccati"):
        u, opt = offline_optimal(lti, w, method=method)
        u_ltv, opt_ltv = offline_optimal(lti.to_ltv(4), w, method=method)
        assert np.array_equal(u, u_ltv) and opt == opt_ltv
    with pytest.raises(TypeError):
        offline_optimal(lti.A, w)
    from compctrl.model import LtvPlant

    shifted = LtvPlant(
        A=plant.A, Bu=plant.Bu, Bw=plant.Bw, Q=plant.Q,
        R_half=plant.R_half, x0=np.ones(2),
    )
    with pytest.raises(ValueError):
        offline_optimal(shifted, w)


def test_offline_beats_all_online_controllers(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    T = 60
    w = rng.standard_normal((T, 1))
    _, opt = offline_optimal(plant.to_ltv(T), w)
    competitors = [
        synth_h2_ih(plant),
        synth_h2_ih(plant, causality="strictly-causal"),
        synth_hinf(plant, 1.1 * min_gamma_hinf(plant, audit=False).gamma),
        min_gamma_competitive(plant, audit=False).controller,
        ZeroController(m=plant.m),
    ]
    for ctrl in competitors:
        assert rollout(plant, ctrl, w).total_cost >= opt - 1e-9


def _reference_case(case, rng):
    """(plant, horizon) of one three-branch reference case."""
    if case == "doubled":
        return load_bundled_plant("boeing747"), None
    if case == "exact":
        return random_lti(rng, n=3, m=2, p=1), None
    return random_ltv(rng, T=30, n=3, m=1, p=2), 30


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
@pytest.mark.parametrize("case", ["doubled", "exact", "finite-horizon"])
def test_realization_matches_three_branch_reference(case, causality, rng):
    """Stepping the realization on (x, nu) reproduces the law stepped on
    the synthetic plant branch by branch: u, x and the cost to 1e-12, and
    the logged w' bit for bit."""
    plant, horizon = _reference_case(case, rng)
    found = min_gamma_competitive(plant, causality=causality, horizon=horizon, audit=False)
    assert found.ok
    ctrl = found.controller
    if horizon is None:
        assert ctrl.synthetic.exact == (case == "exact")
    T = horizon or 120
    w = np.random.default_rng(5).standard_normal((T, plant.p))
    res = rollout(plant, ctrl, w)
    x, u, wprime, cost = three_branch_rollout(
        plant if horizon is not None else plant.to_ltv(T), ctrl, w
    )
    assert res.status == "ok"
    assert np.array_equal(res.wprime, wprime)
    assert np.any(wprime != 0.0)
    for got, ref in ((res.u, u), (res.x, x)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert res.total_cost == pytest.approx(cost, rel=1e-12)
    if horizon is not None:
        assert np.array_equal(res.u[-1], np.zeros(plant.m))


@pytest.mark.parametrize(
    "causality, horizon", [("causal", None), ("strictly-causal", None), ("causal", 300)]
)
def test_competitive_law_brings_an_initial_state_to_rest(boeing, causality, horizon):
    """The ratio-optimal law reads the measured state: from x0 = e_1 with
    w = 0 it drives Boeing to rest at about the LQ cost (1.71), where a law
    blind to x applies u = 0 and pays 36.9."""
    found = min_gamma_competitive(boeing, causality=causality, horizon=horizon, audit=False)
    assert found.ok
    plant = dataclasses.replace(boeing, x0=np.eye(boeing.n)[0])
    res = rollout(plant, found.controller, np.zeros((300, boeing.p)))
    assert res.status == "ok"
    assert np.linalg.norm(res.x[-1]) < 1e-6
    assert res.total_cost < 2.0


def test_control_step_rejects_offline():
    off = OfflineController()
    with pytest.raises(TypeError):
        control_step(off, off.make_state(), np.zeros(2), np.zeros(1))


def test_every_online_controller_rejects_a_disturbance_of_another_length(rng):
    # one step for all: the same ValueError, and the step does not count
    plant = random_lti(rng, n=3, m=1, p=4)
    controllers = {
        "h2": synth_h2_ih(plant),
        "hinf": synth_hinf(plant, 50.0),
        "competitive": synth_competitive(plant, 6.0),
    }
    for name, ctrl in controllers.items():
        assert not isinstance(ctrl, Infeasible), name
        state = ctrl.make_state()
        control_step(ctrl, state, np.zeros(3), np.ones(4))
        with pytest.raises(ValueError, match="disturbance has dimension 3, expected 4"):
            control_step(ctrl, state, np.zeros(3), np.ones(3))
        assert state.t == 1, name
    # the zero baseline reads no disturbance and has no p: any length steps
    zero = ZeroController(m=1)
    state = zero.make_state()
    for w_t in (np.ones(4), np.ones(3), np.ones(1)):
        u, state = control_step(zero, state, np.zeros(3), w_t)
        assert np.array_equal(u, np.zeros(1))
    assert state.t == 3


@pytest.mark.parametrize("kind", ["h2", "hinf", "competitive", "zero"])
def test_every_online_step_refuses_a_missing_disturbance(kind, rng):
    # np.asarray(None, dtype=float) is NaN: unrefused, a missing w_t would
    # step as a NaN disturbance and return u = [nan] (u = 0 for the zero
    # baseline, which reads no w_t but is refused the same way)
    plant = random_lti(rng, n=3, m=1, p=4)
    ctrl = {"h2": lambda: synth_h2_ih(plant), "hinf": lambda: synth_hinf(plant, 50.0),
            "competitive": lambda: synth_competitive(plant, 6.0),
            "zero": lambda: ZeroController(m=1)}[kind]()
    assert not isinstance(ctrl, Infeasible)
    state = ctrl.make_state()
    control_step(ctrl, state, rng.standard_normal(3), rng.standard_normal(4))

    def snapshot():  # t, z and w' as plain values
        return state.t, *(None if a is None else a.tolist() for a in (state.z, ctrl.wprime(state)))

    before = snapshot()
    for step in (lambda: control_step(ctrl, state, np.ones(3), None),
                 lambda: ctrl.step(state, np.ones(3), None)):
        with pytest.raises(ValueError, match="^step needs w_t$"):
            step()
        assert snapshot() == before
    assert (before[2] is None) == (kind != "competitive")


def test_zero_controller_outputs_zero(rng):
    z = ZeroController(m=2)
    state = z.make_state()
    u, state = control_step(z, state, np.ones(3), np.ones(1))
    assert np.array_equal(u, np.zeros(2))


# --- serialization ----------------------------------------------------------


def _trajectory(plant, ctrl, w):
    res = rollout(plant, ctrl, w)
    return res.x, res.u


@pytest.mark.parametrize(
    "make",
    [
        lambda p: synth_h2_ih(p),
        lambda p: synth_h2_ih(p, causality="strictly-causal"),
        lambda p: synth_hinf(p, 1e3),
        lambda p: synth_competitive(p, 3.0),
        lambda p: synth_competitive(p, 3.0, causality="strictly-causal"),
        lambda p: ZeroController(m=p.m),
    ],
    ids=["h2", "h2-strict", "hinf", "competitive", "competitive-strict", "zero"],
)
def test_serialization_round_trip_ih(make, rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    ctrl = make(plant)
    back = controller_from_json_dict(controller_to_json_dict(ctrl))
    assert type(back) is type(ctrl)
    assert back.kind == ctrl.kind and back.causality == ctrl.causality
    assert back.dims == ctrl.dims
    w = rng.standard_normal((40, 1))
    x1, u1 = _trajectory(plant, ctrl, w)
    x2, u2 = _trajectory(plant, back, w)
    assert np.array_equal(x1, x2)
    assert np.array_equal(u1, u2)


@pytest.mark.parametrize("kind", ["hinf", "competitive"])
def test_serialization_round_trip_fh(kind, rng):
    plant = random_ltv(rng, T=7, n=2, m=1, p=1)
    ctrl = (
        synth_hinf(plant, 25.0) if kind == "hinf" else synth_competitive(plant, 6.0)
    )
    assert not isinstance(ctrl, Infeasible)
    back = controller_from_json_dict(controller_to_json_dict(ctrl))
    assert back.horizon == 7
    w = rng.standard_normal((7, 1))
    x1, u1 = _trajectory(plant, ctrl, w)
    x2, u2 = _trajectory(plant, back, w)
    assert np.array_equal(x1, x2)
    assert np.array_equal(u1, u2)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj.update(horizon=None), "ltv"),
        (lambda obj: obj.update(horizon=25), "does not fit horizon 25"),
        (lambda obj: obj["synthetic"].update(ltv=False), "ltv"),
        (
            lambda obj: (obj.update(horizon=None), obj["synthetic"].update(ltv=False)),
            "does not fit horizon None",
        ),
        (lambda obj: obj["gains"]["Kxi"].pop(), "Kxi has shape"),
        (lambda obj: obj["gains"]["Kwp"].pop(), "Kwp has shape"),
        (lambda obj: _drop_last_columns(obj["gains"]["Kxi"]),
         "Kxi has shape (20, 1, 3), but (n, m, p) = (2, 1, 1) needs (20, 1, 4)"),
        (lambda obj: _drop_last_columns(obj["gains"]["Kwp"]),
         "Kwp has shape (20, 1, 1), but (n, m, p) = (2, 1, 1) needs (20, 1, 2)"),
        (lambda obj: _drop_last_columns(obj["synthetic"]["Bwhat"]),
         "Bwhat has shape (20, 4, 1), but (n, m, p) = (2, 1, 1) needs (20, 4, 2)"),
        (lambda obj: _drop_last_columns(obj["synthetic"]["M_filter"]),
         "M_filter has shape (20, 2, 1), but (n, m, p) = (2, 1, 1) needs (20, 2, 2)"),
        (lambda obj: [step.pop() for step in obj["synthetic"]["Ahat"]],
         "Ahat has shape (20, 3, 4), but (n, m, p) = (2, 1, 1) needs (20, 4, 4)"),
    ],
    ids=["horizon-null", "horizon-25", "ltv-false", "both-infinite", "short-Kxi", "short-Kwp",
         "narrow-Kxi", "narrow-Kwp", "narrow-Bwhat", "narrow-M_filter", "short-Ahat"],
)
def test_loader_rejects_inconsistent_horizon(edit, message, rng):
    # a file whose horizon, ltv flag, array ranks or lengths or matrix
    # dimensions disagree must not load; horizon null once rolled out with
    # the step-0 matrices, and a narrowed gain once failed inside numpy
    plant = random_ltv(rng, T=20, n=2, m=1, p=1)
    obj = controller_to_json_dict(synth_competitive(plant, 6.0))
    assert controller_from_json_dict(obj).horizon == 20
    edit(obj)
    with pytest.raises(ValueError, match=re.escape(message)):
        controller_from_json_dict(obj)


def _drop_last_columns(rows):
    """Drop the last column of a matrix, or of every step of a stack, in
    the nested lists of a controller file."""
    for row in rows:
        if isinstance(row[0], list):
            _drop_last_columns(row)
        else:
            row.pop()


@pytest.mark.parametrize(
    "case, edit, message",
    [
        ("h2", lambda g, s: g["Kw"].pop(),
         "Kw has shape (1, 4), but (n, m, p) = (4, 2, 4) needs (2, 4)"),
        ("competitive", lambda g, s: _drop_last_columns(g["Kxi"]),
         "Kxi has shape (2, 7), but (n, m, p) = (4, 2, 4) needs (2, 8)"),
        ("exact", lambda g, s: [row.append(0.0) for row in s["D_outer"]],
         "D_outer has shape (1, 2), but (n, m, p) = (3, 1, 1) needs (1, 1)"),
        ("exact", lambda g, s: _drop_last_columns(s["C_outer"]),
         "C_outer has shape (1, 2), but (n, m, p) = (3, 1, 1) needs (1, 3)"),
        ("exact", lambda g, s: _drop_last_columns(g["Kwp"]),
         "Kwp has shape (1, 0), but (n, m, p) = (3, 1, 1) needs (1, 1)"),
    ],
    ids=["h2-short-Kw", "competitive-narrow-Kxi", "exact-wide-D_outer",
         "exact-narrow-C_outer", "exact-narrow-Kwp"],
)
def test_loader_rejects_inconsistent_dimensions(case, edit, message, boeing, rng):
    # every matrix of an infinite-horizon file is checked against one
    # (n, m, p) read from it; at the parent such files loaded and the
    # rollout failed inside numpy
    if case == "h2":
        ctrl = synth_h2_ih(boeing)
    elif case == "competitive":
        ctrl = synth_competitive(boeing, 1.4)
    else:
        ctrl = synth_competitive(random_lti(rng, n=3, m=1, p=1), 8.0)
        assert ctrl.synthetic.exact
    obj = controller_to_json_dict(ctrl)
    edit(obj["gains"], obj["synthetic"])
    with pytest.raises(ValueError, match=re.escape(message)):
        controller_from_json_dict(obj)


def test_loader_rejects_state_feedback_gains_off_horizon(rng):
    plant = random_ltv(rng, T=7, n=2, m=1, p=1)
    obj = controller_to_json_dict(synth_hinf(plant, 25.0))
    obj["horizon"] = None
    with pytest.raises(ValueError, match="Kx has shape"):
        controller_from_json_dict(obj)


def test_serialization_round_trip_offline():
    off = OfflineController()
    back = controller_from_json_dict(controller_to_json_dict(off))
    assert isinstance(back, OfflineController)
    assert back.causality == "noncausal"


@pytest.mark.parametrize("kind", ["h2", "hinf", "competitive"])
def test_loader_rejects_an_unknown_causality(kind):
    plant = scalar_lti(a=0.5)
    ctrl = {"h2": lambda: synth_h2_ih(plant), "hinf": lambda: synth_hinf(plant, 5.0),
            "competitive": lambda: synth_competitive(plant, 5.0)}[kind]()
    obj = controller_to_json_dict(ctrl)
    obj["causality"] = "bogus"
    with pytest.raises(ValueError, match="^controller file: causality must be 'causal' or"):
        controller_from_json_dict(obj)


def test_serialization_rejects_unknown_schema(rng):
    obj = controller_to_json_dict(ZeroController(m=1))
    obj["schema_version"] = 99
    with pytest.raises(ValueError):
        controller_from_json_dict(obj)


def test_infeasible_carries_context(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    res = synth_hinf(plant, 1e-6)
    assert isinstance(res, Infeasible)
    assert res.gamma == 1e-6
    assert isinstance(res.details, dict)
