import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_lti, random_ltv, random_unstable_stabilizable, scalar_lti
from oracles import affine_sweep, brute_force_offline, rollout_cost, stacked_opt_cost

from compctrl.controllers import (
    CompetitiveController,
    _affine_pass,
    _affine_schedule,
    _synthetic_plant,
    Infeasible,
    OfflineController,
    StateFeedbackController,
    ZeroController,
    control_step,
    controller_from_json_dict,
    controller_to_json_dict,
    offline_optimal,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
)
from compctrl.factorization import SyntheticSystemFH
from compctrl.freq import closed_loop, peak_gain
from compctrl.mpc import PendulumParams, linearize_pendulum
from compctrl.riccati import is_stable
from compctrl.search import min_gamma_competitive, min_gamma_hinf
from compctrl.sim import rollout

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


# --- H-infinity ----------------------------------------------------------


def test_hinf_rejects_nonpositive_gamma(rng):
    plant = random_lti(rng)
    with pytest.raises(ValueError):
        synth_hinf(plant, 0.0)
    with pytest.raises(ValueError):
        synth_hinf(plant, -1.0)
    with pytest.raises(ValueError):
        synth_hinf(plant, 1.0, causality="acausal")


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


def test_state_feedback_step_past_horizon(rng):
    plant = random_ltv(rng, T=3, n=2, m=1, p=1)
    ctrl = synth_hinf(plant, 25.0)
    state = ctrl.make_state()
    for t in range(3):
        control_step(ctrl, state, np.zeros(2), np.zeros(1))
    with pytest.raises(IndexError):
        control_step(ctrl, state, np.zeros(2), np.zeros(1))


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
    [(2, None), (1, None), (1, 12)],
    ids=["doubled", "exact", "finite-horizon"],
)
def test_competitive_reuses_provided_factor(p, horizon, rng):
    plant = random_lti(rng, n=2, m=1, p=p)
    normalized = plant if horizon is None else plant.to_ltv(horizon)
    syn = _synthetic_plant(normalized)
    a = synth_competitive(normalized, 3.0, _synthetic=syn)
    b = synth_competitive(plant, 3.0, horizon=horizon)
    assert isinstance(a, CompetitiveController)
    assert a.synthetic is syn
    assert isinstance(syn, SyntheticSystemFH) == (horizon is not None)
    if horizon is None:
        assert syn.exact == (p < 2)
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
    # sweep, split at its dependence on w
    rng = np.random.default_rng(8100 + sum(map(ord, case)))
    if case == "pendulum":
        plant = linearize_pendulum(PendulumParams(), 0.03).to_ltv(1001)
    else:
        n = 3
        plant = random_ltv(rng, T=40, n=n, m=2, p=n if case.startswith("p=n") else 1)
    w = rng.standard_normal((plant.T, plant.p))
    K_ref, h_ref = affine_sweep(plant, w)
    schedule = _affine_schedule(plant)
    h = _affine_pass(schedule, w)
    assert schedule.K.shape == K_ref.shape and h.shape == h_ref.shape
    assert _rel(schedule.K, K_ref) < 1e-12
    assert _rel(h, h_ref) < 1e-12
    # the schedule serves any disturbance: the pass is linear in w
    w2 = rng.standard_normal(w.shape)
    assert _rel(_affine_pass(schedule, w2), affine_sweep(plant, w2)[1]) < 1e-12
    for arr in schedule:
        with pytest.raises(ValueError):
            arr[0] = 0.0


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


def test_offline_default_method_switches_on_size(rng):
    small = random_ltv(rng, T=8, n=2, m=1, p=1)  # T*n = 16 -> dense
    w = rng.standard_normal((8, 1))
    u_auto, opt_auto = offline_optimal(small, w)
    u_dense, opt_dense = offline_optimal(small, w, method="dense")
    assert np.array_equal(u_auto, u_dense) and opt_auto == opt_dense


def test_offline_validations(rng):
    plant = random_ltv(rng, T=4, n=2, m=1, p=1)
    w = rng.standard_normal((4, 1))
    with pytest.raises(ValueError):
        offline_optimal(plant, w, method="magic")
    with pytest.raises(ValueError):
        offline_optimal(plant, w[:3])
    with pytest.raises(TypeError):
        offline_optimal(random_lti(rng), w)
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


def test_control_step_rejects_offline():
    off = OfflineController()
    with pytest.raises(TypeError):
        control_step(off, off.make_state(), np.zeros(2), np.zeros(1))


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


def test_serialization_round_trip_offline():
    off = OfflineController()
    back = controller_from_json_dict(controller_to_json_dict(off))
    assert isinstance(back, OfflineController)
    assert back.causality == "noncausal"


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
