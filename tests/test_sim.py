"""Tests for disturbance generation, closed-loop rollout, and trace output."""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compctrl import (
    CompetitiveController,
    DisturbanceSpec,
    Infeasible,
    LtiPlant,
    LtvPlant,
    OfflineController,
    StateFeedbackController,
    ZeroController,
    control_step,
    compare,
    cost_ratio,
    generate,
    offline_optimal,
    rollout,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
    wprime_run,
    write_comparison_json,
    write_trace_csv,
)
from compctrl.mpc import PendulumParams, linearize_pendulum
from compctrl.sim import RolloutResult, spec_from_json_dict, spec_to_json_dict

import oracles
from conftest import assert_same_rollout, random_lti, random_ltv, scalar_lti


# ---------------------------------------------------------------------------
# spec validation


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown disturbance kind"):
        DisturbanceSpec("brownian")


def test_step_switch_count_must_match_levels():
    spec = DisturbanceSpec("step", {"levels": [1.0, -1.0, 1.0], "switch_times": [10]})
    with pytest.raises(ValueError, match="switch_times"):
        generate(spec, 20, 1)


def test_step_switch_times_must_be_sorted():
    spec = DisturbanceSpec(
        "step", {"levels": [1.0, -1.0, 1.0], "switch_times": [15, 5]}
    )
    with pytest.raises(ValueError, match="nondecreasing"):
        generate(spec, 20, 1)


def test_mixture_weight_count_must_match():
    spec = DisturbanceSpec(
        "mixture",
        {"components": [DisturbanceSpec("dc")], "weights": [0.5, 0.5]},
    )
    with pytest.raises(ValueError, match="one weight per component"):
        generate(spec, 4, 1)


def test_direction_length_checked():
    spec = DisturbanceSpec("dc", {"direction": [1.0, 0.0]})
    with pytest.raises(ValueError, match="direction"):
        generate(spec, 4, 3)


def test_direction_must_be_nonzero():
    spec = DisturbanceSpec("dc", {"direction": [0.0, 0.0]})
    with pytest.raises(ValueError, match="nonzero"):
        generate(spec, 4, 2)


def test_horizon_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        generate(DisturbanceSpec("dc"), 0, 1)


# ---------------------------------------------------------------------------
# generation


def test_generate_deterministic_in_seed():
    spec = DisturbanceSpec("white-gaussian", {"sigma": 0.7})
    a = generate(spec, 64, 3, seed=11)
    b = generate(spec, 64, 3, seed=11)
    c = generate(spec, 64, 3, seed=12)
    assert_array_equal(a, b)
    assert np.any(a != c)
    assert a.shape == (64, 3)


def test_white_gaussian_sigma_scales_exactly():
    # The same seed replays the same standard normals, so scaling by sigma
    # is exact to the bit.
    base = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 32, 2, seed=5)
    scaled = generate(DisturbanceSpec("white-gaussian", {"sigma": 2.5}), 32, 2, seed=5)
    assert_array_equal(scaled, 2.5 * base)


def test_sinusoid_matches_formula():
    w = generate(
        DisturbanceSpec("sinusoid", {"omega": 0.3, "amplitude": 2.0}), 10, 1, seed=0
    )
    t = np.arange(10)
    assert_allclose(w[:, 0], 2.0 * np.sin(0.3 * t), rtol=0, atol=0)


def test_step_levels_and_switch_indexing():
    spec = DisturbanceSpec(
        "step", {"levels": [1.0, -1.0, 0.5], "switch_times": [3, 6]}
    )
    w = generate(spec, 9, 1)[:, 0]
    # the switch takes effect exactly at the switch time
    assert_array_equal(w, [1, 1, 1, -1, -1, -1, 0.5, 0.5, 0.5])


def test_dc_uses_normalized_direction():
    w = generate(DisturbanceSpec("dc", {"direction": [3.0, 4.0]}), 5, 2)
    assert_allclose(w, np.tile([0.6, 0.8], (5, 1)), rtol=0, atol=1e-15)


def test_sine_mean_gaussian_decomposes():
    # sigma = 0 leaves the deterministic sinusoidal mean; the noise around
    # the mean replays the white-gaussian stream of the same seed exactly.
    params = {"mean_amplitude": 1.5, "mean_omega": 0.02, "sigma": 0.0}
    mean = generate(DisturbanceSpec("sine-mean-gaussian", params), 40, 1, seed=9)
    t = np.arange(40)
    assert_allclose(mean[:, 0], 1.5 * np.sin(0.02 * t), rtol=0, atol=0)

    noisy = generate(
        DisturbanceSpec("sine-mean-gaussian", dict(params, sigma=0.3)), 40, 1, seed=9
    )
    white = generate(DisturbanceSpec("white-gaussian", {"sigma": 1.0}), 40, 1, seed=9)
    assert_array_equal(noisy, mean + 0.3 * white)


def test_mixture_weighted_sum_of_deterministic_components():
    comps = [
        DisturbanceSpec("dc"),
        DisturbanceSpec("sinusoid", {"omega": 0.5}),
    ]
    spec = DisturbanceSpec("mixture", {"components": comps, "weights": [2.0, -1.0]})
    w = generate(spec, 12, 1, seed=3)
    dc = generate(comps[0], 12, 1, seed=3)
    sin = generate(comps[1], 12, 1, seed=3)
    assert_allclose(w, 2.0 * dc - 1.0 * sin, rtol=0, atol=1e-15)


def test_mixture_default_weights_average():
    comps = [DisturbanceSpec("dc"), DisturbanceSpec("dc")]
    w = generate(DisturbanceSpec("mixture", {"components": comps}), 6, 1)
    assert_allclose(w, np.ones((6, 1)), rtol=0, atol=1e-15)


def test_mixture_components_draw_from_jumped_streams():
    # Component i consumes the stream Philox(seed).jumped(i), so random
    # components stay decorrelated and reproducible inside a mixture.
    comps = [DisturbanceSpec("dc"), DisturbanceSpec("white-gaussian", {"sigma": 1.0})]
    spec = DisturbanceSpec("mixture", {"components": comps, "weights": [0.5, 2.0]})
    w = generate(spec, 16, 2, seed=21)
    rng = np.random.Generator(np.random.Philox(21).jumped(1))
    expected = 0.5 * np.ones((16, 2)) / np.sqrt(2.0) + 2.0 * rng.standard_normal(
        (16, 2)
    )
    assert_allclose(w, expected, rtol=0, atol=1e-15)


def test_spec_json_round_trip_regenerates_identically():
    spec = DisturbanceSpec(
        "mixture",
        {
            "components": [
                DisturbanceSpec("step", {"levels": [1.0, -1.0], "switch_times": [8]}),
                DisturbanceSpec(
                    "white-gaussian", {"sigma": np.float64(0.4).item()}
                ),
            ],
            "weights": [1.0, 1.0],
        },
    )
    blob = json.dumps(spec_to_json_dict(spec))  # must be JSON-serializable
    back = spec_from_json_dict(json.loads(blob))
    assert_array_equal(generate(spec, 32, 1, seed=2), generate(back, 32, 1, seed=2))


def test_spec_json_handles_array_direction():
    spec = DisturbanceSpec("dc", {"direction": np.array([1.0, 2.0])})
    obj = spec_to_json_dict(spec)
    assert obj == {"kind": "dc", "direction": [1.0, 2.0]}
    back = spec_from_json_dict(json.loads(json.dumps(obj)))
    assert_array_equal(generate(spec, 3, 2), generate(back, 3, 2))


# ---------------------------------------------------------------------------
# rollout


def test_rollout_recomputes_from_plant_equations(rng):
    plant = random_lti(rng, n=3, m=2, p=2)
    ctrl = synth_h2_ih(plant)
    w = generate(DisturbanceSpec("white-gaussian", {"sigma": 0.5}), 40, 2, seed=4)
    res = rollout(plant, ctrl, w)

    assert res.status == "ok"
    assert res.steps_completed == 40
    assert res.x.shape == (41, 3)
    assert res.u.shape == (40, 2)
    # replay the state recursion from the logged inputs
    x = np.zeros(3)
    for t in range(40):
        assert_allclose(res.x[t], x, rtol=0, atol=1e-12)
        expected_cost = x @ plant.Q @ x + res.u[t] @ res.u[t]
        assert_allclose(res.step_cost[t], expected_cost, rtol=1e-12, atol=1e-15)
        x = plant.A @ x + plant.Bu @ res.u[t] + plant.Bw @ w[t]
    assert_allclose(res.x[40], x, rtol=0, atol=1e-12)


def test_rollout_cost_bookkeeping(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    w = generate(DisturbanceSpec("white-gaussian", {}), 30, 1, seed=8)
    res = rollout(plant, ZeroController(m=1), w)
    assert np.all(np.diff(res.cum_cost) >= 0)
    assert_allclose(res.cum_cost, np.cumsum(res.step_cost), rtol=1e-12, atol=0)
    assert_allclose(res.total_cost, res.step_cost.sum(), rtol=1e-9, atol=0)


def test_rollout_one_dimensional_disturbance_promoted(rng):
    plant = scalar_lti(a=0.5)
    res = rollout(plant, ZeroController(m=1), np.ones(5))
    assert res.w.shape == (5, 1)
    assert res.status == "ok"


def test_rollout_divergence_truncates():
    plant = scalar_lti(a=2.0)  # open-loop unstable
    w = generate(DisturbanceSpec("dc"), 50, 1)
    res = rollout(plant, ZeroController(m=1), w)
    assert res.status == "diverged"
    assert res.steps_completed < 50
    s = res.steps_completed
    assert np.linalg.norm(res.x[s]) > 1e6 or not np.all(np.isfinite(res.x[s]))
    # every array is truncated consistently; the diverging step is charged
    assert res.w.shape[0] == s
    assert res.u.shape[0] == s
    assert res.step_cost.shape[0] == s
    assert res.cum_cost.shape[0] == s
    assert res.x.shape[0] == s + 1
    assert_allclose(res.total_cost, res.step_cost.sum(), rtol=1e-12, atol=0)


def test_rollout_rejects_wrong_disturbance_width(rng):
    plant = random_lti(rng, n=2, m=1, p=2)
    with pytest.raises(ValueError, match="shape"):
        rollout(plant, ZeroController(m=1), np.ones((10, 1)))


def test_rollout_rejects_horizon_mismatch(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    fh = plant.to_ltv(8)
    with pytest.raises(ValueError, match="horizon"):
        rollout(fh, ZeroController(m=1), np.ones((9, 1)))


def test_rollout_and_compare_reject_a_controller_made_for_another_plant(rng, boeing):
    # each names the dimension that disagrees, before the first step
    scalar = scalar_lti(a=0.5)
    w = np.ones((10, boeing.p))
    for ctrl in (synth_h2_ih(scalar), synth_competitive(scalar, 4.0)):
        with pytest.raises(ValueError, match=r"^controller is made for n = 1, but the plant has n = 4$"):
            rollout(boeing, ctrl, w)
        with pytest.raises(ValueError, match="n = 1"):
            compare(boeing, [("h2", synth_h2_ih(boeing)), ("other", ctrl)], w)
    plant = random_lti(rng, n=2, m=1, p=1)
    w = np.ones((8, 1))
    for ctrl, wrong in (
        (ZeroController(m=2), "m = 2"),
        (synth_h2_ih(random_lti(rng, n=2, m=1, p=2)), "p = 2"),
        (synth_hinf(plant, 50.0, horizon=7), "horizon"),
    ):
        with pytest.raises(ValueError, match=wrong):
            rollout(plant, ctrl, w)
        with pytest.raises(ValueError, match=wrong):
            compare(plant, {"other": ctrl}, w)


def test_wprime_log_matches_filter_run(rng):
    # The per-step w' column logged by rollout must reproduce the batch
    # whitened-disturbance expansion of the same synthetic system exactly,
    # on the doubled plant (p = n), the exact plant (p < n) and in a finite
    # horizon.
    doubled = random_lti(rng, n=3, m=1, p=3)
    exact = random_lti(rng, n=3, m=1, p=2)
    finite = random_ltv(rng, T=25, n=3, m=1, p=2)
    cases = [
        (doubled, synth_competitive(doubled, gamma=4.0)),
        (exact, synth_competitive(exact, gamma=4.0)),
        (finite, synth_competitive(finite, gamma=6.0)),
    ]
    assert [ctrl.horizon for _, ctrl in cases] == [None, None, 25]
    assert [ctrl.synthetic.exact for _, ctrl in cases[:2]] == [False, True]
    for plant, ctrl in cases:
        w = generate(DisturbanceSpec("white-gaussian", {}), 25, plant.p, seed=13)
        res = rollout(plant, ctrl, w)
        assert res.status == "ok"
        expected = wprime_run(ctrl.synthetic, w)
        assert_array_equal(res.wprime, expected)
        assert_array_equal(res.wprime[0], np.zeros(3))
        assert np.any(res.wprime[1:] != 0)


def test_wprime_zero_for_unfiltered_controllers(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    res = rollout(plant, synth_h2_ih(plant), np.ones((10, 1)))
    assert_array_equal(res.wprime, np.zeros((10, 2)))


def _written_out_u(ctrl, t, x, w_t, z):
    """u_t from the controller's stored gains or realization, one product
    at a time, as the controllers' docstrings write the laws."""
    if isinstance(ctrl, StateFeedbackController):
        Kx, Kw = (ctrl.Kx, ctrl.Kw) if ctrl.horizon is None else (ctrl.Kx[t], ctrl.Kw[t])
        return -(Kx @ x) - (Kw @ w_t)
    if isinstance(ctrl, CompetitiveController):
        if ctrl.horizon is not None and t == ctrl.horizon - 1:
            return np.zeros(ctrl.synthetic.m)
        r, k = ctrl.realization, (0 if ctrl.horizon is None else t)
        return r.Cz[k] @ z + r.Dz[k] @ w_t
    return np.zeros(ctrl.m)


def _stepped(plant, ctrl, w):
    """Reference rollout: the public control_step, one call per step, on
    the plant's per-step matrices; each control is also checked against
    the written-out law."""
    T = w.shape[0]
    ltv = plant if isinstance(plant, LtvPlant) else plant.to_ltv(T)
    u_off = offline_optimal(ltv, w)[0] if isinstance(ctrl, OfflineController) else None
    state = ctrl.make_state()
    x = ltv.x0.copy()
    xs, us, wps, costs, cums = [x], [], [], [], []
    running = 0.0
    for t in range(T):
        if isinstance(ctrl, CompetitiveController):
            wps.append(ctrl.wprime(state))
        else:
            wps.append(np.zeros(ltv.n))
        if u_off is not None:
            u = u_off[t]
        else:
            expected = _written_out_u(ctrl, t, x, w[t], state.z)
            u = control_step(ctrl, state, x, w[t])[0]
            assert np.array_equal(u, expected)
        cost = float(x @ ltv.Q[t] @ x + u @ u)
        running += cost
        us.append(u)
        costs.append(cost)
        cums.append(running)
        x = ltv.A[t] @ x + ltv.Bu[t] @ u + ltv.Bw[t] @ w[t]
        xs.append(x)
    return np.array(xs), np.array(us), np.array(wps), np.array(costs), np.array(cums)


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_rollout_is_bit_identical_to_control_step(causality, rng):
    # the law a rollout binds once does the float operations of stepping
    # the controller, in the same order: the same bits, not just close, for
    # every family, both horizons, a time-invariant and a time-varying plant
    T = 30
    lti = random_lti(rng, n=3, m=1, p=2)
    ltv = random_ltv(rng, T=T, n=3, m=1, p=2)
    cases = [
        (lti, synth_h2_ih(lti, causality)),
        (lti, synth_hinf(lti, 50.0, causality)),
        (lti, synth_competitive(lti, 8.0, causality)),
        (lti, synth_hinf(lti, 50.0, causality, horizon=T)),
        (lti, synth_competitive(lti, 8.0, causality, horizon=T)),
        (ltv, synth_hinf(ltv, 50.0, causality)),
        (ltv, synth_competitive(ltv, 8.0, causality)),
        (lti, ZeroController(m=1)),
        (lti, OfflineController()),
        (ltv, OfflineController()),
    ]
    w = generate(DisturbanceSpec("white-gaussian", {}), T, 2, seed=21)
    for plant, ctrl in cases:
        assert not isinstance(ctrl, Infeasible), ctrl
        res = rollout(plant, ctrl, w)
        assert res.status == "ok"
        x, u, wprime, step_cost, cum_cost = _stepped(plant, ctrl, w)
        for got, want in ((res.x, x), (res.u, u), (res.wprime, wprime),
                          (res.step_cost, step_cost), (res.cum_cost, cum_cost)):
            assert got.shape == want.shape
            assert np.array_equal(got, want), (ctrl.kind, ctrl.horizon)
        assert res.total_cost == cum_cost[-1]


def _rollout_cases(boeing, rng):
    """(plant, controller, w) triples covering every law, plant form and
    horizon of :func:`rollout`."""
    T = 40
    white = DisturbanceSpec("white-gaussian", {})
    exact = random_lti(rng, n=3, m=1, p=2)  # p < n: the exact synthetic plant
    ltv = random_ltv(rng, T=T, n=3, m=2, p=2)  # Q varies over time
    cases = {}
    for c in ("causal", "strictly-causal"):
        cases[f"boeing-h2-{c}"] = (boeing, synth_h2_ih(boeing, c))
        cases[f"boeing-hinf-{c}"] = (boeing, synth_hinf(boeing, 30.0, c))
        cases[f"boeing-hinf-fh-{c}"] = (boeing, synth_hinf(boeing, 30.0, c, horizon=T))
        cases[f"exact-h2-{c}"] = (exact, synth_h2_ih(exact, c))
        cases[f"exact-hinf-fh-{c}"] = (exact, synth_hinf(exact, 50.0, c, horizon=T))
        cases[f"ltv-hinf-{c}"] = (ltv, synth_hinf(ltv, 50.0, c))
    for c, gamma in (("causal", 1.4), ("strictly-causal", 5.5)):
        cases[f"boeing-competitive-{c}"] = (boeing, synth_competitive(boeing, gamma, c))
        cases[f"boeing-competitive-fh-{c}"] = (
            boeing, synth_competitive(boeing, gamma, c, horizon=T))
    for c in ("causal", "strictly-causal"):
        cases[f"exact-competitive-{c}"] = (exact, synth_competitive(exact, 8.0, c))
        cases[f"exact-competitive-fh-{c}"] = (
            exact, synth_competitive(exact, 8.0, c, horizon=T))
        cases[f"ltv-competitive-{c}"] = (ltv, synth_competitive(ltv, 8.0, c))
    cases["boeing-zero"] = (boeing, ZeroController(m=2))
    cases["boeing-offline"] = (boeing, OfflineController())
    cases["ltv-zero"] = (ltv, ZeroController(m=2))
    cases["ltv-offline"] = (ltv, OfflineController())
    out = {}
    for name, (plant, ctrl) in cases.items():
        assert not isinstance(ctrl, Infeasible), name
        out[name] = (plant, ctrl, generate(white, T, plant.p, seed=len(out)))
    return out


def test_rollout_equals_stepped_oracle(boeing, rng):
    # the rollout takes its step costs after the loop and its products with
    # w once per record; the oracle does all of it per step, with explicit
    # matrices: every field must be the same bits
    cases = _rollout_cases(boeing, rng)
    assert {ctrl.horizon for _, ctrl, _ in cases.values()} == {None, 40}
    assert any(ctrl.synthetic.exact for _, ctrl, _ in cases.values()
               if isinstance(ctrl, CompetitiveController) and ctrl.horizon is None)
    assert np.any(cases["ltv-zero"][0].Q != cases["ltv-zero"][0].Q[0])
    for name, (plant, ctrl, w) in cases.items():
        ltv = plant if isinstance(plant, LtvPlant) else plant.to_ltv(len(w))
        u_off = offline_optimal(ltv, w)[0] if isinstance(ctrl, OfflineController) else None
        res = rollout(plant, ctrl, w)
        assert res.status == "ok", name
        assert_same_rollout(res, oracles.stepped_rollout(ltv, oracles.law_policy(ctrl, u_off), w))


def test_diverging_rollouts_equal_stepped_oracle(rng):
    # a run cut by the divergence test keeps the same bits up to the cut,
    # though its products with w were taken for the whole record
    T = 40
    unstable = scalar_lti(a=2.0)
    plant = random_lti(rng, n=3, m=1, p=2)
    growing = 10.0 ** (np.arange(T) / 3.0)[:, None] * np.ones((T, 2))
    cases = [
        (unstable, ZeroController(m=1), generate(DisturbanceSpec("dc"), T, 1)),
        (plant, synth_competitive(plant, 8.0), growing),
        (plant, synth_hinf(plant, 50.0, horizon=T), growing),
    ]
    for plant, ctrl, w in cases:
        res = rollout(plant, ctrl, w)
        assert res.status == "diverged"
        assert 0 < res.steps_completed < T
        ltv = plant.to_ltv(T)
        assert_same_rollout(res, oracles.stepped_rollout(ltv, oracles.law_policy(ctrl), w))


def _parity_case(case, boeing):
    """(plant, T, named controllers) of every kind, both horizons, for the
    time-invariant plant of ``case``."""
    if case == "boeing":
        plant, T, hinf, comp, strict = boeing, 300, 30.0, 1.4, 5.5
    else:
        plant = linearize_pendulum(PendulumParams(), 0.03)
        T, hinf, comp, strict = 1001, 2.0, 4.0, 14.0
    ctrls = {
        "h2": synth_h2_ih(plant),
        "h2-strict": synth_h2_ih(plant, "strictly-causal"),
        "hinf": synth_hinf(plant, hinf),
        "hinf-fh": synth_hinf(plant, hinf, horizon=T),
        "competitive": synth_competitive(plant, comp),
        "competitive-strict": synth_competitive(plant, strict, "strictly-causal"),
        "competitive-fh": synth_competitive(plant, comp, horizon=T),
        "zero": ZeroController(m=plant.m),
        "offline": OfflineController(),
    }
    for name, ctrl in ctrls.items():
        assert not isinstance(ctrl, Infeasible), name
    return plant, T, ctrls


@pytest.mark.parametrize("case", ["boeing", "pendulum"])
def test_lti_plant_runs_as_its_replication(case, boeing):
    # an LtiPlant over T = len(w) and its replication to_ltv(T) are the same
    # plant: offline_optimal, every rollout and compare give the same bits
    plant, T, ctrls = _parity_case(case, boeing)
    ltv = plant.to_ltv(T)
    w = generate(DisturbanceSpec("white-gaussian", {}), T, plant.p, seed=31)
    u, opt = offline_optimal(plant, w)
    u_ltv, opt_ltv = offline_optimal(ltv, w)
    assert np.array_equal(u, u_ltv) and opt == opt_ltv
    for name, ctrl in ctrls.items():
        res = rollout(plant, ctrl, w)
        assert res.status == "ok", name
        assert_same_rollout(res, vars(rollout(ltv, ctrl, w)))
    cmp_lti, cmp_ltv = compare(plant, ctrls, w), compare(ltv, ctrls, w)
    assert cmp_lti.to_json_dict() == cmp_ltv.to_json_dict()
    assert cmp_lti.opt_cost == opt
    for name in ctrls:
        assert_same_rollout(cmp_lti.rollouts[name], vars(cmp_ltv.rollouts[name]))


def test_offline_rollout_is_offline_optimal(boeing, rng):
    # the clairvoyant controller's rollout steps the one clairvoyant law
    # once: its u is offline_optimal's u and its cost is OPT, bit for bit
    plants = [(boeing, 300), (random_ltv(rng, T=40, n=3, m=2, p=2), 40)]
    for plant, T in plants:
        w = np.random.default_rng(17).standard_normal((T, plant.p))
        u, opt = offline_optimal(plant, w)
        res = rollout(plant, OfflineController(), w)
        assert np.array_equal(res.u, u)
        assert res.total_cost == opt
    shifted = dataclasses.replace(boeing, x0=np.ones(boeing.n))
    with pytest.raises(ValueError, match="x0"):
        rollout(shifted, OfflineController(), np.ones((10, boeing.p)))


# ---------------------------------------------------------------------------
# ratios and comparison


def test_cost_ratio_conventions():
    assert cost_ratio(3.0, 1.5) == 2.0
    assert cost_ratio(0.0, 0.0) == 1.0
    assert cost_ratio(1e-15, 0.0) == 1.0
    assert cost_ratio(0.5, 0.0) == "degenerate-denominator"
    assert cost_ratio(0.5, 1e-13) == "degenerate-denominator"
    # exactly at the threshold the denominator counts as meaningful
    assert cost_ratio(2e-12, 1e-12) == 2.0


def test_compare_matches_individual_rollouts(rng):
    plant = random_lti(rng, n=3, m=1, p=1)
    ctrls = [("h2", synth_h2_ih(plant)), ("zero", ZeroController(m=1))]
    w = generate(DisturbanceSpec("white-gaussian", {}), 60, 1, seed=6)
    cmp_res = compare(plant, ctrls, w)

    assert cmp_res.names == ["h2", "zero"]
    _, opt = offline_optimal(plant.to_ltv(60), w)
    assert_allclose(cmp_res.opt_cost, opt, rtol=1e-12, atol=0)
    for name, ctrl in ctrls:
        solo = rollout(plant, ctrl, w)
        idx = cmp_res.names.index(name)
        assert cmp_res.total_costs[idx] == solo.total_cost
        assert_allclose(
            cmp_res.ratios[idx], solo.total_cost / opt, rtol=1e-12, atol=0
        )
        assert cmp_res.rollouts[name].steps_completed == 60
    # the clairvoyant optimum lower-bounds every causal controller
    assert opt <= min(cmp_res.total_costs) + 1e-9


def test_compare_accepts_dict(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    w = np.ones((12, 1))
    res = compare(plant, {"zero": ZeroController(m=1)}, w)
    assert res.names == ["zero"]


def test_compare_json_dict_shape(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    w = np.ones((10, 1))
    obj = compare(plant, {"zero": ZeroController(m=1)}, w).to_json_dict()
    assert set(obj) == {"controllers", "opt_cost"}
    entry = obj["controllers"][0]
    assert set(entry) == {"name", "total_cost", "ratio_to_opt"}
    json.dumps(obj)  # must serialize as-is


# ---------------------------------------------------------------------------
# trace files


def _tiny_result(status="ok"):
    return RolloutResult(
        w=np.array([[0.5], [-0.25]]),
        wprime=np.array([[0.0, 0.0], [1.5, -2.0]]),
        x=np.array([[0.0, 0.0], [0.125, 1.0], [2.0, -0.5]]),
        u=np.array([[0.75], [-1.0]]),
        step_cost=np.array([0.5625, 3.0]),
        cum_cost=np.array([0.5625, 3.5625]),
        total_cost=3.5625,
        status=status,
        steps_completed=2,
    )


def test_trace_csv_golden(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, _tiny_result())
    expected = (
        "t,w_0,wprime_0,wprime_1,x_0,x_1,u_0,step_cost,cum_cost\n"
        "0,0.5,0,0,0,0,0.75,0.5625,0.5625\n"
        "1,-0.25,1.5,-2,0.125,1,-1,3,3.5625\n"
    )
    with open(path, newline="") as fh:
        assert fh.read() == expected


def test_trace_csv_failure_footer(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, _tiny_result(status="diverged"))
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    assert lines[-1] == "FAILURE,diverged,,,,,,,"
    # the footer is padded to the full column count
    assert lines[-1].count(",") == lines[0].count(",")


def test_trace_csv_lf_only(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, _tiny_result())
    with open(path, "rb") as fh:
        data = fh.read()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_trace_csv_round_trips_doubles(rng, tmp_path):
    plant = random_lti(rng, n=2, m=1, p=1)
    w = generate(DisturbanceSpec("white-gaussian", {}), 20, 1, seed=17)
    res = rollout(plant, synth_h2_ih(plant), w)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, res)

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for t, row in enumerate(rows):
        assert int(row["t"]) == t
        # 17 significant digits reproduce the double exactly
        assert float(row["w_0"]) == res.w[t, 0]
        assert float(row["x_0"]) == res.x[t, 0]
        assert float(row["x_1"]) == res.x[t, 1]
        assert float(row["u_0"]) == res.u[t, 0]
        assert float(row["step_cost"]) == res.step_cost[t]
        assert float(row["cum_cost"]) == res.cum_cost[t]


def test_trace_csv_overwrites_atomically(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, _tiny_result())
    first = open(path).read()
    write_trace_csv(path, _tiny_result(status="diverged"))
    second = open(path).read()
    assert first != second
    # no temp files are left behind
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_comparison_json_file(rng, tmp_path):
    plant = random_lti(rng, n=2, m=1, p=1)
    res = compare(plant, {"zero": ZeroController(m=1)}, np.ones((10, 1)))
    path = str(tmp_path / "cmp.json")
    write_comparison_json(path, res)
    with open(path) as fh:
        obj = json.load(fh)
    assert obj == res.to_json_dict()
