import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_lti, scalar_lti

from compctrl import controllers
from compctrl.controllers import (
    CompetitiveController,
    Infeasible,
    StateFeedbackController,
    controller_to_json_dict,
    synth_competitive,
    synth_hinf,
)
from compctrl.freq import closed_loop, peak_gain
from compctrl.search import (
    GAMMA_CAP,
    GammaSearchResult,
    min_gamma,
    min_gamma_competitive,
    min_gamma_hinf,
)


def make_predicate(feasible_fn):
    def f(g):
        if feasible_fn(g):
            return ("controller-at", g)
        return Infeasible("condition-violated", g)

    return f


def test_bisection_converges_to_threshold():
    result = min_gamma(make_predicate(lambda g: g >= 2.0), 0.0, 1.0, tol=1e-3)
    assert result.ok
    assert result.gamma == 2.0  # hi never moves: every midpoint is below 2
    assert 2.0 - result.gamma_lo <= 1e-3
    assert result.controller == ("controller-at", 2.0)
    assert result.audit_warnings == []
    # history records every probe as (gamma, feasible)
    assert all(isinstance(g, float) and isinstance(f, bool) for g, f in result.history)
    # probes parallel history; the predicate's verdicts carry no iterations
    assert [(p["gamma"], p["feasible"]) for p in result.probes] == result.history
    assert all(
        p["reason"] == (None if p["feasible"] else "condition-violated")
        and p["iterations"] is None
        for p in result.probes
    )


def test_bisection_tightens_from_above():
    result = min_gamma(make_predicate(lambda g: g >= 1.5), 1.0, 2.0, tol=1e-3)
    assert result.ok
    assert result.gamma == 1.5  # first midpoint hits the threshold exactly
    assert result.gamma_lo < 1.5
    assert 1.5 - result.gamma_lo <= 1e-3


def test_probe_count_without_audit():
    result = min_gamma(
        make_predicate(lambda g: g >= 2.0), 0.0, 1.0, tol=1e-3, audit=False
    )
    # 2 doubling probes + 10 bisections of the unit bracket
    assert result.iterations == 12
    assert len(result.history) == 12


def test_floor_is_never_probed():
    seen = []

    def f(g):
        seen.append(g)
        return ("ok", g) if g >= 1.25 else Infeasible("condition-violated", g)

    min_gamma(f, 1.0, 2.0, tol=1e-3)
    assert min(seen) > 1.0


def test_unbounded_gamma():
    result = min_gamma(make_predicate(lambda g: False), 0.0, 1.0, tol=1e-3)
    assert not result.ok
    assert result.gamma is None
    assert result.reason == "unbounded-gamma"
    assert result.controller is None
    assert result.gamma_lo >= GAMMA_CAP / 2.0


def test_validation_errors():
    with pytest.raises(ValueError):
        min_gamma(make_predicate(lambda g: True), 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        min_gamma(make_predicate(lambda g: True), 2.0, 1.0)


def test_audit_flags_feasible_island_below_bracket():
    # bisection lands at lo = 2 - 2^-10; the island sits exactly on the
    # lo - 4*tol audit probe and on no dyadic midpoint, so only the audit
    # can see it
    lo_final = 2.0 - 2.0**-10
    island = lo_final - 4e-3

    def feasible(g):
        return g >= 2.0 or abs(g - island) <= 1e-4

    result = min_gamma(make_predicate(feasible), 0.0, 1.0, tol=1e-3)
    assert result.gamma == 2.0
    assert len(result.audit_warnings) == 1
    assert "feasible below bracket" in result.audit_warnings[0]


def test_audit_flags_infeasible_above_bracket():
    def feasible(g):
        return g >= 2.0 and abs(g - 2.002) > 1e-4

    result = min_gamma(make_predicate(feasible), 0.0, 1.0, tol=1e-3)
    assert result.gamma == 2.0
    assert len(result.audit_warnings) == 1
    assert "infeasible above bracket" in result.audit_warnings[0]


def test_audit_clean_on_monotone_predicate():
    result = min_gamma(make_predicate(lambda g: g >= 0.37), 0.0, 1.0, tol=1e-3)
    assert result.audit_warnings == []
    assert abs(result.gamma - 0.37) <= 1e-3


# --- plant-facing wrappers --------------------------------------------------


def test_min_gamma_hinf_memoryless_plant_analytic():
    """For x_{t+1} = u_t + w_t the causal optimum is gamma^2 = 1/2.

    The controller sees w_t, splits the burden between acting now (u cost)
    and paying the state cost next step; min_c c^2 + (1-c)^2 = 1/2.
    """
    plant = scalar_lti(a=0.0)
    result = min_gamma_hinf(plant)
    assert result.ok
    assert_allclose(result.gamma, np.sqrt(0.5), atol=2e-3)
    assert isinstance(result.controller, StateFeedbackController)
    assert result.audit_warnings == []
    assert result.controller.gamma == result.gamma


def test_min_gamma_hinf_strictly_causal_is_harder():
    plant = scalar_lti(a=0.0)
    causal = min_gamma_hinf(plant, audit=False)
    strict = min_gamma_hinf(plant, causality="strictly-causal", audit=False)
    assert strict.ok
    # x_{t+1} = u_t + w_t: u = 0 gives x_{t+1} = w_t, a ratio of 1, and
    # w_0 = 1 alone (x_0 = 0, so u_0 = 0) forces a ratio of at least 1;
    # the fixed point is P = 1, so B_w'PB_w < gamma^2 I reads gamma > 1
    assert_allclose(strict.gamma, 1.0, atol=2e-3)
    assert strict.gamma > causal.gamma
    loop = closed_loop(plant, strict.controller)
    assert peak_gain(loop, np.linspace(0.0, np.pi, 2001)) <= strict.gamma


def test_min_gamma_competitive_scalar(rng):
    plant = scalar_lti()
    result = min_gamma_competitive(plant)
    assert result.ok
    assert isinstance(result.controller, CompetitiveController)
    assert 1.0 < result.gamma < 2.0
    assert result.gamma_lo < result.gamma
    assert result.audit_warnings == []


def test_min_gamma_competitive_floor_is_one(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    result = min_gamma_competitive(plant, audit=False)
    assert result.ok
    assert all(g > 1.0 for g, _ in result.history)


@pytest.mark.parametrize("horizon", [None, 40])
def test_competitive_search_builds_synthetic_plant_once(horizon, rng, monkeypatch):
    # the synthetic plant does not depend on gamma, so one search builds it
    # once however many levels it probes (p < n: the exact plant when
    # horizon is None, the whitening schedule's doubled plant otherwise)
    plant = random_lti(rng, n=3, m=1, p=1)
    build = controllers.build_synthetic
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(controllers, "build_synthetic", counting)
    result = min_gamma_competitive(plant, horizon=horizon)
    assert result.ok
    assert len(result.history) > 10
    assert len(calls) == 1


def test_min_gamma_hinf_fh(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    fh = min_gamma_hinf(plant, horizon=8, audit=False)
    ih = min_gamma_hinf(plant, audit=False)
    assert fh.ok and ih.ok
    assert fh.controller.horizon == 8
    # a finite horizon can only be easier than the infinite one
    assert fh.gamma <= ih.gamma + 1e-3


def test_result_ok_property():
    assert not GammaSearchResult(gamma=None, gamma_lo=1.0).ok
    assert GammaSearchResult(gamma=2.0, gamma_lo=1.0, controller=object()).ok


# --- one gain build per search ----------------------------------------------


SEARCHES = {
    "hinf": (min_gamma_hinf, synth_hinf),
    "competitive": (min_gamma_competitive, synth_competitive),
}


@pytest.mark.parametrize("horizon", [None, 40])
def test_search_builds_gains_once(horizon, rng, monkeypatch):
    # a probe runs the existence test alone; the gains are computed once,
    # from the solve at the certified level: one saddle-point step in the
    # infinite horizon, one per step in the finite horizon
    plant = random_lti(rng, n=3, m=1, p=1)
    saddle = controllers._saddle_gains
    calls = []

    def counting(*args):
        calls.append(args)
        return saddle(*args)

    monkeypatch.setattr(controllers, "_saddle_gains", counting)
    for name, (search, _) in SEARCHES.items():
        calls.clear()
        result = search(plant, horizon=horizon)
        assert result.ok
        assert sum(feas for _, feas in result.history) > 1
        assert len(calls) == (1 if horizon is None else horizon), name


def _assert_same_controller(a, b):
    assert type(a) is type(b)
    assert controller_to_json_dict(a) == controller_to_json_dict(b)
    gains = ("Kx", "Kw") if isinstance(a, StateFeedbackController) else ("Kxi", "Kwp")
    for key in gains:
        assert np.array_equal(getattr(a, key), getattr(b, key))
    assert a.diagnostics.keys() == b.diagnostics.keys()
    for key, value in a.diagnostics.items():
        assert np.array_equal(value, b.diagnostics[key]), key


@pytest.mark.parametrize("horizon", [None, 40])
@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
@pytest.mark.parametrize("family", sorted(SEARCHES))
@pytest.mark.parametrize("which", ["boeing", "p<n"])
def test_search_controller_equals_synthesis_at_certified_level(
    which, family, causality, horizon, boeing
):
    plant = boeing if which == "boeing" else random_lti(np.random.default_rng(7), n=3, p=1)
    search, synth = SEARCHES[family]
    result = search(plant, causality=causality, horizon=horizon)
    assert result.ok
    direct = synth(plant, result.gamma, causality=causality, horizon=horizon)
    _assert_same_controller(result.controller, direct)


def _is_opt(value, kind):
    return value is None or (isinstance(value, kind) and not isinstance(value, bool))


@pytest.mark.parametrize("horizon", [None, 40])
def test_probe_records_carry_violation_residual_and_wall_time(horizon, boeing):
    result = min_gamma_competitive(boeing, horizon=horizon)
    assert result.ok
    for p in result.probes:
        assert {"gamma", "feasible", "reason", "iterations"} <= p.keys()
        assert _is_opt(p["first_violation"], int)
        assert _is_opt(p["residual"], float)
        assert isinstance(p["wall_ms"], float) and p["wall_ms"] >= 0.0
        if horizon is None:
            # no finite-horizon step to blame; a residual wherever the fixed
            # point converged: every feasible probe, and a rejection by the
            # fixed point's checks
            assert p["first_violation"] is None
            assert isinstance(p["iterations"], int)
            if p["feasible"]:
                assert p["residual"] is not None
            elif p["residual"] is not None:
                assert p["reason"] == "condition-violated"
        else:
            assert p["residual"] is None and p["iterations"] is None
            assert (p["first_violation"] is None) == p["feasible"]
            if not p["feasible"]:
                assert 0 <= p["first_violation"] < horizon
    assert any(not p["feasible"] for p in result.probes)


def test_probe_records_of_plain_verdicts():
    result = min_gamma(make_predicate(lambda g: g >= 2.0), 0.0, 1.0, tol=1e-3)
    for p in result.probes:
        assert p["first_violation"] is None and p["residual"] is None
        assert isinstance(p["wall_ms"], float)
