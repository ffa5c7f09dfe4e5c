import dataclasses

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
from compctrl.riccati import hinf_backward
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


@pytest.mark.parametrize("horizon", [None, 50])
@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_attenuation_level_scales_with_the_disturbance_gain(causality, horizon):
    # B_w scaled by s scales every level by s; with the search scaled too
    # (tol and first level times s) gamma/s stays put, also where gamma^2
    # falls far below the inertia and strictness tolerances
    base = random_lti(np.random.default_rng(3), n=3, m=1, p=1)
    levels = []
    for s in (1.0, 1e-3, 1e-6, 1e-8):
        plant = dataclasses.replace(base, Bw=s * base.Bw)
        found = min_gamma_hinf(
            plant, causality=causality, horizon=horizon, tol=1e-3 * s, gamma_hi_init=s
        )
        assert found.ok and found.audit_warnings == [], (s, found.audit_warnings)
        levels.append(found.gamma / s)
    assert levels == pytest.approx([levels[0]] * 4, rel=1e-12, abs=0.0)
    assert 0.5 < levels[0] < 0.7


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
    # from the solve at the certified level: one saddle-point call, on one
    # matrix in the infinite horizon and on stacks of exactly `horizon`
    # steps in the finite horizon
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
        assert len(calls) == 1, name
        P, A, Bu, Bw, gamma, _ = calls[0]
        assert gamma == result.gamma, name
        if horizon is None:
            assert P.ndim == A.ndim == 2, name
        else:
            assert P.shape[0] == A.shape[0] == Bu.shape[0] == Bw.shape[0] == horizon


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


#: the Boeing T = 200 causal competitive search: (gamma, feasible,
#: first_violation) of every probe, the audit's eight levels last
BOEING_FH200_PROBES = [
    (2.0, True, None),
    (1.5, True, None),
    (1.25, False, 185),
    (1.375, True, None),
    (1.3125, False, 158),
    (1.34375, True, None),
    (1.328125, False, 133),
    (1.3359375, True, None),
    (1.33203125, True, None),
    (1.330078125, False, 119),
    (1.3310546875, True, None),
    (1.328078125, False, 133),
    (1.327078125, False, 137),
    (1.326078125, False, 140),
    (1.325078125, False, 143),
    (1.3320546875, True, None),
    (1.3330546875, True, None),
    (1.3340546875, True, None),
    (1.3350546875, True, None),
]


def test_boeing_fh_competitive_search_is_pinned(boeing):
    # the bracket probes one level at a time and the audit's eight levels
    # run as one stacked recursion; the search's course and certificate do
    # not depend on that
    result = min_gamma_competitive(boeing, horizon=200)
    assert result.gamma == 1.3310546875
    assert result.gamma_lo == 1.330078125
    assert result.audit_warnings == []
    assert result.history == [(g, feas) for g, feas, _ in BOEING_FH200_PROBES]
    for p, (g, feas, first) in zip(result.probes, BOEING_FH200_PROBES):
        assert (p["gamma"], p["feasible"], p["first_violation"]) == (g, feas, first)
        assert p["reason"] == (None if feas else "condition-violated")
        assert p["wall_ms"] >= 0.0
    # the audit's records share one pass's wall time
    assert len({p["wall_ms"] for p in result.probes[-8:]}) == 1
    assert result.controller.gamma == 1.3310546875


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_rejected(bad, boeing):
    message = "gamma must be finite and positive"
    ltv = boeing.to_ltv(10)
    for call in (
        lambda: hinf_backward(ltv, bad),
        lambda: hinf_backward(ltv, [1.0, bad]),
        lambda: controllers._attenuation(boeing, bad, "causal"),
        lambda: controllers._attenuation(ltv, [2.0, bad], "causal"),
        lambda: synth_hinf(boeing, bad),
        lambda: synth_hinf(boeing, bad, horizon=10),
        lambda: synth_competitive(boeing, bad, horizon=10),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    probed = []

    def feasibility(g):
        probed.append(g)
        return ("ok", g)

    for kwargs in ({"tol": bad}, {"gamma_floor": bad}, {"gamma_hi_init": bad}):
        with pytest.raises(ValueError, match="must be finite"):
            min_gamma(feasibility, **kwargs)
    assert probed == []
