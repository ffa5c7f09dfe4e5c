import dataclasses
import itertools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_lti, scalar_lti

from compctrl import controllers, riccati
from compctrl import search as search_module
from compctrl.controllers import (
    CompetitiveController,
    Infeasible,
    StateFeedbackController,
    controller_to_json_dict,
    synth_competitive,
    synth_hinf,
)
from compctrl.freq import closed_loop, peak_gain
from compctrl.mpc import PendulumParams, linearize_pendulum
from compctrl.riccati import Verdict, hinf_backward
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


def test_min_gamma_hinf_reports_an_unbounded_level():
    # |w| reaches the state with gain 1e7, beyond the doubling cap of 2**20
    result = min_gamma_hinf(scalar_lti(a=0.5, bw=1e7), audit=False)
    assert not result.ok
    assert result.reason == "unbounded-gamma"
    assert result.gamma_lo == 1048576.0
    assert len(result.probes) == 21
    assert result.controller is None


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
    # horizon is None, the whitening schedule's doubled plant otherwise),
    # and a synthesis at the searched level takes it from the cache
    plant = random_lti(rng, n=3, m=1, p=1)
    controllers.synthetic_cache.clear()  # an earlier search may have built it
    build = controllers.build_synthetic
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(controllers, "build_synthetic", counting)
    result = min_gamma_competitive(plant, horizon=horizon)
    assert result.ok
    assert len(result.history) > 10
    direct = synth_competitive(plant, result.gamma, horizon=horizon)
    assert len(calls) == 1
    _assert_same_controller(result.controller, direct)


def test_verdict_routes_give_the_same_searches(boeing, monkeypatch):
    # a verdict reads eigvalsh of the equilibrated H~, and a causal bracket
    # probe skips the strictly causal verdict; with eigh's eigenvalues and
    # both verdicts, as before, every search probes the same levels with the
    # same outcomes
    rng = np.random.default_rng(2700)
    plants = [
        boeing,
        linearize_pendulum(PendulumParams(), 0.0),
        random_lti(rng, n=3, m=1, p=1),
        random_lti(rng, n=2, m=1, p=2),
    ]
    families = (min_gamma_hinf, min_gamma_competitive)
    cases = list(itertools.product(plants, families, ("causal", "strictly-causal"), (None, 40)))
    keys = ("gamma", "feasible", "reason", "iterations", "first_violation")

    def searches():
        out = []
        for plant, search, causality, horizon in cases:
            result = search(plant, causality=causality, horizon=horizon)
            probes = [tuple(p[k] for k in keys) for p in result.probes]
            out.append((probes, result.gamma, result.audit_warnings))
        return out

    default = searches()
    reduced, eigh_calls = riccati._reduced_verdicts, []
    monkeypatch.setattr(
        riccati, "_eig_signs", lambda H: eigh_calls.append(H) or riccati._eig_pivots(H)[0]
    )
    monkeypatch.setattr(
        search_module, "_reduced_verdicts", lambda plant, g, strict=True: reduced(plant, g)
    )
    assert searches() == default
    assert eigh_calls


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


# the other Boeing T = 200 searches, pinned as (gamma, feasible, reason,
# first_violation) per probe, with their certified level and bracket end:
# the strictly causal verdicts of the backward recursion decide two of them
BOEING_FH200_SEARCHES = {
    ("competitive", "strictly-causal"): (
        5.328125,
        5.3271484375,
        [
            (2.0, False, "condition-violated", 198),
            (4.0, False, "condition-violated", 198),
            (8.0, True, None, None),
            (6.0, True, None, None),
            (5.0, False, "condition-violated", 197),
            (5.5, True, None, None),
            (5.25, False, "condition-violated", 194),
            (5.375, True, None, None),
            (5.3125, False, "condition-violated", 168),
            (5.34375, True, None, None),
            (5.328125, True, None, None),
            (5.3203125, False, "condition-violated", 158),
            (5.32421875, False, "condition-violated", 147),
            (5.326171875, False, "condition-violated", 136),
            (5.3271484375, False, "condition-violated", 122),
            (5.3251484375, False, "condition-violated", 143),
            (5.3241484375, False, "condition-violated", 148),
            (5.3231484375, False, "condition-violated", 151),
            (5.3221484375, False, "condition-violated", 154),
            (5.329125, True, None, None),
            (5.330125, True, None, None),
            (5.331125, True, None, None),
            (5.332125, True, None, None),
        ],
    ),
    ("hinf", "causal"): (
        27.2578125,
        27.2568359375,
        [
            (1.0, False, "singular-Htilde", 198),
            (2.0, False, "condition-violated", 196),
            (4.0, False, "condition-violated", 193),
            (8.0, False, "condition-violated", 186),
            (16.0, False, "condition-violated", 169),
            (32.0, True, None, None),
            (24.0, False, "condition-violated", 123),
            (28.0, True, None, None),
            (26.0, False, "condition-violated", 82),
            (27.0, False, "condition-violated", 27),
            (27.5, True, None, None),
            (27.25, False, "condition-violated", 0),
            (27.375, True, None, None),
            (27.3125, True, None, None),
            (27.28125, True, None, None),
            (27.265625, True, None, None),
            (27.2578125, True, None, None),
            (27.25390625, False, "condition-violated", 0),
            (27.255859375, False, "condition-violated", 0),
            (27.2568359375, False, "condition-violated", 0),
            (27.2548359375, False, "condition-violated", 0),
            (27.2538359375, False, "condition-violated", 0),
            (27.2528359375, False, "condition-violated", 0),
            (27.2518359375, False, "condition-violated", 0),
            (27.2588125, True, None, None),
            (27.2598125, True, None, None),
            (27.2608125, True, None, None),
            (27.2618125, True, None, None),
        ],
    ),
    ("hinf", "strictly-causal"): (
        27.345703125,
        27.3447265625,
        [
            (1.0, False, "singular-Htilde", 198),
            (2.0, False, "condition-violated", 196),
            (4.0, False, "condition-violated", 193),
            (8.0, False, "condition-violated", 186),
            (16.0, False, "condition-violated", 169),
            (32.0, True, None, None),
            (24.0, False, "condition-violated", 125),
            (28.0, True, None, None),
            (26.0, False, "condition-violated", 87),
            (27.0, False, "condition-violated", 36),
            (27.5, True, None, None),
            (27.25, False, "condition-violated", 12),
            (27.375, True, None, None),
            (27.3125, False, "condition-violated", 4),
            (27.34375, False, "condition-violated", 0),
            (27.359375, True, None, None),
            (27.3515625, True, None, None),
            (27.34765625, True, None, None),
            (27.345703125, True, None, None),
            (27.3447265625, False, "condition-violated", 0),
            (27.3427265625, False, "condition-violated", 0),
            (27.3417265625, False, "condition-violated", 0),
            (27.3407265625, False, "condition-violated", 0),
            (27.3397265625, False, "condition-violated", 0),
            (27.346703125, True, None, None),
            (27.347703125, True, None, None),
            (27.348703125, True, None, None),
            (27.349703125, True, None, None),
        ],
    ),
}


@pytest.mark.parametrize("search, causality", list(BOEING_FH200_SEARCHES))
def test_boeing_fh_searches_are_pinned(search, causality, boeing):
    gamma, gamma_lo, pinned = BOEING_FH200_SEARCHES[search, causality]
    run = {"competitive": min_gamma_competitive, "hinf": min_gamma_hinf}[search]
    result = run(boeing, causality=causality, horizon=200)
    assert (result.gamma, result.gamma_lo) == (gamma, gamma_lo)
    assert result.audit_warnings == []
    assert result.history == [(g, feas) for g, feas, _, _ in pinned]
    got = [(p["gamma"], p["feasible"], p["reason"], p["first_violation"]) for p in result.probes]
    assert got == pinned
    assert result.controller.gamma == gamma


def _sequential_search(plant, family, causality, horizon, audit=True):
    """The all-sequential route of a plant-facing search: min_gamma on lone
    _attenuation verdicts, and the controller built from its certificate."""
    posed, build = controllers._pose(plant, family, causality, horizon)
    floor, hi_init = (0.0, 1.0) if family == "hinf" else (1.0, 2.0)
    result = min_gamma(
        lambda g: controllers._attenuation(posed, g, causality), floor, hi_init, audit=audit
    )
    return result, build(result.controller)


def _assert_same_search(result, ref, controller):
    """The search's probes, bracket and controller equal the all-sequential
    route's."""
    def records(r):
        return [(p["gamma"], p["feasible"], p["reason"], p["first_violation"]) for p in r.probes]

    assert records(result) == records(ref)
    assert (result.gamma, result.gamma_lo) == (ref.gamma, ref.gamma_lo)
    assert result.audit_warnings == ref.audit_warnings
    _assert_same_controller(result.controller, controller)


#: (n, m, p) of the random plants of the finite-horizon search comparison
FH_PLANTS = {"boeing": None, "p<n": (4, 1, 2), "p=n": (3, 2, 3), "p>n": (2, 1, 4)}


@pytest.mark.parametrize("horizon", [40, 200])
@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
@pytest.mark.parametrize("which", list(FH_PLANTS))
def test_fh_searches_equal_the_sequential_route(which, causality, horizon, boeing):
    # bracket probes decided by the odd-even reduction, the audit's lanes
    # and the returned level's recursion against min_gamma on the
    # recursion alone: the same probes, bracket and controller bytes
    if which == "boeing":
        plant = boeing
    else:
        n, m, p = FH_PLANTS[which]
        plant = random_lti(np.random.default_rng(7400 + n), n=n, m=m, p=p)
    for family, (search, _) in SEARCHES.items():
        result = search(plant, causality=causality, horizon=horizon)
        _assert_same_search(result, *_sequential_search(plant, family, causality, horizon))


@pytest.mark.parametrize("family", sorted(SEARCHES))
def test_fh_search_without_audit_equals_the_sequential_route(family, boeing):
    # with no audit pass to ride on, the returned level's controller comes
    # from a recursion of its own
    search = SEARCHES[family][0]
    result = search(boeing, horizon=40, audit=False)
    _assert_same_search(result, *_sequential_search(boeing, family, "causal", 40, audit=False))


@pytest.mark.parametrize("audit", [True, False])
def test_fh_search_runs_the_recursion_once(audit, boeing, monkeypatch):
    # the bracket probes run no recursion; the returned level's runs as one
    # more lane of the audit pass, or alone without an audit
    seen = []

    def spy(plant, gamma):
        seen.append(np.atleast_1d(gamma).tolist())
        return hinf_backward(plant, gamma)

    monkeypatch.setattr(controllers, "hinf_backward", spy)
    result = min_gamma_competitive(boeing, horizon=40, audit=audit)
    audited = [p["gamma"] for p in result.probes[-8:]] if audit else []
    assert seen == [audited + [result.gamma]]


def test_fh_search_reruns_on_the_recursion_when_it_rejects_the_level(boeing, monkeypatch):
    # should the recursion reject the level the reduction certified, the
    # search runs again on the recursion alone
    monkeypatch.setattr(
        search_module, "_reduced_verdicts", lambda plant, g, strict=True: (Verdict(True),) * 2
    )
    for audit in (True, False):
        result = min_gamma_hinf(boeing, horizon=40, audit=audit)
        _assert_same_search(result, *_sequential_search(boeing, "hinf", "causal", 40, audit))


#: (gamma, gamma_lo, probes) of the Boeing infinite-horizon searches; each
#: probe is (gamma, feasible, reason, iterations, first_violation,
#: repr(residual)), the audit's eight levels last; a residual is pinned
#: to its last bit
BOEING_IH_SEARCHES = {
    ("competitive", "causal"): (
        1.33203125,
        1.3310546875,
        [
            (2.0, True, None, 10, None, "1.4921397450962104e-13"),
            (1.5, True, None, 10, None, "5.542233338928781e-13"),
            (1.25, False, "condition-violated", 4, None, "None"),
            (1.375, True, None, 10, None, "2.5352164811920375e-11"),
            (1.3125, False, "condition-violated", 6, None, "None"),
            (1.34375, True, None, 10, None, "9.526957001071423e-11"),
            (1.328125, False, "condition-violated", 7, None, "None"),
            (1.3359375, True, None, 10, None, "2.322303771506995e-08"),
            (1.33203125, True, None, 10, None, "1.6432713891845196e-06"),
            (1.330078125, False, "condition-violated", 7, None, "None"),
            (1.3310546875, False, "condition-violated", 7, None, "None"),
            (1.3290546875, False, "condition-violated", 7, None, "None"),
            (1.3280546875, False, "condition-violated", 7, None, "None"),
            (1.3270546875, False, "condition-violated", 6, None, "None"),
            (1.3260546875, False, "condition-violated", 6, None, "None"),
            (1.33303125, True, None, 10, None, "2.1702362573705614e-07"),
            (1.33403125, True, None, 10, None, "7.761082088109106e-08"),
            (1.33503125, True, None, 10, None, "2.1220785129116848e-08"),
            (1.33603125, True, None, 10, None, "6.0645106714218855e-09"),
        ],
    ),
    ("competitive", "strictly-causal"): (
        5.328125,
        5.3271484375,
        [
            (2.0, False, "condition-violated", 10, None, "1.4921397450962104e-13"),
            (4.0, False, "condition-violated", 10, None, "6.394884621840902e-14"),
            (8.0, True, None, 10, None, "1.7763568394002505e-14"),
            (6.0, True, None, 10, None, "6.039613253960852e-14"),
            (5.0, False, "condition-violated", 10, None, "4.263256414560601e-14"),
            (5.5, True, None, 10, None, "4.973799150320701e-14"),
            (5.25, False, "condition-violated", 10, None, "4.618527782440651e-14"),
            (5.375, True, None, 10, None, "6.039613253960852e-14"),
            (5.3125, False, "condition-violated", 10, None, "3.907985046680551e-14"),
            (5.34375, True, None, 10, None, "3.907985046680551e-14"),
            (5.328125, True, None, 10, None, "1.0658141036401503e-14"),
            (5.3203125, False, "condition-violated", 10, None, "5.3290705182007514e-14"),
            (5.32421875, False, "condition-violated", 10, None, "9.947598300641403e-14"),
            (5.326171875, False, "condition-violated", 10, None, "3.552713678800501e-14"),
            (5.3271484375, False, "condition-violated", 10, None, "4.973799150320701e-14"),
            (5.3251484375, False, "condition-violated", 10, None, "2.842170943040401e-14"),
            (5.3241484375, False, "condition-violated", 10, None, "5.3290705182007514e-14"),
            (5.3231484375, False, "condition-violated", 10, None, "4.263256414560601e-14"),
            (5.3221484375, False, "condition-violated", 10, None, "6.039613253960852e-14"),
            (5.329125, True, None, 10, None, "4.618527782440651e-14"),
            (5.330125, True, None, 10, None, "6.394884621840902e-14"),
            (5.331125, True, None, 10, None, "3.197442310920451e-14"),
            (5.332125, True, None, 10, None, "2.4868995751603507e-14"),
        ],
    ),
    ("hinf", "causal"): (
        28.234375,
        28.2333984375,
        [
            (1.0, False, "singular-Htilde", 0, None, "None"),
            (2.0, False, "condition-violated", 2, None, "None"),
            (4.0, False, "condition-violated", 3, None, "None"),
            (8.0, False, "condition-violated", 4, None, "None"),
            (16.0, False, "condition-violated", 5, None, "None"),
            (32.0, True, None, 11, None, "3.055333763768431e-13"),
            (24.0, False, "condition-violated", 7, None, "None"),
            (28.0, False, "condition-violated", 9, None, "None"),
            (30.0, True, None, 11, None, "2.7711166694643907e-13"),
            (29.0, True, None, 12, None, "3.979039320256561e-13"),
            (28.5, True, None, 12, None, "5.258016244624741e-13"),
            (28.25, True, None, 14, None, "2.0463630789890885e-12"),
            (28.125, False, "condition-violated", 10, None, "None"),
            (28.1875, False, "condition-violated", 11, None, "None"),
            (28.21875, False, "condition-violated", 12, None, "None"),
            (28.234375, True, None, 17, None, "1.7053025658242404e-12"),
            (28.2265625, False, "condition-violated", 12, None, "None"),
            (28.23046875, False, "condition-violated", 13, None, "None"),
            (28.232421875, False, "condition-violated", 14, None, "None"),
            (28.2333984375, False, "condition-violated", 15, None, "None"),
            (28.2313984375, False, "condition-violated", 13, None, "None"),
            (28.2303984375, False, "condition-violated", 13, None, "None"),
            (28.2293984375, False, "condition-violated", 13, None, "None"),
            (28.2283984375, False, "condition-violated", 12, None, "None"),
            (28.235375, True, None, 16, None, "5.684341886080801e-13"),
            (28.236375, True, None, 16, None, "2.2737367544323206e-13"),
            (28.237375, True, None, 15, None, "1.9895196601282805e-12"),
            (28.238375, True, None, 15, None, "3.126388037344441e-13"),
        ],
    ),
    ("hinf", "strictly-causal"): (
        28.234375,
        28.2333984375,
        [
            (1.0, False, "singular-Htilde", 0, None, "None"),
            (2.0, False, "condition-violated", 2, None, "None"),
            (4.0, False, "condition-violated", 3, None, "None"),
            (8.0, False, "condition-violated", 4, None, "None"),
            (16.0, False, "condition-violated", 5, None, "None"),
            (32.0, True, None, 11, None, "3.055333763768431e-13"),
            (24.0, False, "condition-violated", 7, None, "None"),
            (28.0, False, "condition-violated", 9, None, "None"),
            (30.0, True, None, 11, None, "2.7711166694643907e-13"),
            (29.0, True, None, 12, None, "3.979039320256561e-13"),
            (28.5, True, None, 12, None, "5.258016244624741e-13"),
            (28.25, True, None, 14, None, "2.0463630789890885e-12"),
            (28.125, False, "condition-violated", 10, None, "None"),
            (28.1875, False, "condition-violated", 11, None, "None"),
            (28.21875, False, "condition-violated", 12, None, "None"),
            (28.234375, True, None, 17, None, "1.7053025658242404e-12"),
            (28.2265625, False, "condition-violated", 12, None, "None"),
            (28.23046875, False, "condition-violated", 13, None, "None"),
            (28.232421875, False, "condition-violated", 14, None, "None"),
            (28.2333984375, False, "condition-violated", 15, None, "None"),
            (28.2313984375, False, "condition-violated", 13, None, "None"),
            (28.2303984375, False, "condition-violated", 13, None, "None"),
            (28.2293984375, False, "condition-violated", 13, None, "None"),
            (28.2283984375, False, "condition-violated", 12, None, "None"),
            (28.235375, True, None, 16, None, "5.684341886080801e-13"),
            (28.236375, True, None, 16, None, "2.2737367544323206e-13"),
            (28.237375, True, None, 15, None, "1.9895196601282805e-12"),
            (28.238375, True, None, 15, None, "3.126388037344441e-13"),
        ],
    ),
}


@pytest.mark.parametrize("search, causality", list(BOEING_IH_SEARCHES))
def test_boeing_ih_searches_are_pinned(search, causality, boeing):
    gamma, gamma_lo, pinned = BOEING_IH_SEARCHES[search, causality]
    run = {"competitive": min_gamma_competitive, "hinf": min_gamma_hinf}[search]
    result = run(boeing, causality=causality)
    assert (result.gamma, result.gamma_lo) == (gamma, gamma_lo)
    assert result.audit_warnings == []
    assert result.history == [(g, feas) for g, feas, *_ in pinned]
    got = [
        (p["gamma"], p["feasible"], p["reason"], p["iterations"], p["first_violation"],
         repr(p["residual"]))
        for p in result.probes
    ]
    assert got == pinned
    assert result.controller.gamma == gamma


@pytest.mark.parametrize("audit", [True, False])
def test_ih_searches_equal_lone_verdicts_resolved_at_once(audit, boeing):
    # an infinite-horizon search's failed probes, bracket and audit lanes,
    # keep their bisections for one stacked pass at its end; every probe
    # record equals that of min_gamma on lone _attenuation verdicts, each of
    # which bisects its failure as its own doubling ends
    rng = np.random.default_rng(2900)
    plants = [
        boeing,
        linearize_pendulum(PendulumParams(), 0.0),
        random_lti(rng, n=3, m=1, p=1),
        random_lti(rng, n=2, m=1, p=2),
    ]
    keys = ("gamma", "feasible", "reason", "iterations", "first_violation", "residual")
    for plant, family, causality in itertools.product(
        plants, sorted(SEARCHES), ("causal", "strictly-causal")
    ):
        result = SEARCHES[family][0](plant, causality=causality, audit=audit)
        ref, controller = _sequential_search(plant, family, causality, None, audit)
        assert [[repr(p[k]) for k in keys] for p in result.probes] == [
            [repr(p[k]) for k in keys] for p in ref.probes
        ]
        assert (result.gamma, result.gamma_lo) == (ref.gamma, ref.gamma_lo)
        assert result.audit_warnings == ref.audit_warnings
        _assert_same_controller(result.controller, controller)


def test_ih_search_bisects_its_failed_probes_in_one_pass(boeing, monkeypatch):
    # no doubling run of the search bisects its own failure; one stacked pass
    # at the end takes every failed probe that has doublings to bisect, and
    # its wall time is spread over their records
    first_failures, passes = riccati._first_failures, []

    def spy(pending):
        passes.append(len(pending))
        time.sleep(0.05)
        return first_failures(pending)

    def refuse(pending):
        raise AssertionError("a doubling run bisected its own failure")

    monkeypatch.setattr(search_module, "_first_failures", spy)
    monkeypatch.setattr(riccati, "_first_failures", refuse)
    result = min_gamma_hinf(boeing)
    bisected = [
        p for p in result.probes
        if not p["feasible"] and p["residual"] is None and p["iterations"] > 0
    ]
    assert passes == [len(bisected)] and len(bisected) > 10
    assert all(isinstance(p["reason"], str) for p in result.probes if not p["feasible"])
    assert sum(p["wall_ms"] for p in bisected) >= 50.0


#: the causal infinite-horizon searches on the pendulum's upright
#: linearization, in BOEING_IH_SEARCHES' form; their failed probes bisect
#: 11 to 14 doublings deep
PENDULUM_IH_SEARCHES = {
    ("competitive", "causal"): (
        2.611328125,
        2.6103515625,
        [
            (2.0, False, "condition-violated", 11, None, "None"),
            (4.0, True, None, 15, None, "2.510205376893282e-10"),
            (3.0, True, None, 15, None, "8.330971468240023e-10"),
            (2.5, False, "condition-violated", 12, None, "None"),
            (2.75, True, None, 15, None, "3.0195224098861217e-09"),
            (2.625, True, None, 15, None, "6.269838195294142e-07"),
            (2.5625, False, "condition-violated", 12, None, "None"),
            (2.59375, False, "condition-violated", 12, None, "None"),
            (2.609375, False, "condition-violated", 13, None, "None"),
            (2.6171875, True, None, 15, None, "7.67590245231986e-05"),
            (2.61328125, True, None, 15, None, "0.0045406632125377655"),
            (2.611328125, True, None, 15, None, "10.969085820019245"),
            (2.6103515625, False, "condition-violated", 13, None, "None"),
            (2.6083515625, False, "condition-violated", 12, None, "None"),
            (2.6073515625, False, "condition-violated", 12, None, "None"),
            (2.6063515625, False, "condition-violated", 12, None, "None"),
            (2.6053515625, False, "condition-violated", 12, None, "None"),
            (2.612328125, True, None, 15, None, "0.08380144089460373"),
            (2.613328125, True, None, 15, None, "0.017334974370896816"),
            (2.614328125, True, None, 15, None, "0.0033347937278449535"),
            (2.615328125, True, None, 15, None, "0.0005308948457241058"),
        ],
    ),
    ("hinf", "causal"): (
        1.0009765625,
        1.0,
        [
            (1.0, False, "condition-violated", 14, None, "None"),
            (2.0, True, None, 15, None, "9.094947017729282e-13"),
            (1.5, True, None, 15, None, "9.094947017729282e-13"),
            (1.25, True, None, 15, None, "9.094947017729282e-13"),
            (1.125, True, None, 15, None, "1.8189894035458565e-12"),
            (1.0625, True, None, 15, None, "3.637978807091713e-12"),
            (1.03125, True, None, 15, None, "7.275957614183426e-12"),
            (1.015625, True, None, 15, None, "1.4551915228366852e-11"),
            (1.0078125, True, None, 15, None, "2.9103830456733704e-11"),
            (1.00390625, True, None, 15, None, "5.820766091346741e-11"),
            (1.001953125, True, None, 15, None, "5.820766091346741e-11"),
            (1.0009765625, True, None, 15, None, "9.313225746154785e-10"),
            (0.998, False, "condition-violated", 12, None, "None"),
            (0.997, False, "condition-violated", 12, None, "None"),
            (0.996, False, "condition-violated", 12, None, "None"),
            (0.995, False, "condition-violated", 12, None, "None"),
            (1.0019765625, True, None, 15, None, "1.1641532182693481e-10"),
            (1.0029765625, True, None, 15, None, "5.820766091346741e-11"),
            (1.0039765625, True, None, 15, None, "5.820766091346741e-11"),
            (1.0049765625, True, None, 15, None, "2.9103830456733704e-11"),
        ],
    ),
}


@pytest.mark.parametrize("search, causality", list(PENDULUM_IH_SEARCHES))
def test_pendulum_ih_searches_are_pinned(search, causality):
    gamma, gamma_lo, pinned = PENDULUM_IH_SEARCHES[search, causality]
    run = {"competitive": min_gamma_competitive, "hinf": min_gamma_hinf}[search]
    result = run(linearize_pendulum(PendulumParams(), 0.0), causality=causality)
    assert (result.gamma, result.gamma_lo) == (gamma, gamma_lo)
    assert result.audit_warnings == []
    got = [
        (p["gamma"], p["feasible"], p["reason"], p["iterations"], p["first_violation"],
         repr(p["residual"]))
        for p in result.probes
    ]
    assert got == pinned
    assert result.controller.gamma == gamma


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
