import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_discrete_are

from conftest import random_lti, random_ltv, scalar_lti
from oracles import (
    game_value_iteration,
    hinf_backward_scalar,
    lqr_value_iteration,
    saddle_gains_per_step,
    schur_backward,
)

from compctrl.riccati import (
    Verdict,
    dare_fixed_point,
    hinf_backward,
    inertia,
    is_stable,
    pbh_detectable,
    pbh_stabilizable,
    solve_sym,
    spectral_radius,
    sym,
)
from compctrl import controllers
from compctrl.mpc import PendulumParams, linearize_pendulum
from compctrl.search import min_gamma_competitive, min_gamma_hinf

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_solve_sym_matches_generic_solve(rng):
    M = rng.standard_normal((5, 5))
    H = M.T @ M + 0.5 * np.eye(5)
    B = rng.standard_normal((5, 3))
    assert_allclose(solve_sym(H, B), np.linalg.solve(H, B), atol=1e-10)


def test_solve_sym_indefinite(rng):
    H = np.diag([2.0, -3.0])
    B = rng.standard_normal((2, 2))
    assert_allclose(solve_sym(H, B), np.linalg.solve(H, B), atol=1e-12)


def test_sym_and_radius():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    S = sym(M)
    assert np.array_equal(S, S.T)
    assert spectral_radius(np.diag([0.5, -1.5])) == pytest.approx(1.5)
    assert is_stable(np.diag([0.5, 0.9]))
    assert not is_stable(np.diag([0.5, 1.0]))


def test_inertia_counts():
    # (n_positive, n_negative, n_zero)
    M = np.diag([3.0, 1e-14, -2.0, -1.0, 5.0])
    assert inertia(M) == (2, 2, 1)
    assert inertia(np.diag([1.0, -4.0])) == (1, 1, 0)


@pytest.mark.parametrize(
    "stab,B", [(True, [[1.0], [0.0]]), (False, [[0.0], [1.0]])]
)
def test_pbh_stabilizable(stab, B):
    A = np.diag([2.0, 0.5])
    assert pbh_stabilizable(A, np.array(B)) is stab


@pytest.mark.parametrize(
    "det,C", [(True, [[1.0, 0.0]]), (False, [[0.0, 1.0]])]
)
def test_pbh_detectable(det, C):
    A = np.diag([2.0, 0.5])
    assert pbh_detectable(A, np.array(C)) is det


def test_pbh_ignores_stable_uncontrollable_modes():
    # only the unstable subspace must be reachable
    A = np.diag([0.5, 0.2])
    B = np.zeros((2, 1))
    assert pbh_stabilizable(A, B)


def test_scalar_lqr_fixed_point_golden_ratio():
    fp = dare_fixed_point(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    assert fp.converged and fp.feasible
    assert_allclose(fp.P[0, 0], GOLDEN, rtol=1e-8)
    assert fp.closed_loop_radius < 1.0
    assert fp.residual < 1e-8


def test_scalar_halved_drift_fixed_point():
    # P^2 - 0.25 P - 1 = 0 for a = 0.5, b = q = 1
    expected = (0.25 + np.sqrt(4.0625)) / 2.0
    fp = dare_fixed_point(
        np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    assert_allclose(fp.P[0, 0], expected, rtol=1e-8)


def test_scalar_game_fixed_point_dual_route():
    A = np.array([[1.0]])
    Bt = np.array([[1.0, 1.0]])
    Rt = np.diag([1.0, -4.0])
    Q = np.array([[1.0]])
    fp = dare_fixed_point(A, Bt, Rt, Q)
    assert fp.feasible
    ref = solve_discrete_are(A, Bt, Q, Rt)
    assert_allclose(fp.P, ref, rtol=1e-8)


def test_scalar_game_condition_violated_below_threshold():
    fp = dare_fixed_point(
        np.array([[1.0]]),
        np.array([[1.0, 1.0]]),
        np.diag([1.0, -0.81]),
        np.array([[1.0]]),
    )
    assert not fp.converged
    assert fp.reason == "condition-violated"
    assert fp.failure_reason == "condition-violated"
    assert not fp.feasible
    assert fp.iterations < 100


def test_singular_pivot_detected():
    # second iterate puts P = 1/3 making det(Rt + B'PB) = 0 exactly
    fp = dare_fixed_point(
        np.array([[1.0]]),
        np.array([[1.0, 1.0]]),
        np.diag([1.0, -0.25]),
        np.array([[1.0 / 3.0]]),
    )
    assert not fp.converged
    assert fp.reason == "singular-Htilde"


def test_unstabilizable_diverges():
    fp = dare_fixed_point(
        np.array([[2.0]]), np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    assert not fp.converged
    assert fp.reason == "no-stabilizing-solution"


@pytest.mark.parametrize("seed", range(8))
def test_lqr_fixed_point_matches_scipy(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 3))
    plant = random_lti(rng, n=n, m=m)
    fp = dare_fixed_point(plant.A, plant.Bu, np.eye(m), plant.Q)
    assert fp.feasible
    ref = solve_discrete_are(plant.A, plant.Bu, plant.Q, np.eye(m))
    assert_allclose(fp.P, ref, rtol=1e-7, atol=1e-9)
    assert_allclose(fp.P, lqr_value_iteration(plant.A, plant.Bu, plant.Q), rtol=1e-7)


def test_game_fixed_point_matches_scipy_when_oracle_applies():
    """Indefinite-weight fixed points cross-checked against the QZ route.

    scipy's solver occasionally rejects instances whose symplectic pencil has
    near-unit-circle eigenvalues; those draws are skipped deterministically.
    A stabilizing QZ solution can also exist when the game conditions fail,
    so on instances the iteration rejects, the QZ solution must itself
    violate one of the acceptance conditions (that is the whole point of the
    certificate checks).
    """
    agreed = 0
    confirmed_infeasible = 0
    for seed in range(40):
        rng = np.random.default_rng(2000 + seed)
        plant = random_lti(rng, n=3, m=1, p=2, radius=0.8)
        g2 = 100.0
        Bt = np.hstack([plant.Bu, plant.Bw])
        Rt = np.diag([1.0, -g2, -g2])
        try:
            ref = solve_discrete_are(plant.A, Bt, plant.Q, Rt)
        except np.linalg.LinAlgError:
            continue
        fp = dare_fixed_point(plant.A, Bt, Rt, plant.Q)
        if fp.feasible:
            assert_allclose(fp.P, ref, rtol=1e-7, atol=1e-8)
            agreed += 1
        else:
            lam_min = np.linalg.eigvalsh(ref).min()
            Ht = Rt + Bt.T @ ref @ Bt
            bad_psd = lam_min < -1e-10
            bad_inertia = inertia(Ht) != inertia(Rt)
            Acl = plant.A - Bt @ np.linalg.solve(Ht, Bt.T @ ref @ plant.A)
            bad_radius = spectral_radius(Acl) >= 1.0
            assert bad_psd or bad_inertia or bad_radius
            confirmed_infeasible += 1
        if agreed >= 6:
            break
    assert agreed >= 6


def _hinf_game(plant, gamma):
    """(A, B~, R~, Q) of the attenuation game at level gamma."""
    Bt = np.hstack([plant.Bu, plant.Bw])
    Rt = np.diag(np.r_[np.ones(plant.m), -(gamma**2) * np.ones(plant.p)])
    return plant.A, Bt, Rt, plant.Q


def test_boeing_game_riccati_doubles_near_optimum(boeing):
    # the certified level, 1.7e-5 relative above the optimum: value
    # iteration from zero needs about 8,000 steps here
    game = _hinf_game(boeing, 28.234375)
    fp = dare_fixed_point(*game)
    assert fp.feasible
    assert fp.iterations <= 20
    A, Bt, Rt, Q = game
    ref = solve_discrete_are(A, Bt, Q, Rt)
    assert_allclose(fp.P, ref, rtol=0, atol=1e-8 * np.abs(ref).max())


@pytest.mark.parametrize("case", ["boeing", 0, 1, 2])
def test_doubling_verdicts_match_value_iteration(case, boeing):
    """Doubling reproduces value iteration's verdict on a gamma grid.

    The grid brackets the optimal level gamma* (from the package search,
    which only places the grid).  At every level the verdict and reason code
    must equal those of the value-iteration oracle; at feasible levels the
    solution must agree with the oracle (to its stopping rule's accuracy)
    and with scipy's QZ route.
    """
    if case == "boeing":
        plant, g_opt = boeing, 28.234375
    else:
        rng = np.random.default_rng(7000 + case)
        plant = random_lti(rng, n=4, m=1 + case % 2, p=2)
        g_opt = min_gamma_hinf(plant, audit=False).gamma
    feasible_seen = set()
    for f in (0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0):
        game = _hinf_game(plant, f * g_opt)
        fp = dare_fixed_point(*game)
        P_ref, feasible, reason, _ = game_value_iteration(*game)
        assert (fp.feasible, fp.failure_reason) == (feasible, reason), f
        feasible_seen.add(feasible)
        if feasible:
            scale = np.abs(P_ref).max()
            assert_allclose(fp.P, P_ref, rtol=0, atol=1e-5 * scale)
            A, Bt, Rt, Q = game
            ref = solve_discrete_are(A, Bt, Q, Rt)
            assert_allclose(fp.P, ref, rtol=0, atol=1e-8 * scale)
    assert feasible_seen == {True, False}


def test_doubling_reports_the_first_failing_step():
    """Doubling can jump past value iteration's first failure; bisecting the
    failing doubling down to single steps recovers value iteration's reason.

    At gamma = 1 on the pendulum (B_u = B_w) the disturbance cancels the
    control exactly and P grows by about 0.2 % a step.  H~ loses its inertia
    near step 9,740 while ||P||_inf stays below 1e12 until about step 11,060,
    and the doublings sample P_8192 and then P_16384, past both.
    """
    game = _hinf_game(linearize_pendulum(PendulumParams(), 0.0), 1.0)
    _, feasible, reason, _ = game_value_iteration(*game)
    assert (feasible, reason) == (False, "condition-violated")
    assert dare_fixed_point(*game).failure_reason == "condition-violated"


def test_feasibility_monotone_in_gamma():
    plant = scalar_lti()
    feasible = []
    for gamma in (0.5, 0.9, 1.3, 2.0, 5.0):
        fp = dare_fixed_point(
            plant.A,
            np.hstack([plant.Bu, plant.Bw]),
            np.diag([1.0, -gamma**2]),
            plant.Q,
        )
        feasible.append(fp.feasible)
    # once feasible, stays feasible
    first = feasible.index(True)
    assert all(feasible[first:])
    assert not any(feasible[:first])


# --- finite-horizon backward recursion ---------------------------------


def test_backward_recursion_scalar_frozen():
    plant = scalar_lti().to_ltv(2)
    sched = hinf_backward(plant, gamma=2.0)
    assert sched.T == 2
    assert_allclose(sched.P[:, 0, 0], [11.0 / 7.0, 1.0, 0.0], rtol=1e-12)
    assert sched.causal.ok
    assert sched.strictly_causal_w.ok
    assert bool(sched.causal)


def test_backward_recursion_scalar_w_channel_violation():
    plant = scalar_lti().to_ltv(2)
    sched = hinf_backward(plant, gamma=0.9)
    assert sched.causal.ok
    assert not sched.strictly_causal_w.ok
    assert sched.strictly_causal_w.first_violation == 0
    assert not bool(sched.strictly_causal_w)
    assert sched.strictly_causal_w.reason


def test_backward_recursion_terminal_and_shapes(rng):
    plant = random_ltv(rng, T=6, n=2, m=2, p=1)
    sched = hinf_backward(plant, gamma=8.0)
    assert sched.P.shape == (7, 2, 2)
    assert np.array_equal(sched.P[6], np.zeros((2, 2)))
    # P_t symmetric PSD when the causal condition holds
    if sched.causal.ok:
        for t in range(7):
            assert_allclose(sched.P[t], sched.P[t].T, atol=1e-10)
            assert np.linalg.eigvalsh(sched.P[t]).min() >= -1e-9


def test_backward_recursion_monotone_for_lti(rng):
    """For a replicated plant the cost-to-go grows with remaining horizon."""
    plant = random_lti(rng, n=3, m=1, p=1)
    sched = hinf_backward(plant.to_ltv(10), gamma=50.0)
    assert sched.causal.ok
    for t in range(10):
        gap = np.linalg.eigvalsh(sched.P[t] - sched.P[t + 1]).min()
        assert gap >= -1e-9


def test_backward_recursion_gamma_limit_is_lqr(rng):
    """At astronomically large gamma the game recursion collapses to LQR."""
    plant = random_lti(rng, n=2, m=1, p=1)
    T = 12
    sched = hinf_backward(plant.to_ltv(T), gamma=1e6)
    P = np.zeros((2, 2))
    for _ in range(T):
        H = np.eye(1) + plant.Bu.T @ P @ plant.Bu
        K = np.linalg.solve(H, plant.Bu.T @ P @ plant.A)
        P = plant.Q + plant.A.T @ P @ plant.A - plant.A.T @ P @ plant.Bu @ K
        P = 0.5 * (P + P.T)
    assert_allclose(sched.P[0], P, rtol=1e-6, atol=1e-8)


def _fh_case(case, boeing):
    if case == "boeing":
        return boeing.to_ltv(40)
    if case == "doubled":
        return controllers._synthetic_plant(boeing.to_ltv(40)).as_plant()
    rng = np.random.default_rng(7100 + case)
    return random_ltv(rng, T=30, n=3 + case % 2, m=1 + case % 2, p=1 + case % 2)


@pytest.mark.parametrize("case", ["boeing", "doubled", 0, 1, 2])
def test_backward_verdicts_match_schur_recursion(case, boeing):
    """The step test gives the Schur-complement recursion's verdicts.

    The grid brackets the causal and the strictly causal optimum (from the
    package search, which only places the grid).  At every level both
    verdicts must equal those of the oracle, which checks the causal
    condition in Schur-complement form and runs to t = 0.  A causal failure
    is the first failing step the oracle visits, and the recursion stops
    there: P is the oracle's after it and zero from it down.  A strictly
    causal failure is the first step where B_w'P_{t+1}B_w < gamma^2 I fails.
    """
    plant = _fh_case(case, boeing)
    optima = [
        min_gamma_hinf(plant, causality=c, audit=False).gamma
        for c in ("causal", "strictly-causal")
    ]
    seen = set()
    for g_opt in optima:
        for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
            gamma = f * g_opt
            sched = hinf_backward(plant, gamma)
            P_ref, causal_bad, strict_bad = schur_backward(plant, gamma)
            pairs = ((sched.causal, causal_bad), (sched.strictly_causal_w, strict_bad))
            for verdict, bad in pairs:
                assert verdict.ok == (not bad), (gamma, bad)
                if bad:
                    assert verdict.reason == "condition-violated"
                    assert verdict.first_violation == bad[0]
            stop = sched.causal.first_violation
            tail = 0 if stop is None else stop + 1
            assert not sched.P[:tail].any()
            scale = max(1.0, np.abs(P_ref[tail:]).max())
            assert_allclose(sched.P[tail:], P_ref[tail:], rtol=0, atol=1e-10 * scale)
            seen.add((sched.causal.ok, sched.strictly_causal_w.ok))
    assert seen == {(True, True), (True, False), (False, False)}


def test_backward_singular_step_fails_both_verdicts(boeing):
    # at gamma = 1, H~ at the second step (P = Q) is singular on Boeing,
    # where B_w'QB_w < I also fails: the singular step decides both reasons
    sched = hinf_backward(boeing.to_ltv(40), 1.0)
    assert sched.causal == Verdict(False, "singular-Htilde", 38)
    assert sched.strictly_causal_w == sched.causal
    assert not sched.P[:39].any() and sched.P[39].any()


def _triple(verdict):
    return verdict.ok, verdict.reason, verdict.first_violation


def _assert_stack_equals_oracle(plant, levels):
    """Each lane of one stacked call equals the one-level oracle bit for bit;
    returns the lanes' (causal, strict) verdict triples."""
    scheds = hinf_backward(plant, np.asarray(levels))
    assert isinstance(scheds, list) and len(scheds) == len(levels)
    oracle = {}
    out = []
    for gamma, sched in zip(levels, scheds):
        if gamma not in oracle:
            oracle[gamma] = hinf_backward_scalar(plant, gamma)
        P, causal, strict = oracle[gamma]
        assert sched.gamma == gamma
        assert np.array_equal(sched.P, P), gamma
        assert _triple(sched.causal) == causal, gamma
        assert _triple(sched.strictly_causal_w) == strict, gamma
        out.append((causal, strict))
    return out


def _search_levels(boeing):
    """The 19 levels of the Boeing T = 200 causal competitive search, and its
    synthetic plant."""
    levels = [g for g, _ in min_gamma_competitive(boeing, horizon=200).history]
    syn = controllers._synthetic_plant(boeing.to_ltv(200)).as_plant()
    return levels, syn


def test_stacked_backward_equals_oracle_on_search_levels(boeing):
    levels, syn = _search_levels(boeing)
    assert len(levels) == 19
    rng = np.random.default_rng(12)
    order = [float(g) for g in rng.permutation(levels + levels[::4])]
    verdicts = _assert_stack_equals_oracle(syn, order)
    kinds = {(causal[0], strict[0]) for causal, strict in verdicts}
    # passing lanes, lanes failing only the one-step-delay condition, and
    # lanes leaving the stack at different steps
    assert kinds == {(True, False), (False, False)}
    assert len({causal[2] for causal, _ in verdicts if not causal[0]}) > 3


@pytest.mark.parametrize("case", ["boeing", 0, 1, 2, 3])
def test_stacked_backward_equals_oracle_across_verdicts(case, boeing):
    # levels around both optima: lanes that pass, fail the one-step-delay
    # condition alone (at different steps, so the stack thins unevenly),
    # or fail the step test; Boeing at gamma = 1 adds a singular H~
    if case == "boeing":
        plant = boeing.to_ltv(40)
    elif case < 2:  # p < n, time-invariant
        rng = np.random.default_rng(7200 + case)
        plant = random_lti(rng, n=4, m=1 + case, p=1 + case).to_ltv(30)
    else:
        rng = np.random.default_rng(7200 + case)
        plant = random_ltv(rng, T=30, n=3, m=1, p=2)
    levels = [1.0] if case == "boeing" else []
    for c in ("causal", "strictly-causal"):
        g_opt = min_gamma_hinf(plant, causality=c, audit=False).gamma
        levels += [f * g_opt for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)]
    levels = [float(g) for g in np.random.default_rng(3).permutation(levels)]
    verdicts = _assert_stack_equals_oracle(plant, levels)
    kinds = {(causal[0], strict[0]) for causal, strict in verdicts}
    assert kinds == {(True, True), (True, False), (False, False)}
    assert len({s[2] for _, s in verdicts if not s[0]}) > 1
    if case == "boeing":
        assert (False, "singular-Htilde", 38) in {c for c, _ in verdicts}


def test_stacked_backward_causal_failure_while_strict_holds(rng):
    # an indefinite Q at the last step makes I + B_u'PB_u indefinite one step
    # earlier, while B_w'PB_w < gamma^2 I still holds: the causal failure
    # then decides the strict verdict too
    plant = random_ltv(rng, T=12, n=3, m=1, p=1)
    Q = plant.Q.copy()
    Q[-1] = -10.0 * np.eye(3)
    plant = dataclasses.replace(plant, Q=Q)
    verdicts = _assert_stack_equals_oracle(plant, [0.5, 20.0, 3.0])
    assert (
        (False, "condition-violated", plant.T - 2),
        (False, "condition-violated", plant.T - 2),
    ) in verdicts


def test_stacked_backward_single_level(boeing):
    plant = boeing.to_ltv(40)
    for gamma in (1.0, 3.0, 50.0):
        P, causal, strict = hinf_backward_scalar(plant, gamma)
        one = hinf_backward(plant, gamma)
        [lane] = hinf_backward(plant, [gamma])
        for sched in (one, lane):
            assert np.array_equal(sched.P, P)
            assert (_triple(sched.causal), _triple(sched.strictly_causal_w)) == (causal, strict)
        assert one.gamma is gamma


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_stacked_verdicts_and_gains_equal_one_level_routes(causality, boeing):
    # the attenuation verdicts of a stack equal those of one level at a
    # time, and the gains built in one call on the (T, ., .) stacks equal
    # the per-step oracle's
    levels, syn = _search_levels(boeing)
    for plant, grid in ((syn, levels[:8] + [5.5, 8.0]), (boeing.to_ltv(40), [0.5, 30.0, 1.0, 18.7, 100.0])):
        stacked = controllers._attenuation(plant, grid, causality)
        assert len(stacked) == len(grid)
        built = 0
        for gamma, res in zip(grid, stacked):
            alone = controllers._attenuation(plant, gamma, causality)
            assert type(res) is type(alone)
            if isinstance(res, controllers.Infeasible):
                assert (res.reason, res.gamma, res.details) == (
                    alone.reason, alone.gamma, alone.details
                )
                continue
            assert np.array_equal(res.P, alone.P)
            Kx, Kw = controllers._attenuation_gains(res)
            Kx_ref, Kw_ref = saddle_gains_per_step(plant, res.P, gamma, causality)
            assert np.array_equal(Kx, Kx_ref) and np.array_equal(Kw, Kw_ref)
            built += 1
        assert built > 0


def test_stacked_levels_on_time_invariant_plant(boeing):
    # an LtiPlant keeps one fixed point per level
    grid = [1.0, 2.0, 5.0]
    stacked = controllers._attenuation(boeing, grid, "causal")
    for gamma, res in zip(grid, stacked):
        alone = controllers._attenuation(boeing, gamma, "causal")
        assert type(res) is type(alone)
        if not isinstance(res, controllers.Infeasible):
            assert np.array_equal(res.P, alone.P)


def test_verdict_dataclass():
    good = Verdict(ok=True)
    bad = Verdict(ok=False, reason="why", first_violation=3)
    assert good and not bad
    assert bad.first_violation == 3
