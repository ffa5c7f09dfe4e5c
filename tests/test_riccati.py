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
from compctrl import controllers, riccati
from compctrl.factorization import build_synthetic
from compctrl.model import LtvPlant
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


def test_solve_sym_refuses_a_singular_matrix_of_a_stack():
    # the second matrix's equilibrated pivots are 1 and 0: the error names it
    H = np.stack([np.diag([2.0, -3.0]), np.diag([1.0, 0.0])])
    with pytest.raises(riccati.SingularHtildeError,
                       match=r"^symmetric solve rejected: \|pivot\| ratio 0.000e\+00/1.000e\+00$"):
        solve_sym(H, np.ones((2, 2, 1)))


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


def test_a_converged_fixed_point_that_does_not_stabilize_is_condition_violated():
    # LQR on a = 1, b = 1e-8, q = 1e-16, both at the PBH threshold: the
    # doubling converges to P = 1, whose closed loop a/(1 + b^2 P) rounds to
    # radius 1, so P fails acceptance with no reason of its own
    fp = dare_fixed_point(np.array([[1.0]]), np.array([[1e-8]]), np.eye(1),
                          np.array([[1e-16]]))
    assert fp.converged and fp.reason is None and fp.inertia_match and fp.psd
    assert fp.closed_loop_radius >= 1.0 - riccati.STABILITY_MARGIN
    assert not fp.feasible and fp.failure_reason == "condition-violated"


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


def test_a_converged_p_with_a_singular_htilde_is_refused(monkeypatch):
    # doubling declares convergence before it gates the new sample, so the
    # acceptance step tests H~ itself.  Q = 1/3 - 1e-10 passes the gate; one
    # doubling adds a^2 Q / (1 - 3Q) = 1e-10, below the relative tolerance
    # 1e-9 * ||P|| = 3.3e-10, and lands on P = 1/3, where
    # det(R~ + B~'PB~) = 3P - 1 = 0
    A, Btil, Rtil = np.array([[3e-10]]), np.array([[1.0, 2.0]]), np.diag([1.0, -1.0])
    Q = np.array([[1.0 / 3.0 - 1e-10]])
    assert riccati._game_step_test(Rtil + Btil.T @ Q @ Btil, 1, 1)[0] == [None]
    solves, sda = [], riccati._sda
    monkeypatch.setattr(riccati, "_sda", lambda *a, **k: solves.append(sda(*a, **k)) or solves[-1])
    fp = dare_fixed_point(A, Btil, Rtil, Q)
    [(P, doublings, reason)] = solves
    assert P is not None and reason is None and doublings == 1  # converged
    assert not fp.converged and fp.P is None and fp.iterations == 1
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
        return build_synthetic(boeing.to_ltv(40)).as_plant()
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
    syn = build_synthetic(boeing.to_ltv(200)).as_plant()
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


def test_pivot_test_gives_numpy_answers(rng):
    # the guard and the sign counts on Python floats equal numpy's on the
    # same pivots, NaN (never singular, as numpy's min and max propagate it)
    # and inf included
    rows = [rng.standard_normal(5) * 10.0 ** rng.integers(-14, 14, 5) for _ in range(300)]
    rows += [
        np.array(row)
        for row in ([0.0, 1.0], [1e-13, -1.0], [np.nan, 1e-20, 1.0], [1e-20, np.nan, 1.0],
                    [np.inf, 1.0], [-1e-10, 1e-10, 2e-10, -3.0], [-0.0, -1.0])
    ]
    for lam in rows:
        mags = np.abs(lam)
        singular = mags.min() <= 1e-12 * np.maximum(mags.max(), np.finfo(float).tiny)
        counts = int((lam > 1e-10).sum()), int((lam < -1e-10).sum())
        assert riccati._pivot_test(lam.tolist()) == (bool(singular),) + counts, lam


BLOCK = riccati._STRICT_BLOCK


def _late_singular_plant(rng, T):
    """A scalar plant (A = 0.9, B_u = 10, Q = 1, B_w drawn per step) on which,
    at gamma = 1, the one-step-delay condition fails at step 1 at the latest
    (B_w = 2 there) while the step test passes, and H~ is singular at step 0
    (B_w^2 P_1 = 1 + B_u^2 P_1)."""
    Bw = rng.uniform(0.5, 3.0, size=(T, 1, 1))
    ones = np.ones((T, 1, 1))
    plant = LtvPlant(A=0.9 * ones, Bu=10.0 * ones, Bw=Bw, Q=ones, R_half=ones, x0=np.zeros(1))
    if T > 1:
        Bw[1] = 2.0
        P1 = hinf_backward(plant, 1.0).P[1, 0, 0]  # independent of B_w at step 0
        Bw[0] = np.sqrt(1.0 / P1 + 100.0)
    return plant


@pytest.mark.parametrize("T", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_blocked_strict_check_equals_oracles_across_block_edges(T):
    # the one-step-delay condition is checked after the recursion, BLOCK
    # steps at a time; on horizons that straddle the block size, stacked and
    # one-level calls equal the per-step oracle bit for bit and give the
    # Schur recursion's verdicts on the steps each lane ran
    rng = np.random.default_rng(7300 + T)
    scalar = _late_singular_plant(rng, T)
    rand = random_ltv(rng, T=T, n=3, m=1, p=2)
    optima = [
        min_gamma_hinf(rand, causality=c, audit=False).gamma for c in ("causal", "strictly-causal")
    ]
    grids = [
        (scalar, [0.05, 0.12, 0.2, 0.5, 1.0, 1.5, 2.5, 5.0, 12.0]),
        (rand, [f * g for g in optima for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)]),
    ]
    for plant, levels in grids:
        verdicts = _assert_stack_equals_oracle(plant, levels)
        for gamma, (causal, strict) in zip(levels, verdicts):
            one = hinf_backward(plant, gamma)
            assert np.array_equal(one.P, hinf_backward_scalar(plant, gamma)[0])
            assert (_triple(one.causal), _triple(one.strictly_causal_w)) == (causal, strict)
            if causal[1] == "singular-Htilde":
                assert strict == causal  # the Schur oracle cannot solve this step
                continue
            _, causal_bad, strict_bad = schur_backward(plant, gamma)
            first_bad = (False, "condition-violated", causal_bad[0]) if causal_bad else None
            assert causal == (first_bad or (True, None, None))
            ran = [t for t in strict_bad if t >= (causal[2] or 0)]
            assert strict == ((False, "condition-violated", ran[0]) if ran else causal)
        if T > BLOCK:  # lanes leave the stack at different steps
            assert len({c[2] for c, _ in verdicts if not c[0]}) > 1
            kinds = {(c[0], s[0]) for c, s in verdicts}
            assert kinds == {(True, True), (True, False), (False, False)}
    if T > 1:
        # at gamma = 1 the steps from 1 on pass the step test, and one of them
        # fails the one-step-delay condition; H~ at step 0 is singular, and
        # that reason wins on both verdicts
        [lane] = hinf_backward(scalar, [1.0])
        assert _triple(lane.causal) == (False, "singular-Htilde", 0)
        assert lane.strictly_causal_w == lane.causal
        steps = slice(1, None)
        tail = LtvPlant(
            scalar.A[steps], scalar.Bu[steps], scalar.Bw[steps], scalar.Q[steps],
            scalar.R_half[steps], scalar.x0,
        )
        rest = hinf_backward(tail, 1.0)
        assert rest.causal.ok and not rest.strictly_causal_w.ok


def test_strict_check_runs_in_blocks(boeing, monkeypatch):
    # an 8-level stack on the Boeing T = 200 synthetic plant, with lanes that
    # fail the step test, fail the one-step-delay condition alone and pass:
    # each stacked eigvalsh of the strict check sees at most BLOCK steps, so
    # its buffers do not grow with the horizon, and together they cover the
    # horizon once
    syn = build_synthetic(boeing.to_ltv(200)).as_plant()
    levels = [1.25, 1.33, 5.0, 5.3, 5.33, 8.0, 16.0, 32.0]
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    scheds = hinf_backward(syn, levels)
    monkeypatch.undo()
    kinds = {(s.causal.ok, s.strictly_causal_w.ok) for s in scheds}
    assert kinds == {(True, True), (True, False), (False, False)}
    assert all(len(shape) == 4 and shape[0] <= BLOCK and shape[1] <= 8 for shape in shapes)
    assert sum(shape[0] for shape in shapes) == syn.T


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
    # an LtiPlant's levels run as lanes of one doubling
    grid = [1.0, 2.0, 5.0]
    stacked = controllers._attenuation(boeing, grid, "causal")
    for gamma, res in zip(grid, stacked):
        alone = controllers._attenuation(boeing, gamma, "causal")
        assert type(res) is type(alone)
        if not isinstance(res, controllers.Infeasible):
            assert np.array_equal(res.P, alone.P)


def _same_fixed_point(got, want):
    """Every field of two fixed points equal; P and every float to the bit."""
    for field in dataclasses.fields(riccati.RiccatiFixedPoint):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(
                a.view(np.uint64), b.view(np.uint64)
            ), field.name
        else:
            assert (type(a), repr(a)) == (type(b), repr(b)), field.name


#: levels whose lone solves end at every exit of the doubling: (level,
#: feasible, reason, doublings), and the check that ends the run
STACKED_SOLVE_CASES = {
    "boeing": [
        (0.5, False, "condition-violated", 0),  # gate on H_0 = Q
        (1.0, False, "singular-Htilde", 0),  # gate on H_0 = Q
        (1.3, False, "condition-violated", 1),  # gate
        (2.0, False, "condition-violated", 2),  # increment
        (2.6, False, "condition-violated", 2),  # gate
        (5.0, False, "condition-violated", 3),  # gate
        (25.0, False, "condition-violated", 7),  # increment
        (31.6, True, None, 11),
        (50.0, True, None, 10),
    ],
    "pendulum": [
        (0.1, False, "condition-violated", 8),  # increment
        (0.5, False, "condition-violated", 10),  # increment
        (1.0, False, "condition-violated", 14),  # norm, then the bisection
        (2.0, True, None, 15),
    ],
    "unstabilizable": [
        (1e7, False, "no-stabilizing-solution", 5),  # norm
        (2.0, False, "condition-violated", 1),
        (1e3, False, "condition-violated", 4),
    ],
    "weakly-controlled": [
        (1e3, False, "condition-violated", 4),
        (1e5, True, None, 6),
        (1e7, True, None, 6),
    ],
}


@pytest.mark.parametrize("case", list(STACKED_SOLVE_CASES))
def test_stacked_fixed_points_equal_lone_solves(case, boeing):
    """Each lane of one stacked doubling run equals dare_fixed_point at its
    level alone, field by field, in either order of the lanes."""
    plant = {
        "boeing": boeing,
        "pendulum": linearize_pendulum(PendulumParams(), 0.0),
        "unstabilizable": scalar_lti(a=2.0, bu=0.0),
        "weakly-controlled": scalar_lti(a=2.0, bu=1e-4),
    }[case]
    levels = [row[0] for row in STACKED_SOLVE_CASES[case]]
    game = [_hinf_game(plant, g) for g in levels]
    alone = [dare_fixed_point(*g) for g in game]
    assert [
        (fp.feasible, fp.failure_reason, fp.iterations) for fp in alone
    ] == [row[1:] for row in STACKED_SOLVE_CASES[case]]
    A, Bt, _, Q = game[0]
    for order in (slice(None), slice(None, None, -1)):
        Rt = np.stack([g[2] for g in game])[order]
        stacked = riccati._dare_fixed_points(A, Bt, Rt, Q)
        assert len(stacked) == len(levels)
        for got, want in zip(stacked, alone[order]):
            _same_fixed_point(got, want)


def test_stacked_fixed_points_need_one_inertia(boeing):
    A, Bt, Rt, Q = _hinf_game(boeing, 2.0)
    with pytest.raises(ValueError, match="share one inertia"):
        riccati._dare_fixed_points(A, Bt, np.stack([Rt, np.abs(Rt)]), Q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_point_of_a_non_finite_input_matrix_raises(boeing, bad):
    # the first step's R~ + B~'0B~ has no eigenvalues then; its verdict
    # comes from R~'s own, so dare_fixed_point checks B~ first and raises
    # what numpy's eigvalsh raised on that step
    A, Bt, Rt, Q = _hinf_game(boeing, 30.0)
    Bt = Bt.copy()
    Bt[1, 0] = bad
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        dare_fixed_point(A, Bt, Rt, Q)


def test_stacked_doubling_survives_a_singular_lane():
    """numpy's stacked solve fails the whole stack when one W = I + G H is
    singular; that lane leaves with its own verdict and the others go on.

    A is nilpotent and H_0 = diag(1, 0), so every lane's H_1 = I and A_1 = 0:
    the lane G_0 = diag(0, -1) has W_1 = I but G_1 = -I and W_2 = 0, while
    the other lanes converge at the second doubling.
    """
    A, H = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 0.0])
    G = np.stack([np.diag(d) for d in ([0.0, 1.0], [0.0, -1.0], [0.5, 0.25])])
    alone = [riccati._sda(A, Gi, H) for Gi in G]
    assert [(X is None, k, reason) for X, k, reason in alone] == [
        (False, 2, None), (True, 2, "no-stabilizing-solution"), (False, 2, None)
    ]
    W2 = np.eye(2) + np.diag([-1.0, -1.0]) @ np.eye(2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.stack([W2, 2.0 * np.eye(2)]), np.stack([A, A]))
    for got, want in zip(riccati._sda(A, G, H), alone):
        assert got[1:] == want[1:]
        assert (got[0] is None) == (want[0] is None)
        if want[0] is not None:
            assert np.array_equal(got[0], want[0])


def _lane(trials, X, reason="condition-violated"):
    """An ungated failed doubling lane whose trials are the maps ``trials``."""
    return riccati._Bisection(trials, X, reason, None)


def _resolved_alone(lanes):
    return [riccati._first_failures([lane])[0] for lane in lanes]


def test_first_failures_survives_a_singular_trial():
    """numpy fails the whole stacked solve of a round when one lane's
    W = I + GX is singular; that lane's trial fails with
    "no-stabilizing-solution" and the others run on."""
    eye = np.eye(2)
    singular = _lane([(eye, -eye, eye)] * 2, eye)  # W = I - I at X = I
    # X -> I + X/4 from X = I: every trial passes, and the sample's reason stays
    passing = _lane([(0.5 * eye, 0.0 * eye, eye)] * 3, eye, "singular-Htilde")
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.stack([eye - eye, eye]), np.stack([eye, 0.5 * eye]))
    lanes = [singular, passing]
    got = riccati._first_failures(lanes)
    assert got == ["no-stabilizing-solution", "singular-Htilde"]
    assert got == _resolved_alone(lanes)


def test_first_failures_of_a_diverging_trial():
    # the trial's iterate exceeds 1e12: the divergence check names it, before
    # the increment check that named the sample
    eye = np.eye(2)
    lane = _lane([(1e7 * eye, 0.0 * eye, eye)], eye)
    assert riccati._first_failures([lane]) == ["no-stabilizing-solution"]


def test_first_failures_keep_the_sample_reason_when_every_trial_passes():
    eye = np.eye(2)
    for trials in ([], [(0.5 * eye, 0.0 * eye, eye)] * 4):
        lane = _lane(trials, eye, "singular-Htilde")
        assert riccati._first_failures([lane]) == ["singular-Htilde"]


@pytest.mark.parametrize("case", ["boeing", "pendulum", "unstabilizable"])
def test_first_failures_of_unequal_lanes_equal_lone_bisections(case, boeing):
    """Deferred lanes of unequal depth, bisected in one stack, get the
    reasons of their lone bisections and of dare_fixed_point."""
    plant = {
        "boeing": boeing,
        "pendulum": linearize_pendulum(PendulumParams(), 0.0),
        "unstabilizable": scalar_lti(a=2.0, bu=0.0),
    }[case]
    levels = [row[0] for row in STACKED_SOLVE_CASES[case] if not row[1]]
    games = [_hinf_game(plant, g) for g in levels]
    deferred = [riccati._dare_fixed_points(*g, defer=True) for g in games]
    pending = [fp.reason for fp in deferred if isinstance(fp.reason, riccati._Bisection)]
    assert len({len(lane.steps) for lane in pending}) > 1
    want = [dare_fixed_point(*g).reason for g in games]
    got = iter(riccati._first_failures(pending))
    assert [next(got) if isinstance(fp.reason, riccati._Bisection) else fp.reason
            for fp in deferred] == want
    assert riccati._first_failures(pending) == _resolved_alone(pending)
    assert riccati._first_failures(pending[::-1]) == _resolved_alone(pending)[::-1]


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_stacked_strict_verdicts_equal_lone_ones(causality, boeing):
    # the competitive plant's fixed points converge at 2, 4 and 5, where
    # B_w'PB_w < gamma^2 I fails
    syn = build_synthetic(boeing).as_plant()
    levels = [2.0, 4.0, 5.0, 5.5, 6.0, 8.0, 1.25]
    stacked = controllers._attenuation(syn, levels, causality)
    strict_failures = 0
    for gamma, got in zip(levels, stacked):
        want = controllers._attenuation(syn, gamma, causality)
        assert type(got) is type(want)
        if isinstance(want, controllers.Infeasible):
            assert (got.reason, got.gamma) == (want.reason, want.gamma)
            assert repr(got.details) == repr(want.details)
            strict_failures += want.details.get("strict_w_channel_ok") is False
            continue
        assert np.array_equal(got.P, want.P)
        assert repr(got.diagnostics) == repr(want.diagnostics)
    assert strict_failures == (3 if causality == "strictly-causal" else 0)


@pytest.mark.parametrize("search", [min_gamma_hinf, min_gamma_competitive])
def test_stacked_audit_levels_equal_lone_solves(search, boeing):
    # the eight levels of Boeing's audit, around the certified bracket
    result = search(boeing, audit=False)
    lo, hi, tol = result.gamma_lo, result.gamma, result.tol
    levels = [lo - (2 + k) * tol for k in range(4)] + [hi + k * tol for k in range(1, 5)]
    plant = boeing if search is min_gamma_hinf else build_synthetic(boeing).as_plant()
    game = [_hinf_game(plant, g) for g in levels]
    A, Bt, _, Q = game[0]
    stacked = riccati._dare_fixed_points(A, Bt, np.stack([g[2] for g in game]), Q)
    for got, g in zip(stacked, game):
        _same_fixed_point(got, dare_fixed_point(*g))
    assert [fp.feasible for fp in stacked] == [False] * 4 + [True] * 4


def test_lone_level_keeps_the_lone_solve(boeing, monkeypatch):
    # a one-level sequence (a bracket probe) runs the lone solve, unstacked;
    # two or more levels (an audit) run as lanes of one solve
    seen = []

    def spy(solve, level_arg):
        def call(*args):
            seen.append((solve.__name__, np.shape(args[level_arg])))
            return solve(*args)

        return call

    monkeypatch.setattr(controllers, "dare_fixed_point", spy(dare_fixed_point, 2))
    monkeypatch.setattr(controllers, "hinf_backward", spy(hinf_backward, 1))
    ltv = boeing.to_ltv(20)
    for plant, lone in ((boeing, ("dare_fixed_point", (6, 6))), (ltv, ("hinf_backward", ()))):
        seen.clear()
        [one] = controllers._attenuation(plant, [50.0], "causal")
        assert seen == [lone]
        assert np.array_equal(one.P, controllers._attenuation(plant, 50.0, "causal").P)
    seen.clear()
    controllers._attenuation(boeing, [50.0, 60.0], "causal")
    controllers._attenuation(ltv, [50.0, 60.0], "causal")
    assert seen == [("hinf_backward", (2,))]


# --- the odd-even reduction of the backward recursion -------------------------


def test_compose_is_the_composition_of_the_maps(rng):
    # (A, G, H) stands for f(X) = H + A'X(I + GX)^{-1}A; the composite of
    # two maps, applied to X, is f_1(f_2(X))
    n = 3

    def element():
        B, M = rng.standard_normal((n, 2)), rng.standard_normal((n, n))
        return 0.5 * rng.standard_normal((n, n)), B @ np.diag([1.0, -0.1]) @ B.T, M @ M.T

    def apply(A, G, H, X):
        return H + A.T @ X @ np.linalg.solve(np.eye(n) + G @ X, A)

    first, second = element(), element()
    X = 0.3 * np.eye(n)
    got = apply(*riccati._compose(*first, *second), X)
    want = apply(*first, apply(*second, X))
    assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


def _assert_reduced_verdicts_equal(plant, levels):
    """At each level, the reduction's (causal, strict) verdict triples equal
    hinf_backward's; returns them."""
    out = []
    for gamma in levels:
        causal, strict = riccati._reduced_verdicts(plant, gamma)
        sched = hinf_backward(plant, gamma)
        got = (_triple(causal), _triple(strict))
        assert got == (_triple(sched.causal), _triple(sched.strictly_causal_w)), gamma
        out.append(got)
    return out


@pytest.mark.parametrize("T", [40, 200])
def test_reduced_verdicts_equal_the_recursion_on_boeing(T, boeing):
    # 150 levels across Boeing's causal and strictly causal competitive
    # optima (about 1.33 and 5.33), and 61 within +-3e-3 of the T = 200
    # causal optimum, where the reduction's P parts most from the
    # recursion's
    plant = build_synthetic(boeing.to_ltv(T)).as_plant()
    near = 1.3310546875 + np.linspace(-3e-3, 3e-3, 61)
    levels = [float(g) for g in np.concatenate([np.linspace(1.05, 8.0, 150), near])]
    verdicts = _assert_reduced_verdicts_equal(plant, levels)
    assert {(causal[0], strict[0]) for causal, strict in verdicts} == {
        (True, True), (True, False), (False, False)
    }
    assert len({causal[2] for causal, _ in verdicts if not causal[0]}) > 2
    assert len({strict[2] for causal, strict in verdicts if causal[0] and not strict[0]}) > 1


@pytest.mark.parametrize("p", [1, 3, 5])
def test_reduced_verdicts_equal_the_recursion_on_random_plants(p):
    # p < n, p = n and p > n at an odd horizon, on the plant and on its
    # synthetic plant, at levels around the causal and strictly causal optima
    rng = np.random.default_rng(7300 + p)
    ltv = random_lti(rng, n=3, m=2, p=p).to_ltv(45)
    seen = set()
    for plant, search in ((ltv, min_gamma_hinf), (build_synthetic(ltv).as_plant(), None)):
        levels = []
        for c in ("causal", "strictly-causal"):
            g_opt = (search or min_gamma_competitive)(ltv, causality=c, audit=False).gamma
            levels += [f * g_opt for f in (0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0)]
        for causal, strict in _assert_reduced_verdicts_equal(plant, levels):
            seen.add((causal[0], strict[0]))
    assert seen == {(True, True), (True, False), (False, False)}


def _spy_recursion(monkeypatch) -> list:
    """The levels at which the reduction falls back to hinf_backward."""
    calls = []

    def spy(plant, gamma):
        calls.append(gamma)
        return hinf_backward(plant, gamma)

    monkeypatch.setattr(riccati, "hinf_backward", spy)
    return calls


def test_reduced_verdicts_fall_back_on_a_singular_combine(boeing, monkeypatch):
    # at gamma = 1 on Boeing, a W of the reduction is exactly singular: the
    # recursion decides, and both verdicts report the singular H~ at step 38
    calls = _spy_recursion(monkeypatch)
    ltv = boeing.to_ltv(40)
    causal, strict = riccati._reduced_verdicts(ltv, 1.0)
    assert causal == strict == Verdict(False, "singular-Htilde", 38)
    assert calls == [1.0]
    calls.clear()
    _assert_reduced_verdicts_equal(ltv, [1.5, 30.0])
    assert calls == []


@pytest.mark.parametrize("where", ["before", "at"])
def test_reduced_verdicts_with_a_non_finite_step(where, boeing, monkeypatch):
    # an H~ that is not finite before the failing step is one the recursion
    # never reaches, and the reduction's verdict stands; one at the failing
    # step sends the level to the recursion
    plant = build_synthetic(boeing.to_ltv(40)).as_plant()
    gamma = 1.2
    s = hinf_backward(plant, gamma).causal.first_violation
    assert s > 0
    suffixes = riccati._suffixes

    def poisoned(A, G, H):
        S = suffixes(A, G, H)
        if len(S) == plant.T:  # the outermost call: S[k] = P_k, read by H~_{k-1}
            S[s if where == "before" else s + 1] = np.inf
        return S

    monkeypatch.setattr(riccati, "_suffixes", poisoned)
    calls = _spy_recursion(monkeypatch)
    _assert_reduced_verdicts_equal(plant, [gamma])
    assert calls == ([] if where == "before" else [gamma])


def test_verdict_dataclass():
    good = Verdict(ok=True)
    bad = Verdict(ok=False, reason="why", first_violation=3)
    assert good and not bad
    assert bad.first_violation == 3
