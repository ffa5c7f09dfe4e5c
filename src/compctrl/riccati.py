"""Indefinite Riccati recursions and fixed points with feasibility verdicts.

Two related objects live here:

* the backward finite-horizon recursion for the min-max (game-type) quadratic
  problem, which carries per-step existence conditions for causal and
  strictly causal disturbance-attenuating controllers, and

* the corresponding infinite-horizon fixed point, whose acceptance requires
  (1) a stable closed loop, (2) matching inertia of the weight R~ and of
  H~ = R~ + B~'PB~, and (3) P PSD.

Both horizons share one existence test, :func:`_game_step_test` (H~,
equilibrated, nonsingular with the inertia of R~; at every backward step and
every doubling), and one strictly causal condition, B_w'PB_w < gamma^2 I.
Both, and the symmetric solves, also run on stacks (..., k, k), which the
backward recursion uses to carry several levels at once.

Every infinite-horizon fixed point of the package (the game and LQR
Riccati equations here, the spectral and outer factors in
:mod:`compctrl.factorization`) is solved by one structure-preserving
doubling core, :func:`_sda`.  Its k-th iterate is the value-iteration
iterate from zero at step 2^k, so the verdicts of value iteration carry over
when each doubling is checked as value iteration checks each step, while the
number of steps falls from thousands near the feasibility boundary to a few
dozen.

Feasibility failures are reported as structured verdicts with reason codes
("singular-Htilde", "no-stabilizing-solution", ...) rather than exceptions,
because the gamma-bisection consumes them as ordinary values.

All symmetric (possibly indefinite) linear systems are solved through an
eigendecomposition with a relative pivot guard: the matrix is declared
singular when min|lam| < 1e-12 * max|lam|.  A determinant-based guard is not
scale-free (|det| ~ scale^dim) and misfires badly on well-conditioned
matrices of moderate norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import LtvPlant

__all__ = [
    "SingularHtildeError",
    "Verdict",
    "RiccatiSchedule",
    "RiccatiFixedPoint",
    "solve_sym",
    "spectral_radius",
    "is_stable",
    "inertia",
    "pbh_stabilizable",
    "pbh_detectable",
    "hinf_backward",
    "dare_fixed_point",
]

#: margin for strict matrix inequalities (lam_max < gamma^2 - MARGIN)
STRICT_MARGIN = 1e-9
#: threshold for counting signs of eigenvalues in inertia computations
INERTIA_TOL = 1e-10
#: stability means spectral radius < 1 - STABILITY_MARGIN
STABILITY_MARGIN = 1e-9
#: relative pivot guard for symmetric solves
PIVOT_GUARD = 1e-12
#: doubling cap; k doublings stand for 2^k value-iteration steps
MAX_DOUBLINGS = 64
#: a fixed-point iterate with ||P||_inf above this counts as divergent
DIVERGENCE_NORM = 1e12
#: relative tolerance on negative eigenvalues of a doubling's increment
INCREMENT_TOL = 1e-9
#: smallest positive normal float, the floor of scales and pivot magnitudes
TINY = np.finfo(float).tiny


class SingularHtildeError(ValueError):
    """Raised by solve_sym when the symmetric matrix is numerically singular."""


def equilibrate_sym(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric row/column scaling S H S with S = diag(1/sqrt(row max)).

    Balances blocks of wildly different magnitude (the game matrix mixes an
    O(1) control block with an O(gamma^2) disturbance block) so that the
    relative pivot guard measures genuine singularity rather than scale
    spread.  The congruence preserves inertia and exact singularity.  H may
    be a stack (..., k, k); each matrix is scaled on its own.
    """
    Hs = 0.5 * (H + H.swapaxes(-1, -2))
    d = np.abs(Hs).max(axis=-1)
    S = 1.0 / np.sqrt(np.maximum(d, TINY))
    return Hs * S[..., :, None] * S[..., None, :], S


def _singular(lam: np.ndarray) -> np.ndarray:
    """The pivot guard min|lam| <= 1e-12 * max|lam|, per eigenvalue row."""
    abs_lam = np.abs(lam)
    return abs_lam.min(axis=-1) <= PIVOT_GUARD * np.maximum(abs_lam.max(axis=-1), TINY)


def _eig_pivots(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equilibrated eigendecomposition S H S = V diag(lam) V' as (lam, V, S),
    unguarded; on a stack, one LAPACK call runs each matrix as it would run
    alone."""
    Hhat, S = equilibrate_sym(H)
    lam, V = np.linalg.eigh(Hhat)
    return lam, V, S


def _pivots(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pivots (lam, V, S) of :func:`_eig_pivots`, guarded.

    Raises SingularHtildeError when min|lam| <= 1e-12 * max|lam| for any
    matrix of the stack, naming the first one.
    """
    pivots = _eig_pivots(H)
    singular = _singular(pivots[0])
    if singular.any():
        abs_lam = np.abs(pivots[0][singular][0])
        raise SingularHtildeError(
            f"symmetric solve rejected: |pivot| ratio "
            f"{abs_lam.min():.3e}/{abs_lam.max():.3e}"
        )
    return pivots


def _solve_pivots(pivots: tuple, B: np.ndarray) -> np.ndarray:
    """Solve H X = B from the (lam, V, S) of :func:`_pivots`, stacks too."""
    lam, V, S = pivots
    Y = V.swapaxes(-1, -2) @ (B * S[..., :, None])
    return (V @ (Y / lam[..., :, None])) * S[..., :, None]


def solve_sym(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve H X = B for symmetric (possibly indefinite) H, or for a stack.

    The matrix is first equilibrated, then factored by the symmetric
    eigendecomposition; the eigenvalues act as pivots and the solve is
    rejected when min|lam| <= 1e-12 * max|lam| after scaling.  On stacks
    (..., k, k) and (..., k, r) each matrix is solved with the arithmetic of
    a lone one, so each result equals the unstacked solve bit for bit.
    """
    return _solve_pivots(_pivots(H), B)


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetrize (cheap guard against eigvalsh on slightly asymmetric input)."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)))))


def is_stable(M: np.ndarray) -> bool:
    """Schur stability with a deterministic margin: radius < 1 - 1e-9."""
    return spectral_radius(M) < 1.0 - STABILITY_MARGIN


def inertia(M: np.ndarray, tol: float = INERTIA_TOL) -> tuple[int, int, int]:
    """Counts (n_pos, n_neg, n_zero) of eigenvalues of symmetric M."""
    lam = np.linalg.eigvalsh(0.5 * (M + M.T))
    n_pos = int(np.sum(lam > tol))
    n_neg = int(np.sum(lam < -tol))
    return n_pos, n_neg, lam.size - n_pos - n_neg


def _unstable_eigenvalues(A: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvals(A)
    return lam[np.abs(lam) >= 1.0 - STABILITY_MARGIN]


def pbh_stabilizable(A: np.ndarray, B: np.ndarray, tol: float = 1e-8) -> bool:
    """PBH test: sigma_min([A - lam I, B]) >= tol at every unstable eigenvalue."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    for lam in _unstable_eigenvalues(A):
        M = np.hstack([A - lam * np.eye(n), B])
        if np.linalg.svd(M, compute_uv=False)[-1] < tol:
            return False
    return True


def pbh_detectable(A: np.ndarray, C: np.ndarray, tol: float = 1e-8) -> bool:
    """Dual PBH test on (A', C')."""
    return pbh_stabilizable(np.asarray(A).T, np.asarray(C).T, tol=tol)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a feasibility check: ok, or a reason plus first bad step."""

    ok: bool
    reason: Optional[str] = None
    first_violation: Optional[int] = None

    def __bool__(self) -> bool:  # allows "if verdict:"
        return self.ok


def _game_step_test(
    Htil: np.ndarray, n_pos, n_neg
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The existence test of one game Riccati step, H~ = R~ + B~'PB~.

    H~, equilibrated, must be nonsingular ("singular-Htilde") and have the
    inertia of R~, n_pos positive and n_neg negative eigenvalues
    ("condition-violated"): the finite-horizon existence condition of the
    min-max problem (Hassibi, Sayed and Kailath, *Indefinite-Quadratic
    Estimation and Control*, 1999).  Returns the two failures, singular and
    wrong inertia (the first decides the reason where both hold), and the
    pivots of H~, which the step's solve reuses.  On a stack (..., k, k)
    the failures hold one entry per matrix, and n_pos and n_neg may too.
    """
    pivots = _eig_pivots(Htil)
    lam = pivots[0]
    wrong = ((lam > INERTIA_TOL).sum(axis=-1) != n_pos) | (
        (lam < -INERTIA_TOL).sum(axis=-1) != n_neg
    )
    return _singular(lam), wrong, pivots


def _strictly_causal_ok(P: np.ndarray, Bw: np.ndarray, gamma):
    """The one-step-delay condition B_w'PB_w < gamma^2 I (margin 1e-9).

    P is the cost-to-go after the step: P_{t+1} in the finite horizon, the
    fixed point in the infinite one.  On a stack of P (..., N, N), with one
    gamma or one per matrix, the verdicts come back as an array.
    """
    lam_max = np.linalg.eigvalsh(sym(Bw.T @ P @ Bw)).max(axis=-1)
    return lam_max < gamma * gamma - STRICT_MARGIN


def _check_gamma(gamma) -> np.ndarray:
    """gamma as a float array, a scalar or 1-D; every level finite and > 0."""
    levels = np.asarray(gamma, dtype=float)
    if levels.ndim > 1:
        raise ValueError("gamma must be a level or a 1-D array of levels")
    if not (np.isfinite(levels).all() and (levels > 0).all()):
        raise ValueError("gamma must be finite and positive")
    return levels


@dataclass
class RiccatiSchedule:
    """Backward-recursion output {P_t} plus two existence verdicts.

    P has T+1 entries with P[T] = 0.  ``causal`` holds when every step passes
    the game step test (H~ = R~ + B~_t'P_{t+1}B~_t nonsingular with the
    inertia of R~).  While P_{t+1} is PSD, H = I + B_u'P_{t+1}B_u > 0, and by
    the Schur complement that test is the causal condition

        B_w'[P - P B_u H^{-1} B_u' P] B_w < gamma^2 I.

    ``strictly_causal_w`` adds the one-step-delay condition
    B_w'P_{t+1}B_w < gamma^2 I at every step.  The recursion stops at the
    first step (counting backward from T-1) that fails the step test: that
    step is ``causal.first_violation`` and the entries P[0..t] stay zero.
    A strictly causal failure reports the first step, in the same order,
    whose one-step-delay condition fails, or else the causal failure; a
    singular H~ reports "singular-Htilde" on both verdicts.
    """

    gamma: float
    P: np.ndarray  # (T+1, N, N)
    causal: Verdict
    strictly_causal_w: Verdict

    @property
    def T(self) -> int:
        return self.P.shape[0] - 1


def hinf_backward(plant: LtvPlant, gamma):
    """Backward recursion P_t = Q_t + A'PA - A'PB~ H~^{-1} B~'PA at level gamma.

    R~ = diag(I_m, -gamma^2 I_p).  Each step runs :func:`_game_step_test` on
    H~ and solves with its pivots; the first failing step ends the
    recursion with reason "singular-Htilde" or "condition-violated".

    ``gamma`` is a level or a 1-D array of levels, the way the frequency
    functions take one z or an array of them.  A level returns one
    :class:`RiccatiSchedule`; an array returns one per level, in the order
    given, from one recursion that carries the levels as a stack of lanes
    (their P are views into one (T+1, k, N, N) block).  A lane leaves the
    stack at its first failing step.  Each matrix operation runs on each
    lane the routine a lone matrix gets, so each lane's P and verdicts equal
    those of a call at its level alone, bit for bit.  Raises ValueError
    unless every level is finite and positive.
    """
    levels = _check_gamma(gamma)  # shape () for one level, (k,) for k lanes
    g = levels  # the levels of the lanes still in the recursion
    T, N, m, p = plant.T, plant.n, plant.m, plant.p
    Rtil = np.zeros(g.shape + (m + p, m + p))
    Rtil[..., range(m), range(m)] = 1.0
    Rtil[..., range(m, m + p), range(m, m + p)] = -g[..., None] * g[..., None]
    lam_R = np.linalg.eigvalsh(sym(Rtil))
    n_pos = (lam_R > INERTIA_TOL).sum(axis=-1)
    n_neg = (lam_R < -INERTIA_TOL).sum(axis=-1)
    P = np.zeros((T + 1,) + g.shape + (N, N))
    causal = [Verdict(True)] * g.size
    strict = [Verdict(True)] * g.size
    # the lanes still in the recursion; P[t][rows] holds their P_t
    lanes, rows = np.arange(g.size), Ellipsis
    strict_ok = np.ones(g.shape, dtype=bool)
    n_strict = g.size  # lanes still strictly causal
    Pn = P[T]
    Btils = np.concatenate([plant.Bu, plant.Bw], axis=2)  # B~_t = [B_u, B_w]
    for t in range(T - 1, -1, -1):
        A, Bw, Btil, Q = plant.A[t], plant.Bw[t], Btils[t], plant.Q[t]
        if n_strict:
            bad = strict_ok & ~_strictly_causal_ok(Pn, Bw, g)
            if np.count_nonzero(bad):
                for i in np.flatnonzero(bad):
                    strict[lanes[i]] = Verdict(False, "condition-violated", t)
                strict_ok = strict_ok & ~bad
                n_strict = np.count_nonzero(strict_ok)
        BtP = Btil.T @ Pn
        singular, wrong, pivots = _game_step_test(Rtil + BtP @ Btil, n_pos, n_neg)
        fail = singular | wrong
        if np.count_nonzero(fail):
            for i, sing, was_strict in zip(
                np.flatnonzero(fail), np.ravel(singular[fail]), np.ravel(strict_ok[fail])
            ):
                lane = lanes[i]
                causal[lane] = Verdict(
                    False, "singular-Htilde" if sing else "condition-violated", t
                )
                # a strictly causal law is also causal, so a causal failure
                # fails both verdicts; a singular H~ gives both its reason
                if was_strict or sing:
                    strict[lane] = causal[lane]
            if fail.all():
                break
            keep = ~fail
            lanes, g, strict_ok = lanes[keep], g[keep], strict_ok[keep]
            Rtil, n_pos, n_neg = Rtil[keep], n_pos[keep], n_neg[keep]
            Pn, BtP = Pn[keep], BtP[keep]
            pivots = tuple(x[keep] for x in pivots)
            rows, n_strict = lanes, np.count_nonzero(strict_ok)
        BtPA = BtP @ A
        Pt = Q + A.T @ Pn @ A - BtPA.swapaxes(-1, -2) @ _solve_pivots(pivots, BtPA)
        Pn = 0.5 * (Pt + Pt.swapaxes(-1, -2))
        P[t][rows] = Pn
    if levels.ndim == 0:
        return RiccatiSchedule(gamma, P, causal[0], strict[0])
    return [
        RiccatiSchedule(level, P[:, i], causal[i], strict[i])
        for i, level in enumerate(levels.tolist())
    ]


@dataclass
class RiccatiFixedPoint:
    """Converged (or failed) fixed point of the backward recursion.

    ``iterations`` counts doublings: after k of them the solver holds the
    value-iteration iterate P_{2^k} (see :func:`dare_fixed_point`).
    residual is the infinity-norm one-step recursion defect at the returned P.
    The three acceptance checks mirror the infinite-horizon existence theorem:
    closed-loop spectral radius < 1, inertia(R~) == inertia(H~), and P PSD.
    When the solve fails, reason is the verdict of the first value-iteration
    step that fails, located from the doublings: "singular-Htilde" (H~
    singular), "condition-violated" (H~ with the wrong inertia, or an
    iterate that decreased; both certify infeasibility, because the k-th
    value-iteration iterate is the k-step game value, and a failed
    finite-horizon existence condition cannot recover at longer horizons),
    or "no-stabilizing-solution" (divergence, a singular doubling step, or
    the doubling cap).  The checks are None on failure.
    """

    P: Optional[np.ndarray]
    residual: Optional[float]
    iterations: int
    converged: bool
    reason: Optional[str] = None
    closed_loop_radius: Optional[float] = None
    inertia_match: Optional[bool] = None
    psd: Optional[bool] = None

    @property
    def feasible(self) -> bool:
        """All three acceptance conditions hold on a converged solution."""
        return bool(
            self.converged
            and self.closed_loop_radius is not None
            and self.closed_loop_radius < 1.0 - STABILITY_MARGIN
            and self.inertia_match
            and self.psd
        )

    @property
    def failure_reason(self) -> Optional[str]:
        if self.feasible:
            return None
        if self.reason is not None:
            return self.reason
        return "condition-violated"


def _sda(
    A: np.ndarray,
    G: np.ndarray,
    H: np.ndarray,
    gate: Optional[Callable[[np.ndarray], Optional[str]]] = None,
    tol_abs: float = 0.0,
    tol_rel: float = 1e-12,
) -> tuple[Optional[np.ndarray], int, Optional[str]]:
    """Structure-preserving doubling for X = A'XA + H - A'XB(R + B'XB)^{-1}B'XA.

    Starts from A_0 = A, G_0 = BR^{-1}B' and H_0 = H; with W = I + G_k H_k,

        A_{k+1} = A_k W^{-1} A_k,  G_{k+1} = G_k + A_k W^{-1} G_k A_k',
        H_{k+1} = H_k + A_k' H_k W^{-1} A_k

    (Chu, Fan and Lin, 2005; Anderson's doubling, 1978).  Level k is the
    map X -> H_k + A_k'X(I + G_kX)^{-1}A_k, which advances value iteration
    by 2^k steps, so H_k is the value-iteration iterate X_{2^k} from X_0 = 0.

    Each new iterate is checked as value iteration checks each step: a
    non-finite value or ||H||_inf > 1e12 is "no-stabilizing-solution", and
    ``gate(H_k)`` may return a reason code.  Value iteration from zero
    increases while every step is well posed, so an increment with a
    negative eigenvalue ("condition-violated") means a step between two
    samples was not.  A failure (also a singular W) is bisected with the
    stored levels, from the last good iterate in steps of 2^(k-1), ..., 1,
    and its reason is the one of the first single step that fails.
    Convergence is declared, before the increment and gate checks, when the
    increment drops below tol_abs + tol_rel * max(1, ||H||_inf).

    Returns (X or None, doublings, reason).
    """
    n = A.shape[0]
    eye = np.eye(n)

    def check(X: np.ndarray, Y: np.ndarray) -> Optional[str]:
        if not np.isfinite(Y).all() or np.abs(Y).max() > DIVERGENCE_NORM:
            return "no-stabilizing-solution"
        if np.linalg.eigvalsh(Y - X).min() < -INCREMENT_TOL * max(1.0, np.abs(Y).max()):
            return "condition-violated"
        return None if gate is None else gate(Y)

    def first_failure(X: np.ndarray, levels: list, reason: str) -> str:
        # bisect the steps after the good sample X; the last pass is the
        # single step (level 0) after the last good iterate
        bad = None
        for Aj, Gj, Hj in levels[::-1] + levels[:1]:
            try:
                Y = Hj + sym(Aj.T @ X @ np.linalg.solve(eye + Gj @ X, Aj))
                bad = check(X, Y)
            except np.linalg.LinAlgError:
                bad = "no-stabilizing-solution"
            if bad is None:
                X = Y
        # None: every step passed, so the samples do not bracket one failure
        return bad or reason

    reason = None if gate is None else gate(H)
    if reason is not None:
        return None, 0, reason
    levels: list = []
    for k in range(1, MAX_DOUBLINGS + 1):
        try:
            WAG = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
        except np.linalg.LinAlgError:
            return None, k, first_failure(H, levels, "no-stabilizing-solution")
        WA, WG = WAG[:, :n], WAG[:, n:]
        Hn = H + sym(A.T @ H @ WA)
        scale = max(1.0, np.abs(Hn).max())
        if (
            np.isfinite(Hn).all()
            and scale <= DIVERGENCE_NORM
            and np.abs(Hn - H).max() < tol_abs + tol_rel * scale
        ):
            return Hn, k, None
        reason = check(H, Hn)
        if reason is not None:
            return None, k, first_failure(H, levels, reason)
        levels.append((A, G, H))
        G = sym(G + A @ WG @ A.T)
        A = A @ WA
        H = Hn
    return None, MAX_DOUBLINGS, "no-stabilizing-solution"


def dare_fixed_point(
    A: np.ndarray,
    Btil: np.ndarray,
    Rtil: np.ndarray,
    Q: np.ndarray,
) -> RiccatiFixedPoint:
    """Fixed point of P = Q + A'PA - A'PB~ H~^{-1} B~'PA by doubling.

    The solve runs :func:`_sda` on (A, B~R~^{-1}B~', Q), i.e. it samples
    value iteration from P = 0 at the steps 2^k, and checks every sample as
    value iteration checks every step, with the game step test of
    :func:`hinf_backward`: H~ = R~ + B~'PB~, equilibrated, must be
    nonsingular ("singular-Htilde") with the inertia of R~
    ("condition-violated").  Convergence is declared when the update norm
    drops below 1e-11 + 1e-9 * max(1, ||P||_inf).  The relative term
    matters: for indefinite weights near the feasibility boundary ||P||
    grows without bound and float64 cannot realize an absolute 1e-11 update
    on a matrix of norm 1e4.  The converged P then passes the residual step
    and the three acceptance checks.
    """
    A = np.asarray(A, dtype=float)
    Btil = np.asarray(Btil, dtype=float)
    Rtil = np.asarray(Rtil, dtype=float)
    Q = np.asarray(Q, dtype=float)
    inertia_R = inertia(Rtil)

    def gate(P: np.ndarray) -> Optional[str]:
        singular, wrong, _ = _game_step_test(Rtil + Btil.T @ P @ Btil, *inertia_R[:2])
        return "singular-Htilde" if singular else "condition-violated" if wrong else None

    # value iteration's first step checks H~ = R~ at P = 0
    reason = gate(np.zeros_like(Q))
    P, iterations = None, 0
    if reason is None:
        G = sym(Btil @ solve_sym(Rtil, Btil.T))
        P, iterations, reason = _sda(A, G, sym(Q), gate, tol_abs=1e-11, tol_rel=1e-9)
    if P is not None:  # the residual step and the acceptance checks
        Htil = Rtil + Btil.T @ P @ Btil
        BtPA = Btil.T @ P @ A
        try:
            K = solve_sym(Htil, BtPA)
        except SingularHtildeError:
            P, reason = None, "singular-Htilde"
    if P is None:
        return RiccatiFixedPoint(
            P=None, residual=None, iterations=iterations,
            converged=False, reason=reason,
        )
    Pn = Q + A.T @ P @ A - BtPA.T @ K
    return RiccatiFixedPoint(
        P=P,
        residual=float(np.abs(0.5 * (Pn + Pn.T) - P).max()),
        iterations=iterations,
        converged=True,
        closed_loop_radius=spectral_radius(A - Btil @ K),
        inertia_match=inertia(Htil) == inertia_R,
        psd=bool(np.linalg.eigvalsh(P).min() >= -1e-9),
    )
