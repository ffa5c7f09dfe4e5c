"""Indefinite Riccati recursions and fixed points with feasibility verdicts.

Two related objects live here: the backward finite-horizon recursion of the
min-max (game-type) quadratic problem (:func:`hinf_backward`) and its
infinite-horizon fixed point (:func:`dare_fixed_point`).  Both horizons
share one existence test, :func:`_game_step_test`, and one strictly causal
condition, :func:`_strictly_causal_ok`, which the backward recursion
checks after it has run, on the steps each level ran, with the verdicts of
a check at every step.  Every infinite-horizon fixed point of the package
(the game and LQR equations here, the spectral and outer factors in
:mod:`compctrl.factorization`) is solved by one doubling core, :func:`_sda`.

Feasibility failures are reported as structured verdicts with reason codes
("singular-Htilde", "no-stabilizing-solution", ...) rather than exceptions,
because the gamma-bisection consumes them as ordinary values.  Symmetric
(possibly indefinite) systems are solved through an equilibrated
eigendecomposition with a relative pivot guard (:func:`solve_sym`); a
determinant-based guard is not scale-free (|det| ~ scale^dim).
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

#: relative margin for strict matrix inequalities (lam_max < gamma^2 (1 - MARGIN))
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
TINY = float(np.finfo(float).tiny)
#: steps per stacked eigvalsh of the backward recursion's strictly causal check
_STRICT_BLOCK = 16


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


def _pivot_test(lam: list) -> tuple[bool, int, int]:
    """(singular, n_pos, n_neg) of one matrix's equilibrated pivots, given as
    Python floats, which compare as numpy's do and cost less on so few: the
    guard min|lam| <= 1e-12 max|lam|, never met when a pivot is NaN (their
    sum is then NaN), as in numpy, and the counts beyond +-INERTIA_TOL."""
    mags = list(map(abs, lam))
    singular = min(mags) <= PIVOT_GUARD * max(max(mags), TINY) and sum(mags) == sum(mags)
    n_pos = n_neg = 0
    for x in lam:
        if x > INERTIA_TOL:
            n_pos += 1
        elif x < -INERTIA_TOL:
            n_neg += 1
    return singular, n_pos, n_neg


def _eig_pivots(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equilibrated eigendecomposition S H S = V diag(lam) V' as (lam, V, S),
    unguarded; on a stack, one LAPACK call runs each matrix as it would run
    alone."""
    Hhat, S = equilibrate_sym(H)
    lam, V = np.linalg.eigh(Hhat)
    return lam, V, S


def _solve_pivots(pivots: tuple, B: np.ndarray) -> np.ndarray:
    """Solve H X = B from the (lam, V, S) of :func:`_eig_pivots`, stacks too."""
    lam, V, S = pivots
    Y = V.swapaxes(-1, -2) @ (B * S[..., :, None])
    return (V @ (Y / lam[..., :, None])) * S[..., :, None]


def solve_sym(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve H X = B for symmetric (possibly indefinite) H, or for a stack.

    The matrix is first equilibrated, then factored by the symmetric
    eigendecomposition; the eigenvalues act as pivots and the solve is
    rejected when min|lam| <= 1e-12 * max|lam| after scaling
    (SingularHtildeError, naming the first such matrix of a stack).
    """
    pivots = _eig_pivots(H)
    mags = np.abs(pivots[0])  # the guard of _pivot_test, vectorized over long stacks
    singular = mags.min(axis=-1) <= PIVOT_GUARD * np.maximum(mags.max(axis=-1), TINY)
    if singular.any():
        mags = mags[singular][0]
        raise SingularHtildeError(
            f"symmetric solve rejected: |pivot| ratio {mags.min():.3e}/{mags.max():.3e}"
        )
    return _solve_pivots(pivots, B)


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


def pbh_stabilizable(A: np.ndarray, B: np.ndarray, tol: float = 1e-8) -> bool:
    """PBH test: sigma_min([A - lam I, B]) >= tol at every unstable eigenvalue."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    lam = np.linalg.eigvals(A)
    for mu in lam[np.abs(lam) >= 1.0 - STABILITY_MARGIN]:
        M = np.hstack([A - mu * np.eye(A.shape[0]), B])
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


def _game_step_test(Htil: np.ndarray, n_pos: int, n_neg: int) -> tuple[list, tuple]:
    """The existence test of one game Riccati step, H~ = R~ + B~'PB~.

    H~, equilibrated, must be nonsingular ("singular-Htilde") and have the
    inertia of R~, n_pos positive and n_neg negative eigenvalues
    ("condition-violated"): the finite-horizon existence condition of the
    min-max problem (Hassibi, Sayed and Kailath, *Indefinite-Quadratic
    Estimation and Control*, 1999).  Returns the reasons, one per matrix of
    a stack (k, K, K) and None where it passes (the singular one where both
    fail), and the pivots of H~, which the step's solve reuses.
    """
    pivots = _eig_pivots(Htil)
    lam, passed = pivots[0].tolist(), (False, n_pos, n_neg)
    reasons = [
        None if x == passed else "singular-Htilde" if x[0] else "condition-violated"
        for x in map(_pivot_test, lam if Htil.ndim > 2 else [lam])
    ]
    return reasons, pivots


def _strictly_causal_ok(P: np.ndarray, Bw: np.ndarray, gamma):
    """The one-step-delay condition B_w'PB_w < gamma^2 (1 - 1e-9) I.

    P is the cost-to-go after the step: P_{t+1} in the finite horizon, the
    fixed point in the infinite one.  On stacks of P (..., N, N) and B_w
    that broadcast, with one gamma or one per matrix, the verdicts come back
    as an array.
    """
    lam_max = np.linalg.eigvalsh(sym(Bw.swapaxes(-1, -2) @ P @ Bw)).max(axis=-1)
    return lam_max < gamma * gamma * (1.0 - STRICT_MARGIN)


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
    B_w'P_{t+1}B_w < gamma^2 I at every step, checked after the recursion
    on the stored P_{t+1} of the steps it ran.  The recursion stops at the
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

    R~ = diag(I_m, -gamma^2 I_p), whose inertia is (m, p) at every level.
    Each step runs :func:`_game_step_test` on H~ and solves with its
    pivots; the first failing step ends the recursion with reason
    "singular-Htilde" or "condition-violated".  The one-step-delay
    condition is checked after the recursion (:func:`_strict_verdicts`).

    ``gamma`` is a level or a 1-D array of levels.  A level returns one
    :class:`RiccatiSchedule`; an array returns one per level, in order, from
    one recursion that carries the levels as a stack of lanes (their P are
    views into one (T+1, k, N, N) block), each equal to a call at its level
    alone.  A lane leaves the stack at its first failing step.  Raises
    ValueError unless every level is finite and positive.
    """
    levels = _check_gamma(gamma)  # shape () for one level, (k,) for k lanes
    T, N, m, p = plant.T, plant.n, plant.m, plant.p
    Rtil = np.zeros(levels.shape + (m + p, m + p))
    Rtil[..., range(m), range(m)] = 1.0
    Rtil[..., range(m, m + p), range(m, m + p)] = -levels[..., None] * levels[..., None]
    P = np.zeros((T + 1,) + levels.shape + (N, N))
    causal = [Verdict(True)] * levels.size
    # the lanes still in the recursion; P[t][rows] holds their P_t
    lanes, rows = np.arange(levels.size), Ellipsis
    Pn = P[T]
    Btils = np.concatenate([plant.Bu, plant.Bw], axis=2)  # B~_t = [B_u, B_w]
    for t in range(T - 1, -1, -1):
        A, Btil, Q = plant.A[t], Btils[t], plant.Q[t]
        BtP = Btil.T @ Pn
        reasons, pivots = _game_step_test(Rtil + BtP @ Btil, m, p)
        if any(reasons):
            for lane, reason in zip(lanes, reasons):
                if reason:
                    causal[lane] = Verdict(False, reason, t)
            keep = [i for i, reason in enumerate(reasons) if reason is None]
            if not keep:
                break
            lanes, Rtil, Pn, BtP = lanes[keep], Rtil[keep], Pn[keep], BtP[keep]
            pivots = tuple(x[keep] for x in pivots)
            rows = lanes
        BtPA = BtP @ A
        Pt = Q + A.T @ Pn @ A - BtPA.swapaxes(-1, -2) @ _solve_pivots(pivots, BtPA)
        Pn = 0.5 * (Pt + Pt.swapaxes(-1, -2))
        P[t][rows] = Pn
    strict = _strict_verdicts(plant, P, levels, causal)
    if levels.ndim == 0:
        return RiccatiSchedule(gamma, P, causal[0], strict[0])
    return [
        RiccatiSchedule(level, P[:, i], causal[i], strict[i])
        for i, level in enumerate(levels.tolist())
    ]


def _strict_verdicts(plant: LtvPlant, P: np.ndarray, levels: np.ndarray, causal: list) -> list:
    """The ``strictly_causal_w`` verdicts of :func:`hinf_backward`'s lanes.

    A lane ran steps t = T-1, ..., s (s its causal failure, else 0), whose
    P_{t+1} are stored; each is checked, _STRICT_BLOCK steps per stacked
    eigvalsh, and the lane fails at its first failure in that order.  A
    singular H~ fails both verdicts, and so does a causal failure with no
    strict one before it (a strictly causal law is also causal).
    """
    P, gammas = P.reshape(plant.T + 1, -1, plant.n, plant.n), levels.reshape(-1)
    stop = np.array([verdict.first_violation or 0 for verdict in causal])
    first = [None] * len(causal)
    pending = np.arange(len(causal))  # lanes with no strict failure yet
    for hi in range(plant.T - 1, -1, -_STRICT_BLOCK):
        pending = pending[stop[pending] <= hi]
        if not pending.size:
            break
        lo = max(hi - _STRICT_BLOCK + 1, 0)
        Pb, Bw = P[lo + 1 : hi + 2][:, pending], plant.Bw[lo : hi + 1, None]
        bad = ~_strictly_causal_ok(Pb, Bw, gammas[pending])
        bad &= np.arange(lo, hi + 1)[:, None] >= stop[pending]  # the steps each ran
        failed = bad.any(axis=0)
        for j in np.flatnonzero(failed):
            first[pending[j]] = lo + int(np.flatnonzero(bad[:, j])[-1])
        pending = pending[~failed]
    return [
        verdict if verdict.reason == "singular-Htilde" or f is None
        else Verdict(False, "condition-violated", f)
        for verdict, f in zip(causal, first)
    ]


@dataclass
class RiccatiFixedPoint:
    """Converged (or failed) fixed point of the backward recursion.

    ``iterations`` counts doublings (:func:`_sda`); ``residual`` is the
    infinity-norm one-step recursion defect at the returned P.  The three
    acceptance checks mirror the infinite-horizon existence theorem:
    closed-loop spectral radius < 1, the inertia of R~ on H~, and P PSD.
    When the solve fails, ``reason`` is the verdict of the first
    value-iteration step that fails (:func:`_sda`; the k-th iterate is the
    k-step game value, so that step certifies infeasibility), and the checks
    are None.
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

    def check(X: np.ndarray, Y: np.ndarray, norm) -> Optional[str]:
        # norm = ||Y||_inf, NaN or inf unless Y is finite
        if not norm <= DIVERGENCE_NORM:
            return "no-stabilizing-solution"
        if np.linalg.eigvalsh(Y - X).min() < -INCREMENT_TOL * max(1.0, norm):
            return "condition-violated"
        return None if gate is None else gate(Y)

    def first_failure(X: np.ndarray, levels: list, reason: str) -> str:
        # bisect the steps after the good sample X; the last pass is the
        # single step (level 0) after the last good iterate
        bad = None
        for Aj, Gj, Hj in levels[::-1] + levels[:1]:
            try:
                Y = Hj + sym(Aj.T @ X @ np.linalg.solve(eye + Gj @ X, Aj))
                bad = check(X, Y, np.abs(Y).max())
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
        norm = np.abs(Hn).max()
        if norm <= DIVERGENCE_NORM and np.abs(Hn - H).max() < tol_abs + tol_rel * max(1.0, norm):
            return Hn, k, None
        reason = check(H, Hn, norm)
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

    :func:`_sda` runs on (A, B~R~^{-1}B~', Q) and gates every sample with
    :func:`_game_step_test`, R~'s inertia counted on H~'s equilibrated
    scale.  Convergence is declared when the update norm drops below
    1e-11 + 1e-9 * max(1, ||P||_inf); the relative term matters near the
    feasibility boundary, where ||P|| grows without bound.  The converged P
    then passes the residual step and the three acceptance checks.
    """
    A, Btil, Rtil, Q = (np.asarray(M, dtype=float) for M in (A, Btil, Rtil, Q))
    signs_R = _pivot_test(_eig_pivots(Rtil)[0].tolist())[1:]  # on H~'s equilibrated scale

    def gate(P: np.ndarray) -> Optional[str]:
        return _game_step_test(Rtil + Btil.T @ P @ Btil, *signs_R)[0][0]

    # value iteration's first step checks H~ = R~ at P = 0
    reason = gate(np.zeros_like(Q))
    P, iterations = None, 0
    if reason is None:
        G = sym(Btil @ solve_sym(Rtil, Btil.T))
        P, iterations, reason = _sda(A, G, sym(Q), gate, tol_abs=1e-11, tol_rel=1e-9)
    if P is not None:  # the residual step and the acceptance checks
        [reason], pivots = _game_step_test(Rtil + Btil.T @ P @ Btil, *signs_R)
        if reason == "singular-Htilde":
            P = None
    if P is None:
        return RiccatiFixedPoint(None, None, iterations, converged=False, reason=reason)
    BtPA = Btil.T @ P @ A
    K = _solve_pivots(pivots, BtPA)
    Pn = Q + A.T @ P @ A - BtPA.T @ K
    residual = float(np.abs(0.5 * (Pn + Pn.T) - P).max())
    return RiccatiFixedPoint(
        P, residual, iterations, converged=True,
        closed_loop_radius=spectral_radius(A - Btil @ K),
        inertia_match=reason is None, psd=bool(np.linalg.eigvalsh(P).min() >= -1e-9),
    )
