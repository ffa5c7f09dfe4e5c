"""Indefinite Riccati recursions and fixed points with feasibility verdicts.

Two related objects live here: the backward finite-horizon recursion of the
min-max (game-type) quadratic problem (:func:`hinf_backward`) and its
infinite-horizon fixed point (:func:`dare_fixed_point`).  Both horizons
share one game weight, :func:`_game_weight`, one existence test,
:func:`_game_step_test`, and one strictly causal condition,
:func:`_strictly_causal_ok`.  Every infinite-horizon fixed point of the
package is solved by one doubling core, :func:`_sda`.  Both horizons take
several levels as lanes of one run, each lane leaving at its own verdict.
A failed doubling's reason is that of the first value-iteration step that
fails, found by bisecting its stored levels; :func:`_first_failures`
bisects many failed lanes in one stack: those of one run when it ends, or,
in a gamma search, those of all its probes once it has its level.

The backward recursion's steps compose by the formula of a doubling step
(:func:`_compose`), so :func:`_reduced_verdicts` decides one level's two
verdicts from an odd-even reduction in log2(T) stacked levels; the gamma
search uses it for its bracket probes on an LtvPlant.  It falls back to
:func:`hinf_backward` when numpy finds a composite's W singular or an H~
at or after the failing step is not finite.  Its P decides verdicts only:
every returned schedule comes from the sequential recursion.

Feasibility failures are reported as structured verdicts with reason codes
("singular-Htilde", "no-stabilizing-solution", ...) rather than exceptions,
because the gamma-bisection consumes them as ordinary values.  Symmetric
(possibly indefinite) systems are solved through an equilibrated
eigendecomposition with a relative pivot guard (:func:`solve_sym`); a
determinant-based guard is not scale-free (|det| ~ scale^dim).  A verdict
that solves nothing reads the equilibrated eigenvalues alone
(:func:`_eig_signs`), and one rule, :func:`_pivot_test`, judges them on
either route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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


def _singular(lam: np.ndarray) -> np.ndarray:
    """The guard of :func:`_pivot_test`, vectorized over long stacks of
    pivots (..., K)."""
    mags = np.abs(lam)
    return mags.min(axis=-1) <= PIVOT_GUARD * np.maximum(mags.max(axis=-1), TINY)


def _eig_pivots(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equilibrated eigendecomposition S H S = V diag(lam) V' as (lam, V, S),
    unguarded; on a stack, one LAPACK call runs each matrix as it would run
    alone."""
    Hhat, S = equilibrate_sym(H)
    lam, V = np.linalg.eigh(Hhat)
    return lam, V, S


def _eig_signs(H: np.ndarray) -> np.ndarray:
    """The pivots lam of :func:`_eig_pivots` without V, all that a verdict
    reads: eigvalsh of the same equilibrated matrix, stacks too."""
    return np.linalg.eigvalsh(equilibrate_sym(H)[0])


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
    singular = _singular(pivots[0])
    if singular.any():
        mags = np.abs(pivots[0][singular][0])
        raise SingularHtildeError(
            f"symmetric solve rejected: |pivot| ratio {mags.min():.3e}/{mags.max():.3e}"
        )
    return _solve_pivots(pivots, B)


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, read-only: one per size, since np.eye costs about
    as much as a 6 x 6 matmul and a doubling step adds one."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


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


def _game_step_test(Htil: np.ndarray, n_pos: int, n_neg: int, solve: bool = False):
    """The existence test of one game Riccati step, H~ = R~ + B~'PB~.

    H~, equilibrated, must be nonsingular ("singular-Htilde") and have the
    inertia of R~, n_pos positive and n_neg negative eigenvalues
    ("condition-violated"): the finite-horizon existence condition of the
    min-max problem (Hassibi, Sayed and Kailath, *Indefinite-Quadratic
    Estimation and Control*, 1999).  Returns the reasons, one per matrix of
    a stack (k, K, K) and None where it passes (the singular one where both
    fail), and with ``solve`` the pivots of H~ (:func:`_eig_pivots`), which
    the step's solve reuses; a verdict alone reads the eigenvalues
    (:func:`_eig_signs`), and its pivots are None.
    """
    pivots = _eig_pivots(Htil) if solve else None
    lam, passed = (pivots[0] if solve else _eig_signs(Htil)).tolist(), (False, n_pos, n_neg)
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


def _game_weight(m: int, p: int, levels: np.ndarray) -> np.ndarray:
    """R~ = diag(I_m, -gamma^2 I_p) of the attenuation game, one per level of
    a 0-d or 1-d array.  gamma^2 is ``levels * levels``: IEEE multiplication
    is correctly rounded, and the C pow behind ``**`` is not always."""
    Rtil = np.zeros(levels.shape + (m + p, m + p))
    Rtil[..., range(m), range(m)] = 1.0
    Rtil[..., range(m, m + p), range(m, m + p)] = -levels[..., None] * levels[..., None]
    return Rtil


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
    Rtil = _game_weight(m, p, levels)
    P = np.zeros((T + 1,) + levels.shape + (N, N))
    causal = [Verdict(True)] * levels.size
    # the lanes still in the recursion; P[t][rows] holds their P_t
    lanes, rows = np.arange(levels.size), Ellipsis
    Pn = P[T]
    Btils = np.concatenate([plant.Bu, plant.Bw], axis=2)  # B~_t = [B_u, B_w]
    for t in range(T - 1, -1, -1):
        A, Btil, Q = plant.A[t], Btils[t], plant.Q[t]
        BtP = Btil.T @ Pn
        reasons, pivots = _game_step_test(Rtil + BtP @ Btil, m, p, solve=True)
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


def _suffixes(A: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """f_t(f_{t+1}(...f_{L-1}(0))) for each t of the maps (A_t, G_t, H_t) of
    :func:`_compose`, by odd-even reduction: the adjacent pairs ending at
    L-1 compose in one stacked call and recurse at half the length, and the
    other steps follow in one stacked application each."""
    S = np.empty_like(H)
    S[-1] = H[-1]
    if len(H) > 1:
        o = len(H) % 2  # pairs start at o and end at L-1
        S[o:-1:2] = _suffixes(*_compose(A[o:-1:2], G[o:-1:2], H[o:-1:2],
                                        A[o + 1 :: 2], G[o + 1 :: 2], H[o + 1 :: 2]))
        i, X = slice(1 - o, -1, 2), S[2 - o :: 2]
        A_i = A[i]
        W = _identity(A.shape[-1]) + G[i] @ X
        S[i] = H[i] + sym(A_i.swapaxes(-1, -2) @ X @ np.linalg.solve(W, A_i))
    return S


def _reduced_verdicts(plant: LtvPlant, gamma: float, strict: bool = True) -> tuple:
    """The ``causal`` and ``strictly_causal_w`` verdicts of
    :func:`hinf_backward` at one level, from the P_t of :func:`_suffixes` on
    the steps' maps (G_t = B~_tR~^{-1}B~_t'; Sarkka and Garcia-Fernandez,
    2023): every step's H~ is tested in one stack with the checks and reason
    codes of :func:`_game_step_test`, the last failure decides ``causal``,
    and the P up to it are zeroed, as the recursion leaves them, for
    :func:`_strict_verdicts`.  Near an optimum at T = 200 this P parts from
    the recursion's by up to 4e-5 relative, so it decides verdicts only.  A
    LinAlgError, or a non-finite H~ at or after the failing step, hands the
    level to :func:`hinf_backward`.  With ``strict`` False the reduction's
    ``strictly_causal_w`` is not computed and comes back None.
    """
    levels = _check_gamma(gamma)
    T, m, p = plant.T, plant.m, plant.p
    Rtil = _game_weight(m, p, levels)
    Btil = np.concatenate([plant.Bu, plant.Bw], axis=2)
    BtT = Btil.swapaxes(-1, -2)
    P = np.zeros((T + 1, plant.n, plant.n))
    with np.errstate(all="ignore"):  # the P before a failing step may overflow
        try:
            P[:-1] = _suffixes(plant.A, (Btil / np.diag(Rtil)) @ BtT, plant.Q)
            Htil = Rtil + BtT @ P[1:] @ Btil
            bad = np.flatnonzero(~np.isfinite(Htil).all(axis=(-2, -1)))
            start = int(bad[-1]) + 1 if bad.size else 0  # the steps tested
            lam = _eig_signs(Htil[start:])
        except np.linalg.LinAlgError:
            start, lam = T, np.zeros((0, m + p))
        singular = _singular(lam)
        wrong = ((lam > INERTIA_TOL).sum(-1) != m) | ((lam < -INERTIA_TOL).sum(-1) != p)
        failed = np.flatnonzero(singular | wrong)
    if failed.size:
        j = int(failed[-1])
        reason = "singular-Htilde" if singular[j] else "condition-violated"
        causal = Verdict(False, reason, start + j)
        P[: start + j + 1] = 0.0
    elif start:  # a step the recursion reaches was not tested
        sched = hinf_backward(plant, gamma)
        return sched.causal, sched.strictly_causal_w
    else:
        causal = Verdict(True)
    return causal, _strict_verdicts(plant, P, levels, [causal])[0] if strict else None


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


def _compose(A1, G1, H1, A2, G2, H2):
    """(A, G, H) of the map f_1(f_2(X)), where (A_i, G_i, H_i) stands for
    f_i(X) = H_i + A_i'X(I + G_iX)^{-1}A_i; stacks too.  With
    W = I + G_1H_2,

        A = A_2W^{-1}A_1,  G = G_2 + A_2W^{-1}G_1A_2',  H = H_1 + A_1'H_2W^{-1}A_1.

    Raises LinAlgError where numpy finds a W exactly singular.
    """
    n = A1.shape[-1]
    WAG = np.linalg.solve(_identity(n) + G1 @ H2, np.concatenate([A1, G1], axis=-1))
    WA, WG = WAG[..., :n], WAG[..., n:]
    H = H1 + sym(A1.swapaxes(-1, -2) @ H2 @ WA)
    return A2 @ WA, sym(G2 + A2 @ WG @ A2.swapaxes(-1, -2)), H


def _sda(
    A: np.ndarray,
    G: np.ndarray,
    H: np.ndarray,
    gate: Optional[tuple] = None,
    tol: float = 1e-12,
    defer: bool = False,
):
    """Structure-preserving doubling for X = A'XA + H - A'XB(R + B'XB)^{-1}B'XA.

    Starts from A_0 = A, G_0 = BR^{-1}B' and H_0 = H; with W = I + G_k H_k,

        A_{k+1} = A_k W^{-1} A_k,  G_{k+1} = G_k + A_k W^{-1} G_k A_k',
        H_{k+1} = H_k + A_k' H_k W^{-1} A_k

    (Chu, Fan and Lin, 2005; Anderson's doubling, 1978), level k composed
    with itself by :func:`_compose`.  Level k is the map
    X -> H_k + A_k'X(I + G_kX)^{-1}A_k, which advances value iteration by
    2^k steps, so H_k is the value-iteration iterate X_{2^k} from X_0 = 0.

    Each new iterate is checked as value iteration checks each step: a
    non-finite value is "no-stabilizing-solution", and
    ``gate`` = (B~, R~, signs) runs :func:`_game_step_test` on R~ + B~'XB~.
    Value iteration from zero increases while every step is well posed, so
    an increment with a negative eigenvalue ("condition-violated") means a
    step between two samples was not.  A failure (also a singular W) keeps
    its stored levels (:class:`_Bisection`), and its reason is the one of
    the first single step that fails: one :func:`_first_failures` pass
    bisects the run's failures together at its end, or, with ``defer``,
    after the caller's other runs.  Convergence is declared, before the
    increment and gate checks, when the increment drops below
    tol * max(TINY, ||H||_inf); both tests are relative to the iterate.

    G and R~ may be stacks (k, ., .) of lanes that share A_0 and H_0.  They
    double together; each lane runs the checks above in the same order and
    leaves the stack on its own, so every result equals its lone run.  A
    singular W is then solved lane by lane, since numpy fails the whole
    stack, and a lane numpy finds singular fails as a divergence.  A lone G
    keeps its unstacked shapes.  Returns (X or None, doublings, reason), a
    list of them for a stack.
    """
    lone = G.ndim == 2
    if not lone:
        A, H = np.broadcast_to(A, G.shape), np.broadcast_to(H, G.shape)
    lanes = [0] if lone else np.arange(len(G))  # the lanes still doubling
    out = [(None, MAX_DOUBLINGS, "no-stabilizing-solution")] * len(lanes)
    levels: list = []  # (A, G, H, lanes) of each doubling passed

    def settled(Hn: np.ndarray) -> dict:
        # {position: reason, None where converged} of the lanes that end here
        if lone:
            norm = np.abs(Hn).max()
            if not math.isfinite(norm):
                return {0: "no-stabilizing-solution"}
            D = Hn - H
            if np.abs(D).max() < tol * max(TINY, norm):
                return {0: None}
            if np.linalg.eigvalsh(D).min() < -INCREMENT_TOL * max(TINY, norm):
                return {0: "condition-violated"}
            reason = None if gate is None else _gated(gate, Hn, Ellipsis)[0]
            return {} if reason is None else {0: reason}
        stacked_gate = None if gate is None else lambda X, idx: _gated(gate, X, lanes[idx])
        return _sample_failures(Hn, Hn - H, stacked_gate, tol)

    def failed(j: int, reason: str) -> _Bisection:
        # lane j's trials from its last good iterate H: its stored levels,
        # deepest first, then level 0 again
        row = Ellipsis if lone else lanes[j]
        steps = []
        for Aj, Gj, Hj, passed in levels:
            i = row if lone else np.searchsorted(passed, row)
            steps.append((Aj[i], Gj[i], Hj[i]))
        lane_gate = None if gate is None else (gate[0], gate[1][row], gate[2])
        return _Bisection(steps[::-1] + steps[:1], H if lone else H[j], reason, lane_gate)

    def doubled(A, G, H) -> tuple:
        # the next level; numpy fails a whole stack where one W is singular,
        # so then lane by lane, and NaN, which fails the divergence check
        try:
            return _compose(A, G, H, A, G, H)
        except np.linalg.LinAlgError:
            if H.ndim == 2:
                return (np.full_like(H, np.nan),) * 3
            return tuple(map(np.stack, zip(*map(doubled, A, G, H))))

    def leave(done: dict, *stacks):
        # record the lanes done; the rows of the others, if any are left
        nonlocal lanes
        for j, result in done.items():
            out[lanes[j]] = result
        keep = [j for j in range(len(lanes)) if j not in done]
        lanes = lanes[keep] if keep else []
        return [M[keep] for M in stacks] if keep else stacks

    if gate is not None:
        reasons = _gated(gate, H, Ellipsis if lone else lanes)
        if any(reasons):
            done = {j: (None, 0, reason) for j, reason in enumerate(reasons) if reason}
            A, G, H = leave(done, A, G, H)
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent run overflows
        for k in range(1, MAX_DOUBLINGS + 1):
            if not len(lanes):
                break
            An, Gn, Hn = doubled(A, G, H)
            done = settled(Hn)
            if done:
                done = {
                    j: (None, k, failed(j, reason)) if reason else (Hn if lone else Hn[j], k, None)
                    for j, reason in done.items()
                }
                A, G, H, An, Gn, Hn = leave(done, A, G, H, An, Gn, Hn)
                if not len(lanes):
                    break
            levels.append((A, G, H, lanes))
            A, G, H = An, Gn, Hn
    pending = [i for i, (_, _, reason) in enumerate(out) if isinstance(reason, _Bisection)]
    if pending and not defer:
        for i, reason in zip(pending, _first_failures([out[i][2] for i in pending])):
            out[i] = (None, out[i][1], reason)
    return out[0] if lone else out


def _gated(gate: tuple, X: np.ndarray, rows) -> list:
    """The reasons of :func:`_game_step_test` on R~[rows] + B~'XB~ for the
    ``gate`` (B~, R~, signs) of :func:`_sda`, one per matrix of X."""
    Bt, R, signs = gate
    return _game_step_test(R[rows] + Bt.T @ X @ Bt, *signs)[0]


def _sample_failures(Y, D, gate, tol=None) -> dict:
    """{i: reason} of the samples Y[i] of a stack, with increments D[i],
    that :func:`_sda`'s checks end, in its order: a non-finite Y[i];
    convergence (reason None), if ``tol`` is given; the increment;
    ``gate(Y[rest], rest)``, a reason or None each.  Both tests scale by
    max(TINY, ||Y[i]||)."""
    norms = np.abs(Y).max(axis=(-2, -1)).tolist()
    steps = np.abs(D).max(axis=(-2, -1)).tolist() if tol else norms
    done, live = {}, []
    for i, (norm, step) in enumerate(zip(norms, steps)):
        if not math.isfinite(norm):
            done[i] = "no-stabilizing-solution"
        elif tol and step < tol * max(TINY, norm):
            done[i] = None
        else:
            live.append(i)
    if live:
        low = np.linalg.eigvalsh(D[live]).min(axis=-1).tolist()
        for i, x in zip(live, low):
            if x < -INCREMENT_TOL * max(TINY, norms[i]):
                done[i] = "condition-violated"
        live = [i for i in live if i not in done]
    if gate is not None and live:
        done.update((i, reason) for i, reason in zip(live, gate(Y[live], live)) if reason)
    return done


class _Bisection(NamedTuple):
    """A failed lane of :func:`_sda` whose reason :func:`_first_failures`
    is yet to find: its trial maps (A, G, H) in order, its last good iterate
    X, the failing sample's reason and its gate, (B~, its R~, signs) or None."""

    steps: list
    X: np.ndarray
    reason: str
    gate: Optional[tuple]


def _first_failures(pending: list) -> list:
    """The reasons of failed doubling lanes (:class:`_Bisection`, at least
    one, all gated with one B~ and R~'s inertia or none), bisected together.

    A lane's trials step from its last good iterate X by its stored levels,
    deepest first, then level 0 again, up to its failing sample; a trial
    that passes :func:`_sda`'s checks advances X, and a singular solve fails
    it.  The lane's reason is its last trial's, that of the single step
    after its last good iterate, or the sample's own if that step passes.
    Round r gathers the r-th trial of every lane that has one into one
    stack, so lanes of unequal depth leave on their own, and solves lane by
    lane if numpy finds it singular.  Per matrix the arithmetic is a lone
    lane's, so each reason is too.
    """
    depth = np.array([len(lane.steps) for lane in pending], dtype=int)
    last = [None] * len(pending)  # each lane's latest trial verdict
    # the (A, G, H) of every lane's trials, lane j's from row first[j]
    trials = np.array([trial for lane in pending for trial in lane.steps])
    first, X = np.cumsum(depth) - depth, np.stack([lane.X for lane in pending])
    gate = pending[0].gate
    if gate is not None:  # with each lane's R~
        gate = (gate[0], np.stack([lane.gate[1] for lane in pending]), gate[2])

    def step(A, G, H, X):
        try:
            WA = np.linalg.solve(_identity(X.shape[-1]) + G @ X, A)
        except np.linalg.LinAlgError:  # lane by lane, NaN where singular, as in _sda
            if X.ndim == 2:
                return np.full_like(X, np.nan)
            return np.stack([step(*lane) for lane in zip(A, G, H, X)])
        return H + sym(A.swapaxes(-1, -2) @ X @ WA)

    with np.errstate(over="ignore", invalid="ignore"):  # a divergent trial overflows
        for r in range(depth.max()):
            live = np.flatnonzero(depth > r)
            Xs = X[live]
            Y = step(*trials[first[live] + r].swapaxes(0, 1), Xs)
            lane_gate = None if gate is None else lambda S, idx: _gated(gate, S, live[idx])
            done = _sample_failures(Y, Y - Xs, lane_gate)
            for i, j in enumerate(live.tolist()):
                last[j] = done.get(i)
                if last[j] is None:
                    X[j] = Y[i]
    return [reason or lane.reason for reason, lane in zip(last, pending)]


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
    1e-9 * ||P||_inf, with no absolute term, so that scaling the cost scales
    P alone.  The converged P then passes the residual step and the three
    acceptance checks (P PSD to -1e-9 ||P||_inf).  For several R~ at once,
    :func:`_dare_fixed_points`.  A B~ with a NaN or an inf raises
    LinAlgError: the first step's R~ + B~'0B~ is not finite, and its
    eigenvalues do not converge.
    """
    if not np.isfinite(Btil).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return _dare_fixed_points(A, Btil, Rtil, Q)


def _dare_fixed_points(A, Btil, Rtil, Q, defer: bool = False):
    """:func:`dare_fixed_point` at R~, or at each R~ of a stack (k, K, K)
    that shares one inertia: one :func:`_sda` run carries them as lanes and
    returns a list, each result equal to the lone solve's.  With ``defer`` a
    failed doubling's ``reason`` is its :class:`_Bisection`."""
    A, Btil, Rtil, Q = (np.asarray(M, dtype=float) for M in (A, Btil, Rtil, Q))
    lone = Rtil.ndim == 2
    lam = _eig_signs(Rtil).tolist()
    tests = [_pivot_test(x) for x in ([lam] if lone else lam)]  # on H~'s scale
    signs = {test[1:] for test in tests}
    if len(signs) > 1:
        raise ValueError("the stacked R~ must share one inertia")
    [signs_R] = signs

    # value iteration's first step checks H~ = R~ + B~'0B~, which is R~ for
    # a finite B~: its inertia is R~'s own, so only the pivot guard can fail
    first = ["singular-Htilde" if singular else None for singular, *_ in tests]
    solves = [(None, 0, reason) for reason in first]
    ok = [i for i, reason in enumerate(first) if reason is None]
    if ok:
        R = Rtil if lone else Rtil[ok]
        G = sym(Btil @ solve_sym(R, Btil.T))
        found = _sda(A, G, sym(Q), (Btil, R, signs_R), tol=1e-9, defer=defer)
        for i, solve in zip(ok, [found] if lone else found):
            solves[i] = solve
    fps = [
        _accepted(A, Btil, R_i, Q, signs_R, *solve)
        for R_i, solve in zip([Rtil] if lone else Rtil, solves)
    ]
    return fps[0] if lone else fps


def _accepted(A, Btil, Rtil, Q, signs_R, P, iterations, reason) -> RiccatiFixedPoint:
    """One lane's :class:`RiccatiFixedPoint`: the residual step and the
    acceptance checks on its converged P, or its failure."""
    # lone products by dot (see compctrl.model); where N = 1 its scalar path
    # may sign a zero otherwise, which H~ (R~'s zeros are +0.0), the residual
    # and the radius do not show
    if P is not None:
        [reason], pivots = _game_step_test(Rtil + Btil.T.dot(P).dot(Btil), *signs_R, solve=True)
        if reason == "singular-Htilde":
            P = None
    if P is None:
        return RiccatiFixedPoint(None, None, iterations, converged=False, reason=reason)
    BtPA = Btil.T.dot(P).dot(A)
    K = _solve_pivots(pivots, BtPA)
    Pn = Q + A.T.dot(P).dot(A) - BtPA.T.dot(K)
    residual = float(np.abs(0.5 * (Pn + Pn.T) - P).max())
    return RiccatiFixedPoint(
        P, residual, iterations, converged=True,
        closed_loop_radius=spectral_radius(A - Btil.dot(K)), inertia_match=reason is None,
        psd=bool(np.linalg.eigvalsh(P).min() >= -1e-9 * max(TINY, np.abs(P).max())),
    )
