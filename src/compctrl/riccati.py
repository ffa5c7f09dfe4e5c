"""Indefinite Riccati recursions and fixed points with feasibility verdicts.

Two related objects live here:

* the backward finite-horizon recursion for the min-max (game-type) quadratic
  problem, which carries per-step existence conditions for causal and
  strictly causal disturbance-attenuating controllers, and

* the corresponding infinite-horizon fixed point, whose acceptance requires
  (1) a stable closed loop, (2) matching inertia of the weight R~ and of
  H~ = R~ + B~'PB~, and (3) P PSD.

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


class SingularHtildeError(ValueError):
    """Raised by solve_sym when the symmetric matrix is numerically singular."""


def equilibrate_sym(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric row/column scaling S H S with S = diag(1/sqrt(row max)).

    Balances blocks of wildly different magnitude (the game matrix mixes an
    O(1) control block with an O(gamma^2) disturbance block) so that the
    relative pivot guard measures genuine singularity rather than scale
    spread.  The congruence preserves inertia and exact singularity.
    """
    Hs = 0.5 * (H + H.T)
    d = np.abs(Hs).max(axis=1)
    S = 1.0 / np.sqrt(np.maximum(d, np.finfo(float).tiny))
    return Hs * S[:, None] * S[None, :], S


def solve_sym(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve H X = B for symmetric (possibly indefinite) H.

    The matrix is first equilibrated, then factored by the symmetric
    eigendecomposition; the eigenvalues act as pivots and the solve is
    rejected when min|lam| <= 1e-12 * max|lam| after scaling.
    """
    Hhat, S = equilibrate_sym(H)
    lam, V = np.linalg.eigh(Hhat)
    abs_lam = np.abs(lam)
    if abs_lam.min() <= PIVOT_GUARD * max(abs_lam.max(), np.finfo(float).tiny):
        raise SingularHtildeError(
            f"symmetric solve rejected: |pivot| ratio "
            f"{abs_lam.min():.3e}/{abs_lam.max():.3e}"
        )
    Y = V.T @ (B * S[:, None])
    return (V @ (Y / lam[:, None])) * S[:, None]


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetrize (cheap guard against eigvalsh on slightly asymmetric input)."""
    return 0.5 * (M + M.T)


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


@dataclass
class RiccatiSchedule:
    """Backward-recursion output {P_t} plus per-step gate matrices and verdicts.

    P has T+1 entries with P[T] = 0.  H[t] = I + B_u,t' P_{t+1} B_u,t and
    Htilde[t] = R~ + B~_t' P_{t+1} B~_t, t = 0..T-1.  Three existence verdicts
    are carried: the causal condition

        B_w'[P - P B_u H^{-1} B_u' P] B_w < gamma^2 I     (strict, margin 1e-9)

    and two one-step-delay (strictly causal) conditions, reported separately:
    the u-channel form B_u' P B_u < gamma^2 I and the w-channel form
    B_w' P B_w < gamma^2 I.  The w-channel gates strictly causal synthesis;
    the u-channel is computed for diagnostic parity.
    """

    gamma: float
    P: np.ndarray  # (T+1, N, N)
    H: list
    Htilde: list
    causal: Verdict
    strictly_causal_u: Verdict
    strictly_causal_w: Verdict

    @property
    def T(self) -> int:
        return self.P.shape[0] - 1


def hinf_backward(plant: LtvPlant, gamma: float) -> RiccatiSchedule:
    """Backward recursion P_t = Q_t + A'PA - A'PB~ H~^{-1} B~'PA at level gamma.

    R~ = diag(I_m, -gamma^2 I_p).  A singular H~ (or singular H in the causal
    condition) aborts with verdict reason "singular-Htilde" on all conditions;
    the recursion itself is otherwise always well defined.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    T, N, m, p = plant.T, plant.n, plant.m, plant.p
    g2 = gamma * gamma
    Rtil = np.block(
        [[np.eye(m), np.zeros((m, p))], [np.zeros((p, m)), -g2 * np.eye(p)]]
    )
    P = np.zeros((T + 1, N, N))
    H_list: list = [None] * T
    Ht_list: list = [None] * T
    causal_bad: list[int] = []
    strict_u_bad: list[int] = []
    strict_w_bad: list[int] = []

    for t in range(T - 1, -1, -1):
        A, Bu, Bw, Q = plant.A[t], plant.Bu[t], plant.Bw[t], plant.Q[t]
        Pn = P[t + 1]
        Btil = np.hstack([Bu, Bw])
        Htil = Rtil + Btil.T @ Pn @ Btil
        Ht_list[t] = Htil
        H = np.eye(m) + Bu.T @ Pn @ Bu
        H_list[t] = H
        try:
            BtPA = Btil.T @ Pn @ A
            Pt = Q + A.T @ Pn @ A - BtPA.T @ solve_sym(Htil, BtPA)
            # causal condition needs H^{-1} as well
            PBu = Pn @ Bu
            closed = Pn - PBu @ solve_sym(H, PBu.T)
        except SingularHtildeError:
            bad = Verdict(False, "singular-Htilde", t)
            return RiccatiSchedule(
                gamma=gamma, P=P, H=H_list, Htilde=Ht_list,
                causal=bad, strictly_causal_u=bad, strictly_causal_w=bad,
            )
        P[t] = 0.5 * (Pt + Pt.T)
        if np.linalg.eigvalsh(sym(Bw.T @ closed @ Bw)).max() >= g2 - STRICT_MARGIN:
            causal_bad.append(t)
        if np.linalg.eigvalsh(sym(Bu.T @ Pn @ Bu)).max() >= g2 - STRICT_MARGIN:
            strict_u_bad.append(t)
        if np.linalg.eigvalsh(sym(Bw.T @ Pn @ Bw)).max() >= g2 - STRICT_MARGIN:
            strict_w_bad.append(t)

    def verdict(bad: list[int]) -> Verdict:
        if not bad:
            return Verdict(True)
        return Verdict(False, "condition-violated", min(bad))

    return RiccatiSchedule(
        gamma=gamma,
        P=P,
        H=H_list,
        Htilde=Ht_list,
        causal=verdict(causal_bad),
        strictly_causal_u=verdict(strict_u_bad),
        strictly_causal_w=verdict(strict_w_bad),
    )


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
    value iteration checks every step: H~ = R~ + B~'PB~, equilibrated, must
    be nonsingular ("singular-Htilde") with the inertia of R~
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
        Hhat, _ = equilibrate_sym(Rtil + Btil.T @ P @ Btil)
        abs_lam = np.abs(np.linalg.eigvalsh(Hhat))
        if abs_lam.min() <= PIVOT_GUARD * max(abs_lam.max(), np.finfo(float).tiny):
            return "singular-Htilde"
        return None if inertia(Hhat) == inertia_R else "condition-violated"

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
        inertia_match=inertia(Rtil) == inertia(Htil),
        psd=bool(np.linalg.eigvalsh(P).min() >= -1e-9),
    )
