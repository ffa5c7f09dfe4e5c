"""Whitening/spectral factorization and the synthetic system.

The reduction implemented here rewrites the ratio-against-clairvoyant control
problem as a disturbance-attenuation problem.  Its engine is a factorization
of the clairvoyant cost operator: a causal, causally invertible Delta with

    Delta Delta* = I + F F*        (finite horizon, block operators)
    Delta(z) Delta*(1/conj(z)) = I + F(z) F*(1/conj(z))   (infinite horizon)

obtained from a forward Kalman-style Riccati recursion (finite horizon) or
its stabilizing fixed point (infinite horizon).  From the factor we assemble
a doubled 2n-state synthetic plant (Ahat, Buhat, Bwhat, Qhat) driven by the
filtered disturbance w' = Delta^{-1} G w, which is a *strictly causal*
function of w and can therefore be computed online by the small filter

    nu_{t+1} = (A - K Q^{1/2}) nu_t + B_w w_t,   w'_t = Sigma^{-1/2} Q^{1/2} nu_t,

with nu_0 = 0.  Disturbance-attenuation synthesis on the synthetic plant then
yields ratio-optimal controllers for the original plant.  One type,
:class:`SyntheticSystem`, holds the synthetic plant in both horizons: single
matrices in the infinite horizon, (T, ., .) stacks over a finite horizon T,
and one assembly writes the doubled plant for either shape.

When the disturbance has fewer channels than the plant has states (p < n),
the doubled plant is only an upper bound: the attenuation problem lets w'
range over all of R^n at every step, while w' = H w with the tall n x p
filter H(z) = z Delta^{-1}(z) G(z) fills a p-dimensional family.  The
infinite-horizon reduction is then made exact with the inner-outer
factorization H = U L (Zhou, Doyle and Glover, *Robust and Optimal Control*,
1996): L is p x p, outer and causally invertible, and ||L w||^2 = ||H w||^2
= OPT(w), so attenuation of w'' = L w, which ranges over all of R^p, is the
ratio problem itself.  The exact synthetic plant is the original plant
driven through L^{-1} by w''; its state is (plant copy, filter state nu).
For p >= n the doubled plant is already the exact reduction (H is square or
wide), and a p x p outer factor of the n x p filter would be singular for
p > n, so the doubled plant stays there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import LtiPlant, LtvPlant, inv_sqrt_pd, shifted_solve, sqrt_psd
from .riccati import (
    _sda,
    is_stable,
    pbh_detectable,
    pbh_stabilizable,
    spectral_radius,
    sym,
)

__all__ = [
    "FactorizationError",
    "WhiteningSchedule",
    "SpectralFactor",
    "OuterFactor",
    "SyntheticSystem",
    "whitening_fh",
    "spectral_factor_ih",
    "outer_factor_ih",
    "build_synthetic",
    "wprime_run",
    "dense_delta",
    "delta_transfer",
    "delta_inv_transfer",
]


class FactorizationError(RuntimeError):
    """Raised when a factorization precondition or fixed point fails.

    Unlike the gamma-feasibility verdicts, factorization failures are plant
    properties (gamma-independent), so no bisection ever needs to consume
    them as values.
    """


@dataclass(frozen=True)
class WhiteningSchedule:
    """Forward filtering recursion output for a finite-horizon plant.

    P has T+1 entries with P[0] = 0; K, Sigma (and the cached square roots)
    have T entries, indexed by the step at which they apply.
    """

    P: np.ndarray  # (T+1, n, n)
    K: np.ndarray  # (T, n, n)
    Sigma: np.ndarray  # (T, n, n)
    Sigma_half: np.ndarray  # (T, n, n)
    Sigma_inv_half: np.ndarray  # (T, n, n)

    @property
    def T(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class SpectralFactor:
    """Stabilizing solution of the forward Riccati fixed point (LTI case).

    Defines Delta(z) = (I + Q^{1/2}(zI - A)^{-1} K) Sigma^{1/2} with
    A - K Q^{1/2} stable, so Delta is causal and causally invertible.
    """

    P: np.ndarray
    K: np.ndarray
    Sigma: np.ndarray
    Sigma_half: np.ndarray
    Sigma_inv_half: np.ndarray
    A_whiten: np.ndarray  # A - K Q^{1/2}
    residual: float
    iterations: int  # doublings of the fixed-point solve


@dataclass(frozen=True)
class OuterFactor:
    """p x p outer factor L of the w' filter H(z) = z Delta^{-1}(z) G(z).

    L(z) = D + C (zI - A_w)^{-1} B_w with A_w = A - K Q^{1/2}, so L shares
    the filter state nu; L* L = H* H on the unit circle, and L^{-1} is
    stable with state matrix A_inv = A_w - B_w D^{-1} C.
    """

    X: np.ndarray  # (n, n) stabilizing Riccati solution
    C: np.ndarray  # (p, n)
    D: np.ndarray  # (p, p)
    A_inv: np.ndarray  # (n, n)
    residual: float
    iterations: int  # doublings, or value-iteration steps when D_H'D_H is singular
    doublings: int  # 0 when D_H'D_H is singular


@dataclass(frozen=True)
class SyntheticSystem:
    """The synthetic plant plus its w'-filter matrices, in either horizon.

    In the infinite horizon every field is one matrix; over a finite horizon
    T it is a (T, ., .) stack indexed t = 0..T-1, and :attr:`horizon` reads
    T from that shape.  Without ``C_outer``/``D_outer`` this is the doubled
    plant driven by w' in R^n.  With them (infinite horizon, p < n) it is the
    exact plant, state (plant copy, nu), driven by
    w''_t = C_outer nu_t + D_outer w_t in R^p.
    """

    Ahat: np.ndarray  # (2n, 2n)
    Buhat: np.ndarray  # (2n, m)
    Bwhat: np.ndarray  # (2n, n), or (2n, p) when exact
    Qhat: np.ndarray  # (2n, 2n)
    A_filter: np.ndarray  # (n, n)   nu_{t+1} = A_filter nu_t + B_filter w_t
    B_filter: np.ndarray  # (n, p)
    M_filter: np.ndarray  # (n, n)   w'_t = M_filter nu_t
    C_outer: Optional[np.ndarray] = None  # (p, n)
    D_outer: Optional[np.ndarray] = None  # (p, p)

    @property
    def horizon(self) -> Optional[int]:
        """T for (T, ., .) stacks, None for single matrices."""
        return self.Ahat.shape[0] if self.Ahat.ndim == 3 else None

    @property
    def n(self) -> int:
        return self.A_filter.shape[-1]

    @property
    def m(self) -> int:
        return self.Buhat.shape[-1]

    @property
    def exact(self) -> bool:
        """True when driven by w'' = L w (the p < n reduction)."""
        return self.C_outer is not None

    def as_plant(self) -> Union[LtiPlant, LtvPlant]:
        """The plant the attenuation problem is posed on: an
        :class:`LtiPlant`, or an :class:`LtvPlant` over a finite horizon."""
        T, eye = self.horizon, np.eye(self.m)
        kind = LtiPlant if T is None else LtvPlant
        return kind(
            A=self.Ahat,
            Bu=self.Buhat,
            Bw=self.Bwhat,
            Q=self.Qhat,
            R_half=eye if T is None else np.repeat(eye[None], T, axis=0),
            x0=np.zeros(2 * self.n),
        )


def whitening_fh(plant: LtvPlant) -> WhiteningSchedule:
    """Run the forward whitening recursion from P_0 = 0.

    Sigma_t = I + Q_t^{1/2} P_t Q_t^{1/2},  K_t = A_t P_t Q_t^{1/2} Sigma_t^{-1},
    P_{t+1} = A_t P_t A_t' + B_u,t B_u,t' - K_t Sigma_t K_t'.

    Sigma_t >= I analytically; a numerically singular Sigma (an eigenvalue
    below 1e-9) is reported as a numeric failure at its first step, found by
    one stacked ``eigvalsh`` after the recursion, or after a solve that met
    a singular Sigma.  The square roots of Sigma, which the recursion does
    not read, are taken after it, one stacked call each.
    """
    T, n = plant.T, plant.n
    P = np.zeros((T + 1, n, n))
    K = np.zeros((T, n, n))
    Sigma = np.zeros((T, n, n))
    eye = np.eye(n)

    def guard(stack):
        lam = np.linalg.eigvalsh(stack).min(axis=-1)
        bad = np.flatnonzero(lam < 1e-9)
        if bad.size:
            raise FactorizationError(
                f"numeric-failure: innovation matrix singular at t={bad[0]} "
                f"(min eigenvalue {lam[bad[0]]:.3e})"
            )

    for t in range(T):
        Qh = plant.Q_half[t]
        Sigma[t] = Sig = sym(eye + Qh @ P[t] @ Qh)
        A = plant.A[t]
        AP = A @ P[t]
        try:
            K[t] = Kt = np.linalg.solve(Sig, (AP @ Qh).T).T
        except np.linalg.LinAlgError:
            guard(Sigma[: t + 1])
            raise
        P[t + 1] = sym(AP @ A.T + plant.Bu[t] @ plant.Bu[t].T - Kt @ Sig @ Kt.T)
    guard(Sigma)
    return WhiteningSchedule(
        P=P,
        K=K,
        Sigma=Sigma,
        Sigma_half=sqrt_psd(Sigma),
        Sigma_inv_half=inv_sqrt_pd(Sigma),
    )


def spectral_factor_ih(plant: LtiPlant) -> SpectralFactor:
    """Stabilizing fixed point of P = APA' + B_u B_u' - K Sigma K'.

    Preconditions (PBH rank tests, singular-value threshold 1e-8): (A, B_u)
    stabilizable and (A, Q^{1/2}) detectable.  The filter Riccati equation
    is the control one of the dual problem (A', Q^{1/2}', I, B_u B_u'), so
    the doubling core solves it; ``iterations`` counts doublings, k of them
    standing for 2^k value-iteration steps from P = 0.  A failed solve
    (singular, non-finite or divergent iterates, or the doubling cap) raises
    "no-stabilizing-solution", as does a whitening closed loop A - K Q^{1/2}
    that is not stable.
    """
    A, Bu, Qh = plant.A, plant.Bu, plant.Q_half
    n = plant.n
    if not pbh_stabilizable(A, Bu):
        raise FactorizationError("precondition failed: (A, B_u) not stabilizable")
    if not pbh_detectable(A, Qh):
        raise FactorizationError("precondition failed: (A, Q^{1/2}) not detectable")
    BBt = Bu @ Bu.T
    P, iterations, reason = _sda(A.T, sym(Qh.T @ Qh), sym(BBt))
    if P is None:
        raise FactorizationError(
            f"no-stabilizing-solution: fixed point failed after {iterations} "
            f"doublings ({reason})"
        )
    Sig = sym(np.eye(n) + Qh @ P @ Qh)
    K = np.linalg.solve(Sig, (A @ P @ Qh).T).T
    residual = float(np.abs(sym(A @ P @ A.T + BBt - K @ Sig @ K.T) - P).max())
    A_whiten = A - K @ Qh
    if not is_stable(A_whiten):
        raise FactorizationError(
            f"no-stabilizing-solution: whitening closed loop has spectral "
            f"radius {spectral_radius(A_whiten):.6f}"
        )
    return SpectralFactor(
        P=P,
        K=K,
        Sigma=Sig,
        Sigma_half=sqrt_psd(Sig),
        Sigma_inv_half=inv_sqrt_pd(Sig),
        A_whiten=A_whiten,
        residual=residual,
        iterations=iterations,
    )


def outer_factor_ih(plant: LtiPlant, factor: SpectralFactor) -> OuterFactor:
    """Outer factor of the w' filter, for the exact reduction when p < n.

    H(z) = z Delta^{-1}(z) G(z) has the realization (A_w, B_w, C_H, D_H) with
    C_H = M A_w, D_H = M B_w and M = Sigma^{-1/2} Q^{1/2}.  The stabilizing
    fixed point of

        X = A_w'XA_w + C_H'C_H - S'R^{-1}S,
        R = D_H'D_H + B_w'XB_w,   S = B_w'XA_w + D_H'C_H,

    gives L(z) = R^{1/2} (I + F (zI - A_w)^{-1} B_w) with F = R^{-1}S, so
    C = R^{1/2}F and D = R^{1/2}.  The factor is gamma-independent, so a
    gamma search computes it once.  With D_H'D_H invertible the cross term
    is removed (A_0 = A_w - B_w(D_H'D_H)^{-1}D_H'C_H,
    G_0 = B_w(D_H'D_H)^{-1}B_w', H_0 = C_H'(I - D_H(D_H'D_H)^{-1}D_H')C_H)
    and the doubling core solves the equation; ``iterations`` and
    ``doublings`` then both count doublings.  Doubling cannot start when
    D_H'D_H is singular; value iteration from X = 0 solves that case, with
    ``iterations`` counting its steps and ``doublings`` = 0.  Failure to
    converge, or an L^{-1} that is not stable (H has a zero on the unit
    circle), raises FactorizationError.
    """
    A, B = factor.A_whiten, plant.Bw
    M = factor.Sigma_inv_half @ plant.Q_half
    C_H, D_H = M @ A, M @ B
    CC, DC, DD = C_H.T @ C_H, D_H.T @ C_H, D_H.T @ D_H

    def gain(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        R = sym(DD + B.T @ X @ B)
        S = B.T @ X @ A + DC
        try:
            F = np.linalg.solve(R, S)
        except np.linalg.LinAlgError:  # D_H'D_H singular at X = 0
            F = np.linalg.pinv(R) @ S
        return R, S, F

    lam = np.linalg.eigvalsh(DD)
    if lam.min() > 1e-12 * max(lam.max(), np.finfo(float).tiny):
        E = np.linalg.solve(DD, DC)
        X, iterations, reason = _sda(
            A - B @ E, sym(B @ np.linalg.solve(DD, B.T)), sym(CC - DC.T @ E)
        )
        doublings = iterations
    else:
        X, doublings, reason = np.zeros_like(A), 0, "no-stabilizing-solution"
        for iterations in range(1, 100_001):
            _, S, F = gain(X)
            Xn = sym(A.T @ X @ A + CC - S.T @ F)
            diff = np.abs(Xn - X).max()
            X = Xn
            if diff < 1e-12 * max(1.0, np.abs(X).max()):
                reason = None
                break
    if reason is not None:
        raise FactorizationError("no-stabilizing-solution: outer factor did not converge")
    R, S, F = gain(X)
    residual = float(np.abs(sym(A.T @ X @ A + CC - S.T @ F) - X).max())
    lam = np.linalg.eigvalsh(R)
    if lam.min() <= 1e-12 * max(lam.max(), np.finfo(float).tiny):
        raise FactorizationError(
            f"numeric-failure: outer factor feedthrough singular "
            f"(eigenvalues {lam.min():.3e}, {lam.max():.3e})"
        )
    A_inv = A - B @ F
    if not is_stable(A_inv):
        raise FactorizationError(
            f"no-stabilizing-solution: inverse outer factor has spectral "
            f"radius {spectral_radius(A_inv):.6f}"
        )
    D = sqrt_psd(R)
    return OuterFactor(
        X=X,
        C=D @ F,
        D=D,
        A_inv=A_inv,
        residual=residual,
        iterations=iterations,
        doublings=doublings,
    )


def build_synthetic(
    plant: Union[LtiPlant, LtvPlant],
    factor: Union[SpectralFactor, WhiteningSchedule],
    outer: Optional[OuterFactor] = None,
) -> SyntheticSystem:
    """Assemble the synthetic plant from a whitening/spectral factor.

    The doubled plant: Ahat = [[A, K Sigma^{1/2}], [0, 0]], Buhat = [B_u; 0],
    Bwhat = [0; I], Qhat = U U' with U = [Q^{1/2}; Sigma^{1/2}] (PSD,
    rank <= n).  One assembly writes it for both horizons: a spectral factor
    of an :class:`LtiPlant` gives single matrices, a whitening schedule of an
    :class:`LtvPlant` gives (T, ., .) stacks, each step of which equals the
    step assembled alone, bit for bit.

    With an ``outer`` factor (time-invariant plants only) the exact plant is
    returned instead: the plant copy and the filter state nu driven by w''
    through w = D^{-1} (w'' - C nu),

        Ahat = [[A, -B_w D^{-1} C], [0, A_inv]],  Buhat = [B_u; 0],
        Bwhat = [B_w D^{-1}; B_w D^{-1}],  Qhat = diag(Q, 0).
    """
    if isinstance(factor, SpectralFactor):
        if not isinstance(plant, LtiPlant):
            raise TypeError("spectral factor requires a time-invariant plant")
    elif isinstance(factor, WhiteningSchedule):
        if outer is not None:
            raise TypeError("the outer factor applies to time-invariant plants only")
        if not isinstance(plant, LtvPlant):
            raise TypeError("whitening schedule requires a finite-horizon plant")
    else:
        raise TypeError(f"unsupported factor type {type(factor).__name__}")
    n, m = plant.n, plant.m
    Qh = plant.Q_half
    A_filter = plant.A - factor.K @ Qh
    M_filter = factor.Sigma_inv_half @ Qh
    if outer is not None:
        BwDi = np.linalg.solve(outer.D.T, plant.Bw.T).T  # B_w D^{-1}
        Z = np.zeros((n, n))
        return SyntheticSystem(
            Ahat=np.block([[plant.A, -BwDi @ outer.C], [Z, outer.A_inv]]),
            Buhat=np.vstack([plant.Bu, np.zeros((n, m))]),
            Bwhat=np.vstack([BwDi, BwDi]),
            Qhat=np.block([[plant.Q, Z], [Z, Z]]),
            A_filter=A_filter,
            B_filter=plant.Bw,
            M_filter=M_filter,
            C_outer=outer.C,
            D_outer=outer.D,
        )
    lead = plant.A.shape[:-2]  # () or (T,)
    Ahat = np.zeros(lead + (2 * n, 2 * n))
    Ahat[..., :n, :n] = plant.A
    Ahat[..., :n, n:] = factor.K @ factor.Sigma_half
    Buhat = np.zeros(lead + (2 * n, m))
    Buhat[..., :n, :] = plant.Bu
    Bwhat = np.zeros(lead + (2 * n, n))
    Bwhat[..., n:, :] = np.eye(n)
    U = np.concatenate([Qh, factor.Sigma_half], axis=-2)
    return SyntheticSystem(
        Ahat=Ahat,
        Buhat=Buhat,
        Bwhat=Bwhat,
        Qhat=U @ U.swapaxes(-1, -2),
        A_filter=A_filter,
        B_filter=plant.Bw,
        M_filter=M_filter,
    )


def wprime_run(synthetic: SyntheticSystem, w: np.ndarray) -> np.ndarray:
    """Expand a length-T disturbance into (w'_0, ..., w'_{T-1}).

    nu_{t+1} = A_filter nu_t + B_filter w_t from nu_0 = 0 and
    w'_t = M_filter nu_t, so w'_t depends only on w_0..w_{t-1}; in
    particular w'_0 = 0 and the final disturbance w_{T-1} influences no
    emitted value.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    T, n = w.shape[0], synthetic.n
    mats = (synthetic.A_filter, synthetic.B_filter, synthetic.M_filter)
    if synthetic.horizon is None:
        mats = tuple(np.broadcast_to(a, (T,) + a.shape) for a in mats)
    A, B, M = mats
    out = np.zeros((T, n))
    nu = np.zeros(n)
    for t in range(T - 1):
        nu = A[t] @ nu + B[t] @ w[t]
        out[t + 1] = M[t + 1] @ nu
    return out


def dense_delta(plant: LtvPlant, schedule: WhiteningSchedule) -> np.ndarray:
    """Materialize the finite-horizon Delta as a dense (nT x nT) matrix.

    State-space model: eta_{t+1} = A_t eta_t + K_t Sigma_t^{1/2} e_t,
    y_t = Q_t^{1/2} eta_t + Sigma_t^{1/2} e_t.  Used by tests and the
    verification command only; synthesis never forms it.
    """
    T, n = plant.T, plant.n
    D = np.zeros((n * T, n * T))
    S = np.zeros((n, 0))  # columns: A_{i-1}...A_{j+1} K_j Sigma_j^{1/2}
    for i in range(T):
        D[i * n : (i + 1) * n, i * n : (i + 1) * n] = schedule.Sigma_half[i]
        if i > 0:
            D[i * n : (i + 1) * n, : i * n] = plant.Q_half[i] @ S
        S = np.hstack([plant.A[i] @ S, schedule.K[i] @ schedule.Sigma_half[i]])
    return D


def delta_transfer(plant: LtiPlant, factor: SpectralFactor, z) -> np.ndarray:
    """Delta(z) = (I + Q^{1/2} (zI - A)^{-1} K) Sigma^{1/2}.

    At a scalar z, or stacked along a 1-D array of z.
    """
    resolvent = shifted_solve(plant.A, factor.K, z)
    return (np.eye(plant.n) + plant.Q_half @ resolvent) @ factor.Sigma_half


def delta_inv_transfer(plant: LtiPlant, factor: SpectralFactor, z) -> np.ndarray:
    """Delta(z)^{-1} = Sigma^{-1/2} (I - Q^{1/2} (zI - A + KQ^{1/2})^{-1} K).

    At a scalar z, or stacked along a 1-D array of z.
    """
    resolvent = shifted_solve(factor.A_whiten, factor.K, z)
    return factor.Sigma_inv_half @ (np.eye(plant.n) - plant.Q_half @ resolvent)
