"""Whitening/spectral factorization and the synthetic system.

The ratio-against-clairvoyant problem becomes a disturbance-attenuation
problem through a factorization of the clairvoyant cost operator: a causal,
causally invertible Delta with Delta Delta* = I + F F*, from a forward
Kalman-style Riccati recursion (finite horizon, :func:`whitening_fh`) or its
stabilizing fixed point (infinite horizon, :func:`spectral_factor_ih`).
The filtered disturbance w' = Delta^{-1} G w is a strictly causal function
of w, computed online by the small filter

    nu_{t+1} = (A - K Q^{1/2}) nu_t + B_w w_t,   w'_t = Sigma^{-1/2} Q^{1/2} nu_t,

with nu_0 = 0, and attenuation of w' on a doubled 2n-state synthetic plant
yields ratio-optimal controllers for the original plant.

When p < n the doubled plant is only an upper bound: the attenuation
problem lets w' range over all of R^n, while w' = H w with the tall n x p
filter H(z) = z Delta^{-1}(z) G(z) fills a p-dimensional family.  The
infinite-horizon reduction is then made exact by the inner-outer
factorization H = U L (Zhou, Doyle and Glover, *Robust and Optimal
Control*, 1996; :func:`outer_factor_ih`): ||L w||^2 = ||H w||^2 = OPT(w),
so attenuation of w'' = L w, which ranges over all of R^p, is the ratio
problem itself.  The exact synthetic plant is the original plant driven
through L^{-1} by w''.  For p >= n the doubled plant is already exact (H is
square or wide; a p x p outer factor of the n x p filter would be singular
for p > n), and every finite horizon uses it.  :func:`build_synthetic`
makes that choice, once: it takes the plant alone, picks and computes its
factors, and returns a :class:`SyntheticSystem`, which holds either plant
in either horizon and folds a law posed on it into one
:class:`Realization` on the measured state and nu
(:meth:`SyntheticSystem.fold`), so the callers only pose the attenuation
game on ``as_plant()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Union

import numpy as np

from .model import LtiPlant, LtvPlant, build_dense_operators, inv_sqrt_pd, shifted_solve, sqrt_psd
from .riccati import (
    TINY,
    _sda,
    is_stable,
    pbh_detectable,
    pbh_stabilizable,
    spectral_radius,
    sym,
)

__all__ = [
    "FactorizationError",
    "SpectralFactor",
    "OuterFactor",
    "SyntheticSystem",
    "Realization",
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
class SpectralFactor:
    """The factor Delta of Delta Delta* = I + F F*, and the w' filter it defines.

    In the infinite horizon (:func:`spectral_factor_ih`) every array is one
    matrix: Delta(z) = (I + Q^{1/2}(zI - A)^{-1} K) Sigma^{1/2} with
    A - K Q^{1/2} stable, so Delta is causal and causally invertible.  Over
    a finite horizon T (:func:`whitening_fh`) each is a stack indexed by the
    step at which it applies, P with T+1 entries from P_0 = 0, the rest
    with T (:attr:`horizon`).  The w' filter is
    nu_{t+1} = A_whiten nu_t + B_w w_t, w'_t = M_whiten nu_t.  ``residual``
    and ``iterations`` (doublings) are the fixed point's, None over a
    finite horizon.
    """

    P: np.ndarray
    K: np.ndarray
    Sigma: np.ndarray
    Sigma_half: np.ndarray
    Sigma_inv_half: np.ndarray
    A_whiten: np.ndarray  # A - K Q^{1/2}
    M_whiten: np.ndarray  # Sigma^{-1/2} Q^{1/2}
    residual: Optional[float] = None
    iterations: Optional[int] = None

    @property
    def horizon(self) -> Optional[int]:
        """T for (T, ., .) stacks, None for single matrices."""
        return self.K.shape[0] if self.K.ndim == 3 else None


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
    iterations: int  # doublings of its two fixed-point solves


class Realization(NamedTuple):
    """The ratio-optimal controller as one state-space system.

    It reads the measured plant state x and keeps one state of its own, nu,
    the state of the w' filter in R^n.  Per step,

        u_t      = Cx x_t + Cn nu_t + Dz w_t,
        nu_{t+1} = A_filter nu_t + B_filter w_t,    w'_t = M_filter nu_t.

    The filter keeps its own matrices, so the w' it emits is exactly that
    of :func:`wprime_run`.  Every field is a stack over steps, for the
    synthetic plant of either horizon: one entry in the infinite horizon;
    over a finite horizon T, T-1 entries for the law (u_{T-1} = 0) and the
    T of the filter.
    """

    Cx: np.ndarray  # (S, m, n)
    Cn: np.ndarray  # (S, m, n)
    Dz: np.ndarray  # (S, m, p)
    A_filter: np.ndarray  # (S', n, n)
    B_filter: np.ndarray  # (S', n, p)
    M_filter: np.ndarray  # (S', n, n)


@dataclass(frozen=True)
class SyntheticSystem:
    """The synthetic plant plus its w'-filter matrices, in either horizon.

    In the infinite horizon every field is one matrix; over a finite horizon
    T it is a (T, ., .) stack indexed t = 0..T-1 (:attr:`horizon`).  The
    exact plant (:attr:`exact`) alone has ``C_outer`` and ``D_outer``, and
    is driven by w''_t = C_outer nu_t + D_outer w_t.
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

    def fold(self, Kxi: np.ndarray, Kwp: np.ndarray) -> Realization:
        """Fold the law u = -(Kxi xi_hat + Kwp w_hat) on :meth:`as_plant`
        into the :class:`Realization` on (x, nu).

        With Kxi = [Ga, Kb] over the halves of xi_hat, the upper half is the
        synthetic plant's copy xi of the plant state, which x and nu give
        when x_0 = nu_0 = 0, so the law reads x in its place.

        Exact plant: xi_hat = [x; nu] and w_hat = w'' = C_outer nu +
        D_outer w, so Cx = -Ga, Cn = -(Kb + Kwp C_outer) and
        Dz = -Kwp D_outer.  Doubled plant: xi_hat = [x - nu; M_t nu], since
        xi and x - nu both follow (x - nu)+ = A (x - nu) + B_u u +
        K Q^{1/2} nu (K Sigma^{1/2} M = K Q^{1/2}); the law reads
        w_hat = w'_{t+1} = M_{t+1}(A_filter nu + B_filter w), so Cx = -Ga,
        Cn = -(Kb M_t + Kwp M_{t+1} A_filter - Ga) and
        Dz = -Kwp M_{t+1} B_filter.
        """
        finite = self.horizon is not None
        S = self.horizon - 1 if finite else 1  # steps with a law
        stack = np.asarray if finite else (lambda a: a[None])
        Af, Bf, Mf = map(stack, (self.A_filter, self.B_filter, self.M_filter))
        Kxi, Kwp = (stack(a)[:S] for a in (Kxi, Kwp))
        Ga, Kb = Kxi[..., : self.n], Kxi[..., self.n :]
        if self.exact:
            Gn, Gw = Kb + Kwp @ self.C_outer, Kwp @ self.D_outer
        else:
            M_next = Mf[1:] if finite else Mf
            Gn = Kb @ Mf[:S] + Kwp @ M_next @ Af[:S] - Ga
            Gw = Kwp @ M_next @ Bf[:S]
        return Realization(Cx=-Ga, Cn=-Gn, Dz=-Gw, A_filter=Af, B_filter=Bf, M_filter=Mf)


def whitening_fh(plant: LtvPlant) -> SpectralFactor:
    """Run the forward whitening recursion from P_0 = 0.

    Sigma_t = I + Q_t^{1/2} P_t Q_t^{1/2},  K_t = A_t P_t Q_t^{1/2} Sigma_t^{-1},
    P_{t+1} = A_t P_t A_t' + B_u,t B_u,t' - K_t Sigma_t K_t'.

    Sigma_t >= I analytically; a numerically singular Sigma (an eigenvalue
    below 1e-9) raises a numeric failure naming its first step, checked once
    after the recursion (or after a solve that met a singular Sigma).
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
    return _spectral_factor(plant, P, K, Sigma)


def _spectral_factor(plant, P, K, Sigma, **solve) -> SpectralFactor:
    """The :class:`SpectralFactor` of (P, K, Sigma) on ``plant``, matrices or
    stacks alike: Sigma^{1/2}, Sigma^{-1/2}, A_whiten = A - K Q^{1/2} and
    M_whiten = Sigma^{-1/2} Q^{1/2}; ``solve`` holds the fixed point's
    residual and doublings."""
    Sigma_inv_half = inv_sqrt_pd(Sigma)
    return SpectralFactor(
        P=P,
        K=K,
        Sigma=Sigma,
        Sigma_half=sqrt_psd(Sigma),
        Sigma_inv_half=Sigma_inv_half,
        A_whiten=plant.A - K @ plant.Q_half,
        M_whiten=Sigma_inv_half @ plant.Q_half,
        **solve,
    )


def spectral_factor_ih(plant: LtiPlant) -> SpectralFactor:
    """Stabilizing fixed point of P = APA' + B_u B_u' - K Sigma K'.

    Preconditions (PBH rank tests, singular-value threshold 1e-8): (A, B_u)
    stabilizable and (A, Q^{1/2}) detectable.  The filter Riccati equation
    is the control one of the dual problem (A', Q^{1/2}', I, B_u B_u'), so
    the doubling core solves it; ``iterations`` counts doublings.  A failed solve
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
    factor = _spectral_factor(plant, P, K, Sig, residual=residual, iterations=iterations)
    if not is_stable(factor.A_whiten):
        raise FactorizationError(
            f"no-stabilizing-solution: whitening closed loop has spectral "
            f"radius {spectral_radius(factor.A_whiten):.6f}"
        )
    return factor


def outer_factor_ih(plant: LtiPlant, factor: SpectralFactor) -> OuterFactor:
    """Outer factor of the w' filter, for the exact reduction when p < n.

    H(z) = z Delta^{-1}(z) G(z) has the realization (A_w, B_w, C_H, D_H) with
    C_H = M A_w, D_H = M B_w and M = Sigma^{-1/2} Q^{1/2} (``M_whiten``).
    The stabilizing fixed point of

        X = A_w'XA_w + C_H'C_H - S'R^{-1}S,
        R = D_H'D_H + B_w'XB_w,   S = B_w'XA_w + D_H'C_H,

    gives L(z) = R^{1/2} (I + F (zI - A_w)^{-1} B_w) with F = R^{-1}S, so
    C = R^{1/2}F and D = R^{1/2}.  That X is the largest solution, which
    Riccati iteration reaches from an upper one (Lancaster and Rodman,
    *Algebraic Riccati Equations*, 1995): here the cost of w = 0, X_u =
    A_w'X_uA_w + C_H'C_H.  With F_u = R_u^{-1}S_u at X_u, the doubling core
    raises Z = X_u - X from 0 (A_0 = A_w - B_w F_u, G_0 = -B_w R_u^{-1} B_w',
    H_0 = S_u'F_u).  A singular R_u or R (H*H singular), a failed solve and
    an unstable L^{-1} (H has a zero on the circle) raise FactorizationError.
    """
    A, B, M = factor.A_whiten, plant.Bw, factor.M_whiten
    C_H, D_H = M @ A, M @ B

    def gains(X):  # R, S and F = R^{-1}S at X
        R = sym(D_H.T @ D_H + B.T @ X @ B)
        lam = np.linalg.eigvalsh(R)
        if lam.min() <= 1e-12 * max(lam.max(), TINY):
            raise FactorizationError(
                f"numeric-failure: outer factor feedthrough singular "
                f"(eigenvalues {lam.min():.3e}, {lam.max():.3e})"
            )
        S = B.T @ X @ A + D_H.T @ C_H
        return R, S, np.linalg.solve(R, S)

    X_u, k_u, reason = _sda(A, np.zeros_like(A), sym(C_H.T @ C_H))
    if reason is None:
        R_u, S_u, F_u = gains(X_u)
        Z, k_z, reason = _sda(A - B @ F_u, sym(-B @ np.linalg.solve(R_u, B.T)), sym(S_u.T @ F_u))
    if reason is not None:
        raise FactorizationError("no-stabilizing-solution: outer factor did not converge")
    X = sym(X_u - Z)
    R, S, F = gains(X)
    residual = float(np.abs(sym(A.T @ X @ A + C_H.T @ C_H - S.T @ F) - X).max())
    A_inv = A - B @ F
    if not is_stable(A_inv):
        raise FactorizationError(
            f"no-stabilizing-solution: inverse outer factor has spectral "
            f"radius {spectral_radius(A_inv):.6f}"
        )
    D = sqrt_psd(R)
    return OuterFactor(X=X, C=D @ F, D=D, A_inv=A_inv, residual=residual, iterations=k_u + k_z)


def build_synthetic(plant: Union[LtiPlant, LtvPlant]) -> SyntheticSystem:
    """The gamma-independent synthetic plant of a plant of either horizon.

    The factors are chosen here: the whitening schedule (:func:`whitening_fh`)
    of an :class:`LtvPlant`, the spectral factor (:func:`spectral_factor_ih`)
    of an :class:`LtiPlant`, plus its outer factor (:func:`outer_factor_ih`)
    when p < n.  The w' filter is the factor's own, with a copy of B_w: no
    array of the result is the plant's.

    The doubled plant: Ahat = [[A, K Sigma^{1/2}], [0, 0]], Buhat = [B_u; 0],
    Bwhat = [0; I], Qhat = U U' with U = [Q^{1/2}; Sigma^{1/2}] (PSD,
    rank <= n).  One assembly writes it for both horizons: single matrices
    in the infinite horizon, (T, ., .) stacks over a finite one.

    With an outer factor the exact plant is returned instead: the plant copy
    and the filter state nu driven by w'' through w = D^{-1} (w'' - C nu),

        Ahat = [[A, -B_w D^{-1} C], [0, A_inv]],  Buhat = [B_u; 0],
        Bwhat = [B_w D^{-1}; B_w D^{-1}],  Qhat = diag(Q, 0).
    """
    n, m = plant.n, plant.m
    if isinstance(plant, LtvPlant):
        factor, outer = whitening_fh(plant), None
    else:
        factor = spectral_factor_ih(plant)
        outer = outer_factor_ih(plant, factor) if plant.p < n else None
    filt = dict(A_filter=factor.A_whiten, B_filter=plant.Bw.copy(), M_filter=factor.M_whiten)
    if outer is not None:
        BwDi = np.linalg.solve(outer.D.T, plant.Bw.T).T  # B_w D^{-1}
        Z = np.zeros((n, n))
        return SyntheticSystem(
            Ahat=np.block([[plant.A, -BwDi @ outer.C], [Z, outer.A_inv]]),
            Buhat=np.vstack([plant.Bu, np.zeros((n, m))]),
            Bwhat=np.vstack([BwDi, BwDi]),
            Qhat=np.block([[plant.Q, Z], [Z, Z]]),
            **filt,
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
    U = np.concatenate([plant.Q_half, factor.Sigma_half], axis=-2)
    return SyntheticSystem(
        Ahat=Ahat, Buhat=Buhat, Bwhat=Bwhat, Qhat=U @ U.swapaxes(-1, -2), **filt
    )


def wprime_run(synthetic: SyntheticSystem, w: np.ndarray) -> np.ndarray:
    """Expand a length-T disturbance into (w'_0, ..., w'_{T-1}).

    nu_{t+1} = A_filter nu_t + B_filter w_t from nu_0 = 0 and
    w'_t = M_filter nu_t, so w'_t depends only on w_0..w_{t-1}; in
    particular w'_0 = 0 and the final disturbance w_{T-1} influences no
    emitted value.
    """
    return _filter_run(synthetic.A_filter, synthetic.B_filter, synthetic.M_filter, w)


def _filter_run(A, B, M, w) -> np.ndarray:
    """:func:`wprime_run` on the filter (A_filter, B_filter, M_filter) =
    (A, B, M): single matrices, or stacks over the horizon."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    T, n = w.shape[0], A.shape[-1]
    if A.ndim == 2:
        A, B, M = (np.broadcast_to(a, (T,) + a.shape) for a in (A, B, M))
    out = np.zeros((T, n))
    nu = np.zeros(n)
    for t in range(T - 1):
        nu = A[t] @ nu + B[t] @ w[t]
        out[t + 1] = M[t + 1] @ nu
    return out


def dense_delta(plant: LtvPlant, schedule: SpectralFactor) -> np.ndarray:
    """Materialize the finite-horizon Delta as a dense (nT x nT) matrix.

    State-space model: eta_{t+1} = A_t eta_t + K_t Sigma_t^{1/2} e_t,
    y_t = Q_t^{1/2} eta_t + Sigma_t^{1/2} e_t: the F of
    :func:`~compctrl.model.build_dense_operators` on the plant with B_u
    replaced by K Sigma^{1/2}, plus Sigma^{1/2} on the diagonal.  Used by
    tests and the verification command only; synthesis never forms it.
    """
    T, n = plant.T, plant.n
    lifted = replace(plant, Bu=schedule.K @ schedule.Sigma_half, x0=np.zeros(n))
    D = build_dense_operators(lifted).F
    for i in range(T):
        D[i * n : (i + 1) * n, i * n : (i + 1) * n] = schedule.Sigma_half[i]
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
