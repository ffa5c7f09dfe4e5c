"""Synthesis and runtime stepping of all controller families.

Four families are provided, each in causal (may read the current disturbance)
and strictly causal (one-step-delayed) variants where that distinction makes
sense:

* ``h2``: the steady-state LQR fixed point; the causal variant augments the
  state feedback with the disturbance feedforward obtained as the limit of
  the attenuation-optimal law, u = -H^{-1}B_u'P(Ax + B_w w).
* ``hinf``: disturbance attenuation at a fixed level gamma, finite or
  infinite horizon, gated by one existence condition in both horizons
  (H~ = R~ + B~'PB~ nonsingular with the inertia of R~, at every backward
  step or on the fixed point), plus B_w'PB_w < gamma^2 I when the law is
  strictly causal.
* ``competitive``: ratio-optimal control against the clairvoyant cost;
  synthesized by running the ``hinf`` machinery on the synthetic plant from
  :mod:`compctrl.factorization`: the doubled plant driven by the filtered
  disturbance w', or, in the infinite horizon with p < n, the exact plant
  driven by w'' = L w.
* ``offline``: the clairvoyant minimizer itself (batch only), computed
  densely from the stacked operators or, for long horizons, by an
  affine backward Riccati sweep; both routes solve the same normal equations
    u* = -(I + F'F)^{-1} F' G w,    OPT = w'G'(I + FF')^{-1} G w.

Synthesis returns either a controller or an :class:`Infeasible` verdict (a
plain value with a reason code), never an exception, for every
gamma-dependent failure; the gamma search consumes these verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .factorization import (
    SyntheticSystem,
    SyntheticSystemFH,
    WPrimeFilter,
    build_synthetic,
    outer_factor_ih,
    spectral_factor_ih,
    whitening_fh,
)
from .model import LtiPlant, LtvPlant, build_dense_operators
from .riccati import (
    RiccatiFixedPoint,
    _strictly_causal_ok,
    dare_fixed_point,
    hinf_backward,
    pbh_detectable,
    pbh_stabilizable,
    solve_sym,
    sym,
)

__all__ = [
    "Infeasible",
    "ControllerState",
    "StateFeedbackController",
    "CompetitiveController",
    "OfflineController",
    "ZeroController",
    "synth_h2_ih",
    "synth_hinf",
    "synth_competitive",
    "offline_optimal",
    "control_step",
    "controller_to_json_dict",
    "controller_from_json_dict",
]

CONTROLLER_SCHEMA_VERSION = 1

CAUSAL = "causal"
STRICT = "strictly-causal"
NONCAUSAL = "noncausal"


@dataclass(frozen=True)
class Infeasible:
    """Structured negative verdict from a gamma-gated synthesis."""

    reason: str
    gamma: Optional[float] = None
    details: Optional[dict] = None


@dataclass
class ControllerState:
    """Mutable per-rollout state: timestep plus any internal filter state."""

    t: int = 0
    xi: Optional[np.ndarray] = None
    filter: Optional[WPrimeFilter] = None

    def clone(self) -> "ControllerState":
        return ControllerState(
            t=self.t,
            xi=None if self.xi is None else self.xi.copy(),
            filter=None if self.filter is None else self.filter.clone(),
        )


def _check_causality(causality: str) -> str:
    if causality not in (CAUSAL, STRICT):
        raise ValueError(f"causality must be '{CAUSAL}' or '{STRICT}'")
    return causality


@dataclass(frozen=True)
class StateFeedbackController:
    """u_t = -Kx x_t - Kw w_t (Kw = 0 for the strictly causal variant).

    For finite horizons the gains are per-step stacks of shape (T, m, n) and
    (T, m, p).
    """

    kind: str  # "h2" | "hinf"
    causality: str
    horizon: Optional[int]
    gamma: Optional[float]
    Kx: np.ndarray
    Kw: np.ndarray
    diagnostics: dict = field(default_factory=dict, compare=False)

    def make_state(self) -> ControllerState:
        return ControllerState()

    def step(self, state: ControllerState, x_t, w_t) -> np.ndarray:
        t = state.t
        if self.horizon is not None and t >= self.horizon:
            raise IndexError(f"controller stepped past its horizon T={self.horizon}")
        x_t = np.asarray(x_t, dtype=float).reshape(-1)
        w_t = np.asarray(w_t, dtype=float).reshape(-1)
        Kx = self.Kx if self.horizon is None else self.Kx[t]
        Kw = self.Kw if self.horizon is None else self.Kw[t]
        u = -(Kx @ x_t) - (Kw @ w_t)
        state.t = t + 1
        return u


@dataclass(frozen=True)
class CompetitiveController:
    """Ratio-optimal controller: attenuation law on the synthetic plant.

    Maintains the autonomous synthetic state xi (never the plant state) and a
    w' filter.  Per step: the filter absorbs w_t to produce w'_{t+1}, then

        u_t = -(Kxi xi_t + Kwp w'_{t+1}),
        xi_{t+1} = Ahat xi_t + Buhat u_t + Bwhat w'_{t+1}.

    The strictly causal variant has Kwp = 0, so u_t never reads w'_{t+1}
    (i.e. never reads w_t); the filter and xi still absorb w_t afterwards.
    At the final step of a finite horizon the control gain is identically
    zero and w'_T does not exist, so u_{T-1} = 0 and nothing advances.

    On an exact synthetic system (``synthetic.exact``) xi is the plant copy
    alone and the synthetic state is (xi, nu) with nu the filter state:

        w''_t = C_outer nu_t + D_outer w_t,
        u_t = -(Kxi [xi_t; nu_t] + Kwp w''_t),
        xi_{t+1} = A xi_t + B_u u_t + B_w w_t.
    """

    kind: str  # "competitive"
    causality: str
    horizon: Optional[int]
    gamma: Optional[float]
    synthetic: Union[SyntheticSystem, SyntheticSystemFH]
    Kxi: np.ndarray  # (m, 2n) or (T, m, 2n)
    Kwp: np.ndarray  # (m, n), (m, p) when exact, or (T, m, n)
    diagnostics: dict = field(default_factory=dict, compare=False)

    def make_state(self) -> ControllerState:
        syn = self.synthetic
        if self.horizon is not None:
            dim = syn.Ahat.shape[1]
        else:
            dim = syn.n if syn.exact else syn.Ahat.shape[0]
        return ControllerState(t=0, xi=np.zeros(dim), filter=WPrimeFilter(syn))

    def step(self, state: ControllerState, x_t, w_t) -> np.ndarray:
        t = state.t
        syn = self.synthetic
        m = syn.m
        if self.horizon is not None:
            if t >= self.horizon:
                raise IndexError(f"controller stepped past its horizon T={self.horizon}")
            if t == self.horizon - 1:
                state.t = t + 1
                return np.zeros(m)
            Ahat, Buhat, Bwhat = syn.Ahat[t], syn.Buhat[t], syn.Bwhat[t]
            Kxi, Kwp = self.Kxi[t], self.Kwp[t]
        elif syn.exact:
            n = syn.n
            nu = state.filter.nu
            state.filter.step(w_t)  # validates w_t and advances nu
            w_t = np.asarray(w_t, dtype=float).reshape(-1)
            wpp = syn.C_outer @ nu + syn.D_outer @ w_t  # w''_t
            u = -(self.Kxi @ np.concatenate([state.xi, nu])) - (self.Kwp @ wpp)
            A, Bu = syn.Ahat[:n, :n], syn.Buhat[:n]
            state.xi = A @ state.xi + Bu @ u + syn.B_filter @ w_t
            state.t = t + 1
            return u
        else:
            Ahat, Buhat, Bwhat = syn.Ahat, syn.Buhat, syn.Bwhat
            Kxi, Kwp = self.Kxi, self.Kwp
        wp = state.filter.step(w_t)  # w'_{t+1}
        u = -(Kxi @ state.xi) - (Kwp @ wp)
        state.xi = Ahat @ state.xi + Buhat @ u + Bwhat @ wp
        state.t = t + 1
        return u


@dataclass(frozen=True)
class OfflineController:
    """Clairvoyant minimizer; batch only (rollouts precompute the controls)."""

    kind: str = "offline"
    causality: str = NONCAUSAL
    horizon: Optional[int] = None
    gamma: Optional[float] = None

    def make_state(self) -> ControllerState:
        return ControllerState()


@dataclass(frozen=True)
class ZeroController:
    """u = 0 baseline."""

    m: int
    kind: str = "zero"
    causality: str = CAUSAL
    horizon: Optional[int] = None
    gamma: Optional[float] = None

    def make_state(self) -> ControllerState:
        return ControllerState()

    def step(self, state: ControllerState, x_t, w_t) -> np.ndarray:
        state.t += 1
        return np.zeros(self.m)


def _saddle_gains(
    P: np.ndarray,
    A: np.ndarray,
    Bu: np.ndarray,
    Bw: np.ndarray,
    gamma: Optional[float],
    causality: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Gains (Kx, Kw) of u = -Kx x - Kw w for one step with cost-to-go P.

    Causal: Kx = H^{-1}B_u'PA and Kw = H^{-1}B_u'PB_w, H = I + B_u'PB_u.
    Strictly causal: u cannot read w, so the u-part of the game's saddle
    point is Kx = (I + B_u'MB_u)^{-1}B_u'MA with
    M = P + PB_w(gamma^2 I - B_w'PB_w)^{-1}B_w'P, the cost-to-go after the
    maximizing disturbance (M = P for gamma = None, the LQR limit).
    """
    m, p = Bu.shape[1], Bw.shape[1]
    if causality == STRICT and gamma is not None:
        PBw = P @ Bw
        P = sym(P + PBw @ solve_sym(gamma**2 * np.eye(p) - Bw.T @ PBw, PBw.T))
    H = np.eye(m) + Bu.T @ P @ Bu
    Kx = solve_sym(H, Bu.T @ P @ A)
    if causality == STRICT:
        return Kx, np.zeros((m, p))
    return Kx, solve_sym(H, Bu.T @ P @ Bw)


def synth_h2_ih(plant: LtiPlant, causality: str = CAUSAL) -> StateFeedbackController:
    """Steady-state LQR, optionally with the causal disturbance feedforward.

    The strictly causal variant is plain state feedback
    u = -(I + B_u'PB_u)^{-1} B_u'PA x; the causal one adds the feedforward
    -(I + B_u'PB_u)^{-1} B_u'P B_w w (the infinite-gamma limit of the causal
    attenuation law), which is what a fair comparison against
    disturbance-reading controllers requires.
    """
    _check_causality(causality)
    if not isinstance(plant, LtiPlant):
        raise TypeError("synth_h2_ih expects a time-invariant plant")
    if not pbh_stabilizable(plant.A, plant.Bu):
        raise ValueError("precondition failed: (A, B_u) not stabilizable")
    if not pbh_detectable(plant.A, plant.Q_half):
        raise ValueError("precondition failed: (A, Q^{1/2}) not detectable")
    res = _attenuation(plant, None, causality)
    if isinstance(res, Infeasible):
        if res.reason == "condition-violated":  # converged, not stabilizing
            raise ValueError("LQR closed loop is not stable")
        raise ValueError(f"LQR fixed point failed: {res.reason}")
    Kx, Kw, diagnostics = res
    return StateFeedbackController(
        kind="h2",
        causality=causality,
        horizon=None,
        gamma=None,
        Kx=Kx,
        Kw=Kw,
        diagnostics={k: diagnostics[k] for k in ("residual", "iterations", "P")},
    )


def _gate_fixed_point(
    fp: RiccatiFixedPoint,
    Bw: np.ndarray,
    gamma: Optional[float],
    causality: str,
) -> Optional[Infeasible]:
    """Existence conditions for the infinite-horizon attenuation problem.

    Causal: (1) stable closed loop, (2) inertia(R~) == inertia(H~), (3) P PSD.
    Strictly causal adds the one-step-delay condition B_w'PB_w < gamma^2 I,
    the same test the finite-horizon recursion applies to P_{t+1}.
    gamma = None (the LQR limit) leaves the causal conditions only.
    """
    if not fp.converged:
        return Infeasible(
            fp.reason or "no-stabilizing-solution",
            gamma,
            {"iterations": fp.iterations},
        )
    details = {
        "closed_loop_radius": fp.closed_loop_radius,
        "inertia_match": fp.inertia_match,
        "psd": fp.psd,
        "iterations": fp.iterations,
        "residual": fp.residual,
    }
    if not fp.feasible:
        return Infeasible("condition-violated", gamma, details)
    if causality == STRICT and gamma is not None:
        if not _strictly_causal_ok(fp.P, Bw, gamma):
            details["strict_w_channel_ok"] = False
            return Infeasible("condition-violated", gamma, details)
    return None


def _normalize_horizon(plant, horizon):
    """Resolve (plant, horizon) into ('fh', LtvPlant) or ('ih', LtiPlant)."""
    if isinstance(plant, LtvPlant):
        if horizon is not None and horizon != plant.T:
            raise ValueError("horizon argument conflicts with the plant's horizon")
        return "fh", plant
    if not isinstance(plant, LtiPlant):
        raise TypeError("plant must be LtiPlant or LtvPlant")
    if horizon is None:
        return "ih", plant
    return "fh", plant.to_ltv(int(horizon))


def _attenuation(plant, gamma: Optional[float], causality: str):
    """Attenuation gains at level gamma: ``(Kx, Kw, diagnostics)`` or Infeasible.

    The one synthesis core of every state-feedback family.  An
    :class:`LtiPlant` is gated by the fixed-point conditions of the game
    Riccati equation with R~ = diag(I, -gamma^2 I) (gamma = None: its LQR
    limit, R~ = I on u alone); an :class:`LtvPlant` by the per-step
    conditions of the backward recursion.  The gains are those of
    :func:`_saddle_gains`, per step in the finite horizon.
    """
    m, p = plant.m, plant.p
    if isinstance(plant, LtiPlant):
        if gamma is None:
            Btil, Rtil = plant.Bu, np.eye(m)
        else:
            Btil = np.hstack([plant.Bu, plant.Bw])
            Rtil = np.block(
                [
                    [np.eye(m), np.zeros((m, p))],
                    [np.zeros((p, m)), -(gamma**2) * np.eye(p)],
                ]
            )
        fp = dare_fixed_point(plant.A, Btil, Rtil, plant.Q)
        bad = _gate_fixed_point(fp, plant.Bw, gamma, causality)
        if bad is not None:
            return bad
        Kx, Kw = _saddle_gains(fp.P, plant.A, plant.Bu, plant.Bw, gamma, causality)
        diagnostics = {
            "residual": fp.residual,
            "iterations": fp.iterations,
            "closed_loop_radius": fp.closed_loop_radius,
            "P": fp.P,
        }
        return Kx, Kw, diagnostics

    sched = hinf_backward(plant, gamma)
    gate = sched.causal if causality == CAUSAL else sched.strictly_causal_w
    if not gate.ok:
        return Infeasible(
            gate.reason or "condition-violated",
            gamma,
            {
                "first_violation": gate.first_violation,
                "strictly_causal_w_ok": sched.strictly_causal_w.ok,
            },
        )
    T = plant.T
    Kx = np.zeros((T, m, plant.n))
    Kw = np.zeros((T, m, p))
    for t in range(T):
        Kx[t], Kw[t] = _saddle_gains(
            sched.P[t + 1], plant.A[t], plant.Bu[t], plant.Bw[t], gamma, causality
        )
    return Kx, Kw, {}


def synth_hinf(
    plant,
    gamma: float,
    causality: str = CAUSAL,
    horizon: Optional[int] = None,
) -> Union[StateFeedbackController, Infeasible]:
    """Disturbance-attenuation controller at level gamma.

    Causal law u = -H^{-1}B_u'P(Ax + B_w w); strictly causal law
    u = -(I + B_u'MB_u)^{-1}B_u'MA x with
    M = P + PB_w(gamma^2 I - B_w'PB_w)^{-1}B_w'P (P_{t+1} in place of P in
    the finite horizon).  Feasibility is gated by the game's existence
    condition (per step in the finite horizon, on the fixed point in the
    infinite one), plus B_w'PB_w < gamma^2 I for the strictly causal law;
    infeasible gammas come back as :class:`Infeasible` values.
    """
    _check_causality(causality)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mode, plant = _normalize_horizon(plant, horizon)
    res = _attenuation(plant, gamma, causality)
    if isinstance(res, Infeasible):
        return res
    Kx, Kw, diagnostics = res
    return StateFeedbackController(
        kind="hinf",
        causality=causality,
        horizon=None if mode == "ih" else plant.T,
        gamma=gamma,
        Kx=Kx,
        Kw=Kw,
        diagnostics=diagnostics,
    )


def _synthetic_plant(plant) -> Union[SyntheticSystem, SyntheticSystemFH]:
    """The gamma-independent synthetic plant of a normalized plant.

    Infinite horizon: from the spectral factor, plus the outer factor of the
    w' filter when p < n (the exact plant).  Finite horizon: from the
    whitening schedule (the doubled plant).
    """
    if isinstance(plant, LtvPlant):
        return build_synthetic(plant, whitening_fh(plant))
    factor = spectral_factor_ih(plant)
    outer = outer_factor_ih(plant, factor) if plant.p < plant.n else None
    return build_synthetic(plant, factor, outer)


def synth_competitive(
    plant,
    gamma: float,
    causality: str = CAUSAL,
    horizon: Optional[int] = None,
    _synthetic=None,
) -> Union[CompetitiveController, Infeasible]:
    """Ratio-optimal controller at ratio bound gamma^2.

    Builds the synthetic plant and runs attenuation synthesis there; the
    returned controller steps the w' filter and the autonomous synthetic
    state online.  In the infinite horizon with fewer disturbance channels
    than states (p < n) the synthetic plant is the exact one built from the
    outer factor of the w' filter, so gamma^2 is feasible for the causal law
    exactly when it bounds the worst-case ratio; otherwise it is the doubled
    plant.  ``_synthetic`` lets a caller (the gamma search) pass the
    synthetic plant of the same normalized plant, which does not depend on
    gamma, instead of rebuilding it on every call.
    """
    _check_causality(causality)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mode, plant = _normalize_horizon(plant, horizon)
    syn = _synthetic if _synthetic is not None else _synthetic_plant(plant)
    res = _attenuation(
        syn.as_lti_plant() if mode == "ih" else syn.as_ltv_plant(), gamma, causality
    )
    if isinstance(res, Infeasible):
        return res
    Kxi, Kwp, diagnostics = res
    return CompetitiveController(
        kind="competitive",
        causality=causality,
        horizon=None if mode == "ih" else plant.T,
        gamma=gamma,
        synthetic=syn,
        Kxi=Kxi,
        Kwp=Kwp,
        diagnostics=diagnostics,
    )


class AffineSchedule(NamedTuple):
    """Read-only K (T, m, n) and M (T, m+n, n+p) of :func:`_affine_schedule`."""

    K: np.ndarray
    M: np.ndarray


def _affine_schedule(plant: LtvPlant) -> AffineSchedule:
    """The w-independent part of the clairvoyant policy u_t = -K_t x_t - h_t.

    One backward Riccati sweep.  The cost-to-go from step t is
    x'P_t x + 2 b_t'x + const.  With H = I + B_u'P_{t+1}B_u,
    K_t = H^{-1}B_u'P_{t+1}A and, for v_t = P_{t+1}B_w w_t + b_{t+1},
    h_t = H^{-1}B_u'v_t and b_t = (A - B_u K_t)'v_t.  So
    M_t = L_t [I, P_{t+1}B_w] with L_t = [H^{-1}B_u'; (A - B_u K_t)'] gives
    [h_t; b_t] = M_t [b_{t+1}; w_t] and depends on the plant alone; h
    depends on w linearly (:func:`_affine_pass`).
    """
    T, n, m, p = plant.T, plant.n, plant.m, plant.p
    P = np.zeros((n, n))
    K = np.empty((T, m, n))
    M = np.empty((T, m + n, n + p))
    for t in range(T - 1, -1, -1):
        A, Bu = plant.A[t], plant.Bu[t]
        BuP = Bu.T @ P
        G = np.linalg.solve(np.eye(m) + BuP @ Bu, np.hstack([BuP @ A, Bu.T]))
        K[t] = G[:, :n]
        Acl = A - Bu @ K[t]
        L = np.vstack([G[:, n:], Acl.T])
        M[t, :, :n] = L
        M[t, :, n:] = L @ (P @ plant.Bw[t])
        P = sym(plant.Q[t] + K[t].T @ K[t] + Acl.T @ P @ Acl)
    K.flags.writeable = False
    M.flags.writeable = False
    return AffineSchedule(K, M)


def _affine_pass(schedule: AffineSchedule, w: np.ndarray) -> np.ndarray:
    """The offsets h (shape (T, m)) of the schedule's policy for w (T, p).

    One linear backward pass [h_t; b_t] = M_t [b_{t+1}; w_t] from b_T = 0;
    the w_t terms of all steps are formed at once.
    """
    _, m, n = schedule.K.shape
    y = np.einsum("tij,tj->ti", schedule.M[:, :, n:], w)
    b = np.zeros(n)
    for Mb, yt in zip(schedule.M[::-1, :, :n], y[::-1]):
        yt += Mb @ b
        b = yt[m:]
    return y[:, :m]


def _cost_of_controls(plant: LtvPlant, u: np.ndarray, w: np.ndarray) -> float:
    """Cost sum_t x_t'Q_t x_t + u_t'u_t of open-loop controls u against w."""
    x = plant.x0.copy()
    total = 0.0
    for t in range(plant.T):
        total += float(x @ plant.Q[t] @ x + u[t] @ u[t])
        x = plant.A[t] @ x + plant.Bu[t] @ u[t] + plant.Bw[t] @ w[t]
    return total


def offline_optimal(
    plant: LtvPlant, w: np.ndarray, method: Optional[str] = None
) -> tuple[np.ndarray, float]:
    """Clairvoyant optimal controls and cost for a known disturbance.

    Returns (u_star of shape (T, m), OPT).  The dense route solves the
    stacked normal equations; for T*n > 2000 an equivalent affine backward
    Riccati sweep is used instead (the stacked Gram matrix is block-banded in
    causal order, which the sweep factorizes implicitly).  ``method`` forces
    "dense" or "riccati" explicitly (used by the cross-route tests).
    """
    if not isinstance(plant, LtvPlant):
        raise TypeError("offline_optimal expects a finite-horizon plant")
    if np.any(plant.x0 != 0.0):
        raise ValueError("offline optimal requires x0 = 0")
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape != (plant.T, plant.p):
        raise ValueError(f"disturbance must have shape (T, p) = {(plant.T, plant.p)}")
    if method is None:
        method = "dense" if plant.T * plant.n <= 2000 else "riccati"
    if method == "dense":
        ops = build_dense_operators(plant)
        gw = ops.G @ w.reshape(-1)
        u = np.linalg.solve(
            np.eye(ops.m * ops.T) + ops.F.T @ ops.F, -ops.F.T @ gw
        ).reshape(plant.T, plant.m)
        opt = float(gw @ np.linalg.solve(np.eye(ops.n * ops.T) + ops.F @ ops.F.T, gw))
    elif method == "riccati":
        schedule = _affine_schedule(plant)
        K, h = schedule.K, _affine_pass(schedule, w)
        x = plant.x0.copy()
        u = np.zeros((plant.T, plant.m))
        for t in range(plant.T):
            u[t] = -(K[t] @ x) - h[t]
            x = plant.A[t] @ x + plant.Bu[t] @ u[t] + plant.Bw[t] @ w[t]
        opt = _cost_of_controls(plant, u, w)
    else:
        raise ValueError("method must be None, 'dense', or 'riccati'")
    return u, opt


def control_step(controller, state: ControllerState, x_t, w_t):
    """Advance one step: returns (u_t, state).  Online controllers only."""
    if controller.causality == NONCAUSAL or controller.kind == "offline":
        raise TypeError("noncausal controllers have no online stepping")
    u = controller.step(state, x_t, w_t)
    return u, state


# ---------------------------------------------------------------------------
# serialization


def _arr(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def controller_to_json_dict(controller) -> dict:
    """Lossless JSON form (floats round-trip exactly through repr)."""
    out = {
        "schema_version": CONTROLLER_SCHEMA_VERSION,
        "kind": controller.kind,
        "causality": controller.causality,
        "horizon": controller.horizon,
        "gamma": controller.gamma,
        "gains": None,
        "synthetic": None,
    }
    if isinstance(controller, StateFeedbackController):
        out["gains"] = {"Kx": _arr(controller.Kx), "Kw": _arr(controller.Kw)}
    elif isinstance(controller, CompetitiveController):
        out["gains"] = {"Kxi": _arr(controller.Kxi), "Kwp": _arr(controller.Kwp)}
        syn = controller.synthetic
        out["synthetic"] = {
            "ltv": isinstance(syn, SyntheticSystemFH),
            "Ahat": _arr(syn.Ahat),
            "Buhat": _arr(syn.Buhat),
            "Bwhat": _arr(syn.Bwhat),
            "Qhat": _arr(syn.Qhat),
            "A_filter": _arr(syn.A_filter),
            "B_filter": _arr(syn.B_filter),
            "M_filter": _arr(syn.M_filter),
        }
        if isinstance(syn, SyntheticSystem) and syn.exact:
            out["synthetic"]["C_outer"] = _arr(syn.C_outer)
            out["synthetic"]["D_outer"] = _arr(syn.D_outer)
    elif isinstance(controller, ZeroController):
        out["gains"] = {"m": controller.m}
    elif isinstance(controller, OfflineController):
        pass
    else:
        raise TypeError(f"cannot serialize {type(controller).__name__}")
    return out


def controller_from_json_dict(obj: dict):
    """Inverse of :func:`controller_to_json_dict`."""
    version = obj.get("schema_version", CONTROLLER_SCHEMA_VERSION)
    if version != CONTROLLER_SCHEMA_VERSION:
        raise ValueError(f"unsupported controller schema_version {version}")
    kind = obj["kind"]
    if kind == "offline":
        return OfflineController()
    if kind == "zero":
        return ZeroController(m=int(obj["gains"]["m"]))
    gains = obj["gains"]
    if kind in ("h2", "hinf"):
        return StateFeedbackController(
            kind=kind,
            causality=obj["causality"],
            horizon=obj["horizon"],
            gamma=obj["gamma"],
            Kx=np.asarray(gains["Kx"], dtype=float),
            Kw=np.asarray(gains["Kw"], dtype=float),
        )
    if kind == "competitive":
        s = obj["synthetic"]
        fields = {
            key: np.asarray(s[key], dtype=float)
            for key in (
                "Ahat", "Buhat", "Bwhat", "Qhat", "A_filter", "B_filter",
                "M_filter", "C_outer", "D_outer",
            )
            if key in s
        }
        syn = (SyntheticSystemFH if s["ltv"] else SyntheticSystem)(**fields)
        return CompetitiveController(
            kind=kind,
            causality=obj["causality"],
            horizon=obj["horizon"],
            gamma=obj["gamma"],
            synthetic=syn,
            Kxi=np.asarray(gains["Kxi"], dtype=float),
            Kwp=np.asarray(gains["Kwp"], dtype=float),
        )
    raise ValueError(f"unknown controller kind '{kind}'")
