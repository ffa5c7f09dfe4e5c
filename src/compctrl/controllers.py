"""Synthesis and runtime stepping of all controller families.

Four families, each causal (may read the current disturbance) or strictly
causal (one-step-delayed) where that distinction makes sense:

* ``h2``: the steady-state LQR fixed point (:func:`synth_h2_ih`);
* ``hinf``: disturbance attenuation at a fixed level gamma, finite or
  infinite horizon (:func:`synth_hinf`);
* ``competitive``: ratio-optimal control, the ``hinf`` machinery run on the
  synthetic plant of :mod:`compctrl.factorization` (:func:`synth_competitive`);
* ``offline``: the clairvoyant minimizer itself, batch only
  (:func:`offline_optimal`).

Synthesis returns a controller or an :class:`Infeasible` verdict, never an
exception, for every gamma-dependent failure: a problem is posed once
(:func:`_pose`), and a verdict at a level (:func:`_attenuation`) maps to its
controller (:func:`_controller`).  Every online controller steps by its
:data:`Law`, bound to a record (``bind``) or to one w_t (``step``).
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .factorization import Realization, SyntheticSystem, build_synthetic
from .model import LtiPlant, LtvPlant, build_dense_operators, rowwise, step_costs
from .model import _disturbance_record, _json_field, _json_object, _lone_dot
from .riccati import (
    RiccatiFixedPoint,
    _check_gamma,
    _dare_fixed_points,
    _game_weight,
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
    """Mutable per-rollout state: the timestep, plus the internal state
    z = nu of a ratio-optimal controller, its w' filter's state (see
    :class:`Realization`)."""

    t: int = 0
    z: Optional[np.ndarray] = None


#: A controller's step law bound to a disturbance record (``bind(w, t0)``,
#: row 0 of w being step t0): ``law(t, x_t, z_t)`` returns (u_t, z_{t+1},
#: w'_t), z being the state of :class:`ControllerState` (None, and w'_t None,
#: for a law without a filter).  Binding takes each product with w (K_w w_t,
#: D_z w_t, B_filter w_t) for every row at once, by
#: :func:`~compctrl.model.rowwise`, so a step pays only those with x_t and
#: z_t.  A rollout binds once per record; :meth:`_Online.step`, per step.
Law = Callable[[int, np.ndarray, Optional[np.ndarray]], tuple]


def _check_causality(causality: str, prefix: str = "") -> str:
    if causality not in (CAUSAL, STRICT):
        raise ValueError(f"{prefix}causality must be '{CAUSAL}' or '{STRICT}'")
    return causality


def _disturbance(w_t, p: Optional[int]) -> np.ndarray:
    """The w_t of one online step as a 1-D float array; a missing w_t, or
    one whose length is not p (when p is known), raises ValueError."""
    if w_t is None:
        raise ValueError("step needs w_t")
    w_t = np.asarray(w_t, dtype=float).reshape(-1)
    if p is not None and w_t.size != p:
        raise ValueError(f"disturbance has dimension {w_t.size}, expected {p}")
    return w_t


class _Online:
    """What the online controllers share: :meth:`step`, over their ``bind``."""

    def make_state(self) -> ControllerState:
        return ControllerState()

    def wprime(self, state: ControllerState) -> Optional[np.ndarray]:
        """w'_t before the step from ``state``: None, a law without a filter."""
        return None

    def step(self, state: ControllerState, x_t, w_t) -> np.ndarray:
        """u_t at state x_t and disturbance w_t by the :data:`Law` bound to
        the one row w_t; advances ``state``.  A step past a finite horizon
        raises IndexError; a missing w_t, or one whose length is not the
        controller's p, raises ValueError; none changes ``state``."""
        t = state.t
        if self.horizon is not None and t >= self.horizon:
            raise IndexError(f"controller stepped past its horizon T={self.horizon}")
        w_t = _disturbance(w_t, self.dims.get("p"))
        x_t = np.asarray(x_t, dtype=float).reshape(-1)
        u, state.z, _ = self.bind(w_t[None], t)(t, x_t, state.z)
        state.t = t + 1
        return u


@dataclass(frozen=True)
class StateFeedbackController(_Online):
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

    @property
    def dims(self) -> dict:
        """The plant dimensions the controller is made for, by name."""
        (m, n), p = self.Kx.shape[-2:], self.Kw.shape[-1]
        return {"n": n, "m": m, "p": p}

    def bind(self, w: np.ndarray, t0: int = 0) -> Law:
        """The :data:`Law` u_t = -Kx x_t - Kw w_t on the record w (row 0 is
        step t0).

        Negated offsets: -Kw w_t is taken for every row at binding, so a
        step is (-Kw w_t) - Kx x_t, the bits of -(Kx x_t) - Kw w_t, as IEEE
        negation is exact and addition commutes.  Negating Kx instead would
        flip the sign of a zero u_t (-(Kx 0) is -0.0, (-Kx) 0 is +0.0).
        """
        dot = _lone_dot(self.Kx.shape[-1])
        if self.horizon is None:
            Kx, nkw = self.Kx, -rowwise(self.Kw, w)

            def law(t, x, z):
                return nkw[t - t0] - dot(Kx, x), z, None

        else:
            Kxs, nkw = self.Kx, -rowwise(self.Kw[t0 : t0 + len(w)], w)

            def law(t, x, z):
                return nkw[t - t0] - dot(Kxs[t], x), z, None

        return law

    step = _Online.step  # in the class namespace, where bench/tracing.py wraps it


@dataclass(frozen=True)
class CompetitiveController(_Online):
    """Ratio-optimal controller: attenuation law on the synthetic plant.

    ``synthetic``, ``Kxi`` and ``Kwp`` are the law as synthesized (and
    serialized): u_t = -(Kxi xi_hat_t + Kwp w_hat_t) on the plant
    ``synthetic.as_plant()``.  Stepping reads :attr:`realization`, the same
    law on the measured state x and the filter state z = nu
    (:meth:`SyntheticSystem.fold`).  The strictly causal variant has
    Kwp = 0; at the final step of a finite horizon u_{T-1} = 0 and nothing
    advances.
    """

    kind: str  # "competitive"
    causality: str
    horizon: Optional[int]
    gamma: Optional[float]
    synthetic: SyntheticSystem
    Kxi: np.ndarray  # (m, 2n) or (T, m, 2n)
    Kwp: np.ndarray  # (m, width of w_hat) or (T, m, n)
    diagnostics: dict = field(default_factory=dict, compare=False)

    @functools.cached_property
    def realization(self) -> Realization:
        return self.synthetic.fold(self.Kxi, self.Kwp)

    @property
    def dims(self) -> dict:
        syn = self.synthetic
        return {"n": syn.n, "m": syn.m, "p": syn.B_filter.shape[-1]}

    def make_state(self) -> ControllerState:
        return ControllerState(t=0, z=np.zeros(self.synthetic.n))

    def wprime(self, state: ControllerState) -> np.ndarray:
        """w'_t = M_filter nu_t, the filtered disturbance before w_t."""
        M = self.realization.M_filter[0 if self.horizon is None else state.t]
        return M.dot(state.z)

    def bind(self, w: np.ndarray, t0: int = 0) -> Law:
        """The :attr:`realization` as a :data:`Law` on the record w (row 0
        is step t0); the law also returns w'_t."""
        r, dot = self.realization, _lone_dot(self.synthetic.n)
        if self.horizon is None:
            Cx, Cn, Af, Mf = r.Cx[0], r.Cn[0], r.A_filter[0], r.M_filter[0]
            dz, bf = (rowwise(a[0], w) for a in (r.Dz, r.B_filter))

            def law(t, x, nu):
                k = t - t0
                return dot(Cx, x) + dot(Cn, nu) + dz[k], dot(Af, nu) + bf[k], dot(Mf, nu)

        else:
            last, m = self.horizon - 1, self.synthetic.m
            stop = min(t0 + len(w), last)  # no law, so no w-terms, at step T-1
            dz, bf = (rowwise(a[t0:stop], w[: stop - t0]) for a in (r.Dz, r.B_filter))
            Cx, Cn, Af, Mf = r.Cx, r.Cn, r.A_filter, r.M_filter

            def law(t, x, nu):
                wp = dot(Mf[t], nu)
                if t == last:  # u_{T-1} = 0 and nothing advances
                    return np.zeros(m), nu, wp
                k = t - t0
                return dot(Cx[t], x) + dot(Cn[t], nu) + dz[k], dot(Af[t], nu) + bf[k], wp

        return law

    step = _Online.step  # in the class namespace, where bench/tracing.py wraps it


@dataclass(frozen=True)
class OfflineController:
    """Clairvoyant minimizer; batch only (rollouts bind :func:`_clairvoyant_law`)."""

    kind: str = "offline"
    causality: str = NONCAUSAL
    horizon: Optional[int] = None
    gamma: Optional[float] = None

    @property
    def dims(self) -> dict:
        return {}  # the clairvoyant law reads the plant it runs on

    def make_state(self) -> ControllerState:
        return ControllerState()


@dataclass(frozen=True)
class ZeroController(_Online):
    """u = 0 baseline; it reads no disturbance, so it takes one of any length."""

    m: int
    kind: str = "zero"
    causality: str = CAUSAL
    horizon: Optional[int] = None
    gamma: Optional[float] = None

    @property
    def dims(self) -> dict:
        return {"m": self.m}

    def bind(self, w: np.ndarray, t0: int = 0) -> Law:
        return lambda t, x, z: (np.zeros(self.m), z, None)


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

    The matrices may be stacks over time (T, ., .), P holding P_{t+1} of
    step t (stacks: :mod:`compctrl.model`).
    """
    m, p = Bu.shape[-1], Bw.shape[-1]
    BuT = Bu.swapaxes(-1, -2)
    if causality == STRICT and gamma is not None:
        PBw = P @ Bw
        W = gamma * gamma * np.eye(p) - Bw.swapaxes(-1, -2) @ PBw
        P = sym(P + PBw @ solve_sym(W, PBw.swapaxes(-1, -2)))
    H = np.eye(m) + BuT @ P @ Bu
    Kx = solve_sym(H, BuT @ P @ A)
    if causality == STRICT:
        return Kx, np.zeros(Kx.shape[:-1] + (p,))
    return Kx, solve_sym(H, BuT @ P @ Bw)


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
    Kx, Kw = _attenuation_gains(res)
    return StateFeedbackController(
        kind="h2",
        causality=causality,
        horizon=None,
        gamma=None,
        Kx=Kx,
        Kw=Kw,
        diagnostics={k: res.diagnostics[k] for k in ("residual", "iterations", "P")},
    )


def _check_level(gamma) -> None:
    """Reject a gamma that is not one finite positive level."""
    if np.ndim(gamma):
        raise ValueError("gamma must be a single level")
    _check_gamma(gamma)


def _normalize_horizon(plant, horizon) -> Union[LtiPlant, LtvPlant]:
    """Resolve (plant, horizon) into an LtvPlant (finite) or an LtiPlant."""
    if isinstance(plant, LtvPlant):
        if horizon is not None and horizon != plant.T:
            raise ValueError("horizon argument conflicts with the plant's horizon")
        return plant
    if not isinstance(plant, LtiPlant):
        raise TypeError("plant must be LtiPlant or LtvPlant")
    return plant if horizon is None else plant.to_ltv(int(horizon))


class AttenuationSolve(NamedTuple):
    """A feasible verdict of :func:`_attenuation`: the game Riccati solve at
    level gamma, from which :func:`_attenuation_gains` builds the gains.

    ``P`` is the fixed point (n, n) of a time-invariant plant or the backward
    schedule (T+1, n, n) of a time-varying one.  ``diagnostics`` holds the
    fixed point's residual, doublings, closed-loop radius and P (empty in
    the finite horizon).
    """

    plant: Union[LtiPlant, LtvPlant]
    gamma: Optional[float]
    causality: str
    P: np.ndarray
    diagnostics: dict


def _attenuation(plant, gamma, causality: str, defer: bool = False):
    """The verdict at level gamma: an :class:`AttenuationSolve` or Infeasible.

    The one existence test of every state-feedback family: the fixed-point
    conditions of the game Riccati equation with R~ = diag(I, -gamma^2 I)
    on an :class:`LtiPlant` (gamma = None: its LQR limit, R~ = I on u
    alone), the per-step conditions of the backward recursion on an
    :class:`LtvPlant`.  No gain is computed here.  ``gamma`` may also be a
    sequence of levels, each verdict equal to the one at its level alone:
    one level keeps its lone solve, and more run as a stack of lanes of one
    solve (:func:`~compctrl.riccati.hinf_backward` on an LtvPlant, the
    fixed points' doubling on an LtiPlant).  A level that is not finite and
    positive raises ValueError.  With ``defer`` a failed doubling's reason
    is left as its bisection (:func:`~compctrl.riccati._dare_fixed_points`).
    """
    if np.ndim(gamma) and len(gamma) < 2:  # a lone level keeps its lone solve
        return [_attenuation(plant, level, causality, defer) for level in gamma]
    if isinstance(plant, LtvPlant):
        sched = hinf_backward(plant, gamma)
        if np.ndim(gamma):
            return [_schedule_verdict(plant, s, causality) for s in sched]
        return _schedule_verdict(plant, sched, causality)
    if gamma is None:
        Btil, Rtil = plant.Bu, np.eye(plant.m)
    else:
        Btil = np.hstack([plant.Bu, plant.Bw])
        Rtil = _game_weight(plant.m, plant.p, _check_gamma(gamma))
    if np.ndim(gamma):
        fps = _dare_fixed_points(plant.A, Btil, Rtil, plant.Q, defer)
        return [_fixed_point_verdict(plant, *x, causality) for x in zip(fps, gamma)]
    # a lone level calls dare_fixed_point by name, where bench/tracing.py wraps
    # it, unless its reason is deferred
    solve = functools.partial(_dare_fixed_points, defer=True) if defer else dare_fixed_point
    fp = solve(plant.A, Btil, Rtil, plant.Q)
    return _fixed_point_verdict(plant, fp, gamma, causality)


def _fixed_point_verdict(plant: LtiPlant, fp: RiccatiFixedPoint, gamma, causality: str):
    """The verdict of :func:`_attenuation` on a fixed point: its acceptance
    checks (:class:`~compctrl.riccati.RiccatiFixedPoint`), plus
    B_w'PB_w < gamma^2 I for a strictly causal law at a level gamma (not
    None, the LQR limit)."""
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
        if not _strictly_causal_ok(fp.P, plant.Bw, gamma):
            details["strict_w_channel_ok"] = False
            return Infeasible("condition-violated", gamma, details)
    diagnostics = {
        "residual": fp.residual,
        "iterations": fp.iterations,
        "closed_loop_radius": fp.closed_loop_radius,
        "P": fp.P,
    }
    return AttenuationSolve(plant, gamma, causality, fp.P, diagnostics)


def _schedule_verdict(plant: LtvPlant, sched, causality: str):
    """The verdict of :func:`_attenuation` on a backward schedule, which
    reads the verdict of ``causality`` alone."""
    gate = sched.causal if causality == CAUSAL else sched.strictly_causal_w
    if not gate.ok:
        return Infeasible(
            gate.reason or "condition-violated",
            sched.gamma,
            # a failed causal verdict fails the strictly causal one too
            {"first_violation": gate.first_violation, "strictly_causal_w_ok": False},
        )
    return AttenuationSolve(plant, sched.gamma, causality, sched.P, {})


def _attenuation_gains(solve: AttenuationSolve) -> tuple[np.ndarray, np.ndarray]:
    """The gains (Kx, Kw) of :func:`_saddle_gains` on a solve, in one call
    on the (T, ., .) stacks in the finite horizon (step t reads P_{t+1})."""
    plant = solve.plant
    P = solve.P if isinstance(plant, LtiPlant) else solve.P[1:]
    return _saddle_gains(P, plant.A, plant.Bu, plant.Bw, solve.gamma, solve.causality)


def _controller(solve: AttenuationSolve, synthetic: Optional[SyntheticSystem] = None):
    """The controller of a feasible verdict: the attenuation law on the
    verdict's plant, or the ratio-optimal one when that plant is
    ``synthetic.as_plant()``."""
    K, Kw = _attenuation_gains(solve)
    horizon = solve.plant.T if isinstance(solve.plant, LtvPlant) else None
    law = dict(causality=solve.causality, horizon=horizon, gamma=solve.gamma,
               diagnostics=solve.diagnostics)
    if synthetic is None:
        return StateFeedbackController(kind="hinf", Kx=K, Kw=Kw, **law)
    return CompetitiveController(kind="competitive", synthetic=synthetic, Kxi=K, Kwp=Kw, **law)


def _pose(plant, kind: str, causality: str, horizon: Optional[int], levels=()) -> tuple:
    """The attenuation problem of ``kind`` ("hinf" or "competitive"): the
    plant :func:`_attenuation` poses its verdicts on, and the map from a
    feasible verdict to its controller.  Checks the causality, then each of
    ``levels`` as a single level, then (plant, horizon).  The synthetic
    plant comes from :data:`synthetic_cache`."""
    _check_causality(causality)
    for gamma in levels:
        _check_level(gamma)
    if kind == "hinf":
        return _normalize_horizon(plant, horizon), _controller
    if not isinstance(plant, LtiPlant):  # checks an LtvPlant's horizon, refuses other types
        _normalize_horizon(plant, horizon)
    syn = synthetic_cache.get(plant, None if horizon is None else int(horizon))
    return syn.as_plant(), functools.partial(_controller, synthetic=syn)


def synth_hinf(
    plant,
    gamma: float,
    causality: str = CAUSAL,
    horizon: Optional[int] = None,
) -> Union[StateFeedbackController, Infeasible]:
    """Disturbance-attenuation controller at level gamma.

    The gains are those of :func:`_saddle_gains`; feasibility is the game's
    existence test (:mod:`compctrl.riccati`), plus B_w'PB_w < gamma^2 I for
    the strictly causal law.  Infeasible gammas come back as
    :class:`Infeasible` values.
    """
    posed, build = _pose(plant, "hinf", causality, horizon, (gamma,))
    res = _attenuation(posed, gamma, causality)
    return res if isinstance(res, Infeasible) else build(res)


def synth_competitive(
    plant,
    gamma: float,
    causality: str = CAUSAL,
    horizon: Optional[int] = None,
) -> Union[CompetitiveController, Infeasible]:
    """Ratio-optimal controller at ratio bound gamma^2: attenuation
    synthesis on the synthetic plant (:mod:`compctrl.factorization`), whose
    controller reads the measured state and steps the w' filter online.
    """
    posed, build = _pose(plant, "competitive", causality, horizon, (gamma,))
    res = _attenuation(posed, gamma, causality)
    return res if isinstance(res, Infeasible) else build(res)


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
    eye, dot = np.eye(m), _lone_dot(n)
    for t in range(T - 1, -1, -1):
        A, Bu = plant.A[t], plant.Bu[t]
        BuP = dot(Bu.T, P)
        G = np.linalg.solve(eye + dot(BuP, Bu), np.hstack([dot(BuP, A), Bu.T]))
        K[t] = G[:, :n]
        Acl = A - dot(Bu, K[t])
        L = np.vstack([G[:, n:], Acl.T])  # contiguous: a view into M moves bits
        M[t, :, :n] = L
        M[t, :, n:] = dot(L, dot(P, plant.Bw[t]))
        P = sym(plant.Q[t] + dot(K[t].T, K[t]) + dot(dot(Acl.T, P), Acl))
    K.flags.writeable = False
    M.flags.writeable = False
    return AffineSchedule(K, M)


#: Steps per block of a stacked :func:`_affine_pass`: a block's stacks of
#: its lanes' M_t, not the whole horizon's, are held at once.
PASS_BLOCK = 64


def _affine_pass(schedules, w: np.ndarray) -> list:
    """The offsets h (shape (T, m)) of each schedule's policy for w (T, p).

    One linear backward pass [h_t; b_t] = M_t [b_{t+1}; w_t] from b_T = 0;
    the w_t terms of all steps are formed at once.  ``schedules`` is a
    sequence of :class:`AffineSchedule` over one horizon; one h is returned
    per schedule, in order.  Several run as lanes of one stacked recursion,
    ``PASS_BLOCK`` steps at a time (:func:`_pass_block`), each h equal to
    its schedule's own pass; one schedule runs the plain loop, faster alone.
    """
    _, m, n = schedules[0].K.shape
    if len(schedules) == 1:
        y = np.einsum("tij,tj->ti", schedules[0].M[:, :, n:], w)
        b = np.zeros(n)
        for Mb, yt in zip(schedules[0].M[::-1, :, :n], y[::-1]):
            yt += Mb.dot(b)
            b = yt[m:]
        return [y[:, :m]]
    h = np.empty((len(schedules), len(w), m))
    b = np.zeros((len(schedules), n, 1))
    for stop in range(len(w), 0, -PASS_BLOCK):
        b = _pass_block(schedules, w, slice(max(stop - PASS_BLOCK, 0), stop), b, h)
    return list(h)


def _pass_block(schedules, w, block: slice, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The steps ``block`` of the stacked :func:`_affine_pass`, their M_t and
    w_t terms stacked over the lanes: writes h of those steps and returns
    b at the block's first step (a copy, so the stacks go with the call)."""
    m, n = h.shape[2], b.shape[1]
    M = np.stack([s.M[block] for s in schedules], axis=1)
    y = np.einsum("tkij,tj->tki", M[..., n:], w[block])[..., None]
    for Mb, yt in zip(M[::-1, ..., :n], y[::-1]):
        yt += Mb @ b
        b = yt[:, m:]
    h[:, block] = y[..., :m, 0].swapaxes(0, 1)
    return b.copy()


#: Bytes each :class:`PlantCache` may hold: values plus their keys; about
#: 88 KB is one pendulum bin's schedule at T = 1001, 0.4 MB the Boeing
#: synthetic plant at T = 200, and 33 KB one 64-point block of its Gram.
SCHEDULE_CACHE_BYTES = 8 << 20


class PlantCache:
    """Least-recently-used cache of a plant-only ``solve``, bounded by bytes.

    ``solve(plant, key)`` maps a plant and a hashable ``key`` (a horizon,
    None for the infinite one, or a block of a frequency grid) to a tuple
    or dataclass of arrays that depends on (A, B_u, B_w, Q) and ``key``
    alone and holds none of the plant's arrays.  :meth:`get` keys an
    :class:`LtiPlant` exactly, by ``key`` and the shapes and raw bytes of
    its matrices: no digest, so a one-ulp change or a -0.0 for a +0.0 is
    another key.  A miss makes the value's arrays read-only, so callers
    share them; what ``solve`` raises is never stored.  Every
    :class:`LtvPlant` is solved afresh, even one whose steps are all equal.
    When the held bytes would exceed ``max_bytes``, the least recently used
    entries go; an entry larger than the bound is not kept.  ``hits`` and
    ``misses`` count the calls of :meth:`get` answered and solved.
    """

    def __init__(self, solve: Callable, max_bytes: int = SCHEDULE_CACHE_BYTES):
        self.solve = solve
        self.max_bytes = max_bytes
        self.held_bytes = 0
        self.hits = self.misses = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> list:
        return [value for value, _ in self._entries.values()]

    def clear(self) -> None:
        self._entries.clear()
        self.held_bytes = 0

    @staticmethod
    def _key(plant: LtiPlant, key) -> tuple:
        step = (plant.A, plant.Bu, plant.Bw, plant.Q)
        return (key, *(a.shape for a in step), *(a.tobytes() for a in step))

    def holds(self, plant: LtiPlant, key) -> bool:
        """Whether :meth:`get` would hit; never solves."""
        return self._key(plant, key) in self._entries

    def get(self, plant, key):
        if isinstance(plant, LtvPlant):
            self.misses += 1
            return self.solve(plant, key)
        entry = self._key(plant, key)
        hit = self._entries.get(entry)
        if hit is not None:
            self.hits += 1
            self._entries.move_to_end(entry)
            return hit[0]
        self.misses += 1
        value = self.solve(plant, key)
        fields = value if isinstance(value, tuple) else vars(value).values()
        arrays = [a for a in fields if isinstance(a, np.ndarray)]
        for a in arrays:
            a.flags.writeable = False
        # the value and the key's raw bytes of (A, B_u, B_w, Q)
        size = sum(a.nbytes for a in arrays) + sum(map(len, entry[-4:]))
        if size <= self.max_bytes:
            self._entries[entry] = (value, size)
            self.held_bytes += size
            while self.held_bytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.held_bytes -= dropped
        return value


#: The process's cache of clairvoyant schedules, read by :func:`_clairvoyant_law`.
schedule_cache = PlantCache(lambda plant, T: _affine_schedule(_normalize_horizon(plant, T)))
#: The process's cache of synthetic plants, read by :func:`_pose`.
synthetic_cache = PlantCache(lambda plant, T: build_synthetic(_normalize_horizon(plant, T)))


def _clairvoyant_law(plants, w: np.ndarray, t0: int = 0) -> list:
    """The clairvoyant policy of each plant (:func:`_policy`) on the record
    w (row 0 is step t0) over the horizon t0 + len(w): K from
    :data:`schedule_cache`, h from one :func:`_affine_pass` over w with one
    lane per schedule, so equal plants share a law.  Each x0 must be 0."""
    if any(np.any(p.x0 != 0.0) for p in plants):
        raise ValueError("offline optimal requires x0 = 0")
    held = [schedule_cache.get(p, t0 + len(w)) for p in plants]
    lanes = {id(s): AffineSchedule(*(a[t0:] for a in s)) for s in held}
    offsets = _affine_pass(list(lanes.values()), w)
    policies = {key: _policy(s.K, h, t0) for (key, s), h in zip(lanes.items(), offsets)}
    return [policies[id(s)] for s in held]


def _policy(K: np.ndarray, h: np.ndarray, t0: int) -> Law:
    """The :data:`Law` u_t = -K_t x_t - h_t, row 0 of K and h being step
    t0, its offsets negated (:meth:`StateFeedbackController.bind`)."""
    nh, dot = -h, _lone_dot(K.shape[-1])

    def law(t, x, z):
        k = t - t0
        return nh[k] - dot(K[k], x), z, None

    return law


def _forward(plant, w: np.ndarray, law: Law) -> tuple[np.ndarray, float]:
    """(u, cost sum_t x_t'Q_t x_t + u_t'u_t) of the memoryless ``law`` against
    ``plant`` over w, the cost taken after the loop."""
    advance = plant.advance(w)
    x, u = np.empty((len(w), plant.n)), np.empty((len(w), plant.m))
    x_t = plant.x0
    for t in range(len(w)):
        x[t] = x_t
        u[t] = u_t = law(t, x_t, None)[0]
        x_t = advance(t, x_t, u_t)
    return u, step_costs(x, u, plant.Q)[2]


def _cost_of_controls(plant, u: np.ndarray, w: np.ndarray) -> float:
    """Cost sum_t x_t'Q_t x_t + u_t'u_t of open-loop controls u against w."""
    return _forward(plant, w, lambda t, x, z: (u[t], z, None))[1]


def offline_optimal(
    plant, w: np.ndarray, method: Optional[str] = None
) -> tuple[np.ndarray, float]:
    """Clairvoyant optimal controls and cost (u_star (T, m), OPT) for a
    known disturbance, on an :class:`LtiPlant` over T = len(w) or an
    :class:`LtvPlant` of horizon T.

    By default the forward pass of :func:`_clairvoyant_law` (an affine
    backward Riccati sweep, O(T n^3)) against ``plant.advance``.
    ``method="dense"`` solves the stacked normal equations
    u* = -(I + F'F)^{-1} F'G w, OPT = w'G'(I + FF')^{-1}G w, O((T n)^3), as
    the independent oracle of ``compctrl verify`` and the cross-route tests.
    """
    w = _disturbance_record(plant, w)
    if method == "dense":
        ops = build_dense_operators(_normalize_horizon(plant, len(w)))
        gw = ops.G @ w.reshape(-1)
        u = np.linalg.solve(
            np.eye(ops.m * ops.T) + ops.F.T @ ops.F, -ops.F.T @ gw
        ).reshape(ops.T, ops.m)
        opt = float(gw @ np.linalg.solve(np.eye(ops.n * ops.T) + ops.F @ ops.F.T, gw))
    elif method in (None, "riccati"):
        u, opt = _forward(plant, w, _clairvoyant_law([plant], w)[0])
    else:
        raise ValueError("method must be None, 'dense', or 'riccati'")
    return u, opt


def _online(controller):
    if controller.causality == NONCAUSAL or controller.kind == "offline":
        raise TypeError("noncausal controllers have no online stepping")
    return controller


def control_step(controller, state: ControllerState, x_t, w_t):
    """Advance one step: returns (u_t, state).  Online controllers only."""
    u = _online(controller).step(state, x_t, w_t)
    return u, state


# ---------------------------------------------------------------------------
# serialization


#: the arrays of a :class:`SyntheticSystem` in its JSON form, in field order
_SYNTHETIC_KEYS = tuple(f.name for f in dataclasses.fields(SyntheticSystem))


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
        arrays = {key: getattr(syn, key) for key in _SYNTHETIC_KEYS}
        out["synthetic"] = {"ltv": syn.horizon is not None,
                            **{key: _arr(a) for key, a in arrays.items() if a is not None}}
    elif isinstance(controller, ZeroController):
        out["gains"] = {"m": controller.m}
    elif isinstance(controller, OfflineController):
        pass
    else:
        raise TypeError(f"cannot serialize {type(controller).__name__}")
    return out


def _check_horizon(horizon, arrays: dict) -> None:
    """Reject a file whose arrays do not fit its ``horizon``: one matrix
    each in the infinite horizon, a (horizon, ., .) stack otherwise."""
    lead = () if horizon is None else (horizon,)
    for key, a in arrays.items():
        if a.ndim != len(lead) + 2 or a.shape[:-2] != lead:
            raise ValueError(
                f"controller file: {key} has shape {a.shape}, which does not fit "
                f"horizon {horizon}"
            )


def _check_dims(arrays: dict, shapes: dict, dims: tuple) -> None:
    """Reject a file whose matrices disagree with the dimensions
    ``dims`` = (n, m, p) read from it: ``shapes`` maps a key to the (rows,
    columns) of its matrix, or of each step's."""
    for key, shape in shapes.items():
        a = arrays[key]
        if a.shape[-2:] != shape:
            raise ValueError(f"controller file: {key} has shape {a.shape}, but "
                             f"(n, m, p) = {dims} needs {a.shape[:-2] + shape}")


def controller_from_json_dict(obj: dict):
    """Inverse of :func:`controller_to_json_dict`.

    A file that is not a JSON object, lacks a required field, or whose
    ``causality``, ``horizon``, ``synthetic.ltv`` flag, array ranks or
    lengths, or matrix dimensions (n, m, p) disagree raises ValueError
    naming the field.
    """
    _json_object(obj, "controller", CONTROLLER_SCHEMA_VERSION)
    kind = _json_field(obj, "kind", "controller")
    if kind == "offline":
        return OfflineController()
    if kind not in ("zero", "h2", "hinf", "competitive"):
        raise ValueError(f"unknown controller kind '{kind}'")
    gains = _json_object(_json_field(obj, "gains", "controller"), "controller gains")

    def gain(key):
        return _json_field(gains, key, "controller gains")

    if kind == "zero":
        return ZeroController(m=_json_field(gains, "m", "controller gains", convert=int))
    horizon = _json_field(obj, "horizon", "controller", nullable=True)
    causality = _check_causality(_json_field(obj, "causality", "controller"), "controller file: ")
    law = dict(kind=kind, causality=causality, horizon=horizon,
               gamma=_json_field(obj, "gamma", "controller", nullable=True))
    if kind != "competitive":
        Kx, Kw = (np.asarray(gain(key), dtype=float) for key in ("Kx", "Kw"))
        _check_horizon(horizon, {"Kx": Kx, "Kw": Kw})
        (m, n), p = Kx.shape[-2:], Kw.shape[-1]
        _check_dims({"Kw": Kw}, {"Kw": (m, p)}, (n, m, p))
        return StateFeedbackController(**law, Kx=Kx, Kw=Kw)
    s = _json_object(_json_field(obj, "synthetic", "controller"), "controller synthetic")
    if _json_field(s, "ltv", "controller synthetic") != (horizon is not None):
        raise ValueError(
            f"controller file: synthetic.ltv is {s['ltv']} but horizon is {horizon}"
        )
    fields = {key: np.asarray(_json_field(s, key, "controller synthetic"), dtype=float)
              for key in _SYNTHETIC_KEYS if key in s or key not in ("C_outer", "D_outer")}
    Kxi, Kwp = (np.asarray(gain(key), dtype=float) for key in ("Kxi", "Kwp"))
    arrays = {**fields, "Kxi": Kxi, "Kwp": Kwp}
    _check_horizon(horizon, arrays)
    n, m, p = (fields[key].shape[-1] for key in ("A_filter", "Buhat", "B_filter"))
    exact = "C_outer" in fields
    w_hat = p if exact else n  # width of the synthetic plant's disturbance
    shapes = {"Ahat": (2 * n, 2 * n), "Buhat": (2 * n, m), "Bwhat": (2 * n, w_hat),
              "Qhat": (2 * n, 2 * n), "A_filter": (n, n), "B_filter": (n, p),
              "M_filter": (n, n), "Kxi": (m, 2 * n), "Kwp": (m, w_hat)}
    if exact:
        shapes.update(C_outer=(p, n), D_outer=(p, p))
    _check_dims(arrays, shapes, (n, m, p))
    return CompetitiveController(**law, synthetic=SyntheticSystem(**fields), Kxi=Kxi, Kwp=Kwp)
