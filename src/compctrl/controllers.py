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
  synthesized by running the ``hinf`` machinery on the one
  :class:`~compctrl.factorization.SyntheticSystem` of either horizon: the
  doubled plant driven by the filtered disturbance w' (p >= n, and every
  finite horizon), or, in the infinite horizon with p < n, the exact plant
  driven by w'' = L w.  The law is folded once into a :class:`Realization`
  over z = [xi; nu] (plant copy, w' filter state), the one state-space
  description that stepping, :func:`compctrl.freq.closed_loop` and the
  pendulum schedule of :mod:`compctrl.mpc` read.
* ``offline``: the clairvoyant minimizer itself (batch only): an affine
  backward Riccati sweep at every horizon, checked by ``compctrl verify``
  against a dense solve of the same stacked normal equations
    u* = -(I + F'F)^{-1} F' G w,    OPT = w'G'(I + FF')^{-1} G w.
  Its policy u_t = -K_t x_t - h_t is one :data:`Law`
  (:func:`_clairvoyant_law`), its schedule held in :data:`schedule_cache`.

Every online controller binds its step to a disturbance record once
(:meth:`bind`), into a :data:`Law`.

Synthesis returns either a controller or an :class:`Infeasible` verdict (a
plain value with a reason code), never an exception, for every
gamma-dependent failure.  It is a verdict step (:func:`_attenuation`, the
existence test, which keeps the Riccati solve it passed) followed by a gain
step (:func:`_attenuation_gains`); the gamma search probes with the verdict
step alone and runs the gain step once, at the level it certifies.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .factorization import (
    SyntheticSystem,
    build_synthetic,
    outer_factor_ih,
    spectral_factor_ih,
    whitening_fh,
)
from .model import LtiPlant, LtvPlant, build_dense_operators, rowwise, step_costs
from .model import _disturbance_record
from .riccati import (
    RiccatiFixedPoint,
    _check_gamma,
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
    "Realization",
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
    z = [xi; nu] of a ratio-optimal controller (see :class:`Realization`)."""

    t: int = 0
    z: Optional[np.ndarray] = None


#: A controller's step law bound to a disturbance record (``bind(w, t0)``
#: of every online controller, row 0 of w being step t0): ``law(t, x_t, z_t)``
#: returns (u_t, z_{t+1}, w'_t) for a step t of the record, z being the
#: internal state of :class:`ControllerState` (None, and w'_t None, for a
#: memoryless law).  Binding looks the gains or realization slices up and
#: takes each product with w (K_w w_t, D_z w_t, B_z w_t, B_filter w_t) for
#: every row at once, as :func:`~compctrl.model.rowwise`, whose rows are the
#: bits of the per-step products; a step then pays only the products with
#: x_t and z_t.  It computes what ``step`` computes, without its checks; the
#: rollouts of :mod:`compctrl.sim` and :mod:`compctrl.mpc` bind it once per
#: record (per bin and record in the pendulum schedule) and call it per step.
Law = Callable[[int, np.ndarray, Optional[np.ndarray]], tuple]


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

    @property
    def dims(self) -> dict:
        """The plant dimensions the controller is made for, by name."""
        (m, n), p = self.Kx.shape[-2:], self.Kw.shape[-1]
        return {"n": n, "m": m, "p": p}

    def make_state(self) -> ControllerState:
        return ControllerState()

    def bind(self, w: np.ndarray, t0: int = 0) -> Law:
        """The :data:`Law` on the record w (row 0 is step t0):
        u_t = -Kx x_t - Kw w_t, no filter."""
        if self.horizon is None:
            Kx, kw = self.Kx, rowwise(self.Kw, w)

            def law(t, x, z):
                return -(Kx @ x) - kw[t - t0], z, None

        else:
            Kxs, kw = self.Kx, rowwise(self.Kw[t0 : t0 + len(w)], w)

            def law(t, x, z):
                return -(Kxs[t] @ x) - kw[t - t0], z, None

        return law

    def step(self, state: ControllerState, x_t, w_t) -> np.ndarray:
        t = state.t
        if self.horizon is not None and t >= self.horizon:
            raise IndexError(f"controller stepped past its horizon T={self.horizon}")
        x_t = np.asarray(x_t, dtype=float).reshape(-1)
        w_t = np.asarray(w_t, dtype=float).reshape(1, -1)
        u, _, _ = self.bind(w_t, t)(t, x_t, None)
        state.t = t + 1
        return u


class Realization(NamedTuple):
    """The ratio-optimal controller as one state-space system.

    Its state is z = [xi; nu]: xi the plant copy (on the doubled plant the
    upper half of the synthetic state, whose lower half is w' = M_filter nu)
    and nu the state of the w' filter, both in R^n.  Per step,

        u_t      = Cz z_t + Dz w_t,
        xi_{t+1} = Az z_t + Bz w_t,
        nu_{t+1} = A_filter nu_t + B_filter w_t,    w'_t = M_filter nu_t.

    The filter keeps its own matrices, so the w' it emits is exactly that
    of :func:`~compctrl.factorization.wprime_run`.  Every field is a stack
    over steps, for the synthetic plant of either horizon: one entry in the
    infinite horizon; over a finite horizon T, T-1 entries for the law
    (u_{T-1} = 0) and the T of the filter.
    """

    Cz: np.ndarray  # (S, m, 2n)
    Dz: np.ndarray  # (S, m, p)
    Az: np.ndarray  # (S, n, 2n)
    Bz: np.ndarray  # (S, n, p)
    A_filter: np.ndarray  # (S', n, n)
    B_filter: np.ndarray  # (S', n, p)
    M_filter: np.ndarray  # (S', n, n)


def _realization(syn: SyntheticSystem, Kxi: np.ndarray, Kwp: np.ndarray) -> Realization:
    """Fold the synthetic system and the law u = -(Kxi xi_hat + Kwp w_hat) on
    it into the :class:`Realization` over z = [xi; nu].

    Written as u = -(Ga xi + Gn nu + Gw w) with the plant copy
    xi_{t+1} = A xi + B_u u + E nu + Ew w, the law has Cz = -[Ga, Gn],
    Dz = -Gw, Az = [A - B_u Ga, E - B_u Gn] and Bz = Ew - B_u Gw.
    Doubled plant: the synthetic state is xi_hat = [xi; M nu] and the law
    reads w'_{t+1} = M_{t+1}(A_filter nu + B_filter w), so
    Gn = Kb M_t + Kwp M_{t+1} A_filter, Gw = Kwp M_{t+1} B_filter and
    E = K Sigma^{1/2} M_t.  Exact plant: xi_hat = [xi; nu] and
    w'' = C_outer nu + D_outer w, so Gn = Kb + Kwp C_outer,
    Gw = Kwp D_outer, E = 0 and Ew = B_w.
    """
    finite = syn.horizon is not None
    S = syn.horizon - 1 if finite else 1  # steps with a law
    stack = np.asarray if finite else (lambda a: a[None])
    Af, Bf, Mf = map(stack, (syn.A_filter, syn.B_filter, syn.M_filter))
    Ahat, Buhat, Kxi, Kwp = (stack(a)[:S] for a in (syn.Ahat, syn.Buhat, Kxi, Kwp))
    n, p = Bf.shape[1:]
    A, Bu = Ahat[:, :n, :n], Buhat[:, :n]
    Ga, Kb = Kxi[..., :n], Kxi[..., n:]
    if syn.exact:
        Gn = Kb + Kwp @ syn.C_outer
        Gw = Kwp @ syn.D_outer
        E, Ew = np.zeros((S, n, n)), Bf
    else:
        M, M_next = Mf[:S], (Mf[1:] if finite else Mf)
        Gn = Kb @ M + Kwp @ M_next @ Af[:S]
        Gw = Kwp @ M_next @ Bf[:S]
        E, Ew = Ahat[:, :n, n:] @ M, np.zeros((S, n, p))
    return Realization(
        Cz=-np.concatenate([Ga, Gn], axis=-1),
        Dz=-Gw,
        Az=np.concatenate([A - Bu @ Ga, E - Bu @ Gn], axis=-1),
        Bz=Ew - Bu @ Gw,
        A_filter=Af,
        B_filter=Bf,
        M_filter=Mf,
    )


@dataclass(frozen=True)
class CompetitiveController:
    """Ratio-optimal controller: attenuation law on the synthetic plant.

    ``synthetic``, ``Kxi`` and ``Kwp`` are the law as synthesized (and
    serialized): u_t = -(Kxi xi_hat_t + Kwp w_hat_t) on the synthetic state
    xi_hat, driven by w_hat = w'_{t+1} on the doubled plant or
    w_hat = w''_t = C_outer nu_t + D_outer w_t on the exact one.  The
    synthetic plant's horizon is the controller's: single matrices and
    gains in the infinite horizon, (T, ., .) stacks over a horizon T.  Stepping
    reads :attr:`realization`, the same law over z = [xi; nu], built once.

    The strictly causal variant has Kwp = 0, so u_t never reads w_t; the
    state still absorbs w_t afterwards.  At the final step of a finite
    horizon the control gain is identically zero and w'_T does not exist,
    so u_{T-1} = 0 and nothing advances.
    """

    kind: str  # "competitive"
    causality: str
    horizon: Optional[int]
    gamma: Optional[float]
    synthetic: SyntheticSystem
    Kxi: np.ndarray  # (m, 2n) or (T, m, 2n)
    Kwp: np.ndarray  # (m, n), (m, p) when exact, or (T, m, n)
    diagnostics: dict = field(default_factory=dict, compare=False)

    @functools.cached_property
    def realization(self) -> Realization:
        return _realization(self.synthetic, self.Kxi, self.Kwp)

    @property
    def dims(self) -> dict:
        syn = self.synthetic
        return {"n": syn.n, "m": syn.m, "p": syn.B_filter.shape[-1]}

    def make_state(self) -> ControllerState:
        return ControllerState(t=0, z=np.zeros(2 * self.synthetic.n))

    def wprime(self, state: ControllerState) -> np.ndarray:
        """w'_t = M_filter nu_t, the filtered disturbance before w_t."""
        M = self.realization.M_filter[0 if self.horizon is None else state.t]
        return M @ state.z[self.synthetic.n :]

    def bind(self, w: np.ndarray, t0: int = 0) -> Law:
        """The :attr:`realization` as a :data:`Law` on the record w (row 0
        is step t0), with D_z w_t, B_z w_t and B_filter w_t taken for every
        row at once; the law also returns w'_t."""
        r, n, m = self.realization, self.synthetic.n, self.synthetic.m
        if self.horizon is None:
            Cz, Az, Af, Mf = r.Cz[0], r.Az[0], r.A_filter[0], r.M_filter[0]
            dz, bz, bf = (rowwise(a[0], w) for a in (r.Dz, r.Bz, r.B_filter))

            def law(t, x, z):
                k, nu = t - t0, z[n:]
                return Cz @ z + dz[k], np.concatenate([Az @ z + bz[k], Af @ nu + bf[k]]), Mf @ nu

        else:
            last = self.horizon - 1
            stop = min(t0 + len(w), last)  # no law, so no w-terms, at step T-1
            dz, bz, bf = (rowwise(a[t0:stop], w[: stop - t0]) for a in (r.Dz, r.Bz, r.B_filter))

            def law(t, x, z):
                nu = z[n:]
                wp = r.M_filter[t] @ nu
                if t == last:  # u_{T-1} = 0 and nothing advances
                    return np.zeros(m), z, wp
                k = t - t0
                xi = r.Az[t] @ z + bz[k]
                return r.Cz[t] @ z + dz[k], np.concatenate([xi, r.A_filter[t] @ nu + bf[k]]), wp

        return law

    def step(self, state: ControllerState, x_t, w_t) -> np.ndarray:
        t = state.t
        if self.horizon is not None and t >= self.horizon:
            raise IndexError(f"controller stepped past its horizon T={self.horizon}")
        w_t = np.asarray(w_t, dtype=float).reshape(-1)
        p = self.realization.Dz.shape[2]
        if w_t.shape != (p,):
            raise ValueError(f"disturbance has dimension {w_t.shape[0]}, expected {p}")
        u, state.z, _ = self.bind(w_t[None], t)(t, x_t, state.z)
        state.t = t + 1
        return u


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
class ZeroController:
    """u = 0 baseline."""

    m: int
    kind: str = "zero"
    causality: str = CAUSAL
    horizon: Optional[int] = None
    gamma: Optional[float] = None

    @property
    def dims(self) -> dict:
        return {"m": self.m}

    def make_state(self) -> ControllerState:
        return ControllerState()

    def bind(self, w: np.ndarray, t0: int = 0) -> Law:
        return lambda t, x, z: (np.zeros(self.m), z, None)

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

    The matrices may be stacks over time (T, ., .), P holding P_{t+1} of
    step t; every step then runs the arithmetic of a lone one.
    """
    m, p = Bu.shape[-1], Bw.shape[-1]
    BuT = Bu.swapaxes(-1, -2)
    if causality == STRICT and gamma is not None:
        PBw = P @ Bw
        W = gamma**2 * np.eye(p) - Bw.swapaxes(-1, -2) @ PBw
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


def _attenuation(plant, gamma, causality: str):
    """The verdict at level gamma: an :class:`AttenuationSolve` or Infeasible.

    The one existence test of every state-feedback family.  An
    :class:`LtiPlant` is gated by the fixed-point conditions of the game
    Riccati equation with R~ = diag(I, -gamma^2 I) (gamma = None: its LQR
    limit, R~ = I on u alone); an :class:`LtvPlant` by the per-step
    conditions of the backward recursion.  No gain is computed here.

    ``gamma`` may also be a sequence of levels; the verdicts then come back
    as a list in the same order, from one stacked :func:`hinf_backward` on
    an LtvPlant and from one fixed point per level on an LtiPlant, each
    equal to the verdict at its level alone.  A level that is not finite
    and positive raises ValueError.
    """
    m, p = plant.m, plant.p
    if isinstance(plant, LtiPlant):
        if np.ndim(gamma):
            return [_attenuation(plant, level, causality) for level in gamma]
        if gamma is None:
            Btil, Rtil = plant.Bu, np.eye(m)
        else:
            _check_gamma(gamma)
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
        diagnostics = {
            "residual": fp.residual,
            "iterations": fp.iterations,
            "closed_loop_radius": fp.closed_loop_radius,
            "P": fp.P,
        }
        return AttenuationSolve(plant, gamma, causality, fp.P, diagnostics)

    sched = hinf_backward(plant, gamma)
    if np.ndim(gamma):
        return [_schedule_verdict(plant, s, causality) for s in sched]
    return _schedule_verdict(plant, sched, causality)


def _schedule_verdict(plant: LtvPlant, sched, causality: str):
    """The verdict of :func:`_attenuation` on a backward schedule."""
    gate = sched.causal if causality == CAUSAL else sched.strictly_causal_w
    if not gate.ok:
        return Infeasible(
            gate.reason or "condition-violated",
            sched.gamma,
            {
                "first_violation": gate.first_violation,
                "strictly_causal_w_ok": sched.strictly_causal_w.ok,
            },
        )
    return AttenuationSolve(plant, sched.gamma, causality, sched.P, {})


def _attenuation_gains(solve: AttenuationSolve) -> tuple[np.ndarray, np.ndarray]:
    """The gains (Kx, Kw) of :func:`_saddle_gains` on a solve, in one call
    on the (T, ., .) stacks in the finite horizon (step t reads P_{t+1})."""
    plant = solve.plant
    P = solve.P if isinstance(plant, LtiPlant) else solve.P[1:]
    return _saddle_gains(P, plant.A, plant.Bu, plant.Bw, solve.gamma, solve.causality)


def _horizon_of(solve: AttenuationSolve) -> Optional[int]:
    return solve.plant.T if isinstance(solve.plant, LtvPlant) else None


def _hinf_controller(solve: AttenuationSolve) -> StateFeedbackController:
    """The attenuation controller of a feasible verdict."""
    Kx, Kw = _attenuation_gains(solve)
    return StateFeedbackController(
        kind="hinf",
        causality=solve.causality,
        horizon=_horizon_of(solve),
        gamma=solve.gamma,
        Kx=Kx,
        Kw=Kw,
        diagnostics=solve.diagnostics,
    )


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
    _check_level(gamma)
    plant = _normalize_horizon(plant, horizon)
    res = _attenuation(plant, gamma, causality)
    if isinstance(res, Infeasible):
        return res
    return _hinf_controller(res)


def _synthetic_plant(plant) -> SyntheticSystem:
    """The gamma-independent synthetic plant of a normalized plant.

    Infinite horizon: from the spectral factor; with p < n plus the outer
    factor of the w' filter (the exact plant), with p >= n the doubled
    plant, which is exact there (the p x p outer factor of the n x p filter
    would be singular for p > n).  Finite horizon: the doubled plant, as
    (T, ., .) stacks from the whitening schedule.
    """
    if isinstance(plant, LtvPlant):
        return build_synthetic(plant, whitening_fh(plant))
    factor = spectral_factor_ih(plant)
    outer = outer_factor_ih(plant, factor) if plant.p < plant.n else None
    return build_synthetic(plant, factor, outer)


def _competitive_controller(
    syn: SyntheticSystem, solve: AttenuationSolve
) -> CompetitiveController:
    """The ratio-optimal controller of a feasible verdict on ``syn.as_plant()``."""
    Kxi, Kwp = _attenuation_gains(solve)
    return CompetitiveController(
        kind="competitive",
        causality=solve.causality,
        horizon=_horizon_of(solve),
        gamma=solve.gamma,
        synthetic=syn,
        Kxi=Kxi,
        Kwp=Kwp,
        diagnostics=solve.diagnostics,
    )


def synth_competitive(
    plant,
    gamma: float,
    causality: str = CAUSAL,
    horizon: Optional[int] = None,
) -> Union[CompetitiveController, Infeasible]:
    """Ratio-optimal controller at ratio bound gamma^2.

    Builds the synthetic plant and runs attenuation synthesis there; the
    returned controller steps the w' filter and the autonomous synthetic
    state online.  In the infinite horizon with fewer disturbance channels
    than states (p < n) the synthetic plant is the exact one built from the
    outer factor of the w' filter, so gamma^2 is feasible for the causal law
    exactly when it bounds the worst-case ratio; otherwise it is the doubled
    plant.
    """
    _check_causality(causality)
    _check_level(gamma)
    plant = _normalize_horizon(plant, horizon)
    syn = _synthetic_plant(plant)
    res = _attenuation(syn.as_plant(), gamma, causality)
    if isinstance(res, Infeasible):
        return res
    return _competitive_controller(syn, res)


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


#: Steps per block of a stacked :func:`_affine_pass`: a block's stacks of
#: its lanes' M_t, not the whole horizon's, are held at once.
PASS_BLOCK = 64


def _affine_pass(schedules, w: np.ndarray) -> list:
    """The offsets h (shape (T, m)) of each schedule's policy for w (T, p).

    One linear backward pass [h_t; b_t] = M_t [b_{t+1}; w_t] from b_T = 0;
    the w_t terms of all steps are formed at once.

    ``schedules`` is a sequence of :class:`AffineSchedule` over one horizon;
    one h is returned per schedule, in the order given.  Several run as a
    stack of lanes of one recursion, ``PASS_BLOCK`` steps at a time
    (:func:`_pass_block`); each lane's products run the routines of the lone
    pass, so each h equals that schedule's own pass, bit for bit.  One
    schedule runs the plain loop, which is faster alone.
    """
    _, m, n = schedules[0].K.shape
    if len(schedules) == 1:
        y = np.einsum("tij,tj->ti", schedules[0].M[:, :, n:], w)
        b = np.zeros(n)
        for Mb, yt in zip(schedules[0].M[::-1, :, :n], y[::-1]):
            yt += Mb @ b
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


#: Bytes the shared schedule cache may hold: schedules plus their keys;
#: about 88 KB is one pendulum bin at T = 1001 (see :mod:`compctrl.mpc`).
SCHEDULE_CACHE_BYTES = 8 << 20


class ScheduleCache:
    """Least-recently-used cache of :func:`_affine_schedule`, bounded by bytes.

    The schedule depends on (A, B_u, B_w, Q) and the horizon alone, so
    :meth:`get` keys an :class:`LtiPlant` and a horizon T exactly, by T and
    the shapes and raw bytes of its matrices: no digest, so a one-ulp change
    or a -0.0 for a +0.0 is another key; a miss solves ``plant.to_ltv(T)``.
    Every :class:`LtvPlant` is solved afresh over its own horizon, even one
    whose steps are all equal.  When the held bytes would exceed
    ``max_bytes``, the least recently used entries go; an entry larger than
    the bound is not kept.  Schedules are read-only, so callers share them.
    """

    def __init__(self, max_bytes: int = SCHEDULE_CACHE_BYTES):
        self.max_bytes = max_bytes
        self.held_bytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (schedule, bytes)

    def __len__(self) -> int:
        return len(self._entries)

    def schedules(self) -> list:
        return [schedule for schedule, _ in self._entries.values()]

    def clear(self) -> None:
        self._entries.clear()
        self.held_bytes = 0

    @staticmethod
    def _key(plant: LtiPlant, T: int) -> tuple:
        step = (plant.A, plant.Bu, plant.Bw, plant.Q)
        return (T, *(a.shape for a in step), *(a.tobytes() for a in step))

    def holds(self, plant: LtiPlant, T: int) -> bool:
        """Whether :meth:`get` would hit; never solves a schedule."""
        return self._key(plant, T) in self._entries

    def get(self, plant, T: int) -> AffineSchedule:
        if isinstance(plant, LtvPlant):
            return _affine_schedule(plant)
        key = self._key(plant, T)
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
            return hit[0]
        schedule = _affine_schedule(plant.to_ltv(T))
        # the schedule and the key's raw bytes of (A, B_u, B_w, Q)
        size = schedule.K.nbytes + schedule.M.nbytes + sum(map(len, key[-4:]))
        if size <= self.max_bytes:
            self._entries[key] = (schedule, size)
            self.held_bytes += size
            while self.held_bytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.held_bytes -= dropped
        return schedule


#: The one schedule cache of the process, read by :func:`_clairvoyant_law`.
schedule_cache = ScheduleCache()


def _clairvoyant_law(plants, w: np.ndarray, t0: int = 0) -> list:
    """The clairvoyant policy u_t = -K_t x_t - h_t of each plant as a
    :data:`Law` on the record w (row 0 is step t0) over the horizon
    t0 + len(w): K from :data:`schedule_cache`, h from one
    :func:`_affine_pass` over w with one lane per schedule, so equal plants
    share a law (the steps before t0 never read their offsets).  Each x0
    must be 0."""
    if any(np.any(p.x0 != 0.0) for p in plants):
        raise ValueError("offline optimal requires x0 = 0")
    held = [schedule_cache.get(p, t0 + len(w)) for p in plants]
    lanes = {id(s): AffineSchedule(*(a[t0:] for a in s)) for s in held}
    offsets = _affine_pass(list(lanes.values()), w)
    policies = {key: _policy(s.K, h, t0) for (key, s), h in zip(lanes.items(), offsets)}
    return [policies[id(s)] for s in held]


def _policy(K: np.ndarray, h: np.ndarray, t0: int) -> Law:
    """The :data:`Law` u_t = -K_t x_t - h_t, row 0 of K and h being step t0."""

    def law(t, x, z):
        return -(K[t - t0] @ x) - h[t - t0], z, None

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
    """Clairvoyant optimal controls and cost for a known disturbance.

    ``plant`` is an :class:`LtiPlant` over T = len(w) or an :class:`LtvPlant`
    of horizon T.  Returns (u_star of shape (T, m), OPT) from the affine
    backward Riccati sweep at every horizon, O(T n^3): the stacked Gram
    matrix is block-banded in causal order, which the sweep factorizes
    implicitly.  The forward pass steps :func:`_clairvoyant_law` against
    ``plant.advance``, OPT taken from the step costs after it.
    ``method="dense"`` solves the stacked normal equations, O((T n)^3), as
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
            "ltv": syn.horizon is not None,
            "Ahat": _arr(syn.Ahat),
            "Buhat": _arr(syn.Buhat),
            "Bwhat": _arr(syn.Bwhat),
            "Qhat": _arr(syn.Qhat),
            "A_filter": _arr(syn.A_filter),
            "B_filter": _arr(syn.B_filter),
            "M_filter": _arr(syn.M_filter),
        }
        if syn.exact:
            out["synthetic"]["C_outer"] = _arr(syn.C_outer)
            out["synthetic"]["D_outer"] = _arr(syn.D_outer)
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

    A file whose ``horizon``, ``synthetic.ltv`` flag, array ranks or
    lengths, or matrix dimensions (n, m, p) disagree raises ValueError
    naming the field.
    """
    version = obj.get("schema_version", CONTROLLER_SCHEMA_VERSION)
    if version != CONTROLLER_SCHEMA_VERSION:
        raise ValueError(f"unsupported controller schema_version {version}")
    kind = obj["kind"]
    if kind == "offline":
        return OfflineController()
    if kind == "zero":
        return ZeroController(m=int(obj["gains"]["m"]))
    gains, horizon = obj["gains"], obj["horizon"]
    if kind in ("h2", "hinf"):
        Kx, Kw = (np.asarray(gains[key], dtype=float) for key in ("Kx", "Kw"))
        _check_horizon(horizon, {"Kx": Kx, "Kw": Kw})
        (m, n), p = Kx.shape[-2:], Kw.shape[-1]
        _check_dims({"Kw": Kw}, {"Kw": (m, p)}, (n, m, p))
        return StateFeedbackController(
            kind=kind,
            causality=obj["causality"],
            horizon=horizon,
            gamma=obj["gamma"],
            Kx=Kx,
            Kw=Kw,
        )
    if kind == "competitive":
        s = obj["synthetic"]
        if s["ltv"] != (horizon is not None):
            raise ValueError(
                f"controller file: synthetic.ltv is {s['ltv']} but horizon is {horizon}"
            )
        fields = {
            key: np.asarray(s[key], dtype=float)
            for key in (
                "Ahat", "Buhat", "Bwhat", "Qhat", "A_filter", "B_filter",
                "M_filter", "C_outer", "D_outer",
            )
            if key in s
        }
        Kxi, Kwp = (np.asarray(gains[key], dtype=float) for key in ("Kxi", "Kwp"))
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
        return CompetitiveController(
            kind=kind,
            causality=obj["causality"],
            horizon=horizon,
            gamma=obj["gamma"],
            synthetic=SyntheticSystem(**fields),
            Kxi=Kxi,
            Kwp=Kwp,
        )
    raise ValueError(f"unknown controller kind '{kind}'")
