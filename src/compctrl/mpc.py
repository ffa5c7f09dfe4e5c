"""Receding-horizon control of a torque-driven pendulum.

The plant is the forward-Euler discretization of

    theta_dd = (m g l / J) sin(theta) + (l / J) (u + w) cos(theta)

with state x = (theta, theta_dot), unit weights on state and control, and
the disturbance entering alongside the control torque.  Controllers are
synthesized on the linearization about the current angle, with the angle
quantized to a fixed bin width so gains can be cached and runs stay
reproducible; the ratio-optimal controller's internal filter state and
synthetic state persist across relinearizations.

The attenuation/ratio level gamma is fixed for a whole run: it is resolved
once from the initial linearization (by bisection, times a safety margin)
and reused in every bin.  A bin where synthesis fails at that fixed level
truncates the run with status "infeasible-linearization" rather than
silently retuning.

The cost comparator is a receding-horizon clairvoyant: at every step it
applies the first move of the exact affine optimal policy for the dynamics
frozen at the current bin, given the entire future disturbance.  The policy's
Riccati schedule does not depend on the disturbance, so it is computed once
per (linearization, T) and cached across records.  The offsets depend on the
record linearly: one linear backward pass per record and bin, from the end of
the record to the bin's first visit, serves every step that lands in the bin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .controllers import (
    AffineSchedule,
    CompetitiveController,
    ControllerState,
    Infeasible,
    _affine_pass,
    _affine_schedule,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
)
from .factorization import FactorizationError, WPrimeFilter
from .model import LtiPlant
from .search import min_gamma_competitive, min_gamma_hinf
from .sim import DisturbanceSpec, RolloutResult, _rollout_loop, _StopRollout, cost_ratio, generate
from .sim import spec_from_json_dict, spec_to_json_dict

__all__ = [
    "PendulumParams",
    "pendulum_step",
    "linearize_pendulum",
    "MpcInfeasibleError",
    "RelinearizingController",
    "run_pendulum",
    "clairvoyant_comparator_run",
    "mpc_rollout",
    "PendulumScenario",
    "scenario_from_json_dict",
    "scenario_to_json_dict",
    "run_scenario",
]

SCENARIO_SCHEMA_VERSION = 1
DEFAULT_QUANTUM = 1e-3
DEFAULT_GAMMA_MARGIN = 1.01


@dataclass(frozen=True)
class PendulumParams:
    m: float = 1.0
    l: float = 1.0
    g: float = 1.0
    J: float = 1.0
    dt: float = 1e-3


def pendulum_step(params: PendulumParams, x, u, w) -> np.ndarray:
    """One forward-Euler step of the nonlinear dynamics."""
    theta, omega = float(x[0]), float(x[1])
    torque = float(np.asarray(u).reshape(-1)[0]) + float(np.asarray(w).reshape(-1)[0])
    acc = (params.m * params.g * params.l / params.J) * math.sin(theta) + (
        params.l / params.J
    ) * torque * math.cos(theta)
    return np.array([theta + params.dt * omega, omega + params.dt * acc])


def linearize_pendulum(params: PendulumParams, theta: float) -> LtiPlant:
    """Euler-discretized Jacobian linearization about (theta, 0) with u = w = 0."""
    k = params.m * params.g * params.l / params.J
    c = math.cos(theta)
    A = np.array([[1.0, params.dt], [params.dt * k * c, 1.0]])
    B = np.array([[0.0], [params.dt * (params.l / params.J) * c]])
    return LtiPlant(
        A=A,
        Bu=B.copy(),
        Bw=B.copy(),
        Q=np.eye(2),
        R_half=np.eye(1),
        x0=np.zeros(2),
    )


class MpcInfeasibleError(_StopRollout):
    """Synthesis failed for some visited linearization at the fixed gamma."""

    status = "infeasible-linearization"


class RelinearizingController:
    """Gain-scheduled controller: re-synthesized per quantized-angle bin.

    ``kind`` is "competitive", "hinf", or "h2".  For the gamma-gated kinds
    the level is resolved at construction from the linearization about
    ``theta_init`` (bisection optimum times ``gamma_policy["margin"]``, or an
    explicit ``gamma_policy["fixed"]`` level) and then held fixed.  Gains are
    cached per bin; each bin is synthesized from its own linearization alone,
    so the cache is independent of the order in which bins are visited.
    ``bins_synthesized`` counts the bins synthesized so far, the initial one
    included; ``bin_cache_hits`` counts the steps whose bin was cached.
    """

    def __init__(
        self,
        params: PendulumParams,
        kind: str = "competitive",
        causality: str = "causal",
        gamma_policy: Optional[dict] = None,
        quantum: float = DEFAULT_QUANTUM,
        theta_init: float = 0.0,
        relinearize: bool = True,
    ):
        if kind not in ("competitive", "hinf", "h2"):
            raise ValueError("kind must be 'competitive', 'hinf', or 'h2'")
        self.params = params
        self.kind = kind
        self.causality = causality
        self.quantum = float(quantum)
        self.relinearize = bool(relinearize)
        self._cache: dict = {}
        self.bins_synthesized = 0
        self.bin_cache_hits = 0
        self._bin_init = self._bin_of(theta_init)
        plant0 = self._plant_at(self._bin_init)

        policy = dict(gamma_policy or {})
        self.gamma: Optional[float] = None
        if kind != "h2" and "fixed" in policy:
            self.gamma = float(policy["fixed"])
        elif kind != "h2":
            find = min_gamma_competitive if kind == "competitive" else min_gamma_hinf
            margin = float(policy.get("margin", DEFAULT_GAMMA_MARGIN))
            found = find(plant0, causality=causality, audit=False)
            if not found.ok:
                raise MpcInfeasibleError(
                    f"initial linearization: {found.reason or 'no feasible gamma'}"
                )
            self.gamma = margin * found.gamma
        ctrl0 = self._synth(plant0)
        if isinstance(ctrl0, Infeasible):
            raise MpcInfeasibleError(
                f"initial linearization infeasible at gamma={self.gamma}"
            )
        self._cache[self._bin_init] = ctrl0
        self.bins_synthesized = 1

        self.last_wprime = np.zeros(2)
        self.reset()

    def _bin_of(self, theta: float) -> int:
        return int(round(float(theta) / self.quantum))

    def _plant_at(self, b: int) -> LtiPlant:
        return linearize_pendulum(self.params, b * self.quantum)

    def _synth(self, plant: LtiPlant):
        """Controller for one bin's linearization at the fixed level."""
        if self.kind == "h2":
            return synth_h2_ih(plant, causality=self.causality)
        synth = synth_competitive if self.kind == "competitive" else synth_hinf
        return synth(plant, self.gamma, causality=self.causality)

    def reset(self) -> None:
        self._xi = np.zeros(2)  # the plant copy of the exact synthetic state
        self._nu = np.zeros(2)
        self.last_wprime = np.zeros(2)

    def _get(self, b: int):
        ctrl = self._cache.get(b)
        if ctrl is not None:
            self.bin_cache_hits += 1
            return ctrl
        try:
            ctrl = self._synth(self._plant_at(b))
        except (ValueError, FactorizationError) as exc:
            raise MpcInfeasibleError(f"bin {b}: {exc}") from exc
        if isinstance(ctrl, Infeasible):
            raise MpcInfeasibleError(
                f"bin {b} (theta={b * self.quantum:.3f}) infeasible at gamma={self.gamma}"
            )
        self._cache[b] = ctrl
        self.bins_synthesized += 1
        return ctrl

    def step(self, x, w) -> np.ndarray:
        theta = float(x[0]) if self.relinearize else self._bin_init * self.quantum
        ctrl = self._get(self._bin_of(theta))
        if isinstance(ctrl, CompetitiveController):
            self.last_wprime = ctrl.synthetic.M_filter @ self._nu
            state = ControllerState(
                t=0, xi=self._xi, filter=WPrimeFilter(ctrl.synthetic)
            )
            state.filter.nu = self._nu
            u = ctrl.step(state, x, w)
            self._xi = state.xi
            self._nu = state.filter.nu
            return u
        self.last_wprime = np.zeros(2)
        return ctrl.step(ControllerState(), x, w)


def _simulate(params, policy, w, x0, dynamics, theta_lin=0.0) -> RolloutResult:
    """Roll ``policy`` against the pendulum, with unit cost weights.

    ``dynamics`` is "nonlinear" or "linear" (the linearization about
    theta_lin).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    lin = linearize_pendulum(params, theta_lin) if dynamics == "linear" else None

    def advance(t, x, u, w_t):
        if lin is None:
            return pendulum_step(params, x, u, w_t)
        return lin.A @ x + lin.Bu @ u + lin.Bw @ w_t

    x0 = np.asarray(x0, dtype=float).reshape(2)
    Q = np.broadcast_to(np.eye(2), (w.shape[0], 2, 2))
    return _rollout_loop(w, x0, 1, Q, policy, advance)


def run_pendulum(
    params: PendulumParams,
    controller: RelinearizingController,
    w: np.ndarray,
    x0=(0.0, 0.0),
    dynamics: str = "nonlinear",
) -> RolloutResult:
    """Roll the gain-scheduled controller against the pendulum."""
    if dynamics not in ("nonlinear", "linear"):
        raise ValueError("dynamics must be 'nonlinear' or 'linear'")
    controller.reset()

    def policy(t, x, w_t):
        u = controller.step(x, w_t)
        return u, controller.last_wprime

    theta_lin = controller._bin_init * controller.quantum
    return _simulate(params, policy, w, x0, dynamics, theta_lin)


@functools.lru_cache(maxsize=1)
def _comparator_schedules(params: PendulumParams, T: int) -> dict:
    """theta -> read-only affine schedule of the linearization at theta.

    The comparator fills the dict lazily.  Only the last (params, T) family
    is held, so the memory is bounded by the bins one family of runs visits
    (about 88 KB per bin at T = 1001).
    """
    return {}


def clairvoyant_comparator_run(
    params: PendulumParams,
    w: np.ndarray,
    x0=(0.0, 0.0),
    quantum: float = DEFAULT_QUANTUM,
    dynamics: str = "nonlinear",
) -> RolloutResult:
    """Roll the receding-horizon clairvoyant comparator on the same record.

    At step t in bin b it applies u_t = -K_t x_t - h_t, the clairvoyant
    policy over the whole record for the linearization of bin b.  K and the
    rest of the bin's Riccati schedule are computed once per (linearization,
    T) and reused by later records; h takes one linear pass per record and
    bin, over the steps from the bin's first visit to the end.
    """
    w = np.asarray(w, dtype=float).reshape(-1, 1)
    T = w.shape[0]
    schedules = _comparator_schedules(params, T)
    laws: dict = {}
    no_wprime = np.zeros(2)

    def policy(t, x, w_t):
        b = int(round(float(x[0]) / quantum))
        if b not in laws:
            theta = b * quantum
            schedule = schedules.get(theta)
            if schedule is None:
                plant = linearize_pendulum(params, theta).to_ltv(T)
                schedule = schedules[theta] = _affine_schedule(plant)
            # the steps before the bin's first visit never read its offsets
            tail = AffineSchedule(schedule.K[t:], schedule.M[t:])
            laws[b] = (t, tail.K, _affine_pass(tail, w[t:]))
        t0, K, h = laws[b]
        return -(K[t - t0] @ x) - h[t - t0], no_wprime

    return _simulate(params, policy, w, x0, dynamics)


@dataclass(frozen=True)
class PendulumScenario:
    params: PendulumParams = field(default_factory=PendulumParams)
    steps: int = 1001
    disturbance: DisturbanceSpec = field(
        default_factory=lambda: DisturbanceSpec("white-gaussian", {"sigma": 1.0})
    )
    kind: str = "competitive"
    causality: str = "causal"
    gamma_policy: dict = field(default_factory=lambda: {"margin": DEFAULT_GAMMA_MARGIN})
    quantum: float = DEFAULT_QUANTUM
    x0: tuple = (0.0, 0.0)


def scenario_from_json_dict(obj: dict) -> PendulumScenario:
    version = obj.get("schema_version", SCENARIO_SCHEMA_VERSION)
    if version != SCENARIO_SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema_version {version}")
    prm = obj.get("params", {})
    params = PendulumParams(
        m=float(prm.get("m", 1.0)),
        l=float(prm.get("l", 1.0)),
        g=float(prm.get("g", 1.0)),
        J=float(prm.get("J", 1.0)),
        dt=float(prm.get("dt", 1e-3)),
    )
    ctl = obj.get("controller", {})
    return PendulumScenario(
        params=params,
        steps=int(obj["steps"]),
        disturbance=spec_from_json_dict(obj["disturbance"]),
        kind=ctl.get("kind", "competitive"),
        causality=ctl.get("causality", "causal"),
        gamma_policy=dict(ctl.get("gamma_policy", {"margin": DEFAULT_GAMMA_MARGIN})),
        quantum=float(obj.get("quantum", DEFAULT_QUANTUM)),
        x0=tuple(float(v) for v in obj.get("x0", (0.0, 0.0))),
    )


def scenario_to_json_dict(s: PendulumScenario) -> dict:
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "params": {
            "m": s.params.m,
            "l": s.params.l,
            "g": s.params.g,
            "J": s.params.J,
            "dt": s.params.dt,
        },
        "steps": s.steps,
        "disturbance": spec_to_json_dict(s.disturbance),
        "controller": {
            "kind": s.kind,
            "causality": s.causality,
            "gamma_policy": s.gamma_policy,
        },
        "quantum": s.quantum,
        "x0": list(s.x0),
    }


def run_scenario(
    scenario: PendulumScenario,
    seed: int = 0,
    controller: Optional[RelinearizingController] = None,
) -> dict:
    """Realize the disturbance, run the scheduled controller and comparator.

    An existing controller (with its warm gain cache) may be passed in when
    running several seeds of the same scenario.
    """
    w = generate(scenario.disturbance, scenario.steps, 1, seed=seed)
    if controller is None:
        controller = RelinearizingController(
            scenario.params,
            kind=scenario.kind,
            causality=scenario.causality,
            gamma_policy=scenario.gamma_policy,
            quantum=scenario.quantum,
            theta_init=scenario.x0[0],
        )
    result = run_pendulum(scenario.params, controller, w, x0=scenario.x0)
    comparator = clairvoyant_comparator_run(
        scenario.params, w, x0=scenario.x0, quantum=scenario.quantum
    )
    ratio = cost_ratio(result.total_cost, comparator.total_cost)
    return {
        "rollout": result,
        "comparator": comparator,
        "controller": controller,
        "gamma": controller.gamma,
        "ratio_to_comparator": ratio,
        "seed": seed,
    }


def mpc_rollout(
    kind: str,
    spec: DisturbanceSpec,
    steps: int,
    params: Optional[PendulumParams] = None,
    seed: int = 0,
    gamma_policy: Optional[dict] = None,
    causality: str = "causal",
    quantum: float = DEFAULT_QUANTUM,
    x0=(0.0, 0.0),
) -> RolloutResult:
    """Single-call pendulum rollout for one controller kind.

    ``kind`` is one of ``"h2"``, ``"hinf"``, ``"competitive"`` or
    ``"offline"``; the last runs the clairvoyant receding-horizon comparator
    on the realized disturbance rather than a synthesized controller.
    """
    if params is None:
        params = PendulumParams()
    w = generate(spec, steps, 1, seed=seed)
    if kind == "offline":
        return clairvoyant_comparator_run(params, w, x0=x0, quantum=quantum)
    controller = RelinearizingController(
        params,
        kind=kind,
        causality=causality,
        gamma_policy=gamma_policy or {"margin": DEFAULT_GAMMA_MARGIN},
        quantum=quantum,
        theta_init=float(x0[0]),
    )
    return run_pendulum(params, controller, w, x0=x0)
