"""Receding-horizon control of a torque-driven pendulum.

The plant is the forward-Euler discretization of

    theta_dd = (m g l / J) sin(theta) + (l / J) (u + w) cos(theta)

with state x = (theta, theta_dot), unit weights on state and control, and
the disturbance entering alongside the control torque.  Controllers are
synthesized on the linearization about the current angle, with the angle
quantized to a fixed bin width so gains can be cached and runs stay
reproducible.  Every bin's ratio-optimal controller steps the same state
z = [xi; nu] (plant copy, w' filter state) through its own realization
(:class:`compctrl.controllers.Realization`), so the state persists across
relinearizations.

The attenuation/ratio level gamma is fixed for a whole run: it is resolved
once from the initial linearization (by bisection, times a safety margin)
and reused in every bin.  A bin where synthesis fails at that fixed level
truncates the run with status "infeasible-linearization" rather than
silently retuning.

Each bin's controller is cached, and a run binds each bin's law to the
tail of the record at the bin's first visit (:class:`RelinearizingController`).
The linear dynamics are the linearization's own ``advance``.

The cost comparator is a receding-horizon clairvoyant: at every step it
applies the first move of the exact affine optimal policy for the dynamics
frozen at the current bin, given the entire future disturbance: the
clairvoyant law of :mod:`compctrl.controllers`, bound to the bin's
linearization (an LtiPlant) and the rest of the record.  Its Riccati
schedule does not depend on the disturbance; it comes from the process-wide
:data:`compctrl.controllers.schedule_cache`, keyed exactly by the
linearization and T, and what the cache holds never changes a run.  The
offsets depend on the record linearly: one backward pass from the end of
the record.  A bin's first visit binds that bin together with every
not-yet-bound bin in the contiguous run of neighbours whose schedules the
cache already holds, as lanes of one stacked pass, each lane bit for bit
the bin's own pass.  While theta moves less than a bin per step, the
record reaches no bin beyond that run without first visiting an uncached
bin, which starts the next group: a warm cache binds a record's bins in one
pass, a cold one in one pass per bin not yet cached.  Bins can share a
linearization (it reads theta through cos alone), so each side of the run
is cut after as many bins as the cache holds schedules; a bin past the cut
starts a group of its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .controllers import (
    ControllerState,
    Infeasible,
    _clairvoyant_law,
    schedule_cache,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
)
from .factorization import FactorizationError
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
    """One forward-Euler step of the nonlinear dynamics; ``u`` and ``w`` are
    length-1 sequences (arrays or lists)."""
    theta, omega = float(x[0]), float(x[1])
    torque = float(u[0]) + float(w[0])
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


def _check_quantum(quantum) -> float:
    """The bin width as a float; it must be finite and > 0."""
    q = float(quantum)
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"quantum must be finite and > 0, got {quantum!r}")
    return q


def _disturbance_column(w) -> np.ndarray:
    """A pendulum disturbance record as a (T, 1) array; (T,) is accepted."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.ndim != 2 or w.shape[1] != 1:
        raise ValueError(f"pendulum disturbance must have shape (T,) or (T, 1), got {w.shape}")
    return w


class MpcInfeasibleError(_StopRollout):
    """Synthesis failed for some visited linearization at the fixed gamma."""

    status = "infeasible-linearization"


#: w'_t of a bin whose law has no filter (read-only, shared by every step)
_NO_WPRIME = np.zeros(2)
_NO_WPRIME.flags.writeable = False


class RelinearizingController:
    """Gain-scheduled controller: re-synthesized per quantized-angle bin.

    ``kind`` is "competitive", "hinf", or "h2".  For the gamma-gated kinds
    the level is resolved at construction from the linearization about
    ``theta_init`` (bisection optimum times ``gamma_policy["margin"]``, or an
    explicit ``gamma_policy["fixed"]`` level) and then held fixed.  Each
    bin's controller is cached; each bin is synthesized from its own
    linearization alone, so the cache is independent of the order in which
    bins are visited; the bin width ``quantum`` must be finite and > 0.
    After ``reset(w)`` the steps read the record w: each bin's law is bound
    to the tail of w at the bin's first visit (:meth:`step` must then be
    given row t of w at step t); after ``reset()`` each step binds the law to
    its own w.
    ``bins_synthesized`` counts the bins synthesized so far, the initial one
    included; ``bin_cache_hits`` counts the steps whose bin was cached;
    ``synth_s`` is the wall time spent in the level search and in the
    synthesis of every bin, in seconds.
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
        self.quantum = _check_quantum(quantum)
        self.relinearize = bool(relinearize)
        self._cache: dict = {}  # bin -> controller
        self.bins_synthesized = 0
        self.bin_cache_hits = 0
        self.synth_s = 0.0
        self._bin_init = self._bin_of(theta_init)
        plant0 = self._plant_at(self._bin_init)

        start = time.perf_counter()
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
        self.synth_s += time.perf_counter() - start
        if isinstance(ctrl0, Infeasible):
            raise MpcInfeasibleError(
                f"initial linearization infeasible at gamma={self.gamma}"
            )
        self._cache[self._bin_init] = ctrl0
        self.bins_synthesized = 1
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

    def reset(self, w: Optional[np.ndarray] = None) -> None:
        """Restart at step 0 with z = 0; the coming steps read the (T, 1)
        record ``w`` when it is given."""
        self._state = ControllerState(z=np.zeros(4))  # z = [xi; nu]
        self.last_wprime = _NO_WPRIME
        self._record = w
        self._bound: dict = {}  # bin -> its law bound to the record's tail

    def _controller(self, b: int):
        """The controller of bin b, synthesized on a miss."""
        cached = self._cache.get(b)
        if cached is not None:
            self.bin_cache_hits += 1
            return cached
        start = time.perf_counter()
        try:
            ctrl = self._synth(self._plant_at(b))
        except (ValueError, FactorizationError) as exc:
            raise MpcInfeasibleError(f"bin {b}: {exc}") from exc
        finally:
            self.synth_s += time.perf_counter() - start
        if isinstance(ctrl, Infeasible):
            raise MpcInfeasibleError(
                f"bin {b} (theta={b * self.quantum:.3f}) infeasible at gamma={self.gamma}"
            )
        self._cache[b] = ctrl
        self.bins_synthesized += 1
        return ctrl

    def step(self, x, w) -> np.ndarray:
        theta = float(x[0]) if self.relinearize else self._bin_init * self.quantum
        b = self._bin_of(theta)
        state = self._state
        law = self._bound.get(b)
        if law is not None:
            self.bin_cache_hits += 1
        elif self._record is None:
            law = self._controller(b).bind(np.reshape(w, (1, -1)), state.t)
        else:
            law = self._bound[b] = self._controller(b).bind(self._record[state.t :], state.t)
        u, state.z, wprime = law(state.t, x, state.z)
        state.t += 1
        self.last_wprime = _NO_WPRIME if wprime is None else wprime
        return u


def _simulate(params, law, w, x0, dynamics, theta_lin=0.0) -> RolloutResult:
    """Roll the :data:`~compctrl.controllers.Law` ``law`` against the
    pendulum, with unit cost weights.

    ``w`` is a (T, 1) record (:func:`_disturbance_column`); ``dynamics`` is
    "nonlinear" or "linear" (the linearization about theta_lin).
    """
    if dynamics not in ("nonlinear", "linear"):
        raise ValueError("dynamics must be 'nonlinear' or 'linear'")
    if dynamics == "linear":
        advance = linearize_pendulum(params, theta_lin).advance(w)
    else:

        def advance(t, x, u):
            return pendulum_step(params, x, u, w[t])

    x0 = np.asarray(x0, dtype=float).reshape(2)
    return _rollout_loop(w, x0, 1, np.eye(2), law, advance)


def run_pendulum(
    params: PendulumParams,
    controller: RelinearizingController,
    w: np.ndarray,
    x0=(0.0, 0.0),
    dynamics: str = "nonlinear",
) -> RolloutResult:
    """Roll the gain-scheduled controller against the pendulum."""
    w = _disturbance_column(w)
    controller.reset(w)

    def law(t, x, z):
        return controller.step(x, w[t]), z, controller.last_wprime

    theta_lin = controller._bin_init * controller.quantum
    return _simulate(params, law, w, x0, dynamics, theta_lin)


def clairvoyant_comparator_run(
    params: PendulumParams,
    w: np.ndarray,
    x0=(0.0, 0.0),
    quantum: float = DEFAULT_QUANTUM,
    dynamics: str = "nonlinear",
) -> RolloutResult:
    """Roll the receding-horizon clairvoyant comparator on the same record
    (the module docstring says how it binds each bin's law).  ``w`` has
    shape (T,) or (T, 1), and ``quantum`` must be finite and > 0.
    """
    w = _disturbance_column(w)
    quantum = _check_quantum(quantum)
    T = len(w)
    laws: dict = {}  # bin -> its clairvoyant law bound to the record's tail

    def law(t, x, z):
        b = int(round(float(x[0]) / quantum))
        bound = laws.get(b)
        if bound is None:
            group = {b: linearize_pendulum(params, b * quantum)}
            for step in (1, -1):  # the cached run of neighbours on each side
                for c in range(b + step, b + step * (len(schedule_cache) + 1), step):
                    plant = linearize_pendulum(params, c * quantum)
                    if not schedule_cache.holds(plant, T):
                        break
                    if c not in laws:
                        group[c] = plant
            laws.update(zip(group, _clairvoyant_law(list(group.values()), w[t:], t)))
            bound = laws[b]
        return bound(t, x, z)

    return _simulate(params, law, w, x0, dynamics)


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
