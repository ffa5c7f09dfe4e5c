"""Receding-horizon control of a torque-driven pendulum.

The plant is the forward-Euler discretization of

    theta_dd = (m g l / J) sin(theta) + (l / J) (u + w) cos(theta)

with state x = (theta, theta_dot), unit weights on state and control, and
the disturbance entering alongside the control torque.  Controllers are
synthesized on the linearization about the current angle, quantized to a
fixed bin width (:class:`RelinearizingController`); the cost comparator is
a receding-horizon clairvoyant (:func:`clairvoyant_comparator_run`).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .controllers import (
    ControllerState,
    Infeasible,
    _check_causality,
    _clairvoyant_law,
    _disturbance,
    schedule_cache,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
)
from .factorization import FactorizationError
from .model import LtiPlant, _json_field, _json_object
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

    def __post_init__(self):
        # every field finite; J divides and dt steps, so both > 0
        for f in fields(self):
            value, positive = getattr(self, f.name), f.name in ("J", "dt")
            if not math.isfinite(value) or (positive and value <= 0.0):
                raise ValueError(f"pendulum {f.name} must be finite"
                                 f"{' and > 0' if positive else ''}, got {value!r}")


def _coefficients(params: PendulumParams) -> tuple:
    """(m g l / J, l / J, dt): the coefficients of :func:`_euler`."""
    return params.m * params.g * params.l / params.J, params.l / params.J, params.dt


def _euler(theta, omega, torque, k1, k2, dt) -> np.ndarray:
    """x_next of one forward-Euler step of the nonlinear dynamics, from
    floats: the torque is u + w, and (k1, k2, dt) are the
    :func:`_coefficients`."""
    acc = k1 * math.sin(theta) + k2 * torque * math.cos(theta)
    return np.array([theta + dt * omega, omega + dt * acc])


def pendulum_step(params: PendulumParams, x, u, w) -> np.ndarray:
    """One forward-Euler step of the nonlinear dynamics (:func:`_euler`);
    ``u`` and ``w`` are length-1 sequences."""
    return _euler(float(x[0]), float(x[1]), float(u[0]) + float(w[0]), *_coefficients(params))


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


def _bin(theta, quantum: float) -> int:
    """The bin of the angle theta: the nearest multiple of the bin width.  A
    non-finite theta, or a bin beyond any int (a quantum too small for
    theta), is a ValueError."""
    theta = float(theta)
    try:
        return int(round(theta / quantum))
    except (OverflowError, ValueError):  # round() of inf, or of NaN
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}") from None
        raise ValueError(
            f"quantum {quantum!r} is too small: the bin of theta = {theta} overflows"
        ) from None


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


class RelinearizingController:
    """Gain-scheduled controller: re-synthesized per quantized-angle bin.

    ``kind`` is "competitive", "hinf", or "h2".  A gamma-gated kind holds
    one level for every bin, resolved at construction from the linearization
    about ``theta_init``: ``gamma_policy["fixed"]``, or else the bisection
    optimum times ``gamma_policy["margin"]`` (no other key); a bin
    infeasible at it ends a run with status "infeasible-linearization".
    Each bin's controller is synthesized from its own linearization and
    cached, independent of the visit order; ``quantum``, the bin width, must
    be finite and > 0.  Every bin steps the one filter state z = nu.  After
    ``reset(w)`` :meth:`step` reads w_t from the record w and refuses a
    given one; after ``reset()`` it must be given w_t.  ``bins_synthesized``
    counts the bins synthesized, the initial one included;
    ``bin_cache_hits`` the steps whose bin was cached; ``synth_s`` the
    seconds spent in the level search and in synthesis.
    """

    def __init__(
        self,
        params: PendulumParams,
        kind: str = "competitive",
        causality: str = "causal",
        gamma_policy: Optional[dict] = None,
        quantum: float = DEFAULT_QUANTUM,
        theta_init: float = 0.0,
    ):
        if kind not in ("competitive", "hinf", "h2"):
            raise ValueError("kind must be 'competitive', 'hinf', or 'h2'")
        self.params = params
        self.kind = kind
        self.causality = causality
        self.quantum = _check_quantum(quantum)
        _check_causality(causality)  # a bad argument, not a bin's failure
        self._cache: dict = {}  # bin -> controller
        self.bins_synthesized = 0
        self.bin_cache_hits = 0
        self.synth_s = 0.0
        self._bin_init = _bin(theta_init, self.quantum)
        plant0 = self._plant_at(self._bin_init)

        policy = {"margin": DEFAULT_GAMMA_MARGIN, **(gamma_policy or {})}
        unknown = [key for key in policy if key not in ("fixed", "margin")]
        if unknown:
            raise ValueError(f"gamma_policy keys must be 'fixed' or 'margin', got {unknown}")
        levels = {key: _json_field(policy, key, "gamma_policy", convert=float)
                  for key in ("fixed", "margin") if key in policy}
        if not all(math.isfinite(v) and v > 0 for v in levels.values()):
            raise ValueError(f"gamma_policy levels must be finite and positive, got {levels}")
        self.gamma: Optional[float] = None if kind == "h2" else levels.get("fixed")
        if kind != "h2" and self.gamma is None:
            start = time.perf_counter()
            try:  # the level search fails as the first bin does
                find = min_gamma_competitive if kind == "competitive" else min_gamma_hinf
                found = find(plant0, causality=causality, audit=False)
            except (ValueError, FactorizationError) as exc:
                raise MpcInfeasibleError(f"initial linearization: {exc}") from exc
            finally:
                self.synth_s += time.perf_counter() - start
            if not found.ok:
                raise MpcInfeasibleError(
                    f"initial linearization: {found.reason or 'no feasible gamma'}"
                )
            self.gamma = levels["margin"] * found.gamma
        self._controller(self._bin_init, plant0, "initial linearization")
        self.reset()

    def _plant_at(self, b: int) -> LtiPlant:
        return linearize_pendulum(self.params, b * self.quantum)

    def _synth(self, plant: LtiPlant):
        """Controller for one bin's linearization at the fixed level."""
        if self.kind == "h2":
            return synth_h2_ih(plant, causality=self.causality)
        synth = synth_competitive if self.kind == "competitive" else synth_hinf
        return synth(plant, self.gamma, causality=self.causality)

    def reset(self, w: Optional[np.ndarray] = None) -> None:
        """Restart at step 0 with z = nu = 0 and no w'.  Given the (T, 1)
        record ``w``, each bin's law is bound to the record's tail from the
        step of the bin's first visit, once per reset, and a step reads no
        row of w."""
        self._state = ControllerState(z=np.zeros(2))  # z = nu
        self.last_wprime = None
        self._record = w
        self._bound: dict = {}  # bin -> its law bound to the record's tail

    def _controller(self, b: int, plant: Optional[LtiPlant] = None, where: str = ""):
        """The controller of bin b, synthesized on a miss from ``plant``, its
        linearization; a failure is an :class:`MpcInfeasibleError` naming
        ``where``, or else the bin."""
        cached = self._cache.get(b)
        if cached is not None:
            self.bin_cache_hits += 1
            return cached
        start = time.perf_counter()
        try:
            ctrl = self._synth(self._plant_at(b) if plant is None else plant)
        except (ValueError, FactorizationError) as exc:
            raise MpcInfeasibleError(f"{where or f'bin {b}'}: {exc}") from exc
        finally:
            self.synth_s += time.perf_counter() - start
        if isinstance(ctrl, Infeasible):
            where = where or f"bin {b} (theta={b * self.quantum:.3f})"
            raise MpcInfeasibleError(f"{where} infeasible at gamma={self.gamma}")
        self._cache[b] = ctrl
        self.bins_synthesized += 1
        return ctrl

    def step(self, x, w=None) -> np.ndarray:
        """u_t at the state x, leaving w'_t (None without a filter) in
        ``last_wprime``: the bin controller's shared ``step`` on w_t = ``w``,
        or, after ``reset(w)``, the bin's bound law, a given ``w`` refused.
        A refused step changes neither the state, ``last_wprime`` nor the
        bin counters: w_t is checked before the bin is looked up."""
        if w is not None and self._record is not None:
            raise ValueError("step takes no w_t: reset(w) bound a record")
        b = _bin(x[0], self.quantum)
        state = self._state
        if self._record is None:
            _disturbance(w, 1)  # the pendulum's one disturbance channel
            ctrl = self._controller(b)
            wprime, u = ctrl.wprime(state), ctrl.step(state, x, w)  # w'_t before the step
        else:
            law = self._bound.get(b)
            if law is not None:
                self.bin_cache_hits += 1
            else:
                law = self._bound[b] = self._controller(b).bind(self._record[state.t :], state.t)
            u, state.z, wprime = law(state.t, x, state.z)
            state.t += 1
        self.last_wprime = wprime
        return u


def _simulate(params, law, w, x0, dynamics, theta_lin=0.0) -> RolloutResult:
    """Roll the :data:`~compctrl.controllers.Law` ``law`` against the
    pendulum over the (T, 1) record ``w``, with unit cost weights.
    ``dynamics`` is "nonlinear" (:func:`_euler`, its coefficients and the
    record taken as floats once per run) or "linear" (the linearization
    about theta_lin)."""
    if dynamics not in ("nonlinear", "linear"):
        raise ValueError("dynamics must be 'nonlinear' or 'linear'")
    if dynamics == "linear":
        advance = linearize_pendulum(params, theta_lin).advance(w)
    else:
        (k1, k2, dt), record = _coefficients(params), w[:, 0].tolist()

        def advance(t, x, u):
            theta, omega = x.tolist()
            return _euler(theta, omega, u.item() + record[t], k1, k2, dt)

    return _rollout_loop(w, _check_x0(x0), 1, np.eye(2), law, advance)


def _check_x0(x0) -> np.ndarray:
    """The pendulum's initial state (theta, theta_dot) as a finite float array."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != 2:
        raise ValueError(f"x0 must be (theta, theta_dot), got {x0.size} values")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def run_pendulum(
    params: PendulumParams,
    controller: RelinearizingController,
    w: np.ndarray,
    x0=(0.0, 0.0),
    dynamics: str = "nonlinear",
) -> RolloutResult:
    """Roll the gain-scheduled controller, reset to the record w
    (:meth:`RelinearizingController.reset`), against the pendulum."""
    w = _disturbance_column(w)
    controller.reset(w)
    step = controller.step

    def law(t, x, z):
        return step(x), z, controller.last_wprime

    return _simulate(params, law, w, x0, dynamics, controller._bin_init * controller.quantum)


def clairvoyant_comparator_run(
    params: PendulumParams,
    w: np.ndarray,
    x0=(0.0, 0.0),
    quantum: float = DEFAULT_QUANTUM,
    dynamics: str = "nonlinear",
) -> RolloutResult:
    """Roll the receding-horizon clairvoyant comparator on the record ``w``
    ((T,) or (T, 1)); ``quantum`` must be finite and > 0.

    Each step applies the clairvoyant law of the current bin's
    linearization (:func:`~compctrl.controllers._clairvoyant_law`), bound to
    the rest of the record at the bin's first visit together with every
    unbound bin in the contiguous run of neighbours whose schedules the
    schedule cache holds, as lanes of one stacked pass: a warm cache binds
    a record's bins in one pass, a cold one in one pass per bin.  Bins can
    share a linearization (it reads theta through cos alone), so each side
    of the run stops after as many bins as the cache holds.  What the cache
    holds never changes a run.
    """
    w = _disturbance_column(w)
    quantum = _check_quantum(quantum)
    T = len(w)
    laws: dict = {}  # bin -> its clairvoyant law bound to the record's tail

    def law(t, x, z):
        b = _bin(x[0], quantum)
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
    _json_object(obj, "scenario", SCENARIO_SCHEMA_VERSION)
    prm = _json_object(obj.get("params", {}), "scenario params")
    params = PendulumParams(**{
        f.name: _json_field(prm, f.name, "scenario params", default=f.default, convert=float)
        for f in fields(PendulumParams)
    })
    ctl = _json_object(obj.get("controller", {}), "scenario controller")
    return PendulumScenario(
        params=params,
        steps=_json_field(obj, "steps", "scenario", convert=int),
        disturbance=spec_from_json_dict(
            _json_field(obj, "disturbance", "scenario", nullable=True)
        ),
        kind=_json_field(ctl, "kind", "scenario controller", default="competitive"),
        causality=_json_field(ctl, "causality", "scenario controller", default="causal"),
        gamma_policy=_json_field(ctl, "gamma_policy", "scenario controller",
                                 default={"margin": DEFAULT_GAMMA_MARGIN}, convert=dict),
        quantum=_json_field(obj, "quantum", "scenario", default=DEFAULT_QUANTUM, convert=float),
        x0=_json_field(obj, "x0", "scenario", default=(0.0, 0.0),
                       convert=lambda x0: tuple(float(v) for v in x0)),
    )


def scenario_to_json_dict(s: PendulumScenario) -> dict:
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "params": asdict(s.params),
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
    running several seeds of the same scenario.  Without one, the scenario's
    controller is built here; a failed build raises MpcInfeasibleError.
    """
    w = generate(scenario.disturbance, scenario.steps, 1, seed=seed)
    if controller is None:
        controller = RelinearizingController(
            scenario.params,
            kind=scenario.kind,
            causality=scenario.causality,
            gamma_policy=scenario.gamma_policy,
            quantum=scenario.quantum,
            theta_init=_check_x0(scenario.x0)[0],
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
