"""Disturbance generation, closed-loop rollouts, and cost comparisons.

Disturbances are described by small declarative specs (white Gaussian noise,
sinusoids, piecewise-constant steps, DC offsets, a sinusoid-mean Gaussian,
and weighted mixtures of these).  Random kinds draw from the counter-based
Philox generator so that runs are reproducible bit-for-bit from a seed and
mixture components get independent streams via jumps.

Rollouts step a controller against a plant for a disturbance realization,
recording states, controls, per-step and cumulative costs, and (for
ratio-optimal controllers) the internal filtered disturbance w'.  Only the
recursion runs per step (:func:`_rollout_loop`); the controller's law and
the plant's step are bound to the record once, with the bits of stepping
them one step at a time.  A state norm above 1e6 truncates the run with
status "diverged" instead of raising.

Trace CSVs are written atomically (temp file + rename) with %.17g floats and
LF line endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .controllers import OfflineController, _clairvoyant_law, _online, offline_optimal
from .model import _disturbance_record, step_costs

__all__ = [
    "DisturbanceSpec",
    "generate",
    "RolloutResult",
    "rollout",
    "ComparisonResult",
    "compare",
    "write_trace_csv",
    "write_comparison_json",
    "atomic_write_text",
    "spec_from_json_dict",
    "spec_to_json_dict",
]

DIVERGENCE_NORM = 1e6
DEGENERATE_OPT = 1e-12

_KINDS = (
    "white-gaussian",
    "sinusoid",
    "step",
    "dc",
    "sine-mean-gaussian",
    "mixture",
)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Declarative disturbance description: a kind plus its parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown disturbance kind '{self.kind}'")


def spec_to_json_dict(spec: DisturbanceSpec) -> dict:
    out = {"kind": spec.kind}
    for key, val in spec.params.items():
        if key == "components":
            out[key] = [spec_to_json_dict(c) for c in val]
        elif isinstance(val, np.ndarray):
            out[key] = val.tolist()
        else:
            out[key] = val
    return out


def spec_from_json_dict(obj: dict) -> DisturbanceSpec:
    obj = dict(obj)
    kind = obj.pop("kind")
    if kind == "mixture":
        obj["components"] = [spec_from_json_dict(c) for c in obj["components"]]
    return DisturbanceSpec(kind=kind, params=obj)


def _direction(params: dict, p: int) -> np.ndarray:
    d = params.get("direction")
    if d is None:
        d = np.ones(p)
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.shape != (p,):
        raise ValueError(f"direction must have length p = {p}")
    norm = float(np.linalg.norm(d))
    if norm <= 0:
        raise ValueError("direction must be nonzero")
    return d / norm


def _generate_one(spec: DisturbanceSpec, T: int, p: int, bitgen) -> np.ndarray:
    kind, params = spec.kind, spec.params
    if kind == "white-gaussian":
        sigma = float(params.get("sigma", 1.0))
        rng = np.random.Generator(bitgen)
        return sigma * rng.standard_normal((T, p))
    if kind == "sinusoid":
        omega = float(params["omega"])
        amp = float(params.get("amplitude", 1.0))
        d = _direction(params, p)
        t = np.arange(T)
        return amp * np.sin(omega * t)[:, None] * d[None, :]
    if kind == "step":
        levels = [float(v) for v in params["levels"]]
        switches = [int(s) for s in params.get("switch_times", [])]
        if len(switches) != len(levels) - 1:
            raise ValueError("step needs len(switch_times) == len(levels) - 1")
        if sorted(switches) != switches:
            raise ValueError("switch_times must be nondecreasing")
        d = _direction(params, p)
        t = np.arange(T)
        idx = np.searchsorted(np.asarray(switches), t, side="right")
        return np.asarray(levels)[idx][:, None] * d[None, :]
    if kind == "dc":
        d = _direction(params, p)
        return np.tile(d, (T, 1))
    if kind == "sine-mean-gaussian":
        mean_amp = float(params.get("mean_amplitude", 1.0))
        mean_omega = float(params.get("mean_omega", 1e-3))
        sigma = float(params.get("sigma", 1.0))
        d = _direction(params, p)
        rng = np.random.Generator(bitgen)
        t = np.arange(T)
        mean = mean_amp * np.sin(mean_omega * t)[:, None] * d[None, :]
        return mean + sigma * rng.standard_normal((T, p))
    if kind == "mixture":
        comps = params["components"]
        weights = params.get("weights")
        if weights is None:
            weights = [1.0 / len(comps)] * len(comps)
        if len(weights) != len(comps):
            raise ValueError("mixture needs one weight per component")
        w = np.zeros((T, p))
        for i, (comp, wt) in enumerate(zip(comps, weights)):
            w += float(wt) * _generate_one(comp, T, p, bitgen.jumped(i))
        return w
    raise ValueError(f"unknown disturbance kind '{kind}'")


def generate(spec: DisturbanceSpec, T: int, p: int, seed: int = 0) -> np.ndarray:
    """Realize a disturbance spec as a (T, p) array, reproducibly from seed."""
    if T <= 0:
        raise ValueError("T must be positive")
    return _generate_one(spec, int(T), int(p), np.random.Philox(int(seed)))


@dataclass
class RolloutResult:
    """One closed-loop trajectory with per-step cost bookkeeping.

    ``x`` has ``steps_completed + 1`` rows (the terminal state is recorded
    but never weighted); all other arrays have ``steps_completed`` rows.
    ``wprime`` holds the filtered disturbance w'_t = M_filter nu_t of a
    ratio-optimal controller's realization, row t being the value before
    w_t is absorbed (zeros for every other controller).
    """

    w: np.ndarray
    wprime: np.ndarray
    x: np.ndarray
    u: np.ndarray
    step_cost: np.ndarray
    cum_cost: np.ndarray
    total_cost: float
    status: str
    steps_completed: int


class _StopRollout(RuntimeError):
    """Raised by a rollout policy to end the run with the class's ``status``."""

    status = "stopped"


def _rollout_loop(w, x0, m, Q, law, advance, z=None) -> RolloutResult:
    """The loop of every rollout.

    Per step, only the recursion: the :data:`~compctrl.controllers.Law`
    ``law(t, x_t, z_t)`` gives (u_t, z_{t+1}, w'_t), z_0 = ``z``;
    ``advance(t, x_t, u_t)`` gives x_{t+1}; a state whose norm sqrt(x'x) is
    not at most ``DIVERGENCE_NORM`` (NaN included) or a :class:`_StopRollout`
    from the law ends the run, and the arrays keep the steps completed.  The
    step costs x_t'Q_t x_t + u_t'u_t, ``Q`` being one (n, n) weight or a
    (T, n, n) stack, their running sum and the total are computed once,
    after the loop, by :func:`~compctrl.model.step_costs`.
    """
    T, n = w.shape[0], x0.shape[0]
    x = np.zeros((T + 1, n))
    x[0] = x0
    u = np.zeros((T, m))
    wprime = np.zeros((T, n))
    status = "ok"
    steps = 0
    x_t = x[0]
    for t in range(T):
        try:
            u_t, z, wp = law(t, x_t, z)
        except _StopRollout as stop:
            status = stop.status
            break
        if wp is not None:
            wprime[t] = wp
        u[t] = u_t
        x[t + 1] = x_t = advance(t, x_t, u_t)
        steps = t + 1
        if not math.sqrt(x_t @ x_t) <= DIVERGENCE_NORM:  # also NaN and inf
            status = "diverged"
            break
    step_cost, cum, total = step_costs(x[:steps], u[:steps], Q)
    return RolloutResult(
        w=w[:steps],
        wprime=wprime[:steps],
        x=x[: steps + 1],
        u=u[:steps],
        step_cost=step_cost,
        cum_cost=cum,
        total_cost=total,
        status=status,
        steps_completed=steps,
    )


def _check_fits(plant, controller, T: int) -> None:
    """Raise ValueError naming the first of n, m, p and the horizon T in
    which ``controller`` is not made for ``plant``."""
    for name, value in controller.dims.items():
        if value != getattr(plant, name):
            raise ValueError(
                f"controller is made for {name} = {value}, but the plant has "
                f"{name} = {getattr(plant, name)}"
            )
    if controller.horizon is not None and controller.horizon != T:
        raise ValueError("controller horizon does not match the disturbance length")


def rollout(plant, controller, w: np.ndarray) -> RolloutResult:
    """Simulate the closed loop over the disturbance w (shape (T, p)).

    ``plant`` is an LtiPlant over T = len(w) or an LtvPlant of horizon T,
    and steps itself (``plant.advance``).  The controller's
    :data:`~compctrl.controllers.Law` is bound to w once.  An
    :class:`~compctrl.controllers.OfflineController` binds the clairvoyant
    law: its run is :func:`~compctrl.controllers.offline_optimal`'s forward
    pass, the same bits.  A controller made for another n, m, p or horizon
    raises ValueError naming it, before the first step.
    """
    w = _disturbance_record(plant, w)
    _check_fits(plant, controller, len(w))
    if isinstance(controller, OfflineController):
        law = _clairvoyant_law([plant], w)[0]
    else:
        law = _online(controller).bind(w)
    z = controller.make_state().z
    return _rollout_loop(w, plant.x0, plant.m, plant.Q, law, plant.advance(w), z)


@dataclass
class ComparisonResult:
    """Total costs of several controllers against the clairvoyant optimum.

    ``wall_ms`` holds the wall times of the offline solve and of the
    rollouts ("offline", "rollouts"), in ms; :meth:`to_json_dict` leaves
    them out, so the JSON of a seed is always the same bytes.
    """

    names: list
    total_costs: list
    ratios: list  # float or the string "degenerate-denominator"
    opt_cost: float
    rollouts: dict
    wall_ms: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "controllers": [
                {"name": nm, "total_cost": tc, "ratio_to_opt": r}
                for nm, tc, r in zip(self.names, self.total_costs, self.ratios)
            ],
            "opt_cost": self.opt_cost,
        }


def cost_ratio(alg: float, opt: float) -> Union[float, str]:
    """ALG/OPT with the degenerate-denominator convention."""
    if opt < DEGENERATE_OPT:
        return 1.0 if alg < DEGENERATE_OPT else "degenerate-denominator"
    return float(alg / opt)


def compare(plant, named_controllers, w: np.ndarray) -> ComparisonResult:
    """Roll out each named controller on the same disturbance and rank costs.

    ``named_controllers`` is a sequence of (name, controller) pairs or a
    dict; ``plant`` is taken as given, as by :func:`rollout`.  The
    clairvoyant optimum is computed once from the same plant and
    disturbance; each rollout checks its controller against the plant.
    """
    if isinstance(named_controllers, dict):
        items = list(named_controllers.items())
    else:
        items = list(named_controllers)
    start = time.perf_counter()
    _, opt = offline_optimal(plant, w)
    solved = time.perf_counter()
    names, totals, ratios, rollouts = [], [], [], {}
    for name, ctrl in items:
        res = rollout(plant, ctrl, w)
        names.append(name)
        totals.append(res.total_cost)
        ratios.append(cost_ratio(res.total_cost, opt))
        rollouts[name] = res
    wall_ms = {"offline": 1e3 * (solved - start),
               "rollouts": 1e3 * (time.perf_counter() - solved)}
    return ComparisonResult(
        names=names, total_costs=totals, ratios=ratios, opt_cost=float(opt),
        rollouts=rollouts, wall_ms=wall_ms,
    )


# ---------------------------------------------------------------------------
# file output


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path atomically (same-directory temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path: str, result: RolloutResult) -> None:
    """Write a rollout trace; a truncated run gains a FAILURE footer row."""
    p = result.w.shape[1]
    n = result.wprime.shape[1]
    m = result.u.shape[1]
    cols = (
        ["t"]
        + [f"w_{i}" for i in range(p)]
        + [f"wprime_{i}" for i in range(n)]
        + [f"x_{i}" for i in range(n)]
        + [f"u_{i}" for i in range(m)]
        + ["step_cost", "cum_cost"]
    )
    k = result.steps_completed
    columns = (result.w, result.wprime, result.x, result.u, result.step_cost, result.cum_cost)
    fmt = "%d" + ",%.17g" * (len(cols) - 1)
    lines = [",".join(cols)] + [
        fmt % tuple(row.tolist())
        for row in np.column_stack([np.arange(k)] + [c[:k] for c in columns])
    ]
    if result.status != "ok":
        footer = ["FAILURE", result.status] + [""] * (len(cols) - 2)
        lines.append(",".join(footer))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_comparison_json(path: str, result: ComparisonResult) -> None:
    atomic_write_text(path, json.dumps(result.to_json_dict(), indent=2) + "\n")
