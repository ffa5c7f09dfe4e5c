"""Disturbance generation, closed-loop rollouts, and cost comparisons.

Disturbances are described by small declarative specs (white Gaussian noise,
sinusoids, piecewise-constant steps, DC offsets, a sinusoid-mean Gaussian,
and weighted mixtures of these).  Random kinds draw from the counter-based
Philox generator so that runs are reproducible bit-for-bit from a seed and
mixture components get independent streams via jumps.

Rollouts (:func:`rollout`) step a controller against a plant through one
loop, :func:`_rollout_loop`, recording states, controls, costs and w'.

Trace CSVs are written atomically (temp file + rename) with %.17g floats and
LF line endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .controllers import OfflineController, _clairvoyant_law, _online, offline_optimal
from .model import _disturbance_record, _json_field, _json_object, step_costs

__all__ = [
    "DisturbanceSpec",
    "generate",
    "RolloutResult",
    "rollout",
    "ComparisonResult",
    "compare",
    "write_trace_csv",
    "write_comparison_json",
    "cost_ratio",
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
    obj = dict(_json_object(obj, "disturbance spec"))
    kind = _json_field(obj, "kind", "disturbance spec")
    del obj["kind"]
    if kind == "mixture":
        components = _json_field(obj, "components", "disturbance spec")
        obj["components"] = [spec_from_json_dict(c) for c in components]
    return DisturbanceSpec(kind=kind, params=obj)


def _direction(read, p: int) -> np.ndarray:
    d = read("direction", nullable=True, default=None,
             convert=lambda v: np.asarray(v, dtype=float).reshape(-1))
    if d is None:
        d = np.ones(p)
    if d.shape != (p,):
        raise ValueError(f"direction must have length p = {p}")
    norm = float(np.linalg.norm(d))
    if norm <= 0:
        raise ValueError("direction must be nonzero")
    return d / norm


def _generate_one(spec: DisturbanceSpec, T: int, p: int, bitgen) -> np.ndarray:
    kind, params = spec.kind, spec.params
    read = functools.partial(_json_field, params, what=f"{kind} disturbance spec")
    if kind == "white-gaussian":
        sigma = read("sigma", default=1.0, convert=float)
        rng = np.random.Generator(bitgen)
        return sigma * rng.standard_normal((T, p))
    if kind == "sinusoid":
        omega = read("omega", convert=float)
        amp = read("amplitude", default=1.0, convert=float)
        d = _direction(read, p)
        t = np.arange(T)
        return amp * np.sin(omega * t)[:, None] * d[None, :]
    if kind == "step":
        levels = read("levels", convert=lambda v: [float(x) for x in v])
        switches = read("switch_times", default=[], convert=lambda v: [int(s) for s in v])
        if len(switches) != len(levels) - 1:
            raise ValueError("step needs len(switch_times) == len(levels) - 1")
        if sorted(switches) != switches:
            raise ValueError("switch_times must be nondecreasing")
        d = _direction(read, p)
        t = np.arange(T)
        idx = np.searchsorted(np.asarray(switches), t, side="right")
        return np.asarray(levels)[idx][:, None] * d[None, :]
    if kind == "dc":
        d = _direction(read, p)
        return np.tile(d, (T, 1))
    if kind == "sine-mean-gaussian":
        mean_amp = read("mean_amplitude", default=1.0, convert=float)
        mean_omega = read("mean_omega", default=1e-3, convert=float)
        sigma = read("sigma", default=1.0, convert=float)
        d = _direction(read, p)
        rng = np.random.Generator(bitgen)
        t = np.arange(T)
        mean = mean_amp * np.sin(mean_omega * t)[:, None] * d[None, :]
        return mean + sigma * rng.standard_normal((T, p))
    if kind == "mixture":
        comps = read("components")
        if not comps:
            raise ValueError("mixture needs at least one component")
        weights = read("weights", nullable=True, default=None,
                       convert=lambda v: [float(x) for x in v])
        if weights is None:
            weights = [1.0 / len(comps)] * len(comps)
        if len(weights) != len(comps):
            raise ValueError("mixture needs one weight per component")
        w = np.zeros((T, p))
        for i, (comp, wt) in enumerate(zip(comps, weights)):
            w += wt * _generate_one(comp, T, p, bitgen.jumped(i))
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
    but never weighted); all other arrays have ``steps_completed`` rows;
    ``wprime`` holds the law's w'_t (:func:`_rollout_loop`).
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
    """The loop of every rollout: per step, only the recursion.

    The :data:`~compctrl.controllers.Law` ``law(t, x_t, z_t)`` gives (u_t,
    z_{t+1}, w'_t), z_0 = ``z``; row t of ``wprime`` is w'_t, or 0 where the
    law gives None.  ``advance(t, x_t, u_t)`` gives x_{t+1}.  A
    :class:`_StopRollout` from the law, or a state whose x'x (by ``dot``) is
    not at most ``DIVERGENCE_NORM`` squared, NaN included, ends the run with
    the steps completed: sqrt is correctly rounded and 1e6 squared is exact,
    so this decides as ||x|| <= 1e6 would.  The step costs (``Q`` one (n, n)
    weight or a (T, n, n) stack) come after the loop, from
    :func:`~compctrl.model.step_costs`.
    """
    T, n = w.shape[0], x0.shape[0]
    x = np.zeros((T + 1, n))
    x[0] = x0
    u = np.zeros((T, m))
    wprime = np.zeros((T, n))
    status = "ok"
    steps = 0
    x_t = x[0]
    bound = DIVERGENCE_NORM * DIVERGENCE_NORM
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
        if not x_t.dot(x_t) <= bound:  # also NaN and inf
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
    """Simulate the closed loop over the disturbance w (shape (T, p)) on an
    LtiPlant over T = len(w) or an LtvPlant of horizon T, the controller's
    :data:`~compctrl.controllers.Law` bound to w (for an
    :class:`~compctrl.controllers.OfflineController`, the clairvoyant law).
    A controller made for another n, m, p or horizon raises ValueError
    naming it, before the first step.
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
    """Roll out each named controller ((name, controller) pairs or a dict)
    by :func:`rollout` on the same plant and disturbance, with its ratio to
    the clairvoyant optimum, computed once."""
    items = list(named_controllers.items() if isinstance(named_controllers, dict)
                 else named_controllers)
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
