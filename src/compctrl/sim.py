"""Disturbance generation, closed-loop rollouts, and cost comparisons.

Disturbances are described by small declarative specs (white Gaussian noise,
sinusoids, piecewise-constant steps, DC offsets, a sinusoid-mean Gaussian,
and weighted mixtures of these).  Random kinds draw from the counter-based
Philox generator so that runs are reproducible bit-for-bit from a seed and
mixture components get independent streams via jumps.

Rollouts step a controller against a plant for a disturbance realization,
recording states, controls, per-step and cumulative costs, and (for
ratio-optimal controllers) the internal filtered disturbance w'.  A state
norm above 1e6 truncates the run with status "diverged" instead of raising.

Trace CSVs are written atomically (temp file + rename) with %.17g floats and
LF line endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .controllers import (
    OfflineController,
    control_step,
    offline_optimal,
)
from .model import LtiPlant, LtvPlant

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
    ``wprime`` holds the controller's internal filtered disturbance, row t
    being the value in effect before w_t is absorbed (zeros for controllers
    without a filter).
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


def _rollout_loop(w, x0, m, Q, policy, advance) -> RolloutResult:
    """The loop of every rollout.

    Per step ``policy(t, x_t, w_t)`` gives (u_t, w'_t), the step costs
    x_t'Q_t x_t + u_t'u_t and ``advance(t, x_t, u_t, w_t)`` gives x_{t+1}.
    A divergent state or a :class:`_StopRollout` from the policy ends the
    run; the arrays keep the steps completed.
    """
    T, n = w.shape[0], x0.shape[0]
    x = np.zeros((T + 1, n))
    x[0] = x0
    u = np.zeros((T, m))
    wprime = np.zeros((T, n))
    step_cost = np.zeros(T)
    cum = np.zeros(T)
    running = 0.0
    status = "ok"
    steps = 0
    for t in range(T):
        try:
            u_t, wprime[t] = policy(t, x[t], w[t])
        except _StopRollout as stop:
            status = stop.status
            break
        u[t] = u_t
        step_cost[t] = float(x[t] @ Q[t] @ x[t] + u_t @ u_t)
        running += step_cost[t]
        cum[t] = running
        x[t + 1] = advance(t, x[t], u_t, w[t])
        steps = t + 1
        if not np.linalg.norm(x[t + 1]) <= DIVERGENCE_NORM:  # also NaN and inf
            status = "diverged"
            break
    return RolloutResult(
        w=w[:steps],
        wprime=wprime[:steps],
        x=x[: steps + 1],
        u=u[:steps],
        step_cost=step_cost[:steps],
        cum_cost=cum[:steps],
        total_cost=running,
        status=status,
        steps_completed=steps,
    )


def _as_ltv(plant, T: int) -> LtvPlant:
    if isinstance(plant, LtvPlant):
        if plant.T != T:
            raise ValueError("disturbance length does not match the plant horizon")
        return plant
    return plant.to_ltv(T)


def rollout(plant, controller, w: np.ndarray) -> RolloutResult:
    """Simulate the closed loop over the disturbance w (shape (T, p))."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    T = w.shape[0]
    ltv = _as_ltv(plant, T)
    if w.shape != (T, ltv.p):
        raise ValueError(f"disturbance must have shape (T, p) = {(T, ltv.p)}")
    if controller.horizon is not None and controller.horizon != T:
        raise ValueError("controller horizon does not match the disturbance length")

    no_wprime = np.zeros(ltv.n)
    state = controller.make_state()
    u_all = offline_optimal(ltv, w)[0] if isinstance(controller, OfflineController) else None

    def policy(t, x, w_t):
        if u_all is not None:
            return u_all[t], no_wprime
        wp = no_wprime if state.filter is None else state.filter.wprime_now()
        return control_step(controller, state, x, w_t)[0], wp

    def advance(t, x, u_t, w_t):
        return ltv.A[t] @ x + ltv.Bu[t] @ u_t + ltv.Bw[t] @ w_t

    return _rollout_loop(w, ltv.x0, ltv.m, ltv.Q, policy, advance)


@dataclass
class ComparisonResult:
    """Total costs of several controllers against the clairvoyant optimum."""

    names: list
    total_costs: list
    ratios: list  # float or the string "degenerate-denominator"
    opt_cost: float
    rollouts: dict

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
    dict.  The clairvoyant optimum is computed once from the same plant and
    disturbance.
    """
    if isinstance(named_controllers, dict):
        items = list(named_controllers.items())
    else:
        items = list(named_controllers)
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    ltv = _as_ltv(plant, w.shape[0])
    _, opt = offline_optimal(ltv, w)
    names, totals, ratios, rollouts = [], [], [], {}
    for name, ctrl in items:
        res = rollout(ltv, ctrl, w)
        names.append(name)
        totals.append(res.total_cost)
        ratios.append(cost_ratio(res.total_cost, opt))
        rollouts[name] = res
    return ComparisonResult(
        names=names, total_costs=totals, ratios=ratios, opt_cost=float(opt),
        rollouts=rollouts,
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


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


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
    lines = [",".join(cols)]
    for t in range(result.steps_completed):
        row = (
            [str(t)]
            + [_fmt(v) for v in result.w[t]]
            + [_fmt(v) for v in result.wprime[t]]
            + [_fmt(v) for v in result.x[t]]
            + [_fmt(v) for v in result.u[t]]
            + [_fmt(result.step_cost[t]), _fmt(result.cum_cost[t])]
        )
        lines.append(",".join(row))
    if result.status != "ok":
        footer = ["FAILURE", result.status] + [""] * (len(cols) - 2)
        lines.append(",".join(footer))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_comparison_json(path: str, result: ComparisonResult) -> None:
    atomic_write_text(path, json.dumps(result.to_json_dict(), indent=2) + "\n")
