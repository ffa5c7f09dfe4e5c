"""Smallest-feasible-gamma search by doubling plus bisection.

Feasibility at a fixed gamma is a yes/no question, and it is monotone in
gamma, so the optimum is bracketed by doubling an initial guess until it is
feasible and then bisected to an absolute width ``tol``.  The returned level
is the feasible upper end of the final bracket.

A probe yields a verdict only: a certificate of feasibility (any value that
is not an :class:`~compctrl.controllers.Infeasible`) or an ``Infeasible``.
For the plant-facing searches a certificate is the game Riccati solve that
passed the existence test, and the controller is built once, from the
certificate at the returned level, so no probe computes gains and nothing
is solved twice.

After the bracket (lo, hi] converges, an eight-point monotonicity audit
re-evaluates the four levels lo - 2*tol, ..., lo - 5*tol expecting
infeasibility and the four levels hi + tol, ..., hi + 4*tol expecting
feasibility; violations are reported as warnings on the result, never as
exceptions.  The levels are fixed offsets, so a search's probe sequence
depends only on the verdicts.  They go to the verdict step as one sequence:
on a finite horizon one backward recursion carries them as a stack
(:func:`~compctrl.riccati.hinf_backward`); in the infinite horizon each
level keeps its own fixed-point solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .controllers import (
    Infeasible,
    _attenuation,
    _check_causality,
    _competitive_controller,
    _hinf_controller,
    _normalize_horizon,
    _synthetic_plant,
)

__all__ = ["GammaSearchResult", "min_gamma", "min_gamma_hinf", "min_gamma_competitive"]

GAMMA_CAP = float(2**20)


@dataclass
class GammaSearchResult:
    """Outcome of a gamma search.

    ``gamma`` is the certified feasible level (upper end of the final
    bracket); ``controller`` is the certificate of exactly that level: for
    :func:`min_gamma` whatever the feasibility callback returned there, for
    the plant-facing searches the controller built from it.  If the
    doubling phase hits the cap without finding a feasible level, ``reason``
    is "unbounded-gamma" and ``controller`` is None.  ``history`` keeps the
    (gamma, feasible) pairs, and ``probes`` one record per probe: ``{gamma,
    feasible, reason, iterations, first_violation, residual, wall_ms}``, the
    fixed-point doublings (None where none was solved) and, for an audit
    level, its share of the audit pass's wall time.  The records are report
    data and never enter a trace or sweep CSV.
    """

    gamma: Optional[float]
    gamma_lo: float
    controller: object = None
    reason: Optional[str] = None
    iterations: int = 0
    tol: float = 1e-3
    history: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    audit_warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.controller is not None


def min_gamma(
    feasibility: Callable[[float], object],
    gamma_floor: float = 0.0,
    gamma_hi_init: float = 1.0,
    tol: float = 1e-3,
    audit: bool = True,
) -> GammaSearchResult:
    """Bisect the smallest gamma for which ``feasibility`` certifies feasibility.

    ``feasibility(gamma)`` is a verdict: it returns an :class:`Infeasible`
    value or any other value as a certificate of feasibility.  The result's
    ``controller`` is the certificate of the returned level, as returned;
    building a controller from it is the caller's business, done once.  A
    certificate's ``diagnostics`` dict and a rejection's ``details`` fill the
    probe record's ``iterations``, ``first_violation`` and ``residual``
    where they carry those keys.  ``gamma_floor`` is an open lower bound
    that is never evaluated (0 for attenuation, 1 for cost ratios).
    ``tol``, ``gamma_floor`` and ``gamma_hi_init`` must be finite.
    """
    return _search(
        lambda levels: [feasibility(g) for g in levels],
        gamma_floor, gamma_hi_init, tol, audit,
    )


def _search(
    verdicts: Callable[[list], list],
    gamma_floor: float,
    gamma_hi_init: float,
    tol: float,
    audit: bool,
) -> GammaSearchResult:
    """The search of :func:`min_gamma`, probing through ``verdicts``, which
    maps a list of levels to their verdicts in order: one level per bracket
    probe, the audit's levels as one list."""
    if not all(map(math.isfinite, (tol, gamma_floor, gamma_hi_init))):
        raise ValueError("tol, gamma_floor and gamma_hi_init must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if gamma_hi_init <= gamma_floor:
        raise ValueError("gamma_hi_init must exceed gamma_floor")
    history = []
    probes = []

    def probe(levels: list) -> list:
        start = time.perf_counter()
        results = verdicts(levels)
        wall_ms = 1e3 * (time.perf_counter() - start) / len(levels)
        out = []
        for g, res in zip(levels, results):
            feas = not isinstance(res, Infeasible)
            history.append((g, feas))
            info = (getattr(res, "diagnostics", None) if feas else res.details) or {}
            probes.append(
                {
                    "gamma": g,
                    "feasible": feas,
                    "reason": None if feas else res.reason,
                    "iterations": info.get("iterations"),
                    "first_violation": info.get("first_violation"),
                    "residual": info.get("residual"),
                    "wall_ms": wall_ms,
                }
            )
            out.append((res, feas))
        return out

    lo = gamma_floor
    hi = gamma_hi_init
    [(res, feas)] = probe([hi])
    while not feas:
        lo = hi
        hi = 2.0 * hi
        if hi > GAMMA_CAP:
            return GammaSearchResult(
                gamma=None,
                gamma_lo=lo,
                reason="unbounded-gamma",
                iterations=len(history),
                tol=tol,
                history=history,
                probes=probes,
            )
        [(res, feas)] = probe([hi])
    certificate = res

    max_iter = int(math.ceil(math.log2(max((hi - lo) / tol, 1.0)))) + 25
    steps = 0
    while hi - lo > tol and steps < max_iter:
        mid = 0.5 * (lo + hi)
        [(res, feas)] = probe([mid])
        if feas:
            hi, certificate = mid, res
        else:
            lo = mid
        steps += 1

    warnings = []
    if audit:
        below = [g for g in (lo - (2 + k) * tol for k in range(4)) if g > gamma_floor]
        above = [hi + k * tol for k in range(1, 5)]
        checked = probe(below + above)
        for g, (_, feas) in zip(below, checked):
            if feas:
                warnings.append(
                    f"monotonicity violation: gamma={g:.9g} feasible below bracket"
                )
        for g, (_, feas) in zip(above, checked[len(below):]):
            if not feas:
                warnings.append(
                    f"monotonicity violation: gamma={g:.9g} infeasible above bracket"
                )

    return GammaSearchResult(
        gamma=hi,
        gamma_lo=lo,
        controller=certificate,
        iterations=len(history),
        tol=tol,
        history=history,
        probes=probes,
        audit_warnings=warnings,
    )


def _built(result: GammaSearchResult, build) -> GammaSearchResult:
    """``result`` with its certificate replaced by ``build(certificate)``."""
    if not result.ok:
        return result
    return replace(result, controller=build(result.controller))


def min_gamma_hinf(
    plant,
    causality: str = "causal",
    horizon: Optional[int] = None,
    tol: float = 1e-3,
    gamma_hi_init: float = 1.0,
    audit: bool = True,
) -> GammaSearchResult:
    """Smallest feasible attenuation level for the given plant."""
    _check_causality(causality)
    plant = _normalize_horizon(plant, horizon)

    def verdicts(levels: list) -> list:
        return _attenuation(plant, levels, causality)

    result = _search(verdicts, 0.0, gamma_hi_init, tol, audit)
    return _built(result, _hinf_controller)


def min_gamma_competitive(
    plant,
    causality: str = "causal",
    horizon: Optional[int] = None,
    tol: float = 1e-3,
    gamma_hi_init: float = 2.0,
    audit: bool = True,
) -> GammaSearchResult:
    """Smallest certifiable cost-ratio level gamma (the ratio bound is gamma^2).

    The gamma-independent synthetic plant is built once for all probes.
    """
    _check_causality(causality)
    plant = _normalize_horizon(plant, horizon)
    syn = _synthetic_plant(plant)
    syn_plant = syn.as_plant()

    def verdicts(levels: list) -> list:
        return _attenuation(syn_plant, levels, causality)

    result = _search(verdicts, 1.0, gamma_hi_init, tol, audit)
    return _built(result, lambda solve: _competitive_controller(syn, solve))
