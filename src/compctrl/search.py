"""Smallest-feasible-gamma search by doubling plus bisection.

Feasibility at a fixed gamma is a yes/no question, and it is monotone in
gamma, so the optimum is bracketed by doubling an initial guess until it is
feasible and then bisected to an absolute width ``tol``.  The returned level
is the feasible upper end of the final bracket.

A probe yields a verdict only: a certificate of feasibility (any value that
is not an :class:`~compctrl.controllers.Infeasible`) or an ``Infeasible``.
The plant-facing searches pose their problem once
(:func:`~compctrl.controllers._pose`) and build the controller from the
certificate at the returned level alone.

After the bracket (lo, hi] converges, an eight-point monotonicity audit
re-evaluates the four levels lo - 2*tol, ..., lo - 5*tol expecting
infeasibility and the four levels hi + tol, ..., hi + 4*tol expecting
feasibility; violations are reported as warnings on the result, never as
exceptions.  The levels are fixed offsets, so a search's probe sequence
depends only on the verdicts.  They go to the verdict step as one sequence
(:func:`~compctrl.controllers._attenuation`); a bracket probe is one level.

In the finite horizon a bracket probe is decided by the odd-even reduction
of the backward recursion (:func:`~compctrl.riccati._reduced_verdicts`),
which falls back to the recursion on a singular composite or a non-finite
H~ at or after the failing step.  The audit's levels run as lanes of the
recursion, and the returned level's schedule, from which its controller is
built, always comes from the sequential recursion: as one more lane of the
audit pass, or alone without an audit.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .controllers import CAUSAL, Infeasible, _attenuation, _pose, _schedule_verdict
from .model import LtvPlant
from .riccati import RiccatiSchedule, _Bisection, _first_failures, _reduced_verdicts

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
    is "unbounded-gamma" and ``controller`` is None.  ``probes`` keeps one
    record per probe, in order: ``{gamma, feasible, reason, iterations,
    first_violation, residual, wall_ms}``, the fixed-point doublings (None
    where none was solved) and, for an audit level, its share of the audit
    pass's wall time.  In the infinite horizon a failed doubling's reason is
    found after the audit, by one stacked bisection of every such probe,
    and the pass's wall time is shared among their records, so that the
    records' wall times still add up to the probing.  The records are
    report data and never enter a trace or sweep CSV.
    """

    gamma: Optional[float]
    gamma_lo: float
    controller: object = None
    reason: Optional[str] = None
    tol: float = 1e-3
    probes: list = field(default_factory=list)
    audit_warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.controller is not None

    @property
    def history(self) -> list:
        """The (gamma, feasible) pair of each probe, in order."""
        return [(p["gamma"], p["feasible"]) for p in self.probes]

    @property
    def iterations(self) -> int:
        """The number of probes: the feasibility evaluations."""
        return len(self.probes)


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
    ``tol``, ``gamma_floor`` and ``gamma_hi_init`` must be finite.  ``tol``
    is the absolute width of the final bracket, so a level below ``tol`` is
    certified no better than ``tol``.
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
    build: Callable = lambda certificate: certificate,
) -> GammaSearchResult:
    """The search of :func:`min_gamma`, probing through ``verdicts``, which
    maps a list of levels to their verdicts in order: one level per bracket
    probe, the audit's levels as one list.  The result's controller is
    ``build`` of the returned level's certificate."""
    if not all(map(math.isfinite, (tol, gamma_floor, gamma_hi_init))):
        raise ValueError("tol, gamma_floor and gamma_hi_init must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if gamma_hi_init <= gamma_floor:
        raise ValueError("gamma_hi_init must exceed gamma_floor")
    probes = []

    def probe(levels: list) -> list:
        start = time.perf_counter()
        results = verdicts(levels)
        wall_ms = 1e3 * (time.perf_counter() - start) / len(levels)
        out = []
        for g, res in zip(levels, results):
            feas = not isinstance(res, Infeasible)
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
                tol=tol,
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
        controller=build(certificate),
        tol=tol,
        probes=probes,
        audit_warnings=warnings,
    )


def min_gamma_hinf(
    plant,
    causality: str = "causal",
    horizon: Optional[int] = None,
    tol: float = 1e-3,
    gamma_hi_init: float = 1.0,
    audit: bool = True,
) -> GammaSearchResult:
    """Smallest feasible attenuation level for the given plant, to the
    absolute bracket width ``tol`` (:func:`min_gamma`): a level below ``tol``
    is certified no better than ``tol``."""
    return _plant_search(plant, "hinf", causality, horizon, 0.0, gamma_hi_init, tol, audit)


def min_gamma_competitive(
    plant,
    causality: str = "causal",
    horizon: Optional[int] = None,
    tol: float = 1e-3,
    gamma_hi_init: float = 2.0,
    audit: bool = True,
) -> GammaSearchResult:
    """Smallest certifiable cost-ratio level gamma (the ratio bound is gamma^2).

    ``tol`` is an absolute bracket width, as in :func:`min_gamma`.
    """
    return _plant_search(plant, "competitive", causality, horizon, 1.0, gamma_hi_init, tol, audit)


def _plant_search(plant, kind, causality, horizon, gamma_floor, gamma_hi_init, tol, audit):
    """The search of :func:`min_gamma_hinf` (``kind`` "hinf") and
    :func:`min_gamma_competitive` ("competitive").  On an LtvPlant the
    bracket probes go to the reduction, and the returned level rides the
    audit pass as one more, unrecorded lane (see the module docstring);
    should the recursion reject that level, the search runs again on the
    recursion alone."""
    plant, build = _pose(plant, kind, causality, horizon)
    sequential = functools.partial(_attenuation, plant, causality=causality)
    if not isinstance(plant, LtvPlant):
        deferred = functools.partial(sequential, defer=True)
        return _resolved(_search(deferred, gamma_floor, gamma_hi_init, tol, audit, build))

    hi = {}  # the level of the last feasible probe; then its recursion

    def verdicts(levels: list) -> list:
        if len(levels) > 1:  # the audit: the level certified so far rides as one more lane
            *out, hi["solve"] = sequential(levels + [hi["gamma"]])
            return out
        [gamma] = levels
        # a causal probe reads the causal verdict alone
        pair = _reduced_verdicts(plant, gamma, strict=causality != CAUSAL)
        verdict = _schedule_verdict(plant, RiccatiSchedule(gamma, None, *pair), causality)
        if not isinstance(verdict, Infeasible):
            hi["gamma"] = gamma
        return [verdict]

    def certified(solve):
        solve = hi["solve"] if "solve" in hi else sequential(solve.gamma)
        return None if isinstance(solve, Infeasible) else build(solve)

    result = _search(verdicts, gamma_floor, gamma_hi_init, tol, audit, certified)
    if result.gamma is not None and result.controller is None:
        return _search(sequential, gamma_floor, gamma_hi_init, tol, audit, build)
    return result


def _resolved(result: GammaSearchResult) -> GammaSearchResult:
    """``result`` with the reasons that its failed probes left pending found
    by one :func:`~compctrl.riccati._first_failures` pass, whose wall time
    is shared among their records."""
    pending = [p for p in result.probes if isinstance(p["reason"], _Bisection)]
    if pending:
        start = time.perf_counter()
        reasons = _first_failures([p["reason"] for p in pending])
        share = 1e3 * (time.perf_counter() - start) / len(pending)
        for p, reason in zip(pending, reasons):
            p["reason"], p["wall_ms"] = reason, p["wall_ms"] + share
    return result
