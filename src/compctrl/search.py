"""Smallest-feasible-gamma search by doubling plus bisection.

Synthesis at a fixed gamma is a yes/no question (controller or
:class:`~compctrl.controllers.Infeasible`), and feasibility is monotone in
gamma, so the optimum is bracketed by doubling an initial guess until it is
feasible and then bisected to an absolute width ``tol``.  The returned level
is the feasible upper end of the final bracket, together with the controller
synthesized there.

After the bracket (lo, hi] converges, an eight-point monotonicity audit
re-evaluates the four levels lo - 2*tol, ..., lo - 5*tol expecting
infeasibility and the four levels hi + tol, ..., hi + 4*tol expecting
feasibility; violations are reported as warnings on the result, never as
exceptions.  The levels are fixed offsets, so a search's probe sequence
depends only on the verdicts.

Every probe is logged twice: ``history`` keeps (gamma, feasible) pairs and
``probes`` keeps a record per probe with the reason code of a rejection and
the fixed-point doublings it took (None where no fixed point was solved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .controllers import (
    Infeasible,
    _normalize_horizon,
    _synthetic_plant,
    synth_competitive,
    synth_hinf,
)

__all__ = ["GammaSearchResult", "min_gamma", "min_gamma_hinf", "min_gamma_competitive"]

GAMMA_CAP = float(2**20)


@dataclass
class GammaSearchResult:
    """Outcome of a gamma search.

    ``gamma`` is the certified feasible level (upper end of the final
    bracket); ``controller`` was synthesized at exactly that level.  If the
    doubling phase hits the cap without finding a feasible level, ``reason``
    is "unbounded-gamma" and ``controller`` is None.  ``probes`` parallels
    ``history`` with one ``{gamma, feasible, reason, iterations}`` record per
    probe.
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
    """Bisect the smallest gamma for which ``feasibility`` returns a controller.

    ``feasibility(gamma)`` must return either a controller object or an
    :class:`Infeasible` value.  ``gamma_floor`` is an open lower bound that
    is never evaluated (0 for attenuation, 1 for cost ratios).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if gamma_hi_init <= gamma_floor:
        raise ValueError("gamma_hi_init must exceed gamma_floor")
    history = []
    probes = []

    def probe(g: float):
        res = feasibility(g)
        feas = not isinstance(res, Infeasible)
        history.append((g, feas))
        info = getattr(res, "diagnostics", None) if feas else res.details
        probes.append(
            {
                "gamma": g,
                "feasible": feas,
                "reason": None if feas else res.reason,
                "iterations": (info or {}).get("iterations"),
            }
        )
        return res, feas

    lo = gamma_floor
    hi = gamma_hi_init
    res, feas = probe(hi)
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
        res, feas = probe(hi)
    controller = res

    max_iter = int(math.ceil(math.log2(max((hi - lo) / tol, 1.0)))) + 25
    steps = 0
    while hi - lo > tol and steps < max_iter:
        mid = 0.5 * (lo + hi)
        res, feas = probe(mid)
        if feas:
            hi, controller = mid, res
        else:
            lo = mid
        steps += 1

    warnings = []
    if audit:
        below = [lo - (2 + k) * tol for k in range(4)]
        for g in below:
            if g <= gamma_floor:
                continue
            _, feas = probe(g)
            if feas:
                warnings.append(
                    f"monotonicity violation: gamma={g:.9g} feasible below bracket"
                )
        for k in range(1, 5):
            g = hi + k * tol
            _, feas = probe(g)
            if not feas:
                warnings.append(
                    f"monotonicity violation: gamma={g:.9g} infeasible above bracket"
                )

    return GammaSearchResult(
        gamma=hi,
        gamma_lo=lo,
        controller=controller,
        iterations=len(history),
        tol=tol,
        history=history,
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
    """Smallest feasible attenuation level for the given plant."""

    def feas(g: float):
        return synth_hinf(plant, g, causality=causality, horizon=horizon)

    return min_gamma(
        feas, gamma_floor=0.0, gamma_hi_init=gamma_hi_init, tol=tol, audit=audit
    )


def min_gamma_competitive(
    plant,
    causality: str = "causal",
    horizon: Optional[int] = None,
    tol: float = 1e-3,
    gamma_hi_init: float = 2.0,
    audit: bool = True,
) -> GammaSearchResult:
    """Smallest certifiable cost-ratio level gamma (the ratio bound is gamma^2).

    The gamma-independent synthetic plant (the disturbance factorization
    and, in the infinite horizon with p < n, the outer factor of the w'
    filter) is built once and reused across all probes.
    """
    _, plant = _normalize_horizon(plant, horizon)
    syn = _synthetic_plant(plant)

    def feas(g: float):
        return synth_competitive(plant, g, causality=causality, _synthetic=syn)

    return min_gamma(
        feas, gamma_floor=1.0, gamma_hi_init=gamma_hi_init, tol=tol, audit=audit
    )
