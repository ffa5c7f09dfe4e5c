"""Command-line front end.

Subcommands:

* ``synth``     synthesize a controller (fixed level or bisected optimum)
                and write it as JSON, with a diagnostics report;
* ``simulate``  roll controllers against a disturbance realization, writing
                trace CSVs and a cost comparison JSON against the
                clairvoyant optimum;
* ``freq``      per-frequency peak gain and cost ratio sweep to CSV;
* ``mpc``       run a pendulum scenario (gain-scheduled controller plus the
                receding-horizon clairvoyant comparator);
* ``verify``    self-check the factorization identities, filter causality,
                and offline-solver agreement on a given plant.

simulate, freq, mpc and verify print their wall times (``wall_ms``, or
``synth_s``) in the stdout JSON, never in a file.  Synthesizing at an
explicitly fixed, infeasible level exits with status 2 and a verdict JSON
on stdout; other failures exit 1 with a message on stderr.  All file
outputs are written atomically.  The default seed is taken from the
COMPCTRL_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import time

import numpy as np

from .controllers import (
    Infeasible,
    _cost_of_controls,
    controller_from_json_dict,
    controller_to_json_dict,
    offline_optimal,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
)
from .factorization import (
    FactorizationError,
    _filter_run,
    delta_inv_transfer,
    delta_transfer,
    dense_delta,
    outer_factor_ih,
    spectral_factor_ih,
    whitening_fh,
)
from .freq import open_loop_maps, sweep, write_sweep_csv
from .model import (
    _STEP_ARRAYS,
    LtiPlant,
    LtvPlant,
    build_dense_operators,
    load_bundled_plant,
    plant_from_json_dict,
    shifted_solve,
)
from .mpc import MpcInfeasibleError, run_scenario, scenario_from_json_dict
from .riccati import pbh_detectable, pbh_stabilizable, spectral_radius
from .search import min_gamma_competitive, min_gamma_hinf
from .sim import (
    DisturbanceSpec,
    atomic_write_text,
    compare,
    generate,
    spec_from_json_dict,
    write_comparison_json,
    write_trace_csv,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _default_seed() -> int:
    return int(os.environ.get("COMPCTRL_SEED", "0"))


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(_jsonable(obj), indent=2) + "\n")


def _print_json(obj) -> None:
    print(json.dumps(_jsonable(obj), indent=2))


def _load_json(path: str):
    """The JSON document at ``path``; a ValueError naming ``path`` when the
    file is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not a JSON file: {exc}") from exc


def _load_plant(spec: str):
    if spec.startswith("builtin:"):
        return load_bundled_plant(spec.split(":", 1)[1])
    return plant_from_json_dict(_load_json(spec))


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _parse_controllers(values):
    """Each value is NAME=PATH or a bare PATH (name = file stem)."""
    out = []
    for val in values:
        if "=" in val:
            name, path = val.split("=", 1)
        else:
            path = val
            name = os.path.splitext(os.path.basename(path))[0]
        out.append((name, controller_from_json_dict(_load_json(path))))
    return out


def _scalar_diagnostics(diag: dict) -> dict:
    return {
        k: _jsonable(v)
        for k, v in diag.items()
        if isinstance(v, (int, float, bool, str, np.generic))
    }


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args) -> int:
    plant = _load_plant(args.plant)
    kind = args.kind
    if kind == "h2":
        for flag, value in (("--gamma", args.gamma), ("--horizon", args.horizon)):
            if value is not None:
                raise ValueError(f"{flag} does not apply to --kind h2")
        ctrl = synth_h2_ih(plant, causality=args.causality)
        level = {"gamma": None}
    elif args.gamma is not None:
        synth = synth_hinf if kind == "hinf" else synth_competitive
        ctrl = synth(plant, args.gamma, causality=args.causality, horizon=args.horizon)
        if isinstance(ctrl, Infeasible):
            _print_json(
                {
                    "feasible": False,
                    "kind": kind,
                    "gamma": ctrl.gamma,
                    "reason": ctrl.reason,
                    "details": ctrl.details,
                }
            )
            return EXIT_INFEASIBLE
        level = {
            "gamma": args.gamma,
            "gamma_squared": args.gamma * args.gamma,
            "feasible": True,
        }
    else:
        find = min_gamma_hinf if kind == "hinf" else min_gamma_competitive
        found = find(
            plant, causality=args.causality, horizon=args.horizon, tol=args.tol
        )
        if not found.ok:
            _print_json(
                {
                    "feasible": False,
                    "kind": kind,
                    "reason": found.reason,
                    "gamma_lo": found.gamma_lo,
                }
            )
            return EXIT_INFEASIBLE
        ctrl = found.controller
        level = {
            "gamma": found.gamma,
            "gamma_squared": found.gamma * found.gamma,
            "gamma_bracket": [found.gamma_lo, found.gamma],
            "bisection_tol": found.tol,
            "feasibility_evaluations": found.iterations,
            "audit_warnings": found.audit_warnings,
            "probes": found.probes,
        }
    report = {
        "kind": kind,
        "causality": args.causality,
        **level,
        "diagnostics": _scalar_diagnostics(ctrl.diagnostics),
    }
    _write_json(args.out, controller_to_json_dict(ctrl))
    if args.report:
        _write_json(args.report, report)
    else:
        _print_json(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    plant = _load_plant(args.plant)
    named = _parse_controllers(args.controller)
    if args.disturbance:
        spec = spec_from_json_dict(_load_json(args.disturbance))
    else:
        spec = DisturbanceSpec("white-gaussian", {"sigma": 1.0})
    if isinstance(plant, LtvPlant):
        steps = plant.T
        if args.steps is not None and args.steps != steps:
            raise ValueError("--steps conflicts with the plant's horizon")
    else:
        if args.steps is None:
            raise ValueError("--steps is required for a time-invariant plant")
        steps = args.steps
    w = generate(spec, steps, plant.p, seed=args.seed)
    result = compare(plant, named, w)
    os.makedirs(args.trace_dir, exist_ok=True)
    start = time.perf_counter()
    for name in result.names:
        write_trace_csv(
            os.path.join(args.trace_dir, f"trace_{_safe_name(name)}.csv"),
            result.rollouts[name],
        )
    wall_ms = {**result.wall_ms, "csv": 1e3 * (time.perf_counter() - start)}
    write_comparison_json(args.out, result)
    _print_json({**result.to_json_dict(), "wall_ms": wall_ms})
    return EXIT_OK


# ---------------------------------------------------------------------------
# freq


def _cmd_freq(args) -> int:
    plant = _load_plant(args.plant)
    if not isinstance(plant, LtiPlant):
        raise ValueError("frequency sweeps need a time-invariant plant")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    named = _parse_controllers(args.controller)
    start = time.perf_counter()
    result = sweep(plant, named, n_points=args.points)
    swept = time.perf_counter()
    write_sweep_csv(args.out, result)
    wall_ms = {"sweep": 1e3 * (swept - start), "csv": 1e3 * (time.perf_counter() - swept)}
    summary = {}
    for name in result.names:
        ratios = [r for r in result.per_freq_cr[name] if not isinstance(r, str)]
        summary[name] = {
            "peak_sigma_max": float(np.max(result.sigma_max[name])),
            "max_per_freq_cr": (max(ratios) if ratios else None),
            "degenerate_frequencies": sum(
                1 for r in result.per_freq_cr[name] if isinstance(r, str)
            ),
        }
    _print_json(
        {
            "points": len(result.omegas),
            "controllers": summary,
            "gram_cached": result.gram_cached,
            "csv": args.out,
            "wall_ms": wall_ms,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# mpc


def _cmd_mpc(args) -> int:
    scenario = scenario_from_json_dict(_load_json(args.scenario))
    try:
        out = run_scenario(scenario, seed=args.seed)
    except MpcInfeasibleError as exc:
        _print_json({"feasible": False, "reason": str(exc)})
        return EXIT_INFEASIBLE
    roll, comp, controller = out["rollout"], out["comparator"], out["controller"]
    if args.trace:
        write_trace_csv(args.trace, roll)
    summary = {
        "kind": scenario.kind,
        "causality": scenario.causality,
        "gamma": out["gamma"],
        "seed": args.seed,
        "status": roll.status,
        "steps_completed": roll.steps_completed,
        "total_cost": roll.total_cost,
        "comparator_cost": comp.total_cost,
        "comparator_status": comp.status,
        "ratio_to_comparator": out["ratio_to_comparator"],
        "bins_synthesized": controller.bins_synthesized,
        "bin_cache_hits": controller.bin_cache_hits,
    }
    if args.out:
        _write_json(args.out, summary)
    _print_json({**summary, "synth_s": controller.synth_s})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check(name, value, threshold):
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "ok": bool(value <= threshold),
    }


def run_verification(plant, horizon: int, seed: int) -> dict:
    """Machinery self-checks on one plant; returns a JSON-ready report.

    ``wall_ms`` holds the milliseconds of each phase: the finite-horizon
    factorization, the w' causality check, the offline routes and, for a
    time-invariant plant, the infinite-horizon checks.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    checks = []
    info = {}
    wall_ms = {}
    start = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal start
        now = time.perf_counter()
        wall_ms[phase] = 1e3 * (now - start)
        start = now

    if isinstance(plant, LtvPlant):
        ltv = dataclasses.replace(plant, x0=np.zeros(plant.n))
        lti = None
    else:
        lti = dataclasses.replace(plant, x0=np.zeros(plant.n))
        ltv = lti.to_ltv(horizon)

    # finite-horizon factorization identity Delta Delta' = I + F F'
    schedule = whitening_fh(ltv)
    D = dense_delta(ltv, schedule)
    ops = build_dense_operators(ltv)
    lhs = D @ D.T
    rhs = np.eye(ops.n * ops.T) + ops.F @ ops.F.T
    err = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    checks.append(_check("fh-factorization-identity", err, 1e-8))
    lap("fh_factorization")

    # strict causality of the w' filter: the synthetic plant's, from the schedule
    filt = (schedule.A_whiten, ltv.Bw, schedule.M_whiten)
    T, p = ltv.T, ltv.p
    t0 = T // 2
    w1 = rng.standard_normal((T, p))
    w2 = w1.copy()
    w2[t0:] = rng.standard_normal((T - t0, p))
    wp1 = _filter_run(*filt, w1)
    wp2 = _filter_run(*filt, w2)
    causal_ok = bool(np.array_equal(wp1[: t0 + 1], wp2[: t0 + 1]))
    anticipates = float(0.0 if causal_ok else np.abs(wp1[: t0 + 1] - wp2[: t0 + 1]).max())
    checks.append(_check("wprime-strict-causality", anticipates, 0.0))
    lap("wprime_causality")

    # offline solver: dense and sweep routes agree; perturbations cost more
    T_small = min(ltv.T, 12)
    small = dataclasses.replace(ltv, **{k: getattr(ltv, k)[:T_small] for k in _STEP_ARRAYS})
    w_small = rng.standard_normal((T_small, p))
    u_dense, opt_dense = offline_optimal(small, w_small, method="dense")
    u_ric, opt_ric = offline_optimal(small, w_small, method="riccati")
    scale = max(1.0, np.abs(u_dense).max())
    checks.append(
        _check("offline-route-agreement", np.abs(u_dense - u_ric).max() / scale, 1e-8)
    )
    checks.append(
        _check(
            "offline-cost-agreement",
            abs(opt_dense - opt_ric) / max(1.0, opt_dense),
            1e-8,
        )
    )
    worst_gap = 0.0
    for _ in range(3):
        du = 1e-3 * rng.standard_normal(u_dense.shape)
        perturbed = _cost_of_controls(small, u_dense + du, w_small)
        worst_gap = min(worst_gap, perturbed - opt_dense)
    checks.append(_check("offline-local-optimality", -worst_gap, 1e-10))
    lap("offline_routes")

    if lti is not None:
        info["pbh_stabilizable"] = bool(pbh_stabilizable(lti.A, lti.Bu))
        info["pbh_detectable"] = bool(pbh_detectable(lti.A, lti.Q_half))
        info["spectral_radius_A"] = spectral_radius(lti.A)
        factor = spectral_factor_ih(lti)
        info["whitening_closed_loop_radius"] = spectral_radius(factor.A_whiten)
        info["spectral_factor_residual"] = factor.residual
        z = np.exp(1j * np.linspace(0.0, np.pi, 64))

        def worst(lhs, rhs):  # the largest relative gap over the grid
            return np.max(
                [
                    np.linalg.norm(lhs_z - rhs_z) / max(np.linalg.norm(rhs_z), 1e-300)
                    for lhs_z, rhs_z in zip(lhs, rhs)
                ]
            )

        Dz = delta_transfer(lti, factor, z)
        Fz, Gz = open_loop_maps(lti, z)
        lhs = Dz @ Dz.conj().swapaxes(-1, -2)
        rhs = np.eye(lti.n) + Fz @ Fz.conj().swapaxes(-1, -2)
        checks.append(_check("ih-factorization-identity", worst(lhs, rhs), 1e-7))
        if lti.p < lti.n:  # the exact reduction's outer factor: L*L = H*H
            outer = outer_factor_ih(lti, factor)
            info["outer_factor_residual"] = outer.residual
            Hz = z[:, None, None] * delta_inv_transfer(lti, factor, z) @ Gz
            Lz = outer.D + outer.C @ shifted_solve(factor.A_whiten, lti.Bw, z)
            LL, HH = (M.conj().swapaxes(-1, -2) @ M for M in (Lz, Hz))
            checks.append(_check("outer-factor-identity", worst(LL, HH), 1e-7))
        z = np.exp(1j * np.array([0.3, 1.1, 2.7]))
        prod = delta_transfer(lti, factor, z) @ delta_inv_transfer(lti, factor, z)
        inv_err = np.abs(prod - np.eye(lti.n)).max()
        checks.append(_check("delta-inverse-identity", inv_err, 1e-8))
        lap("ih_checks")

    return {
        "horizon": ltv.T,
        "seed": seed,
        "info": info,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "wall_ms": wall_ms,
    }


def _cmd_verify(args) -> int:
    plant = _load_plant(args.plant)
    report = run_verification(plant, horizon=args.horizon, seed=args.seed)
    _print_json(report)
    return EXIT_OK if report["ok"] else EXIT_ERROR


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  ``--seed`` defaults to None, and
    :func:`main` reads COMPCTRL_SEED when the command runs."""
    parser = argparse.ArgumentParser(
        prog="compctrl",
        description="Ratio-optimal and attenuation controller synthesis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize a controller to JSON")
    ps.add_argument("--plant", required=True, help="plant JSON path or builtin:NAME")
    ps.add_argument(
        "--kind", required=True, choices=["competitive", "hinf", "h2"]
    )
    ps.add_argument(
        "--causality",
        default="causal",
        choices=["causal", "strictly-causal"],
    )
    ps.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="fixed level; omit to bisect the optimum",
    )
    ps.add_argument("--tol", type=float, default=1e-3, help="bisection tolerance")
    ps.add_argument(
        "--horizon", type=int, default=None, help="finite horizon (omit for steady state)"
    )
    ps.add_argument("--out", required=True, help="controller JSON output path")
    ps.add_argument("--report", default=None, help="report JSON path (default stdout)")
    ps.set_defaults(func=_cmd_synth)

    pm = sub.add_parser("simulate", help="roll controllers and compare costs")
    pm.add_argument("--plant", required=True)
    pm.add_argument(
        "--controller",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="controller JSON (repeatable); bare PATH uses the file stem as name",
    )
    pm.add_argument("--disturbance", default=None, help="disturbance spec JSON path")
    pm.add_argument("--steps", type=int, default=None)
    pm.add_argument("--seed", type=int, default=None)
    pm.add_argument("--trace-dir", default=".", help="directory for trace CSVs")
    pm.add_argument("--out", default="comparison.json")
    pm.set_defaults(func=_cmd_simulate)

    pf = sub.add_parser("freq", help="frequency sweep to CSV")
    pf.add_argument("--plant", required=True)
    pf.add_argument("--controller", action="append", required=True, metavar="NAME=PATH")
    pf.add_argument("--points", type=int, default=512)
    pf.add_argument("--out", default="freq.csv")
    pf.set_defaults(func=_cmd_freq)

    pp = sub.add_parser("mpc", help="run a pendulum scenario")
    pp.add_argument("--scenario", required=True, help="scenario JSON path")
    pp.add_argument("--seed", type=int, default=None)
    pp.add_argument("--trace", default=None, help="trace CSV path")
    pp.add_argument("--out", default=None, help="summary JSON path")
    pp.set_defaults(func=_cmd_mpc)

    pv = sub.add_parser("verify", help="self-check the machinery on a plant")
    pv.add_argument("--plant", required=True)
    pv.add_argument("--horizon", type=int, default=40)
    pv.add_argument("--seed", type=int, default=None)
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (
        ValueError,
        TypeError,
        OSError,
        KeyError,
        FactorizationError,
        MpcInfeasibleError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
