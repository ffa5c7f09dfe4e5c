"""End-to-end acceptance suite.

Each test pins a user-facing guarantee of the toolkit: numeric bands on the
bundled Boeing 747 plant, oracle agreement over randomized plant families,
causality and determinism properties, and the qualitative cost ordering on
the pendulum benchmark.  Wall-clock budgets are asserted where the check is
expected to stay interactive on commodity hardware.
"""

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.linalg import cho_factor, cho_solve

from conftest import (
    cli_env,
    no_feedthrough_plant,
    random_lti,
    random_ltv,
    random_unstable_stabilizable,
)
from oracles import brute_force_offline, impulse_stacked_maps, lqr_value_iteration

from compctrl import (
    DisturbanceSpec,
    Infeasible,
    PendulumParams,
    PendulumScenario,
    RelinearizingController,
    ZeroController,
    clairvoyant_comparator_run,
    closed_loop,
    delta_transfer,
    extremal_dc,
    generate,
    min_gamma_competitive,
    min_gamma_hinf,
    offline_optimal,
    per_freq_cr,
    rollout,
    run_pendulum,
    spectral_factor_ih,
    synth_h2_ih,
    synth_hinf,
    whitening_fh,
)
from compctrl.factorization import FactorizationError, dense_delta
from compctrl.freq import default_grid
from compctrl.mpc import linearize_pendulum, scenario_to_json_dict


# ---------------------------------------------------------------------------
# shared Boeing syntheses (bisections are the expensive part; run them once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def boeing_competitive(boeing):
    t0 = time.perf_counter()
    found = min_gamma_competitive(boeing)
    return found, time.perf_counter() - t0


@pytest.fixture(scope="session")
def boeing_hinf_optimal(boeing):
    t0 = time.perf_counter()
    found = min_gamma_hinf(boeing)
    return found, time.perf_counter() - t0


@pytest.fixture(scope="session")
def boeing_h2(boeing):
    return synth_h2_ih(boeing)


def test_boeing_ratio_optimum_band(boeing_competitive):
    """Bisected optimal ratio bound on the Boeing plant sits in a tight band."""
    found, elapsed = boeing_competitive
    assert found.ok
    assert found.audit_warnings == []
    assert 1.75 <= found.gamma**2 <= 1.79
    assert elapsed < 10.0


def test_h2_per_frequency_ratio_band(boeing, boeing_h2):
    """The LQ-optimal loop pays a near-constant ratio at every frequency."""
    loop = closed_loop(boeing, boeing_h2)
    for omega in default_grid(512):
        r = per_freq_cr(boeing, loop, omega)
        assert isinstance(r, float)
        assert 2.65 <= r <= 2.95


def test_extreme_per_frequency_ratios(boeing, boeing_competitive, boeing_hinf_optimal):
    """Attenuation-optimal control pays a huge worst-frequency ratio; the
    ratio-optimal loop stays below its certified bound everywhere."""
    found_c, _ = boeing_competitive
    found_h, _ = boeing_hinf_optimal
    grid = default_grid(512)

    loop_h = closed_loop(boeing, found_h.controller)
    vals_h = [per_freq_cr(boeing, loop_h, omega) for omega in grid]
    assert all(isinstance(r, float) for r in vals_h)
    assert 39.0 <= max(vals_h) <= 48.0

    loop_c = closed_loop(boeing, found_c.controller)
    vals_c = [per_freq_cr(boeing, loop_c, omega) for omega in grid]
    assert all(isinstance(r, float) for r in vals_c)
    assert max(vals_c) <= 1.79


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_certified_ratio_is_valid_at_every_cost_scale(boeing, causality):
    """Q s with B_u / sqrt(s) poses the same ratio problem at every s.  The
    doubling core keeps no absolute constant, so on Boeing and two random
    plants the spectral factor takes the same doublings at every s, each
    certified level is the s = 1 one bit for bit, and on Boeing the LQR law
    exists and no returned controller's ratio on an 8,193-point grid exceeds
    its certificate.  The pendulum at theta = 0 keeps its level up to
    s = 4^15 and at 1e8; from s = 1e10 its B_u / sqrt(s) is at most 1e-8,
    the PBH test's absolute threshold, and the factor refuses it."""
    rng = np.random.default_rng(7)
    plants = {
        "boeing": boeing,
        "n3 m1 p1": random_lti(rng, n=3, m=1, p=1),
        "n4 m2 p2": random_lti(rng, n=4, m=2, p=2),
        "pendulum": linearize_pendulum(PendulumParams(), 0.0),
    }
    grid = default_grid(8193)
    for name, base in plants.items():
        levels, doublings = {}, set()
        for s in (4.0**-15, 4.0**-8, 1.0, 4.0**8, 4.0**15, 1e8, 1e10, 1e11, 1e15):
            plant = dataclasses.replace(base, Q=base.Q * s, Bu=base.Bu / np.sqrt(s))
            if name == "pendulum" and s >= 1e10:
                with pytest.raises(FactorizationError, match="^precondition failed: "
                                   r"\(A, B_u\) not stabilizable$"):
                    min_gamma_competitive(plant, causality=causality)
                continue
            doublings.add(spectral_factor_ih(plant).iterations)
            found = min_gamma_competitive(plant, causality=causality)
            assert found.ok, (name, s)
            levels[s] = found.gamma
            if name == "boeing":
                synth_h2_ih(plant)
                attained = max(per_freq_cr(plant, closed_loop(plant, found.controller), grid))
                assert attained <= found.gamma**2, s
        assert len(doublings) == 1, name
        assert set(levels.values()) == {levels[1.0]}, name


def test_cost_bounds_on_random_disturbances(
    boeing, boeing_competitive, boeing_hinf_optimal
):
    """Rolled-out costs respect the certified bounds on random inputs.

    The clairvoyant denominator comes from the impulse-stacked dense
    quadratic form (an independent route from the package's solvers), with
    its Gram matrix factored once and shared across the twenty inputs.
    """
    found_c, _ = boeing_competitive
    found_h, hinf_elapsed = boeing_hinf_optimal
    t0 = time.perf_counter()

    T = 300
    ltv = boeing.to_ltv(T)
    F, G = impulse_stacked_maps(ltv)
    gram = cho_factor(np.eye(F.shape[0]) + F @ F.T)

    ratio_bound = found_c.gamma**2 + 1e-3
    gamma_att = 1.01 * found_h.gamma
    ctrl_att = synth_hinf(boeing, gamma_att)
    assert not isinstance(ctrl_att, Infeasible)
    att_bound = gamma_att**2 + 1e-3

    spec = DisturbanceSpec("white-gaussian", {"sigma": 1.0})
    for seed in range(20):
        w = generate(spec, T, boeing.p, seed=seed)
        gw = G @ w.reshape(-1)
        opt = float(gw @ cho_solve(gram, gw))
        assert opt > 0.0

        alg = rollout(boeing, found_c.controller, w).total_cost
        assert alg / opt <= ratio_bound

        att = rollout(boeing, ctrl_att, w).total_cost
        assert att / float(np.sum(w * w)) <= att_bound

    assert hinf_elapsed + (time.perf_counter() - t0) < 30.0


def test_factorization_identities(rng):
    """Dense whitening factor reproduces I + FF' exactly (finite horizon)
    and on the unit circle (steady state)."""
    for _ in range(50):
        n = int(rng.integers(2, 5))
        T = int(rng.integers(4, 21))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        ltv = random_ltv(rng, T=T, n=n, m=m, p=p)
        sched = whitening_fh(ltv)
        D = dense_delta(ltv, sched)
        F, _ = impulse_stacked_maps(ltv)
        lhs = D @ D.T
        rhs = np.eye(n * T) + F @ F.T
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert rel < 1e-8

    omegas = np.linspace(0.0, np.pi, 64)
    for k in range(20):
        if k % 2:
            plant = random_unstable_stabilizable(rng, n=3)
        else:
            plant = random_lti(
                rng,
                n=int(rng.integers(2, 5)),
                m=int(rng.integers(1, 3)),
                p=int(rng.integers(1, 3)),
            )
        factor = spectral_factor_ih(plant)
        eye = np.eye(plant.n)
        for omega in omegas:
            z = np.exp(1j * omega)
            D = delta_transfer(plant, factor, z)
            Fz = plant.Q_half @ np.linalg.solve(z * eye - plant.A, plant.Bu)
            lhs = D @ D.conj().T
            rhs = eye + Fz @ Fz.conj().T
            rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert rel < 1e-7


def test_offline_optimal_matches_brute_force_and_lower_bounds(rng):
    """The structured clairvoyant solve equals brute-force least squares and
    lower-bounds every causal controller on the same disturbance."""
    for _ in range(50):
        T = int(rng.integers(3, 13))
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        ltv = random_ltv(rng, T=T, n=n, m=m, p=p)
        w = rng.standard_normal((T, p))

        u_star, opt = offline_optimal(ltv, w)
        u_bf, cost_bf = brute_force_offline(ltv, w)
        assert opt == pytest.approx(cost_bf, rel=1e-8, abs=1e-10)
        assert np.max(np.abs(u_star - u_bf)) <= 1e-6 * max(1.0, np.max(np.abs(u_bf)))

        found = min_gamma_competitive(ltv, audit=False)
        assert found.ok
        hinf_fh = synth_hinf(ltv, 1e3)
        assert not isinstance(hinf_fh, Infeasible)
        for ctrl in (ZeroController(m=m), found.controller, hinf_fh):
            cost = rollout(ltv, ctrl, w).total_cost
            assert opt <= cost + 1e-9 * max(1.0, cost)


def _stepped_closed_loop_map(plant, controller, T, Tw):
    """Stacked (s; u) responses of the closed loop to unit impulses in w at
    steps 0..Tw-1, one impulse at a time over a T-step rollout."""
    cols = []
    for j in range(Tw):
        for k in range(plant.p):
            state = controller.make_state()
            x = np.zeros(plant.n)
            s = np.zeros((T, plant.n))
            u = np.zeros((T, plant.m))
            for t in range(T):
                w_t = np.zeros(plant.p)
                if t == j:
                    w_t[k] = 1.0
                s[t] = plant.Q_half @ x
                u[t] = controller.step(state, x, w_t)
                x = plant.A @ x + plant.Bu @ u[t] + plant.Bw @ w_t
            cols.append(np.concatenate([s.ravel(), u.ravel()]))
    return np.array(cols).T


def _ratio_on_gram_range(TK, gram):
    """Largest generalized eigenvalue of T_K'T_K against the clairvoyant
    Gram on the Gram's range (eigenvalues above 1e-10 of the largest), and
    the closed loop's largest response to the Gram's null space relative to
    its largest response.  For p > n the Gram is singular: a disturbance in
    the null space of B_w reaches no state."""
    lam, V = np.linalg.eigh(gram)
    keep = lam > 1e-10 * lam[-1]
    W = TK @ (V[:, keep] / np.sqrt(lam[keep]))
    attained = np.linalg.eigvalsh(W.T @ W)[-1]
    null = np.linalg.norm(TK @ V[:, ~keep], 2) if not keep.all() else 0.0
    return attained, null / np.linalg.norm(TK, 2)


def test_certified_ratio_is_attained_on_lifted_operators(rng):
    """The certified gamma^2 is the worst-case ratio the returned controller
    really reaches: the largest generalized eigenvalue of T_K'T_K against the
    clairvoyant Gram G'(I + FF')^{-1}G, over disturbances on the first Tw of
    T steps, from impulse-stacked operators, on the Gram's range.  Covers
    p < n (the outer-factor reduction), p = n and p > n (the doubled plant,
    which is exact there), causal and strictly causal, and a p < n plant
    whose w' filter has no feedthrough (D_H = 0).

    The finite-horizon levels (T_f = 40, disturbances on all but the last
    step, which no cost sees) are bounds: attenuation ||T_K w||^2 against
    ||w||^2, and the ratio, which the doubled plant leaves loose for p < n.
    """
    T, Tw, T_f = 120, 60, 40
    plants = [
        random_lti(rng, n=n, m=m, p=p)
        for n, m, p in ((3, 1, 1), (3, 2, 2), (4, 2, 1), (2, 1, 2), (2, 1, 3), (3, 1, 5))
    ]
    for plant in plants + [no_feedthrough_plant()]:
        n, m, p = plant.n, plant.m, plant.p
        F, G = impulse_stacked_maps(plant.to_ltv(T))
        G = G[:, : Tw * p]
        gram = G.T @ np.linalg.solve(np.eye(F.shape[0]) + F @ F.T, G)
        F, G = impulse_stacked_maps(plant.to_ltv(T_f))
        G = G[:, : (T_f - 1) * p]
        gram_f = G.T @ np.linalg.solve(np.eye(F.shape[0]) + F @ F.T, G)
        for causality in ("causal", "strictly-causal"):
            case = (n, m, p, causality)
            found = min_gamma_competitive(plant, causality=causality, audit=False)
            assert found.ok
            TK = _stepped_closed_loop_map(plant, found.controller, T, Tw)
            attained, null = _ratio_on_gram_range(TK, gram)
            certified = found.gamma**2
            assert null <= 1e-12, (case, null)
            assert attained <= certified, (case, attained, certified)
            assert attained >= 0.99 * certified, (case, attained, certified)

            found = min_gamma_competitive(
                plant, causality=causality, horizon=T_f, audit=False
            )
            TK = _stepped_closed_loop_map(plant, found.controller, T_f, T_f - 1)
            attained, null = _ratio_on_gram_range(TK, gram_f)
            assert null <= 1e-12, (case, null)
            assert attained <= found.gamma**2, (case, attained, found.gamma**2)

            found = min_gamma_hinf(plant, causality=causality, horizon=T_f, audit=False)
            TK = _stepped_closed_loop_map(plant, found.controller, T_f, T_f - 1)
            attained = np.linalg.eigvalsh(TK.T @ TK)[-1]
            assert attained <= found.gamma**2, (case, attained, found.gamma**2)


def test_disturbance_filter_ignores_future_inputs(rng):
    """Paired runs: editing w_tau leaves the filter log unchanged through
    row tau and changes it afterwards."""
    T, tau = 40, 17
    for _ in range(20):
        plant = random_lti(rng, n=3, m=1, p=int(rng.integers(1, 3)))
        found = min_gamma_competitive(plant, audit=False)
        assert found.ok
        w = rng.standard_normal((T, plant.p))
        w_edit = w.copy()
        w_edit[tau] += 1.5
        r1 = rollout(plant, found.controller, w)
        r2 = rollout(plant, found.controller, w_edit)
        assert r1.steps_completed == r2.steps_completed == T
        assert_array_equal(r1.wprime[: tau + 1], r2.wprime[: tau + 1])
        assert not np.array_equal(r1.wprime[tau + 1 :], r2.wprime[tau + 1 :])


def test_dc_extremal_cost_ratios(boeing, boeing_competitive):
    """Best-case constant disturbance is served at clairvoyant cost; the
    worst-case one stays below the certified bound but well above unity."""
    found, _ = boeing_competitive
    best, worst = extremal_dc(boeing, found.controller)
    T = 1000
    ltv = boeing.to_ltv(T)
    for direction, lo, hi in ((best, 1.0, 1.02), (worst, 1.3, 1.77)):
        w = np.tile(direction, (T, 1))
        alg = rollout(boeing, found.controller, w).total_cost
        _, opt = offline_optimal(ltv, w)
        ratio = alg / opt
        assert lo <= ratio <= hi


def test_large_attenuation_level_recovers_lqr(rng):
    """At an enormous attenuation level the state-feedback gain is LQR."""
    for k in range(20):
        if k % 2:
            plant = random_unstable_stabilizable(rng, n=int(rng.integers(2, 5)))
        else:
            plant = random_lti(
                rng, n=int(rng.integers(2, 5)), m=int(rng.integers(1, 3))
            )
        ctrl = synth_hinf(plant, 1e6)
        assert not isinstance(ctrl, Infeasible)
        P = lqr_value_iteration(plant.A, plant.Bu, plant.Q)
        K = np.linalg.solve(
            np.eye(plant.m) + plant.Bu.T @ P @ plant.Bu, plant.Bu.T @ P @ plant.A
        )
        err = np.max(np.abs(ctrl.Kx - K))
        assert err <= 1e-4 * max(1.0, np.max(np.abs(K)))


# ---------------------------------------------------------------------------
# pendulum benchmark: qualitative cost ordering across controller kinds
# ---------------------------------------------------------------------------

PENDULUM_QUANTUM = 0.01  # coarser than the library default to meet the budget


@pytest.fixture(scope="session")
def pendulum_benchmark():
    """Run the scheduled controllers over both noise scenarios, ten seeds
    each, sharing each controller's warm gain cache across seeds."""
    t0 = time.perf_counter()
    params = PendulumParams()
    ctrls = {
        kind: RelinearizingController(params, kind=kind, quantum=PENDULUM_QUANTUM)
        for kind in ("competitive", "h2", "hinf")
    }

    sine = DisturbanceSpec(
        "sine-mean-gaussian",
        {"sigma": 1.0, "mean_amplitude": 1.0, "mean_omega": 1e-3},
    )
    step_noise = DisturbanceSpec(
        "mixture",
        {
            "components": [
                DisturbanceSpec("step", {"levels": [1.0, -1.0], "switch_times": [500]}),
                DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
            ],
            "weights": [1.0, 0.1],
        },
    )

    steps = 1001
    sine_ratios = []
    lower_bound_ok = []
    for seed in range(10):
        w = generate(sine, steps, 1, seed=seed)
        totals = {
            kind: run_pendulum(params, ctrls[kind], w).total_cost
            for kind in ("competitive", "h2")
        }
        opt = clairvoyant_comparator_run(params, w, quantum=PENDULUM_QUANTUM).total_cost
        sine_ratios.append(totals["h2"] / totals["competitive"])
        lower_bound_ok.append(totals["competitive"] >= opt - 1e-9)

    step_wins = 0
    for seed in range(10):
        w = generate(step_noise, steps, 1, seed=seed)
        totals = {
            kind: run_pendulum(params, ctrls[kind], w).total_cost
            for kind in ("competitive", "h2", "hinf")
        }
        opt = clairvoyant_comparator_run(params, w, quantum=PENDULUM_QUANTUM).total_cost
        if totals["competitive"] < totals["h2"] and totals["competitive"] < totals["hinf"]:
            step_wins += 1
        lower_bound_ok.append(totals["competitive"] >= opt - 1e-9)

    return {
        "sine_ratios": sine_ratios,
        "step_wins": step_wins,
        "lower_bound_ok": lower_bound_ok,
        "elapsed": time.perf_counter() - t0,
    }


def test_pendulum_sine_mean_cost_ratio_band(pendulum_benchmark):
    """Median LQ-to-ratio-optimal total-cost ratio under sine-mean noise."""
    median = float(np.median(pendulum_benchmark["sine_ratios"]))
    assert 1.5 <= median <= 5.0


def test_pendulum_step_noise_cost_ordering(pendulum_benchmark):
    """Ratio-optimal control should win under step noise on most seeds."""
    assert pendulum_benchmark["step_wins"] >= 8


def test_pendulum_cost_never_below_clairvoyant(pendulum_benchmark):
    """No causal run undercuts the receding-horizon clairvoyant comparator."""
    assert all(pendulum_benchmark["lower_bound_ok"])


def test_pendulum_benchmark_runtime(pendulum_benchmark):
    assert pendulum_benchmark["elapsed"] < 60.0


# ---------------------------------------------------------------------------
# determinism: repeated CLI runs with identical seeds emit identical bytes
# ---------------------------------------------------------------------------


def _run_cli(*args, cwd=None):
    env = cli_env()
    proc = subprocess.run(
        [sys.executable, "-m", "compctrl", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_repeated_runs_produce_identical_csv_bytes(tmp_path):
    h2_path = tmp_path / "h2.json"
    comp_path = tmp_path / "comp.json"
    _run_cli(
        "synth", "--plant", "builtin:boeing747", "--kind", "h2",
        "--out", str(h2_path), "--report", str(tmp_path / "h2_report.json"),
    )
    _run_cli(
        "synth", "--plant", "builtin:boeing747", "--kind", "competitive",
        "--out", str(comp_path), "--report", str(tmp_path / "comp_report.json"),
    )
    scenario = PendulumScenario(
        steps=120,
        disturbance=DisturbanceSpec("white-gaussian", {"sigma": 1.0}),
        kind="competitive",
        gamma_policy={"fixed": 3.8},
        quantum=0.05,
    )
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_json_dict(scenario)))

    csv_names = ("trace_h2.csv", "trace_comp.csv", "freq.csv", "mpc_trace.csv")
    for run in ("run1", "run2"):
        out = tmp_path / run
        out.mkdir()
        _run_cli(
            "simulate", "--plant", "builtin:boeing747",
            "--controller", f"h2={h2_path}", "--controller", f"comp={comp_path}",
            "--steps", "200", "--seed", "11",
            "--trace-dir", str(out), "--out", str(out / "comparison.json"),
        )
        _run_cli(
            "freq", "--plant", "builtin:boeing747",
            "--controller", f"h2={h2_path}", "--controller", f"comp={comp_path}",
            "--points", "16", "--out", str(out / "freq.csv"),
        )
        _run_cli(
            "mpc", "--scenario", str(scenario_path), "--seed", "5",
            "--trace", str(out / "mpc_trace.csv"), "--out", str(out / "mpc.json"),
        )
        for name in csv_names:
            assert (out / name).stat().st_size > 0

    for name in csv_names:
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
