"""Tests for closed-loop realizations and frequency-domain analysis."""

import csv
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compctrl import (
    ClosedLoop,
    DisturbanceSpec,
    LtiPlant,
    OfflineController,
    StateFeedbackController,
    ZeroController,
    closed_loop,
    extremal_dc,
    generate,
    min_gamma_competitive,
    peak_gain,
    per_freq_cr,
    rollout,
    sigma_max,
    sweep,
    synth_competitive,
    synth_h2_ih,
    synth_hinf,
    transfer_at,
    write_sweep_csv,
)
from compctrl.freq import _gram_inv_half, clairvoyant_gram, default_grid, gram_cache, open_loop_maps

from conftest import random_lti, random_unstable_stabilizable
from oracles import (
    per_freq_cr_on_range_dense,
    per_freq_cr_pointwise,
    sigma_max_pointwise,
    sinusoid_response_power,
)


def simulate_loop(loop: ClosedLoop, w: np.ndarray) -> np.ndarray:
    """Drive the state-space realization directly: y_t = C xi_t + D w_t."""
    T = w.shape[0]
    xi = np.zeros(loop.A.shape[0])
    y = np.zeros((T, loop.C.shape[0]))
    for t in range(T):
        y[t] = loop.C @ xi + loop.D @ w[t]
        xi = loop.A @ xi + loop.B @ w[t]
    return y


# ---------------------------------------------------------------------------
# realization correctness (time-domain cross-check)


@pytest.mark.parametrize(
    "kind", ["zero", "h2", "h2-strict", "comp", "comp-strict", "comp-doubled"]
)
def test_realization_reproduces_rollout(rng, kind):
    # The (A, B, C, D) realization must emit exactly the (Q^{1/2} x_t, u_t)
    # produced by stepping the controller against the plant.  p < n gives
    # the exact synthetic plant; "comp-doubled" has p = n, the doubled one.
    plant = random_lti(rng, n=3, m=2, p=3 if kind == "comp-doubled" else 2)
    if kind == "zero":
        ctrl = ZeroController(m=2)
    elif kind.startswith("h2"):
        causality = "strictly-causal" if kind.endswith("strict") else "causal"
        ctrl = synth_h2_ih(plant, causality=causality)
    else:
        causality = "strictly-causal" if kind.endswith("strict") else "causal"
        ctrl = synth_competitive(plant, gamma=6.0, causality=causality)
    if kind.startswith("comp"):
        assert ctrl.synthetic.exact == (kind != "comp-doubled")
    loop = closed_loop(plant, ctrl)

    w = generate(DisturbanceSpec("white-gaussian", {}), 40, plant.p, seed=31)
    res = rollout(plant, ctrl, w)
    assert res.status == "ok"
    s = res.x[:-1] @ plant.Q_half.T
    expected = np.hstack([s, res.u])
    got = simulate_loop(loop, w)
    assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_competitive_realization_state_count(rng):
    plant = random_lti(rng, n=3, m=1, p=1)
    ctrl = synth_competitive(plant, gamma=6.0)
    loop = closed_loop(plant, ctrl)
    assert loop.A.shape == (6, 6)  # plant + filter states
    assert loop.B.shape == (6, 1)
    assert loop.C.shape == (4, 6)  # n output rows for s, m for u
    assert loop.D.shape == (4, 1)
    # the realization must be stable for the sweeps to mean anything
    assert np.max(np.abs(np.linalg.eigvals(loop.A))) < 1.0


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_competitive_closed_loop_is_stable_on_an_unstable_plant(causality):
    # the loop closes on [x; nu] alone: no open-loop plant mode is left in it
    plant = random_unstable_stabilizable(np.random.default_rng(0), n=3, m=1, p=1)
    assert np.max(np.abs(np.linalg.eigvals(plant.A))) > 1.0
    found = min_gamma_competitive(plant, causality=causality, audit=False)
    assert found.ok
    loop = closed_loop(plant, found.controller)
    assert loop.A.shape == (2 * plant.n, 2 * plant.n)
    assert np.max(np.abs(np.linalg.eigvals(loop.A))) < 1.0


def test_closed_loop_rejects_finite_horizon(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    ctrl = synth_hinf(plant, gamma=50.0, horizon=6)
    assert ctrl.horizon == 6
    with pytest.raises(ValueError, match="infinite-horizon"):
        closed_loop(plant, ctrl)


def test_closed_loop_rejects_time_varying_plant(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    with pytest.raises(TypeError, match="time-invariant"):
        closed_loop(plant.to_ltv(6), ZeroController(m=1))


@pytest.mark.parametrize("kind", ["zero", "h2", "hinf", "competitive"])
def test_closed_loop_rejects_a_controller_made_for_another_plant(rng, kind):
    # named by the first dimension that differs, before any numpy product
    plant = random_lti(rng, n=2, m=1, p=1)
    other = random_lti(rng, n=3, m=2, p=1)
    ctrl = {
        "zero": lambda: ZeroController(m=2),
        "h2": lambda: synth_h2_ih(other),
        "hinf": lambda: synth_hinf(other, gamma=50.0),
        "competitive": lambda: synth_competitive(other, gamma=6.0),
    }[kind]()
    name, made, has = ("m", 2, 1) if kind == "zero" else ("n", 3, 2)
    expected = f"^controller is made for {name} = {made}, but the plant has {name} = {has}$"
    with pytest.raises(ValueError, match=expected):
        closed_loop(plant, ctrl)


def test_closed_loop_rejects_offline(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    with pytest.raises(TypeError, match="frequency"):
        closed_loop(plant, OfflineController())


# ---------------------------------------------------------------------------
# transfer evaluation


def test_transfer_at_matches_impulse_series(rng):
    plant = random_lti(rng, n=3, m=1, p=2)
    loop = closed_loop(plant, synth_h2_ih(plant))
    z = 2.0  # well outside the unit circle: the Neumann series converges fast
    total = loop.D.astype(complex).copy()
    Ak_B = loop.B.copy()
    for k in range(1, 200):
        total += loop.C @ Ak_B * z ** (-k)
        Ak_B = loop.A @ Ak_B
    assert_allclose(transfer_at(loop, z), total, rtol=1e-12, atol=1e-12)


def test_sigma_max_is_largest_singular_value(rng):
    plant = random_lti(rng, n=3, m=1, p=2)
    loop = closed_loop(plant, ZeroController(m=1))
    for omega in (0.0, 0.9, np.pi):
        T = transfer_at(loop, np.exp(1j * omega))
        assert sigma_max(loop, omega) == pytest.approx(
            np.linalg.svd(T, compute_uv=False)[0], rel=1e-12
        )


def test_peak_gain_scans_grid(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    loop = closed_loop(plant, synth_h2_ih(plant))
    omegas = np.linspace(0.0, np.pi, 33)
    assert peak_gain(loop, omegas) == max(sigma_max(loop, w) for w in omegas)
    # default grid has 512 points and covers at least the coarse grid's peak
    assert peak_gain(loop) >= peak_gain(loop, omegas) - 1e-12
    assert default_grid().shape == (512,)
    assert default_grid(7)[0] == 0.0 and default_grid(7)[-1] == pytest.approx(np.pi)


def test_open_loop_maps_match_definition(rng):
    plant = random_lti(rng, n=3, m=2, p=2)
    z = np.exp(0.4j)
    F, G = open_loop_maps(plant, z)
    X = np.linalg.solve(z * np.eye(3) - plant.A, np.eye(3))
    assert_allclose(F, plant.Q_half @ X @ plant.Bu, rtol=1e-12, atol=1e-14)
    assert_allclose(G, plant.Q_half @ X @ plant.Bw, rtol=1e-12, atol=1e-14)


def test_clairvoyant_gram_hermitian_psd(rng):
    plant = random_lti(rng, n=3, m=1, p=2)
    for omega in (0.0, 0.7, 2.0):
        N = clairvoyant_gram(plant, omega)
        assert_allclose(N, N.conj().T, rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(N).min() > -1e-14


# ---------------------------------------------------------------------------
# per-frequency ratio


def test_per_freq_cr_at_least_one(rng):
    # The clairvoyant Gram is the per-frequency optimum over all responses,
    # so every causal controller's ratio is >= 1 wherever it is well posed.
    plant = random_lti(rng, n=3, m=1, p=2)
    for ctrl in (synth_h2_ih(plant), synth_competitive(plant, gamma=6.0)):
        loop = closed_loop(plant, ctrl)
        for omega in np.linspace(0.0, np.pi, 25):
            r = per_freq_cr(plant, loop, omega)
            assert not isinstance(r, str)
            assert r >= 1.0 - 1e-8


def test_competitive_per_freq_cr_below_gamma_sq(rng):
    plant = random_lti(rng, n=3, m=1, p=2)
    gamma = 6.0
    ctrl = synth_competitive(plant, gamma=gamma)
    loop = closed_loop(plant, ctrl)
    rs = [per_freq_cr(plant, loop, w) for w in np.linspace(0.0, np.pi, 65)]
    assert max(rs) <= gamma**2 + 1e-6


def rank_one_disturbance_plant(rng):
    """A rank-one disturbance channel with p = 2: N is singular everywhere."""
    col = rng.standard_normal((3, 1))
    plant = random_lti(rng, n=3, m=1, p=2)
    return LtiPlant(
        A=plant.A,
        Bu=plant.Bu,
        Bw=col @ np.array([[1.0, 2.0]]),
        Q=plant.Q,
        R_half=plant.R_half,
        x0=plant.x0,
    )


def reads_first_disturbance(plant):
    """u = -w_0: a law that responds to every disturbance direction with a
    first component, those in the null space of B_w included."""
    Kw = np.zeros((plant.m, plant.p))
    Kw[0, 0] = 1.0
    return StateFeedbackController("h2", "causal", None, None, np.zeros((plant.m, plant.n)), Kw)


def test_per_freq_cr_degenerate_when_gram_singular(rng):
    # N is singular everywhere (B_w has rank 1): the marker where the loop
    # responds to N's null space, and the ratio on N's range where it does
    # not, as the open loop does not
    plant = rank_one_disturbance_plant(rng)
    loop = closed_loop(plant, reads_first_disturbance(plant))
    assert per_freq_cr(plant, loop, 0.8) == "degenerate-frequency"
    loop = closed_loop(plant, ZeroController(m=1))
    ratio, null = per_freq_cr_on_range_dense(plant, loop, 0.8)
    assert null < 1e-12
    assert per_freq_cr(plant, loop, 0.8) == pytest.approx(ratio, rel=1e-10)


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_per_freq_cr_on_a_plant_with_more_disturbances_than_states(causality):
    # p > n: the Gram has rank at most n at every frequency; each law here
    # ignores its null space (that of B_w), so every point has a ratio: the
    # dense reference's, at least 1, and at most gamma^2 for the searched
    # ratio-optimal law
    plant = random_lti(np.random.default_rng(13), n=2, m=1, p=4)
    found = min_gamma_competitive(plant, causality=causality, audit=False)
    omegas = default_grid(257)
    named = {"competitive": found.controller, "h2": synth_h2_ih(plant, causality),
             "zero": ZeroController(m=1)}
    res = sweep(plant, named, 257)
    for name, ctrl in named.items():
        loop = closed_loop(plant, ctrl)
        got = per_freq_cr(plant, loop, omegas)
        assert got == res.per_freq_cr[name], name
        assert not any(isinstance(r, str) for r in got), name
        ref = [per_freq_cr_on_range_dense(plant, loop, w) for w in omegas]
        assert max(null for _, null in ref) < 1e-12, name
        assert_allclose(got, [r for r, _ in ref], rtol=1e-10, atol=0, err_msg=name)
        assert min(got) >= 1.0 - 1e-10, name
    assert max(res.per_freq_cr["competitive"]) <= found.gamma**2


def test_boeing_h2_ratio_flat(boeing):
    ctrl = synth_h2_ih(boeing)
    loop = closed_loop(boeing, ctrl)
    rs = [per_freq_cr(boeing, loop, w) for w in (0.3, 1.1, 2.5)]
    assert all(not isinstance(r, str) for r in rs)
    assert max(rs) - min(rs) < 1e-3  # constant across frequency
    assert 2.8 < rs[0] < 2.85


# ---------------------------------------------------------------------------
# sweep + CSV


def test_sweep_structure(rng):
    plant = random_lti(rng, n=2, m=1, p=1)
    res = sweep(plant, {"zero": ZeroController(m=1), "h2": synth_h2_ih(plant)}, 16)
    assert res.names == ["zero", "h2"]
    assert res.omegas.shape == (16,)
    for name in res.names:
        assert res.sigma_max[name].shape == (16,)
        assert len(res.per_freq_cr[name]) == 16
    loop = closed_loop(plant, ZeroController(m=1))
    assert_allclose(
        res.sigma_max["zero"],
        [sigma_max(loop, w) for w in res.omegas],
        rtol=1e-12,
        atol=0,
    )
    empty = sweep(plant, {"zero": ZeroController(m=1)}, 0)
    assert empty.omegas.size == empty.sigma_max["zero"].size == 0
    assert empty.per_freq_cr["zero"] == [] and not empty.gram_cached


def test_sweep_csv_round_trip(rng, tmp_path):
    plant = random_lti(rng, n=2, m=1, p=1)
    res = sweep(plant, [("h2", synth_h2_ih(plant))], 8)
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, res)
    with open(path, newline="") as fh:
        text = fh.read()
    assert text.startswith("controller,omega,sigma_max_TK,per_freq_cr\n")
    assert "\r" not in text
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 8
    for i, row in enumerate(rows):
        assert row["controller"] == "h2"
        assert float(row["omega"]) == res.omegas[i]
        assert float(row["sigma_max_TK"]) == res.sigma_max["h2"][i]
        assert float(row["per_freq_cr"]) == res.per_freq_cr["h2"][i]


def test_sweep_csv_preserves_degenerate_marker(rng, tmp_path):
    col = rng.standard_normal((2, 1))
    plant = random_lti(rng, n=2, m=1, p=2)
    plant = LtiPlant(
        A=plant.A,
        Bu=plant.Bu,
        Bw=col @ np.array([[1.0, 1.0]]),
        Q=plant.Q,
        R_half=plant.R_half,
        x0=plant.x0,
    )
    # N is singular everywhere, and u = -w_0 responds to its null space
    res = sweep(plant, {"reads-w0": reads_first_disturbance(plant)}, 4)
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, res)
    rows = list(csv.DictReader(open(path, newline="")))
    assert all(r["per_freq_cr"] == "degenerate-frequency" for r in rows)
    # sigma_max is still numeric at those frequencies
    assert all(np.isfinite(float(r["sigma_max_TK"])) for r in rows)


# ---------------------------------------------------------------------------
# stacked evaluation against the pointwise oracle

#: grid sizes on both sides of the 64-point block boundaries
PARITY_POINTS = (1, 63, 64, 65, 512, 513)


def assert_matches_pointwise(plant, named, n_points):
    """sweep, peak_gain and scalar calls equal the pointwise oracle exactly."""
    res = sweep(plant, named, n_points)
    for name, ctrl in named.items():
        loop = closed_loop(plant, ctrl)
        sig = np.array([sigma_max_pointwise(loop, w) for w in res.omegas])
        cr = [per_freq_cr_pointwise(plant, loop, w) for w in res.omegas]
        assert np.array_equal(res.sigma_max[name], sig), name
        assert res.per_freq_cr[name] == cr, name
        assert peak_gain(loop, res.omegas) == sig.max()
        w = res.omegas[-1]
        assert sigma_max(loop, w) == sig[-1]
        assert per_freq_cr(plant, loop, w) == cr[-1]
        assert type(sigma_max(loop, w)) is float
        assert type(per_freq_cr(plant, loop, w)) is type(cr[-1])


@pytest.fixture(scope="module")
def boeing_loops(boeing):
    return {
        "h2": synth_h2_ih(boeing),
        "competitive": min_gamma_competitive(boeing).controller,
        "hinf": synth_hinf(boeing, gamma=1.01 * 28.234375),
        "zero": ZeroController(m=boeing.m),
    }


@pytest.mark.parametrize("n_points", PARITY_POINTS)
def test_boeing_sweep_equals_pointwise_oracle(boeing, boeing_loops, n_points):
    assert_matches_pointwise(boeing, boeing_loops, n_points)


def test_sweep_does_plant_work_once_per_block(boeing, boeing_loops, monkeypatch):
    # per 64-point block: the Gram's two solves and one eigh for all loops,
    # and one transfer solve per loop; 8 blocks and 3 loops make 40 solves
    # and 8 eigh calls (one loop at a time made 96 and 24) on a cold cache,
    # and the transfers' 24 solves alone once the Gram's factor is kept
    gram_cache.clear()
    calls = {"solve": 0, "eigh": 0}

    def counted(name):
        fn = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    three = {k: v for k, v in boeing_loops.items() if k != "zero"}
    sweep(boeing, three, 512)
    assert calls == {"solve": 40, "eigh": 8}
    calls.update(solve=0, eigh=0)
    sweep(boeing, three, 512)
    assert calls == {"solve": 24, "eigh": 0}


def assert_sweeps_equal(a, b):
    assert a.names == b.names and np.array_equal(a.omegas, b.omegas)
    for name in a.names:
        assert a.sigma_max[name].tobytes() == b.sigma_max[name].tobytes(), name
        assert a.per_freq_cr[name] == b.per_freq_cr[name], name


def test_warm_sweep_equals_cold(boeing, boeing_loops, tmp_path):
    # the kept factor gives the bits of a fresh one, degenerate markers and
    # the CSV's bytes too; only gram_cached tells the sweeps apart
    plant = random_lti(np.random.default_rng(13), n=2, m=1, p=4)
    cases = [
        (boeing, boeing_loops),
        (plant, {"zero": ZeroController(m=1), "h2": synth_h2_ih(plant),
                 "reads-w0": reads_first_disturbance(plant)}),
    ]
    for k, (plant, named) in enumerate(cases):
        gram_cache.clear()
        cold, warm = sweep(plant, named, 200), sweep(plant, named, 200)
        assert (cold.gram_cached, warm.gram_cached) == (False, True)
        assert_sweeps_equal(cold, warm)
        paths = [str(tmp_path / f"{k}-{side}.csv") for side in ("cold", "warm")]
        for path, res in zip(paths, (cold, warm)):
            write_sweep_csv(path, res)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    assert "degenerate-frequency" in warm.per_freq_cr["reads-w0"]


def test_gram_cache_keys_plant_and_grid_exactly(boeing, boeing_loops):
    # one entry per block of 64 points, so a 100-point grid is two; a hit
    # needs the bits of A, B_u, B_w and Q, the grid size and the block: one
    # ulp in A misses, and so does another n_points, each with its own factor
    named = {"h2": boeing_loops["h2"]}
    gram_cache.clear()
    hits, misses = gram_cache.hits, gram_cache.misses
    sweep(boeing, named, 100)
    assert sweep(boeing, named, 100).gram_cached
    assert (gram_cache.hits - hits, gram_cache.misses - misses, len(gram_cache)) == (2, 2, 2)
    A = boeing.A.copy()
    A[1, 2] = np.nextafter(A[1, 2], np.inf)
    for plant, n_points in ((dataclasses.replace(boeing, A=A), 100), (boeing, 101)):
        res = sweep(plant, named, n_points)
        assert not res.gram_cached
        omegas = default_grid(n_points)
        for start in (0, 64):
            factor = gram_cache.get(plant, (n_points, start))
            fresh = _gram_inv_half(plant, omegas[start : start + 64])
            assert all(map(np.array_equal, factor, fresh))
    assert (gram_cache.misses - misses, len(gram_cache)) == (6, 6)
    assert sweep(boeing, named, 100).gram_cached
    # gram_cached says that every block hit: one kept block of two is not
    gram_cache.clear()
    gram_cache.get(boeing, (100, 64))
    assert not sweep(boeing, named, 100).gram_cached


def test_gram_cache_holds_read_only_factors(boeing, boeing_loops):
    gram_cache.clear()
    sweep(boeing, {"h2": boeing_loops["h2"]}, 65)
    blocks = gram_cache.values()
    for factor in blocks:
        for a in factor:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]
    # per block: ok at each point, N^{-1/2} and the null space at those flagged
    assert [[a.shape for a in factor] for factor in blocks] == [
        [(64,), (64, 4, 4), (64, 4, 4)], [(1,), (1, 4, 4), (1, 4, 4)]
    ]


def test_gram_cache_keeps_no_block_over_its_bound(boeing, boeing_loops, monkeypatch):
    # a block whose entry is over the bound is solved and not kept, the
    # sweep keeping the bits of one whose blocks were all kept
    named = {k: v for k, v in boeing_loops.items() if k != "zero"}
    gram_cache.clear()
    sweep(boeing, named, 64)
    full = gram_cache.held_bytes  # the entry of one 64-point block
    gram_cache.clear()
    kept = sweep(boeing, named, 130)  # blocks of 64, 64 and 2 points
    assert len(gram_cache) == 3
    monkeypatch.setattr(gram_cache, "max_bytes", full - 1)
    gram_cache.clear()
    hits, misses = gram_cache.hits, gram_cache.misses
    for _ in range(2):
        res = sweep(boeing, named, 130)
        assert not res.gram_cached
        assert_sweeps_equal(res, kept)
        assert len(gram_cache) == 1 and gram_cache.held_bytes < full  # the 2-point block
    assert (gram_cache.hits - hits, gram_cache.misses - misses) == (1, 5)


@pytest.mark.parametrize("n_points", PARITY_POINTS)
def test_random_sweep_equals_pointwise_oracle(rng, n_points):
    for n, m, p in ((3, 1, 2), (4, 2, 1), (5, 2, 3)):
        plant = random_lti(rng, n=n, m=m, p=p)
        named = {
            "h2": synth_h2_ih(plant),
            "h2-strict": synth_h2_ih(plant, causality="strictly-causal"),
            "competitive": synth_competitive(plant, gamma=6.0),
            "zero": ZeroController(m=m),
        }
        assert_matches_pointwise(plant, named, n_points)


@pytest.mark.parametrize("n_points", PARITY_POINTS)
def test_degenerate_sweep_equals_pointwise_oracle(rng, n_points):
    # A Gram singular everywhere, then at omega = 0 alone: with
    # A = diag(0.5, 0.3, 1.5) and the first disturbance column e1 + e3 seen
    # by Q^{1/2} as one direction, G(1) loses rank because
    # 1 / (1 - 0.5) + 1 / (1 - 1.5) = 0.  The open loop ignores the Gram's
    # null space, and has a ratio on its range; u = -w_0 does not, and is
    # degenerate where the Gram is singular.
    plant = rank_one_disturbance_plant(rng)
    named = {"zero": ZeroController(m=1), "reads-w0": reads_first_disturbance(plant)}
    res = sweep(plant, named, n_points)
    assert not any(isinstance(r, str) for r in res.per_freq_cr["zero"])
    assert all(r == "degenerate-frequency" for r in res.per_freq_cr["reads-w0"])
    assert_matches_pointwise(plant, named, n_points)
    Q_half = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    plant = LtiPlant(
        A=np.diag([0.5, 0.3, 1.5]),
        Bu=np.ones((3, 1)),
        Bw=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        Q=Q_half.T @ Q_half,
        R_half=np.eye(1),
        x0=np.zeros(3),
    )
    named = {"zero": ZeroController(m=1), "reads-w0": reads_first_disturbance(plant)}
    res = sweep(plant, named, n_points)
    assert not any(isinstance(r, str) for r in res.per_freq_cr["zero"])
    assert res.per_freq_cr["reads-w0"][0] == "degenerate-frequency"
    assert all(not isinstance(r, str) for r in res.per_freq_cr["reads-w0"][1:])
    assert_matches_pointwise(plant, named, n_points)


# ---------------------------------------------------------------------------
# extremal constant disturbances


def test_extremal_dc_eigvectors(rng):
    plant = random_lti(rng, n=3, m=1, p=3)
    ctrl = synth_h2_ih(plant)
    best, worst = extremal_dc(plant, ctrl)
    loop = closed_loop(plant, ctrl)
    T1 = np.real(transfer_at(loop, 1.0 + 0.0j))
    M = T1.T @ T1
    for v in (best, worst):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        lam = float(v @ M @ v)
        assert_allclose(M @ v, lam * v, rtol=0, atol=1e-9)
        # sign convention: the first nonzero coordinate is positive
        nz = v[np.abs(v) > 1e-10]
        assert nz[0] > 0
    # ordering: the worst direction is hit at least as hard as the best
    assert np.linalg.norm(T1 @ worst) >= np.linalg.norm(T1 @ best) - 1e-12


def test_extremal_dc_costs_match_rollout(rng):
    # Constant disturbances along the reported directions must realize the
    # predicted ordering in actual long-run average cost.
    plant = random_lti(rng, n=3, m=1, p=3)
    ctrl = synth_h2_ih(plant)
    best, worst = extremal_dc(plant, ctrl)
    T = 600
    cost = {}
    for name, d in (("best", best), ("worst", worst)):
        res = rollout(plant, ctrl, np.tile(d, (T, 1)))
        assert res.status == "ok"
        cost[name] = res.step_cost[-100:].mean()
    assert cost["worst"] >= cost["best"] - 1e-12


# ---------------------------------------------------------------------------
# frequency/time consistency


def test_sinusoid_average_cost_matches_transfer(rng):
    # Under w_t = sin(omega t) v the long-run average of the step cost
    # ||s_t||^2 + ||u_t||^2 converges to 0.5 ||T_K(e^{i omega}) v||^2.
    plant = random_lti(rng, n=3, m=1, p=2)
    ctrl = synth_h2_ih(plant)
    loop = closed_loop(plant, ctrl)
    omega = 0.7
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    predicted = sinusoid_response_power(loop.A, loop.B, loop.C, loop.D, omega, v)

    T = 4000
    w = np.sin(omega * np.arange(T))[:, None] * v[None, :]
    res = rollout(plant, ctrl, w)
    assert res.status == "ok"
    measured = res.step_cost[T // 2 :].mean()
    assert measured == pytest.approx(predicted, rel=0.05)
