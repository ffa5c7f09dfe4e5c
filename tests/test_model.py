import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_lti, random_ltv
from oracles import impulse_stacked_maps, rollout_cost, simulate_outputs

from compctrl.model import (
    LtiPlant,
    LtvPlant,
    build_dense_operators,
    inv_sqrt_pd,
    load_bundled_plant,
    normalize_control_weight,
    normalize_control_weight_ltv,
    plant_from_json_dict,
    plant_to_json_dict,
    sqrt_psd,
)


def test_sqrt_psd_squares_back(rng):
    M = rng.standard_normal((5, 5))
    Q = M.T @ M
    S = sqrt_psd(Q)
    assert_allclose(S @ S, Q, atol=1e-10)
    assert_allclose(S, S.T, atol=1e-12)


def test_sqrt_psd_clamps_tiny_negative_eigenvalues():
    Q = np.diag([1.0, -1e-12])
    S = sqrt_psd(Q)
    assert_allclose(S, np.diag([1.0, 0.0]), atol=1e-6)


def test_inv_sqrt_pd_inverts(rng):
    M = rng.standard_normal((4, 4))
    R = M.T @ M + 0.5 * np.eye(4)
    W = inv_sqrt_pd(R)
    assert_allclose(W @ R @ W, np.eye(4), atol=1e-10)


def test_inv_sqrt_pd_rejects_singular():
    with pytest.raises(ValueError):
        inv_sqrt_pd(np.diag([1.0, 0.0]))


def test_square_roots_of_a_stack_equal_one_by_one(rng, boeing):
    # a stack (T, n, n) runs each matrix as a lone one: bit-identical roots
    M = rng.standard_normal((6, 4, 4))
    R = M @ M.swapaxes(-1, -2) + 0.5 * np.eye(4)
    R[2] = np.diag([1.0, -1e-14, 2.0, 0.0])  # clamped by sqrt_psd
    roots = sqrt_psd(R)
    assert roots.shape == R.shape
    for t in range(len(R)):
        assert np.array_equal(roots[t], sqrt_psd(R[t]))
    pd = np.delete(R, 2, axis=0)
    inv_roots = inv_sqrt_pd(pd)
    for t in range(len(pd)):
        assert np.array_equal(inv_roots[t], inv_sqrt_pd(pd[t]))
    with pytest.raises(ValueError):
        inv_sqrt_pd(R)  # one singular matrix rejects the stack
    assert inv_sqrt_pd(np.zeros((0, 4, 4))).shape == (0, 4, 4)
    for plant in (random_ltv(rng, T=7, n=3), boeing.to_ltv(5)):
        Q_half = plant.Q_half
        for t in range(plant.T):
            assert np.array_equal(Q_half[t], sqrt_psd(plant.Q[t]))


def test_normalize_control_weight_identity_passthrough(rng):
    plant = random_lti(rng)
    out = normalize_control_weight(plant.A, plant.Bu, plant.Bw, plant.Q)
    assert np.array_equal(out.Bu, plant.Bu)
    assert np.array_equal(out.R_half, np.eye(plant.m))


def test_normalize_control_weight_cost_equivalence(rng):
    """Same trajectories and costs once v = R^{-1/2} u is substituted."""
    n, m, p, T = 3, 2, 2, 9
    A = rng.standard_normal((n, n)) * 0.4
    Bu = rng.standard_normal((n, m))
    Bw = rng.standard_normal((n, p))
    M = rng.standard_normal((n, n))
    Q = M.T @ M
    N = rng.standard_normal((m, m))
    R = N.T @ N + 0.3 * np.eye(m)
    plant = normalize_control_weight(A, Bu, Bw, Q, R)
    assert_allclose(plant.R_half @ plant.R_half, R, atol=1e-10)

    u = rng.standard_normal((T, m))
    w = rng.standard_normal((T, p))
    v = plant.controls_to_original_units(u)
    # original-coordinates rollout with control v
    x = np.zeros(n)
    cost = 0.0
    for t in range(T):
        cost += x @ Q @ x + v[t] @ R @ v[t]
        x = A @ x + Bu @ v[t] + Bw @ w[t]
    assert_allclose(rollout_cost(plant.to_ltv(T), u, w), cost, rtol=1e-10)


def test_normalize_control_weight_rejections(rng):
    plant = random_lti(rng)
    with pytest.raises(ValueError):
        normalize_control_weight(plant.A[:2, :], plant.Bu, plant.Bw, plant.Q)
    with pytest.raises(ValueError):
        normalize_control_weight(
            plant.A, plant.Bu, plant.Bw, plant.Q, R=np.diag([1.0, 0.0])
        )
    with pytest.raises(ValueError):
        normalize_control_weight(
            plant.A, plant.Bu, plant.Bw, plant.Q, R=np.array([[1.0, 0.5], [0.0, 1.0]])
        )
    Qbad = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(ValueError):
        normalize_control_weight(plant.A, plant.Bu, plant.Bw, Qbad)


def test_normalize_control_weight_ltv_matches_per_step(rng):
    T, n, m, p = 5, 2, 2, 1
    As = rng.standard_normal((T, n, n))
    Bus = rng.standard_normal((T, n, m))
    Bws = rng.standard_normal((T, n, p))
    Ms = rng.standard_normal((T, n, n))
    Qs = np.einsum("tij,tkj->tik", Ms, Ms)
    Ns = rng.standard_normal((T, m, m))
    Rs = np.einsum("tij,tkj->tik", Ns, Ns) + 0.2 * np.eye(m)
    plant = normalize_control_weight_ltv(As, Bus, Bws, Qs, Rs)
    assert plant.T == T
    for t in range(T):
        single = normalize_control_weight(As[t], Bus[t], Bws[t], Qs[t], Rs[t])
        assert_allclose(plant.Bu[t], single.Bu, atol=1e-12)
        assert_allclose(plant.R_half[t], single.R_half, atol=1e-12)


def test_to_ltv_replicates(rng):
    plant = random_lti(rng)
    ltv = plant.to_ltv(6)
    assert ltv.T == 6 and ltv.n == plant.n
    for t in range(6):
        assert np.array_equal(ltv.A[t], plant.A)
        assert np.array_equal(ltv.Bw[t], plant.Bw)
    with pytest.raises(ValueError):
        plant.to_ltv(0)


def test_advance_equals_stepped_loop(rng, boeing):
    # a plant steps itself with B_w w_t taken for every row at once: the
    # bits of A_t x + B_u,t u_t + B_w,t w_t formed step by step, for an
    # LtiPlant (one step's matrices, any record length) and an LtvPlant
    lti = random_lti(rng, n=3, m=2, p=2)
    lti = LtiPlant(lti.A, lti.Bu, lti.Bw, lti.Q, lti.R_half, x0=rng.standard_normal(3))
    cases = [(boeing, boeing.to_ltv(50)), (lti, lti.to_ltv(30))]
    ltv = random_ltv(rng, T=30, n=3, m=2, p=2)
    cases.append((ltv, ltv))
    for plant, stepped in cases:
        u = rng.standard_normal((stepped.T, stepped.m))
        w = rng.standard_normal((stepped.T, stepped.p))
        x_ref, _ = simulate_outputs(stepped, u, w)
        advance = plant.advance(w)
        x = [plant.x0]
        for t in range(stepped.T):
            x.append(advance(t, x[t], u[t]))
        assert np.array_equal(np.array(x), x_ref)


@pytest.mark.parametrize(
    "T,n,m,p", [(6, 2, 1, 1), (5, 3, 2, 1), (7, 1, 1, 2), (4, 2, 2, 3)]
)
def test_dense_operators_match_impulse_stacking(T, n, m, p):
    rng = np.random.default_rng(100 + T + 10 * n + 100 * m + 1000 * p)
    plant = random_ltv(rng, T=T, n=n, m=m, p=p)
    ops = build_dense_operators(plant)
    F, G = impulse_stacked_maps(plant)
    assert_allclose(ops.F, F, atol=1e-12)
    assert_allclose(ops.G, G, atol=1e-12)
    # strict causality: block row i only reads inputs before time i
    for i in range(T):
        assert np.all(ops.F[i * n : (i + 1) * n, i * m :] == 0.0)
        assert np.all(ops.G[i * n : (i + 1) * n, i * p :] == 0.0)


def test_dense_operators_reproduce_simulation(rng):
    plant = random_ltv(rng, T=7, n=3, m=2, p=2)
    ops = build_dense_operators(plant)
    u = rng.standard_normal((7, 2))
    w = rng.standard_normal((7, 2))
    _, s = simulate_outputs(plant, u, w)
    assert_allclose(ops.F @ u.ravel() + ops.G @ w.ravel(), s.ravel(), atol=1e-10)


def test_dense_operators_require_zero_x0(rng):
    plant = random_ltv(rng, T=4)
    bad = LtvPlant(
        A=plant.A,
        Bu=plant.Bu,
        Bw=plant.Bw,
        Q=plant.Q,
        R_half=plant.R_half,
        x0=np.ones(plant.n),
    )
    with pytest.raises(ValueError):
        build_dense_operators(bad)
    with pytest.raises(TypeError):
        build_dense_operators(random_lti(rng))


def test_plant_json_round_trip_is_exact(rng):
    # exactly symmetric Q so validation does not have to resymmetrize it
    plant = random_lti(rng, n=4, m=2, p=3)
    plant = LtiPlant(
        A=plant.A,
        Bu=plant.Bu,
        Bw=plant.Bw,
        Q=np.diag(np.abs(rng.standard_normal(4)) + 0.1),
        R_half=plant.R_half,
        x0=plant.x0,
    )
    back = plant_from_json_dict(plant_to_json_dict(plant))
    assert np.array_equal(back.A, plant.A)
    assert np.array_equal(back.Bu, plant.Bu)
    assert np.array_equal(back.Bw, plant.Bw)
    assert np.array_equal(back.Q, plant.Q)
    assert np.array_equal(back.x0, plant.x0)


def test_plant_json_round_trip_idempotent(rng):
    """After one validation pass the serialized form is a fixed point."""
    plant = random_lti(rng, n=3, m=1, p=2)
    once = plant_from_json_dict(plant_to_json_dict(plant))
    assert_allclose(once.Q, plant.Q, atol=1e-14)
    twice = plant_from_json_dict(plant_to_json_dict(once))
    assert np.array_equal(twice.Q, once.Q)
    assert np.array_equal(twice.A, once.A)


def test_plant_json_rejects_unknown_schema(rng):
    obj = plant_to_json_dict(random_lti(rng))
    obj["schema_version"] = 999
    with pytest.raises(ValueError):
        plant_from_json_dict(obj)


def test_bundled_boeing_shape(boeing):
    assert (boeing.n, boeing.m, boeing.p) == (4, 2, 4)
    assert np.array_equal(boeing.x0, np.zeros(4))
    assert np.max(np.abs(np.linalg.eigvals(boeing.A))) < 1.0
    lam = np.linalg.eigvalsh(boeing.Q)
    assert lam.min() >= -1e-12


def test_load_bundled_rejects_unknown_name():
    with pytest.raises((ValueError, FileNotFoundError, KeyError)):
        load_bundled_plant("not-a-plant")
