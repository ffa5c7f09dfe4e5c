import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_discrete_are

from conftest import (
    no_feedthrough_plant,
    random_lti,
    random_ltv,
    rank_one_feedthrough_plant,
    scalar_lti,
)
from oracles import doubled_plant_per_step, impulse_stacked_maps

from compctrl.controllers import CompetitiveController, control_step, synth_competitive
from compctrl.factorization import (
    FactorizationError,
    SpectralFactor,
    build_synthetic,
    delta_inv_transfer,
    delta_transfer,
    dense_delta,
    outer_factor_ih,
    spectral_factor_ih,
    whitening_fh,
    wprime_run,
)
from compctrl.freq import closed_loop, default_grid, per_freq_cr
from compctrl.model import LtiPlant, LtvPlant, build_dense_operators, inv_sqrt_pd, sqrt_psd
from compctrl.mpc import PendulumParams, linearize_pendulum
from compctrl.riccati import is_stable, sym
from compctrl.search import min_gamma_competitive


def _whitening_per_step(plant):
    """The whitening recursion with every product and solve written out per
    step, as the reference for the stacked guard of :func:`whitening_fh`."""
    T, n = plant.T, plant.n
    P, K, Sigma = np.zeros((T + 1, n, n)), np.zeros((T, n, n)), np.zeros((T, n, n))
    for t in range(T):
        Qh, A = plant.Q_half[t], plant.A[t]
        Sigma[t] = Sig = sym(np.eye(n) + Qh @ P[t] @ Qh)
        K[t] = Kt = np.linalg.solve(Sig, (A @ P[t] @ Qh).T).T
        P[t + 1] = sym(A @ P[t] @ A.T + plant.Bu[t] @ plant.Bu[t].T - Kt @ Sig @ Kt.T)
    return P, K, Sigma


def test_whitening_square_roots_equal_per_step_roots(rng, boeing):
    # P, K and Sigma are those of the per-step recursion, and the roots of
    # Sigma, taken in one stacked call after the recursion, equal the
    # per-step roots, all bit for bit
    plants = [boeing.to_ltv(200)] + [
        random_ltv(rng, T=40, n=3, m=2, p=p) for p in (1, 3)
    ]
    for plant in plants:
        sched = whitening_fh(plant)
        for got, ref in zip((sched.P, sched.K, sched.Sigma), _whitening_per_step(plant)):
            assert_array_equal(got, ref)
        for t in range(plant.T):
            assert np.array_equal(sched.Sigma_half[t], sqrt_psd(sched.Sigma[t]))
            assert np.array_equal(sched.Sigma_inv_half[t], inv_sqrt_pd(sched.Sigma[t]))


@pytest.mark.parametrize("c, lam", [(-1.0, "0.000e+00"), (-1.0 + 2**-40, "9.095e-13")],
                         ids=["singular-solve", "guard"])
def test_whitening_reports_its_first_singular_innovation(c, lam):
    # Sigma_t >= I for a symmetric Q^{1/2}; a skew one makes Sigma_1 =
    # diag(1, 1 + c), exactly singular (the solve fails) or below the guard
    # (the recursion runs on), and both are reported at t = 1
    T = 4
    plant = LtvPlant(
        A=np.repeat(np.eye(2)[None], T, axis=0),
        Bu=np.repeat(np.array([[[1.0], [0.0]]]), T, axis=0),
        Bw=np.ones((T, 2, 1)),
        Q=np.repeat(np.eye(2)[None], T, axis=0),
        R_half=np.ones((T, 1, 1)),
        x0=np.zeros(2),
    )
    plant.__dict__["Q_half"] = np.repeat(np.array([[[0.0, 1.0], [c, 0.0]]]), T, axis=0)
    with pytest.raises(FactorizationError) as err:
        whitening_fh(plant)
    assert str(err.value) == (
        f"numeric-failure: innovation matrix singular at t=1 (min eigenvalue {lam})"
    )


def test_whitening_reraises_a_singular_solve_the_guard_passes():
    # Sigma_1 = I + B_u,0 B_u,0' with |B_u,0|^2 ~ 7e16, where the 1 of the
    # larger diagonal entry rounds away: LU meets an exact zero pivot, yet
    # the stored Sigma_1's smallest eigenvalue reads 1.0, so the guard
    # passes and numpy's LinAlgError leaves the recursion as it is
    T, v = 2, [235207481.0, 101700644.0]
    plant = LtvPlant(
        A=np.zeros((T, 2, 2)),
        Bu=np.repeat(np.array([v]).T[None], T, axis=0),
        Bw=np.ones((T, 2, 1)),
        Q=np.repeat(np.eye(2)[None], T, axis=0),
        R_half=np.ones((T, 1, 1)),
        x0=np.zeros(2),
    )
    Sigma = sym(np.eye(2) + plant.Q_half[1] @ np.outer(v, v) @ plant.Q_half[1])
    assert np.linalg.eigvalsh(Sigma).min() >= 1e-9
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        whitening_fh(plant)


def test_whitening_scalar_frozen():
    plant = scalar_lti().to_ltv(2)
    sched = whitening_fh(plant)
    assert_allclose(sched.Sigma[:, 0, 0], [1.0, 2.0], rtol=1e-12)
    assert_allclose(sched.K[:, 0, 0], [0.0, 0.5], atol=1e-12)
    D = dense_delta(plant, sched)
    assert_allclose(D, np.diag([1.0, np.sqrt(2.0)]), atol=1e-12)


def test_wprime_scalar_frozen():
    plant = scalar_lti().to_ltv(2)
    syn = build_synthetic(plant)
    w = np.array([[3.0], [5.0]])
    wp = wprime_run(syn, w)
    assert wp.shape == (2, 1)
    assert wp[0, 0] == 0.0
    assert_allclose(wp[1, 0], 3.0 / np.sqrt(2.0), rtol=1e-12)


@pytest.mark.parametrize(
    "T,n,m,p", [(6, 2, 1, 1), (8, 3, 2, 2), (5, 1, 2, 1), (7, 2, 1, 3)]
)
def test_fh_factorization_identity(T, n, m, p):
    """Delta Delta' = I + F F' with F stacked from raw impulse responses."""
    rng = np.random.default_rng(3000 + T + 10 * n + 100 * m + 1000 * p)
    plant = random_ltv(rng, T=T, n=n, m=m, p=p)
    sched = whitening_fh(plant)
    D = dense_delta(plant, sched)
    F, _ = impulse_stacked_maps(plant)
    rhs = np.eye(n * T) + F @ F.T
    assert np.linalg.norm(D @ D.T - rhs) / np.linalg.norm(rhs) < 1e-10


def test_fh_delta_is_block_lower_triangular(rng):
    plant = random_ltv(rng, T=5, n=2, m=1, p=1)
    D = dense_delta(plant, whitening_fh(plant))
    n = plant.n
    for i in range(5):
        assert np.all(D[i * n : (i + 1) * n, (i + 1) * n :] == 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_wprime_equals_dense_whitened_disturbance(seed):
    """The online filter realizes w' = Delta^{-1} G w exactly."""
    rng = np.random.default_rng(4000 + seed)
    T = 9
    plant = random_ltv(rng, T=T, n=2, m=2, p=2)
    sched = whitening_fh(plant)
    syn = build_synthetic(plant)
    w = rng.standard_normal((T, 2))
    wp = wprime_run(syn, w)
    D = dense_delta(plant, sched)
    ops = build_dense_operators(plant)
    expected = np.linalg.solve(D, ops.G @ w.ravel())
    assert_allclose(wp.ravel(), expected, atol=1e-10)


def test_wprime_strictly_causal(rng):
    T, t0 = 10, 4
    plant = random_ltv(rng, T=T, n=3, m=1, p=2)
    syn = build_synthetic(plant)
    w1 = rng.standard_normal((T, 2))
    w2 = w1.copy()
    w2[t0:] = rng.standard_normal((T - t0, 2))
    wp1 = wprime_run(syn, w1)
    wp2 = wprime_run(syn, w2)
    # w'_t depends only on w_0..w_{t-1}: identical through index t0
    assert np.array_equal(wp1[: t0 + 1], wp2[: t0 + 1])
    assert not np.allclose(wp1[t0 + 1 :], wp2[t0 + 1 :])


def test_spectral_factor_scalar_frozen():
    plant = scalar_lti(a=0.5)
    factor = spectral_factor_ih(plant)
    P = (0.25 + np.sqrt(4.0625)) / 2.0
    assert_allclose(factor.P[0, 0], P, rtol=1e-10)
    assert_allclose(factor.Sigma[0, 0], 1.0 + P, rtol=1e-10)
    assert_allclose(factor.K[0, 0], 0.5 * P / (1.0 + P), rtol=1e-10)
    assert factor.residual < 1e-10
    assert is_stable(factor.A_whiten)


def test_spectral_factor_pendulum_doubles():
    # A is within 1e-3 of I, where value iteration from zero needs 8-10k steps
    plant = linearize_pendulum(PendulumParams(), 0.0)
    factor = spectral_factor_ih(plant)
    assert factor.iterations <= 20
    # the filter Riccati equation is the control one of the dual problem
    ref = solve_discrete_are(
        plant.A.T, plant.Q_half.T, plant.Bu @ plant.Bu.T, np.eye(plant.n)
    )
    assert_allclose(factor.P, ref, rtol=0, atol=1e-10 * np.abs(ref).max())
    assert factor.residual < 1e-10 * np.abs(ref).max()


def test_spectral_factor_reports_a_failed_fixed_point():
    # a = 1.5 is seen through Q^{1/2} = 1e-8 only, at the PBH threshold:
    # the filter's P is about b^2 + a^2/q = 2.25e16, so the doubling
    # diverges past 1e12 and the factor names its doublings and reason
    with pytest.raises(FactorizationError) as err:
        spectral_factor_ih(scalar_lti(a=1.5, q=1e-16))
    assert str(err.value) == ("no-stabilizing-solution: fixed point failed after 6 "
                              "doublings (no-stabilizing-solution)")


@pytest.mark.parametrize("seed", range(5))
def test_ih_factorization_identity_on_circle(seed):
    rng = np.random.default_rng(5000 + seed)
    plant = random_lti(rng, n=int(rng.integers(1, 5)), m=int(rng.integers(1, 3)))
    factor = spectral_factor_ih(plant)
    eye = np.eye(plant.n)
    for omega in np.linspace(0.0, np.pi, 16):
        z = np.exp(1j * omega)
        D = delta_transfer(plant, factor, z)
        Fz = plant.Q_half @ np.linalg.solve(z * eye - plant.A, plant.Bu)
        lhs = D @ D.conj().T
        rhs = eye + Fz @ Fz.conj().T
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(rhs).max())


def test_delta_inverse_transfer(rng):
    plant = random_lti(rng, n=3, m=2, p=1)
    factor = spectral_factor_ih(plant)
    for omega in (0.0, 0.9, 2.2):
        z = np.exp(1j * omega)
        D = delta_transfer(plant, factor, z)
        Dinv = delta_inv_transfer(plant, factor, z)
        assert_allclose(Dinv @ D, np.eye(plant.n), atol=1e-9)


@pytest.mark.parametrize("horizon", [None, 6], ids=["infinite", "finite"])
def test_synthetic_system_block_structure(horizon, rng):
    # one type for both horizons: single matrices, or (T, ., .) stacks whose
    # every step holds the doubled blocks; as_plant() poses the attenuation
    # problem on it, with w' in the whitened output space (p >= n, so the
    # infinite horizon builds the doubled plant too)
    if horizon is None:
        plant = random_lti(rng, n=3, m=2, p=3)
        factor = spectral_factor_ih(plant)
    else:
        plant = random_ltv(rng, T=horizon, n=2, m=1, p=2)
        factor = whitening_fh(plant)
    syn = build_synthetic(plant)
    lifted = syn.as_plant()
    n = plant.n
    assert syn.horizon == horizon and not syn.exact
    assert isinstance(lifted, LtiPlant if horizon is None else LtvPlant)
    assert (lifted.n, lifted.m, lifted.p) == (2 * n, plant.m, n)
    assert np.all(lifted.x0 == 0.0) and np.all(lifted.R_half == np.eye(plant.m))
    for t in range(horizon or 1):
        def at(a):
            return a if horizon is None else a[t]

        A, Bu, Bw, Qh = map(at, (plant.A, plant.Bu, plant.Bw, plant.Q_half))
        K, Sh, Sih = map(at, (factor.K, factor.Sigma_half, factor.Sigma_inv_half))
        Ahat, Buhat, Bwhat, Qhat = map(at, (syn.Ahat, syn.Buhat, syn.Bwhat, syn.Qhat))
        assert_allclose(Ahat[:n, :n], A, atol=1e-14)
        assert_allclose(Ahat[:n, n:], K @ Sh, atol=1e-14)
        assert np.all(Ahat[n:, :] == 0.0)
        assert_allclose(Buhat[:n], Bu, atol=1e-14)
        assert np.all(Buhat[n:] == 0.0)
        assert np.all(Bwhat[:n] == 0.0)
        assert_allclose(Bwhat[n:], np.eye(n), atol=1e-14)
        U = np.vstack([Qh, Sh])
        assert_allclose(Qhat, U @ U.T, atol=1e-12)
        assert np.linalg.eigvalsh(Qhat).min() >= -1e-10
        assert_allclose(at(syn.A_filter), A - K @ Qh, atol=1e-12)
        assert_allclose(at(syn.B_filter), Bw, atol=1e-14)
        assert_allclose(at(syn.M_filter), Sih @ Qh, atol=1e-12)


def test_doubled_assembly_equals_per_step_oracle(rng, boeing):
    # the stacked assembly writes every step of a finite-horizon doubled
    # plant bit for bit as that step assembled alone; the infinite-horizon
    # plant is the one step of its fixed point
    plants = [boeing.to_ltv(200)] + [
        random_ltv(rng, T=25, n=n, m=m, p=p)
        for n, m, p in ((2, 1, 1), (3, 2, 2), (4, 1, 3), (2, 1, 3))
    ]
    for plant in plants:
        sched = whitening_fh(plant)
        assert sched.horizon == plant.T
        syn = build_synthetic(plant)
        for key, ref in doubled_plant_per_step(plant, sched).items():
            assert np.array_equal(getattr(syn, key), ref), key
        assert np.array_equal(syn.B_filter, plant.Bw)
        assert np.array_equal(syn.A_filter, sched.A_whiten)
        assert np.array_equal(syn.M_filter, sched.M_whiten)
    lti = random_lti(rng, n=3, m=1, p=3)
    factor = spectral_factor_ih(lti)
    assert factor.horizon is None
    one_step = SpectralFactor(
        P=factor.P[None],
        K=factor.K[None],
        Sigma=factor.Sigma[None],
        Sigma_half=factor.Sigma_half[None],
        Sigma_inv_half=factor.Sigma_inv_half[None],
        A_whiten=factor.A_whiten[None],
        M_whiten=factor.M_whiten[None],
    )
    syn = build_synthetic(lti)
    for key, ref in doubled_plant_per_step(lti.to_ltv(1), one_step).items():
        assert np.array_equal(getattr(syn, key), ref[0]), key
    assert np.array_equal(syn.A_filter, factor.A_whiten)
    assert np.array_equal(syn.M_filter, factor.M_whiten)


def _wprime_filter_transfer(plant, factor, z):
    """H(z) = z Delta^{-1}(z) G(z), with G(z) = Q^{1/2} (zI - A)^{-1} B_w."""
    G = plant.Q_half @ np.linalg.solve(z * np.eye(plant.n) - plant.A, plant.Bw)
    return z * delta_inv_transfer(plant, factor, z) @ G


@pytest.mark.parametrize("seed", range(6))
def test_outer_factor_identity_on_circle(seed):
    # seeds 3-5: D_H'D_H singular (D_H = 0; rank 1 of p = 2) or nearly so
    # (Q^{1/2} B_w of condition number 1e7, whose small feedthrough must
    # not be dropped); the doubling from the cost of w = 0 needs no
    # feedthrough of full rank
    rng = np.random.default_rng(6000 + seed)
    if seed == 3:
        plant = no_feedthrough_plant()
    elif seed == 4:
        plant = rank_one_feedthrough_plant()
    elif seed == 5:
        plant = rank_one_feedthrough_plant(leak=1e-7)
        assert np.linalg.cond(plant.Q_half @ plant.Bw) == pytest.approx(1e7)
    else:
        n = int(rng.integers(2, 5))
        m, p = int(rng.integers(1, 3)), int(rng.integers(1, n))
        plant = random_lti(rng, n=n, m=m, p=p)
    outer = _assert_outer_factor(plant)
    assert outer.iterations >= 1


def _assert_outer_factor(plant):
    """The outer factor of ``plant``'s w' filter: L*L = H*H on the unit
    circle, with L^{-1} stable."""
    factor = spectral_factor_ih(plant)
    outer = outer_factor_ih(plant, factor)
    assert outer.C.shape == (plant.p, plant.n) and outer.D.shape == (plant.p, plant.p)
    assert outer.residual < 1e-10 * max(1.0, np.abs(outer.X).max())
    assert is_stable(outer.A_inv)
    eye = np.eye(plant.n)
    for omega in np.linspace(0.0, np.pi, 16):
        z = np.exp(1j * omega)
        H = _wprime_filter_transfer(plant, factor, z)
        L = outer.D + outer.C @ np.linalg.solve(z * eye - factor.A_whiten, plant.Bw)
        lhs, rhs = L.conj().T @ L, H.conj().T @ H
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())
    return outer


def _rank_p_plant(seed, ill_conditioned=False):
    """``random_lti(n=3, m=1, p=2)`` with Q's smallest eigenvalue set to 0,
    so rank Q = p = 2 < n.  Ill-conditioned: B_w's first column is then
    Q's null vector plus eps N(0, I), eps = 10^-U(2, 6), which gives
    Q^{1/2} B_w condition numbers up to about 1e6."""
    rng = np.random.default_rng(seed)
    plant = random_lti(rng, n=3, m=1, p=2)
    lam, V = np.linalg.eigh(plant.Q)
    lam[0] = 0.0
    Bw = plant.Bw.copy()
    if ill_conditioned:
        eps = 10.0 ** -rng.uniform(2, 6)
        Bw[:, 0] = V[:, 0] + eps * rng.standard_normal(3)
    return LtiPlant(plant.A, plant.Bu, Bw, (V * lam) @ V.T, plant.R_half, plant.x0)


def test_outer_factor_when_the_filter_has_a_zero_outside_the_circle():
    # rank Q = p = 2 < n = 3: the plant is stabilizable and detectable and
    # sigma_min(H) >= 0.021 on the circle, so an outer factor exists; but
    # C_H = D_H (D_H'D_H)^{-1} D_H'C_H, so X = 0 solves the Riccati
    # equation, and H has a zero outside the circle, so X = 0 (the minimal
    # solution) would leave L^{-1} unstable
    _assert_outer_factor(_rank_p_plant(200))


@pytest.mark.parametrize("ill_conditioned, seeds", [
    (False, range(200, 240)),
    (True, range(900, 960)),
], ids=["rank-p-Q", "ill-conditioned"])
def test_outer_factor_on_rank_deficient_and_ill_conditioned_filters(ill_conditioned, seeds):
    # rank-p-Q: half of these filters have a zero outside the circle, where
    # the minimal Riccati solution is not the stabilizing one;
    # ill-conditioned: Q^{1/2} B_w of condition number up to about 1e6
    for seed in seeds:
        _assert_outer_factor(_rank_p_plant(seed, ill_conditioned))


@pytest.mark.parametrize("causality", ["causal", "strictly-causal"])
def test_exact_reduction_is_tight_when_the_filter_has_a_zero_outside_the_circle(causality):
    # the certified level is the worst per-frequency ratio its controller
    # reaches, on a 4,097-point grid, within 1 %
    plant = _rank_p_plant(200)
    found = min_gamma_competitive(plant, causality=causality)
    assert found.ok and found.audit_warnings == []
    loop = closed_loop(plant, found.controller)
    attained = max(per_freq_cr(plant, loop, default_grid(4097)))
    assert found.gamma**2 >= attained >= 0.99 * found.gamma**2


def test_outer_factor_rejects_a_singular_filter_gram():
    # Q^{1/2} of rank 1 < p = 2: H*H is singular on the whole circle, so R
    # is singular at the Riccati solution
    plant = rank_one_feedthrough_plant(q=(1.0, 0.0, 0.0))
    with pytest.raises(FactorizationError, match="feedthrough singular"):
        outer_factor_ih(plant, spectral_factor_ih(plant))


def test_outer_factor_rejects_a_filter_with_a_zero_on_the_circle():
    # n = 2 > p = 1 with Q = diag(1, 0): the filter sees
    # G(z) = (z - b + c)/((z - a)(z - b)), here with a zero at z = 1, where
    # H*H vanishes: no outer factor has a stable inverse, and the doubling
    # of Z = X_u - X stops on a failed sample
    b = 0.8
    plant = LtiPlant(
        A=np.array([[0.0, 1.0], [0.0, b]]),
        Bu=np.array([[0.0], [1.0]]),
        Bw=np.array([[1.0], [b - 1.0]]),
        Q=np.diag([1.0, 0.0]),
        R_half=np.eye(1),
        x0=np.zeros(2),
    )
    with pytest.raises(FactorizationError,
                       match="^no-stabilizing-solution: outer factor did not converge$"):
        outer_factor_ih(plant, spectral_factor_ih(plant))


def test_exact_synthetic_system_block_structure(rng):
    plant = random_lti(rng, n=3, m=2, p=2)
    factor = spectral_factor_ih(plant)
    outer = outer_factor_ih(plant, factor)
    syn = build_synthetic(plant)
    n = plant.n
    assert syn.exact
    BwDi = plant.Bw @ np.linalg.inv(outer.D)
    assert_allclose(syn.Ahat[:n, :n], plant.A, atol=1e-14)
    assert_allclose(syn.Ahat[:n, n:], -BwDi @ outer.C, atol=1e-12)
    assert np.all(syn.Ahat[n:, :n] == 0.0)
    assert_allclose(syn.Ahat[n:, n:], outer.A_inv, atol=1e-14)
    assert_allclose(syn.Bwhat, np.vstack([BwDi, BwDi]), atol=1e-12)
    assert syn.Bwhat.shape == (2 * n, plant.p)
    assert_allclose(syn.Qhat[:n, :n], plant.Q, atol=1e-14)
    assert np.all(syn.Qhat[n:] == 0.0) and np.all(syn.Qhat[:, n:] == 0.0)
    # the filter state driven through L^{-1} by w'' = L w follows w itself
    w = rng.standard_normal((30, plant.p))
    nu = np.zeros(n)
    lower = np.zeros(n)
    for t in range(30):
        wpp = outer.C @ nu + outer.D @ w[t]
        lower = syn.Ahat[n:, n:] @ lower + syn.Bwhat[n:] @ wpp
        nu = syn.A_filter @ nu + syn.B_filter @ w[t]
        assert_allclose(lower, nu, atol=1e-10)


def test_wprime_filter_online_matches_batch(rng):
    # the w' filter carried in a ratio-optimal controller's state emits,
    # step by step, the batch expansion of the same synthetic system
    plant = random_lti(rng, n=2, m=1, p=2)
    ctrl = synth_competitive(plant, 6.0)
    assert isinstance(ctrl, CompetitiveController), getattr(ctrl, "reason", None)
    T = 12
    w = rng.standard_normal((T, 2))
    batch = wprime_run(ctrl.synthetic, w)
    state = ctrl.make_state()
    online = np.zeros_like(batch)
    for t in range(T):
        online[t] = ctrl.wprime(state)
        control_step(ctrl, state, np.zeros(plant.n), w[t])
    assert_allclose(online, batch, atol=1e-12)


def test_fh_filter_rejects_stepping_past_horizon(rng):
    T = 3
    plant = random_ltv(rng, T=T, n=2, m=1, p=1)
    ctrl = synth_competitive(plant, 6.0)
    assert isinstance(ctrl, CompetitiveController), getattr(ctrl, "reason", None)
    state = ctrl.make_state()
    for _ in range(T):
        control_step(ctrl, state, np.zeros(2), np.zeros(1))
    with pytest.raises(IndexError):
        control_step(ctrl, state, np.zeros(2), np.zeros(1))
    # w'_T does not exist either
    with pytest.raises(IndexError):
        ctrl.wprime(state)


def test_precondition_failures_raise():
    A = np.diag([2.0, 0.5])
    bad_bu = np.array([[0.0], [1.0]])
    plant = LtiPlant(
        A=A, Bu=bad_bu, Bw=np.eye(2), Q=np.eye(2), R_half=np.eye(1), x0=np.zeros(2)
    )
    with pytest.raises(FactorizationError, match="stabilizable"):
        spectral_factor_ih(plant)
    plant2 = LtiPlant(
        A=A,
        Bu=np.eye(2),
        Bw=np.eye(2),
        Q=np.diag([0.0, 1.0]),
        R_half=np.eye(2),
        x0=np.zeros(2),
    )
    with pytest.raises(FactorizationError, match="detectable"):
        spectral_factor_ih(plant2)
