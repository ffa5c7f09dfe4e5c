"""Independent reference routes used to pin expected values in tests.

Everything here is deliberately written in the most naive way available
(impulse-by-impulse stacking, brute-force least squares, raw state
recursions) so that agreement with the package's structured computations is
evidence rather than tautology.  Nothing in this module calls back into
compctrl beyond the plant containers themselves.
"""

import numpy as np


def simulate_outputs(plant, u, w):
    """Roll x_{t+1} = A_t x_t + Bu_t u_t + Bw_t w_t and return (x, s).

    x has T+1 rows starting from plant.x0; s stacks s_t = Q_t^{1/2} x_t for
    t = 0..T-1.
    """
    T, n = plant.T, plant.n
    u = np.asarray(u, dtype=float).reshape(T, plant.m)
    w = np.asarray(w, dtype=float).reshape(T, plant.p)
    x = np.zeros((T + 1, n))
    x[0] = plant.x0
    s = np.zeros((T, n))
    for t in range(T):
        s[t] = plant.Q_half[t] @ x[t]
        x[t + 1] = plant.A[t] @ x[t] + plant.Bu[t] @ u[t] + plant.Bw[t] @ w[t]
    return x, s


def rollout_cost(plant, u, w):
    """Total cost sum_t ||Q_t^{1/2} x_t||^2 + ||u_t||^2 by direct simulation."""
    u = np.asarray(u, dtype=float).reshape(plant.T, plant.m)
    _, s = simulate_outputs(plant, u, w)
    return float(np.sum(s * s) + np.sum(u * u))


def impulse_stacked_maps(plant):
    """Build the stacked maps F: u -> s and G: w -> s one impulse at a time.

    Column (j*m + k) of F is the stacked response of s to a unit impulse in
    input coordinate k at time j, with w = 0 (and vice versa for G); requires
    x0 = 0 so the response is linear.
    """
    assert not np.any(plant.x0), "impulse stacking needs x0 = 0"
    T, n, m, p = plant.T, plant.n, plant.m, plant.p
    F = np.zeros((n * T, m * T))
    G = np.zeros((n * T, p * T))
    for j in range(T):
        for k in range(m):
            u = np.zeros((T, m))
            u[j, k] = 1.0
            _, s = simulate_outputs(plant, u, np.zeros((T, p)))
            F[:, j * m + k] = s.ravel()
        for k in range(p):
            w = np.zeros((T, p))
            w[j, k] = 1.0
            _, s = simulate_outputs(plant, np.zeros((T, m)), w)
            G[:, j * p + k] = s.ravel()
    return F, G


def brute_force_offline(plant, w):
    """Minimize ||F u + G w||^2 + ||u||^2 by stacked least squares.

    Returns (u_star as (T, m), optimal cost).  The normal-equation-free
    lstsq route keeps this independent of the solve used in the package.
    """
    F, G = impulse_stacked_maps(plant)
    T, m = plant.T, plant.m
    wflat = np.asarray(w, dtype=float).reshape(T * plant.p)
    A = np.vstack([F, np.eye(m * T)])
    b = np.concatenate([-G @ wflat, np.zeros(m * T)])
    uflat, *_ = np.linalg.lstsq(A, b, rcond=None)
    cost = float(np.sum((F @ uflat + G @ wflat) ** 2) + np.sum(uflat**2))
    return uflat.reshape(T, m), cost


def stacked_opt_cost(plant, w):
    """OPT(w) = w' G' (I + F F')^{-1} G w evaluated densely from impulses."""
    F, G = impulse_stacked_maps(plant)
    wflat = np.asarray(w, dtype=float).reshape(-1)
    gw = G @ wflat
    return float(gw @ np.linalg.solve(np.eye(F.shape[0]) + F @ F.T, gw))


def lqr_value_iteration(A, Bu, Q, iters=200_000, tol=1e-13):
    """Plain LQR Riccati value iteration with R = I (independent route)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Bu = np.atleast_2d(np.asarray(Bu, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    P = np.zeros_like(Q)
    for _ in range(iters):
        H = np.eye(Bu.shape[1]) + Bu.T @ P @ Bu
        K = np.linalg.solve(H, Bu.T @ P @ A)
        Pn = Q + A.T @ P @ A - A.T @ P @ Bu @ K
        Pn = 0.5 * (Pn + Pn.T)
        if np.max(np.abs(Pn - P)) < tol * max(1.0, np.max(np.abs(Pn))):
            return Pn
        P = Pn
    raise RuntimeError("LQR value iteration did not converge")


def sinusoid_response_power(loop_A, loop_B, loop_C, loop_D, omega, v):
    """Steady-state mean square output of the loop under w_t = sin(omega t) v.

    Computed from the transfer matrix directly: the response to the complex
    exponential e^{i omega t} v is T(e^{i omega}) v e^{i omega t}, and the
    time average of |Im(.)|^2 is half the squared magnitude for 0 < omega <
    pi.
    """
    z = np.exp(1j * omega)
    n = loop_A.shape[0]
    Tv = (loop_C @ np.linalg.solve(z * np.eye(n) - loop_A, loop_B) + loop_D) @ v
    return 0.5 * float(np.vdot(Tv, Tv).real)


def game_value_iteration(A, Btil, Rtil, Q, max_iter=100_000):
    """Reference verdict route: value iteration P <- Ric(P) from P = 0.

    Returns (P or None, feasible, reason, steps).  Every step checks
    H~ = R~ + B~'PB~ after the symmetric scaling S H~ S, S = diag(1/sqrt(row
    max)): a pivot ratio min|lam|/max|lam| <= 1e-12 is "singular-Htilde",
    an inertia other than that of R~ (sign threshold 1e-10) is
    "condition-violated", and a non-finite P or the step cap are
    "no-stabilizing-solution".  The iteration stops when the update
    norm drops below 1e-11 + 1e-9 * max(1, ||P||_inf).  A converged P is
    feasible when the closed loop has spectral radius < 1 - 1e-9, the
    unscaled H~ keeps the inertia of R~, and P is PSD (min eigenvalue
    >= -1e-9); otherwise the reason is "condition-violated".
    """
    A, Btil, Rtil, Q = (np.asarray(M, dtype=float) for M in (A, Btil, Rtil, Q))

    def scaled_eig(H):
        H = 0.5 * (H + H.T)
        S = 1.0 / np.sqrt(np.maximum(np.abs(H).max(axis=1), np.finfo(float).tiny))
        lam, V = np.linalg.eigh(H * S[:, None] * S[None, :])
        return lam, V, S

    def signs(lam):
        n_pos, n_neg = int(np.sum(lam > 1e-10)), int(np.sum(lam < -1e-10))
        return n_pos, n_neg, lam.size - n_pos - n_neg

    def solve(H, B):
        lam, V, S = scaled_eig(H)
        return (V @ ((V.T @ (B * S[:, None])) / lam[:, None])) * S[:, None]

    inertia_R = signs(np.linalg.eigvalsh(0.5 * (Rtil + Rtil.T)))
    P = np.zeros_like(Q)
    for step in range(1, max_iter + 1):
        Htil = Rtil + Btil.T @ P @ Btil
        lam = scaled_eig(Htil)[0]
        if np.abs(lam).min() <= 1e-12 * max(np.abs(lam).max(), np.finfo(float).tiny):
            return None, False, "singular-Htilde", step
        if signs(lam) != inertia_R:
            return None, False, "condition-violated", step
        BtPA = Btil.T @ P @ A
        Pn = Q + A.T @ P @ A - BtPA.T @ solve(Htil, BtPA)
        Pn = 0.5 * (Pn + Pn.T)
        if not np.isfinite(Pn).all():
            return None, False, "no-stabilizing-solution", step
        diff = np.abs(Pn - P).max()
        P = Pn
        if diff < 1e-11 + 1e-9 * max(1.0, np.abs(P).max()):
            break
    else:
        return None, False, "no-stabilizing-solution", max_iter
    Htil = Rtil + Btil.T @ P @ Btil
    lam = scaled_eig(Htil)[0]
    if np.abs(lam).min() <= 1e-12 * max(np.abs(lam).max(), np.finfo(float).tiny):
        return None, False, "singular-Htilde", step
    Acl = A - Btil @ solve(Htil, Btil.T @ P @ A)
    feasible = (
        np.abs(np.linalg.eigvals(Acl)).max() < 1.0 - 1e-9
        and signs(np.linalg.eigvalsh(0.5 * (Htil + Htil.T))) == inertia_R
        and np.linalg.eigvalsh(P).min() >= -1e-9
    )
    return P, bool(feasible), None if feasible else "condition-violated", step


def schur_backward(plant, gamma):
    """Reference finite-horizon route: the game recursion with Schur checks.

    Runs P_t = Q + A'PA - A'PB~ H~^{-1} B~'PA, with B~ = [B_u, B_w],
    R~ = diag(I, -gamma^2 I) and P = P_{t+1}, from P_T = 0 down to t = 0
    whatever the checks say.  Each step t first checks, with
    H = I + B_u'PB_u and margin 1e-9, the causal condition in its
    Schur-complement form, B_w'(P - PB_u H^{-1}B_u'P)B_w < gamma^2 I, and
    the one-step-delay condition B_w'PB_w < gamma^2 I.  Returns
    (P, causal_bad, strict_bad): P as (T+1, n, n) and, for each condition,
    the steps where it fails in the order visited (descending t).  A
    singular H~ or H raises LinAlgError.
    """
    T, n, m, p = plant.T, plant.n, plant.m, plant.p
    g2 = gamma * gamma
    Rtil = np.diag(np.r_[np.ones(m), -g2 * np.ones(p)])
    P = np.zeros((T + 1, n, n))
    causal_bad, strict_bad = [], []
    for t in range(T - 1, -1, -1):
        A, Bu, Bw = plant.A[t], plant.Bu[t], plant.Bw[t]
        Pn = P[t + 1]
        PBu = Pn @ Bu
        closed = Pn - PBu @ np.linalg.solve(np.eye(m) + Bu.T @ PBu, PBu.T)
        for M, bad in ((closed, causal_bad), (Pn, strict_bad)):
            S = Bw.T @ M @ Bw
            if np.linalg.eigvalsh(0.5 * (S + S.T)).max() >= g2 - 1e-9:
                bad.append(t)
        Btil = np.hstack([Bu, Bw])
        BtPA = Btil.T @ Pn @ A
        Pt = plant.Q[t] + A.T @ Pn @ A - BtPA.T @ np.linalg.solve(
            Rtil + Btil.T @ Pn @ Btil, BtPA
        )
        P[t] = 0.5 * (Pt + Pt.T)
    return P, causal_bad, strict_bad


def _equilibrated_eigh(H):
    """(lam, V, S) of S H S = V diag(lam) V', S = diag(1/sqrt(row max)), and
    whether the pivot guard min|lam| <= 1e-12 * max|lam| declares H singular.
    """
    Hs = 0.5 * (H + H.T)
    d = np.abs(Hs).max(axis=1)
    S = 1.0 / np.sqrt(np.maximum(d, np.finfo(float).tiny))
    lam, V = np.linalg.eigh(Hs * S[:, None] * S[None, :])
    abs_lam = np.abs(lam)
    singular = abs_lam.min() <= 1e-12 * max(abs_lam.max(), np.finfo(float).tiny)
    return lam, V, S, singular


def _solve_equilibrated(lam, V, S, B):
    Y = V.T @ (B * S[:, None])
    return (V @ (Y / lam[:, None])) * S[:, None]


def _solve_sym_scalar(H, B):
    lam, V, S, singular = _equilibrated_eigh(H)
    if singular:
        raise np.linalg.LinAlgError("singular symmetric matrix")
    return _solve_equilibrated(lam, V, S, B)


def hinf_backward_scalar(plant, gamma):
    """The game recursion with the package's verdicts, one level, one step
    at a time.

    Runs P_t = Q + A'PA - A'PB~ H~^{-1} B~'PA with R~ = diag(I, -gamma^2 I)
    from P_T = 0.  Before step t it checks the one-step-delay condition
    B_w'P_{t+1}B_w < gamma^2 I (margin 1e-9, until it first fails), then
    H~ = R~ + B~'P_{t+1}B~, equilibrated: singular by the relative pivot
    guard, or with an inertia (eigenvalue signs beyond 1e-10) other than
    that of R~, ends the recursion at t.  Returns (P, causal, strict), each
    verdict an (ok, reason, first_violation) triple; a causal failure also
    fails the strict verdict when that still held, and a singular H~ always
    does.
    """
    T, N, m, p = plant.T, plant.n, plant.m, plant.p
    tol = 1e-10

    def signs(lam):
        return int(np.sum(lam > tol)), int(np.sum(lam < -tol))

    Rtil = np.diag(np.r_[np.ones(m), -gamma * gamma * np.ones(p)])
    inertia_R = signs(np.linalg.eigvalsh(0.5 * (Rtil + Rtil.T)))
    P = np.zeros((T + 1, N, N))
    causal = strict = (True, None, None)
    for t in range(T - 1, -1, -1):
        A, Bw, Q = plant.A[t], plant.Bw[t], plant.Q[t]
        Btil = np.concatenate([plant.Bu[t], Bw], axis=1)
        Pn = P[t + 1]
        if strict[0]:
            S = Bw.T @ Pn @ Bw
            if not np.linalg.eigvalsh(0.5 * (S + S.T)).max() < gamma * gamma - 1e-9:
                strict = (False, "condition-violated", t)
        lam, V, S, singular = _equilibrated_eigh(Rtil + Btil.T @ Pn @ Btil)
        if singular or signs(lam) != inertia_R:
            causal = (False, "singular-Htilde" if singular else "condition-violated", t)
            if strict[0] or singular:
                strict = causal
            break
        BtPA = Btil.T @ Pn @ A
        Pt = Q + A.T @ Pn @ A - BtPA.T @ _solve_equilibrated(lam, V, S, BtPA)
        P[t] = 0.5 * (Pt + Pt.T)
    return P, causal, strict


def saddle_gains_per_step(plant, P, gamma, causality):
    """The finite-horizon gains (Kx, Kw) of the attenuation law, one step at
    a time from the schedule P (T+1, n, n).

    Causal: Kx_t = H^{-1}B_u'P_{t+1}A and Kw_t = H^{-1}B_u'P_{t+1}B_w with
    H = I + B_u'P_{t+1}B_u.  Strictly causal: P_{t+1} is first replaced by
    M = P + PB_w(gamma^2 I - B_w'PB_w)^{-1}B_w'P, and Kw_t = 0.
    """
    T, n, m, p = plant.T, plant.n, plant.m, plant.p
    Kx = np.zeros((T, m, n))
    Kw = np.zeros((T, m, p))
    for t in range(T):
        Pn, A, Bu, Bw = P[t + 1], plant.A[t], plant.Bu[t], plant.Bw[t]
        if causality == "strictly-causal":
            PBw = Pn @ Bw
            M = Pn + PBw @ _solve_sym_scalar(gamma**2 * np.eye(p) - Bw.T @ PBw, PBw.T)
            Pn = 0.5 * (M + M.T)
        H = np.eye(m) + Bu.T @ Pn @ Bu
        Kx[t] = _solve_sym_scalar(H, Bu.T @ Pn @ A)
        if causality != "strictly-causal":
            Kw[t] = _solve_sym_scalar(H, Bu.T @ Pn @ Bw)
    return Kx, Kw


def affine_sweep(plant, w):
    """Reference clairvoyant policy u_t = -K_t x_t - h_t for a known w.

    One affine backward Riccati sweep: the cost-to-go from step t is
    x'P_t x + 2 b_t'x + const, so K_t = H^{-1}B_u'P_{t+1}A and
    h_t = H^{-1}B_u'(P_{t+1}B_w w_t + b_{t+1}) with H = I + B_u'P_{t+1}B_u;
    b_t and P_t follow from the closed loop A - B_u K_t.  Returns (K, h).
    """
    T, n, m = plant.T, plant.n, plant.m
    P = np.zeros((n, n))
    b = np.zeros(n)
    K = np.zeros((T, m, n))
    h = np.zeros((T, m))
    for t in range(T - 1, -1, -1):
        A, Bu = plant.A[t], plant.Bu[t]
        g = plant.Bw[t] @ w[t]
        H = np.eye(m) + Bu.T @ P @ Bu
        K[t] = np.linalg.solve(H, Bu.T @ P @ A)
        h[t] = np.linalg.solve(H, Bu.T @ (P @ g + b))
        Acl = A - Bu @ K[t]
        b = K[t].T @ h[t] + Acl.T @ (P @ (g - Bu @ h[t]) + b)
        Pt = plant.Q[t] + K[t].T @ K[t] + Acl.T @ P @ Acl
        P = 0.5 * (Pt + Pt.T)
    return K, h


def _transfer_pointwise(loop, z):
    """C (zI - A)^{-1} B + D at one z."""
    X = np.linalg.solve(z * np.eye(loop.A.shape[0]) - loop.A, loop.B)
    return loop.C @ X + loop.D


def sigma_max_pointwise(loop, omega):
    """Largest singular value of the closed loop at one z = e^{i omega}."""
    T = _transfer_pointwise(loop, np.exp(1j * float(omega)))
    return float(np.linalg.svd(T, compute_uv=False)[0])


def per_freq_cr_pointwise(plant, loop, omega, singular_rel=1e-12, null_rel=1e-8):
    """Largest eigenvalue of N^{-1/2} (T_K* T_K) N^{-1/2} at one frequency.

    N = G* (I + F F*)^{-1} G is the clairvoyant Gram from the open-loop maps
    F: u -> s and G: w -> s at z = e^{i omega}.  Eigenvalues of N at most
    ``singular_rel`` of the largest count as 0, and N^{-1/2} is 0 on their
    eigenvectors.  A frequency where N is 0, or where the loop's response
    to those eigenvectors is above ``null_rel`` of its gain, gives the
    string "degenerate-frequency".
    """
    z = np.exp(1j * float(omega))
    X = np.linalg.solve(z * np.eye(plant.n) - plant.A, np.hstack([plant.Bu, plant.Bw]))
    S = plant.Q_half @ X
    F, G = S[:, : plant.m], S[:, plant.m :]
    N = G.conj().T @ np.linalg.solve(np.eye(plant.n) + F @ F.conj().T, G)
    N = 0.5 * (N + N.conj().T)
    lam, V = np.linalg.eigh(N)
    if lam[-1] <= 0.0:
        return "degenerate-frequency"
    null = lam <= singular_rel * lam[-1]
    T = _transfer_pointwise(loop, z)
    if null.any() and np.linalg.norm(T @ V[:, null], 2) > null_rel * np.linalg.norm(T, 2):
        return "degenerate-frequency"
    Ninv_half = (V / np.sqrt(np.where(null, np.inf, lam))) @ V.conj().T
    M = T.conj().T @ T
    W = Ninv_half @ M @ Ninv_half
    W = 0.5 * (W + W.conj().T)
    return float(np.linalg.eigvalsh(W)[-1])


def per_freq_cr_on_range_dense(plant, loop, omega, rank_rel=1e-8):
    """(ratio, null response) at one frequency by another route: the
    largest generalized eigenvalue of T_K* T_K against the clairvoyant Gram
    on the range of G* (whose complement is the Gram's null space), and the
    loop's largest response to that complement relative to its gain.

    G and F come from the explicit inverse (zI - A)^{-1}, the Gram from the
    push-through form G*G - G*F (I + F*F)^{-1} F*G, the range from an SVD of
    G (singular values above ``rank_rel`` of the largest), the reduced
    problem from a Cholesky factor, and T_K from the explicit inverse of
    zI - A_cl.
    """
    z = np.exp(1j * float(omega))
    R = plant.Q_half @ np.linalg.inv(z * np.eye(plant.n) - plant.A)
    F, G = R @ plant.Bu, R @ plant.Bw
    GF = G.conj().T @ F
    N = G.conj().T @ G - GF @ np.linalg.inv(np.eye(plant.m) + F.conj().T @ F) @ GF.conj().T
    _, sv, Vh = np.linalg.svd(G)
    rank = int(np.sum(sv > rank_rel * sv[0]))
    U, U0 = Vh[:rank].conj().T, Vh[rank:].conj().T
    T = loop.C @ np.linalg.inv(z * np.eye(loop.A.shape[0]) - loop.A) @ loop.B + loop.D
    M = T.conj().T @ T
    L = np.linalg.cholesky(U.conj().T @ N @ U)
    Li = np.linalg.inv(L)
    W = Li @ (U.conj().T @ M @ U) @ Li.conj().T
    ratio = float(np.linalg.eigvalsh(0.5 * (W + W.conj().T))[-1])
    null = np.linalg.norm(T @ U0, 2) / np.linalg.norm(T, 2) if U0.shape[1] else 0.0
    return ratio, null


def three_branch_rollout(plant, controller, w):
    """Roll a ratio-optimal controller by its law on the synthetic plant.

    The law is stepped as synthesized, with its own w' filter
    nu_{t+1} = A_f nu_t + B_f w_t, w'_t = M_f nu_t, in three branches:

    * doubled plant (infinite horizon): w'_{t+1} is formed first, then
      u_t = -(Kxi xi_t + Kwp w'_{t+1}) and
      xi_{t+1} = Ahat xi_t + Buhat u_t + Bwhat w'_{t+1} on the 2n-state xi;
    * exact plant (infinite horizon, ``C_outer`` present): xi is the plant
      copy, w''_t = C_outer nu_t + D_outer w_t,
      u_t = -(Kxi [xi_t; nu_t] + Kwp w''_t) and
      xi_{t+1} = A xi_t + B_u u_t + B_w w_t;
    * finite horizon: the doubled branch with the step-t matrices, and
      u_{T-1} = 0 with nothing advanced.

    ``plant`` is a finite-horizon plant of horizon len(w).  Returns
    (x, u, wprime, total cost), wprime row t being w'_t before w_t.
    """
    syn, Kxi, Kwp = controller.synthetic, controller.Kxi, controller.Kwp
    w = np.asarray(w, dtype=float).reshape(plant.T, plant.p)
    T = plant.T
    finite = controller.horizon is not None
    exact = syn.exact
    n = syn.A_filter.shape[-1]

    def at(a, t):
        return a[t] if finite else a

    nu = np.zeros(n)
    xi = np.zeros(n if exact else 2 * n)
    x = np.zeros((T + 1, plant.n))
    x[0] = plant.x0
    u = np.zeros((T, plant.m))
    wprime = np.zeros((T, n))
    total = 0.0
    for t in range(T):
        wprime[t] = at(syn.M_filter, t) @ nu
        if not (finite and t == T - 1):
            nu_next = at(syn.A_filter, t) @ nu + at(syn.B_filter, t) @ w[t]
            if exact:
                wpp = syn.C_outer @ nu + syn.D_outer @ w[t]
                u[t] = -(Kxi @ np.concatenate([xi, nu])) - Kwp @ wpp
                xi = syn.Ahat[:n, :n] @ xi + syn.Buhat[:n] @ u[t] + syn.B_filter @ w[t]
            else:
                wp_next = at(syn.M_filter, t + 1) @ nu_next
                u[t] = -(at(Kxi, t) @ xi) - at(Kwp, t) @ wp_next
                xi = at(syn.Ahat, t) @ xi + at(syn.Buhat, t) @ u[t] + at(syn.Bwhat, t) @ wp_next
            nu = nu_next
        total += float(x[t] @ plant.Q[t] @ x[t] + u[t] @ u[t])
        x[t + 1] = plant.A[t] @ x[t] + plant.Bu[t] @ u[t] + plant.Bw[t] @ w[t]
    return x, u, wprime, total


def law_policy(controller, u_offline=None):
    """A controller's per-step policy (t, x_t, w_t) -> (u_t, w'_t), formed
    from its matrices at every step, each product with w_t included.

    * ``h2`` / ``hinf``: u_t = -(Kx x_t) - (Kw w_t), with the step-t gains
      in a finite horizon; no filter;
    * ``competitive``: the realization on x_t and the filter state nu,
      u_t = Cx x_t + Cn nu_t + Dz w_t,
      nu_{t+1} = A_filter nu_t + B_filter w_t and w'_t = M_filter nu_t,
      with u_{T-1} = 0 and nothing advanced in a finite horizon;
    * ``zero``: u_t = 0; ``offline``: row t of ``u_offline``.
    """
    kind, horizon = controller.kind, controller.horizon

    def at(a, t):
        return a[0 if horizon is None else t]

    if kind in ("h2", "hinf"):
        Kx, Kw = controller.Kx, controller.Kw
        if horizon is None:
            Kx, Kw = Kx[None], Kw[None]
        return lambda t, x, w_t: (-(at(Kx, t) @ x) - (at(Kw, t) @ w_t), None)
    if kind == "zero":
        return lambda t, x, w_t: (np.zeros(controller.m), None)
    if kind == "offline":
        return lambda t, x, w_t: (u_offline[t], None)
    r = controller.realization
    nu = np.zeros(r.A_filter.shape[-1])

    def policy(t, x, w_t):
        nonlocal nu
        wp = at(r.M_filter, t) @ nu
        if horizon is not None and t == horizon - 1:
            return np.zeros(r.Cx.shape[1]), wp
        u = at(r.Cx, t) @ x + at(r.Cn, t) @ nu + at(r.Dz, t) @ w_t
        nu = at(r.A_filter, t) @ nu + at(r.B_filter, t) @ w_t
        return u, wp

    return policy


def stepped_rollout(plant, policy, w, advance=None, stops=(), divergence_norm=1e6):
    """A closed-loop rollout as one plain loop that does everything per step.

    ``plant`` is a finite-horizon plant of horizon len(w), read for its
    per-step A, Bu, Bw and Q and its x0.  At step t, ``policy(t, x_t, w_t)``
    gives (u_t, w'_t) (w'_t None: zeros are logged); the step cost
    float(x_t'Q_t x_t + u_t'u_t) and the running sum are formed in the loop;
    the state steps as A_t x_t + Bu_t u_t + Bw_t w_t, or by
    ``advance(x_t, u_t, w_t)`` when given.  An exception of a class in
    ``stops`` ends the run with the exception's ``status``; a state whose
    norm is not at most ``divergence_norm`` ends it as "diverged", the step
    that reached it recorded.  Returns the fields of a rollout result as a
    dict (``w``, ``wprime``, ``x``, ``u``, ``step_cost``, ``cum_cost``,
    ``total_cost``, ``status``, ``steps_completed``).
    """
    n, m = plant.n, plant.m
    x = np.array(plant.x0, dtype=float)
    xs, us, wps, costs, cums = [x], [], [], [], []
    running, status = 0.0, "ok"
    for t in range(len(w)):
        try:
            u, wp = policy(t, x, w[t])
        except stops as stop:
            status = stop.status
            break
        cost = float(x @ plant.Q[t] @ x + u @ u)
        running += cost
        if advance is None:
            x = plant.A[t] @ x + plant.Bu[t] @ u + plant.Bw[t] @ w[t]
        else:
            x = advance(x, u, w[t])
        us.append(u)
        wps.append(np.zeros(n) if wp is None else wp)
        costs.append(cost)
        cums.append(running)
        xs.append(x)
        if not np.sqrt(x @ x) <= divergence_norm:
            status = "diverged"
            break
    k = len(us)
    return {
        "w": w[:k],
        "wprime": np.array(wps).reshape(k, n),
        "x": np.array(xs).reshape(k + 1, n),
        "u": np.array(us).reshape(k, m),
        "step_cost": np.array(costs).reshape(k),
        "cum_cost": np.array(cums).reshape(k),
        "total_cost": running,
        "status": status,
        "steps_completed": k,
    }


def affine_forward(plant, K, h, w):
    """The clairvoyant forward pass for a given schedule, all per step:
    u_t = -(K_t x_t) - h_t, OPT += float(x_t'Q_t x_t + u_t'u_t) and
    x_{t+1} = A_t x_t + Bu_t u_t + Bw_t w_t.  Returns (u, OPT)."""
    x = np.array(plant.x0, dtype=float)
    u = np.zeros((plant.T, plant.m))
    opt = 0.0
    for t in range(plant.T):
        u[t] = -(K[t] @ x) - h[t]
        opt += float(x @ plant.Q[t] @ x + u[t] @ u[t])
        x = plant.A[t] @ x + plant.Bu[t] @ u[t] + plant.Bw[t] @ w[t]
    return u, opt


def doubled_plant_per_step(plant, schedule):
    """The finite-horizon doubled plant assembled one step at a time.

    For each t: Ahat_t = [[A_t, K_t Sigma_t^{1/2}], [0, 0]],
    Buhat_t = [B_u,t; 0], Bwhat_t = [0; I], Qhat_t = U_t U_t' with
    U_t = [Q_t^{1/2}; Sigma_t^{1/2}], A_filter_t = A_t - K_t Q_t^{1/2} and
    M_filter_t = Sigma_t^{-1/2} Q_t^{1/2}.  Returns those six (T, ., .)
    stacks by name.
    """
    T, n, m = plant.T, plant.n, plant.m
    out = {
        "Ahat": np.zeros((T, 2 * n, 2 * n)),
        "Buhat": np.zeros((T, 2 * n, m)),
        "Bwhat": np.zeros((T, 2 * n, n)),
        "Qhat": np.zeros((T, 2 * n, 2 * n)),
        "A_filter": np.zeros((T, n, n)),
        "M_filter": np.zeros((T, n, n)),
    }
    for t in range(T):
        Qh = plant.Q_half[t]
        out["Ahat"][t, :n, :n] = plant.A[t]
        out["Ahat"][t, :n, n:] = schedule.K[t] @ schedule.Sigma_half[t]
        out["Buhat"][t, :n, :] = plant.Bu[t]
        out["Bwhat"][t, n:, :] = np.eye(n)
        U = np.vstack([Qh, schedule.Sigma_half[t]])
        out["Qhat"][t] = U @ U.T
        out["A_filter"][t] = plant.A[t] - schedule.K[t] @ Qh
        out["M_filter"][t] = schedule.Sigma_inv_half[t] @ Qh
    return out
