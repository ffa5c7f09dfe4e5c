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
    "condition-violated", and a non-finite P, ||P||_inf > 1e12 or the step
    cap are "no-stabilizing-solution".  The iteration stops when the update
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
        if not np.isfinite(Pn).all() or np.abs(Pn).max() > 1e12:
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
