"""Frequency-domain analysis of closed loops.

Every causal controller here closes the loop into a discrete LTI system
mapping the disturbance w to the stacked performance output (s; u) with
s = Q^{1/2} x.  State-feedback laws give an n-state realization.  The
ratio-optimal controller brings its own realization over z = [xi; nu]
(:class:`compctrl.controllers.Realization`, the one its stepping reads:
plant copy xi and w' filter state nu, driven by w alone), and the loop
stacks it under the plant state into 3n states.

Per-frequency cost ratio: with F and G the open-loop maps u -> s and
w -> s, the clairvoyant cost at frequency omega has Gram
N = G* (I + F F*)^{-1} G, and the controller's cost Gram is
M = T_K* T_K, so the reported ratio is the largest eigenvalue of
N^{-1/2} M N^{-1/2}.  Frequencies where N is numerically singular are
reported as the string "degenerate-frequency" instead of a number.

Evaluation is stacked: transfer_at, open_loop_maps, clairvoyant_gram,
sigma_max and per_freq_cr take a scalar frequency, or a 1-D array of them
and then make one stacked LAPACK call (solve, eigh, svd, eigvalsh) where a
point would make one call.  numpy runs the single-matrix routine on each
matrix of a stack, so the stacked values equal the pointwise ones bit for
bit.  sweep and peak_gain walk their grid in blocks of BLOCK = 64 points:
per-point calls spent nearly all of a sweep in call overhead, and a stack of
the whole 512-point grid was no faster than blocks of 64 but raised the
peak RSS of a CLI pipeline pass (synth, simulate, freq, mpc, verify) from
45.7 to 48.0 MB, where blocks of 64 kept it at 45.8 MB.  Per block, sweep
does the plant-only work (the clairvoyant Gram and its eigh) once for all
its loops, and solves each loop's transfer once for both of its figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllers import CompetitiveController, StateFeedbackController, ZeroController
from .model import LtiPlant, shifted_solve
from .sim import atomic_write_text

__all__ = [
    "ClosedLoop",
    "closed_loop",
    "transfer_at",
    "open_loop_maps",
    "clairvoyant_gram",
    "sigma_max",
    "peak_gain",
    "per_freq_cr",
    "SweepResult",
    "sweep",
    "write_sweep_csv",
    "extremal_dc",
    "default_grid",
]

DEGENERATE_FREQUENCY = "degenerate-frequency"
_SINGULAR_REL = 1e-12
#: grid points per stacked evaluation in sweep and peak_gain (see above)
BLOCK = 64


@dataclass(frozen=True)
class ClosedLoop:
    """Discrete LTI realization of w -> (s; u)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def closed_loop(plant: LtiPlant, controller) -> ClosedLoop:
    """Fold a time-invariant causal controller into the plant."""
    if not isinstance(plant, LtiPlant):
        raise TypeError("closed_loop expects a time-invariant plant")
    if getattr(controller, "horizon", None) is not None:
        raise ValueError("closed_loop requires an infinite-horizon controller")
    A, Bu, Bw, Qh = plant.A, plant.Bu, plant.Bw, plant.Q_half
    n, m, p = plant.n, plant.m, plant.p
    if isinstance(controller, ZeroController):
        C = np.vstack([Qh, np.zeros((m, n))])
        return ClosedLoop(A=A, B=Bw, C=C, D=np.zeros((n + m, p)))
    if isinstance(controller, StateFeedbackController):
        Kx, Kw = controller.Kx, controller.Kw
        Acl = A - Bu @ Kx
        Bcl = Bw - Bu @ Kw
        C = np.vstack([Qh, -Kx])
        D = np.vstack([np.zeros((n, p)), -Kw])
        return ClosedLoop(A=Acl, B=Bcl, C=C, D=D)
    if isinstance(controller, CompetitiveController):
        # the state [x; z] = [x; xi; nu] under the controller's realization
        Cz, Dz, Az, Bz, Af, Bf, _ = (a[0] for a in controller.realization)
        Acl = np.block(
            [
                [A, Bu @ Cz],
                [np.zeros((n, n)), Az],
                [np.zeros((n, 2 * n)), Af],
            ]
        )
        Bcl = np.vstack([Bw + Bu @ Dz, Bz, Bf])
        C = np.block(
            [
                [Qh, np.zeros((n, 2 * n))],
                [np.zeros((m, n)), Cz],
            ]
        )
        D = np.vstack([np.zeros((n, p)), Dz])
        return ClosedLoop(A=Acl, B=Bcl, C=C, D=D)
    raise TypeError(f"no frequency response for controller kind {controller.kind!r}")


def _on_circle(omega) -> np.ndarray:
    """z = e^{i omega} for a scalar or 1-D array of omega."""
    return np.exp(1j * np.asarray(omega, dtype=float))


def _herm(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return X.conj().swapaxes(-1, -2)


def transfer_at(loop: ClosedLoop, z) -> np.ndarray:
    """Evaluate C (zI - A)^{-1} B + D at a scalar z or along a 1-D array of z."""
    return loop.C @ shifted_solve(loop.A, loop.B, z) + loop.D


def open_loop_maps(plant: LtiPlant, z):
    """The maps F(z): u -> s and G(z): w -> s of the open plant."""
    X = shifted_solve(plant.A, np.hstack([plant.Bu, plant.Bw]), z)
    S = plant.Q_half @ X
    return S[..., : plant.m], S[..., plant.m :]


def clairvoyant_gram(plant: LtiPlant, omega) -> np.ndarray:
    """N(omega) = G* (I + F F*)^{-1} G at z = e^{i omega}."""
    F, G = open_loop_maps(plant, _on_circle(omega))
    N = _herm(G) @ np.linalg.solve(np.eye(plant.n) + F @ _herm(F), G)
    return 0.5 * (N + _herm(N))


def sigma_max(loop: ClosedLoop, omega):
    """Largest singular value of the closed loop at z = e^{i omega}.

    A float for a scalar omega, an array for a 1-D array of omega.
    """
    T = transfer_at(loop, _on_circle(omega))
    s = np.linalg.svd(T, compute_uv=False)[..., 0]
    return float(s) if s.ndim == 0 else s


def default_grid(n_points: int = 512) -> np.ndarray:
    return np.linspace(0.0, np.pi, int(n_points))


def _blocks(n_points: int):
    """Slices covering a grid of n_points in blocks of BLOCK points."""
    return [slice(i, i + BLOCK) for i in range(0, n_points, BLOCK)]


def peak_gain(loop: ClosedLoop, omegas=None) -> float:
    """Max singular value over a frequency grid (default 512 points)."""
    omegas = default_grid() if omegas is None else np.asarray(omegas, dtype=float)
    return max(float(sigma_max(loop, omegas[b]).max()) for b in _blocks(omegas.size))


def _gram_inv_half(plant: LtiPlant, omegas: np.ndarray):
    """(ok, N^{-1/2}) along a 1-D array of omega: ``ok`` flags the
    frequencies whose clairvoyant Gram N is numerically nonsingular, and
    N^{-1/2} is stacked over those alone.  It depends on the plant only."""
    lam, V = np.linalg.eigh(clairvoyant_gram(plant, omegas))
    ok = ~((lam[:, -1] <= 0.0) | (lam[:, 0] <= _SINGULAR_REL * lam[:, -1]))
    lam, V = lam[ok], V[ok]
    return ok, (V / np.sqrt(lam)[:, None, :]) @ _herm(V)


def _ratios(ok: np.ndarray, Ninv_half: np.ndarray, T: np.ndarray) -> list:
    """The per-frequency ratios of the loop whose transfer is T at the
    frequencies flagged ``ok`` (:func:`_gram_inv_half`), with the marker at
    the others."""
    W = Ninv_half @ (_herm(T) @ T) @ Ninv_half
    W = 0.5 * (W + _herm(W))
    ratios = iter(np.linalg.eigvalsh(W)[:, -1].tolist())
    return [next(ratios) if good else DEGENERATE_FREQUENCY for good in ok.tolist()]


def per_freq_cr(plant: LtiPlant, loop: ClosedLoop, omega):
    """Largest eigenvalue of N^{-1/2} (T_K* T_K) N^{-1/2} at each frequency.

    A float, or the degenerate-frequency marker, for a scalar omega; a list
    of those for a 1-D array of omega.
    """
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    ok, Ninv_half = _gram_inv_half(plant, omegas)
    out = _ratios(ok, Ninv_half, transfer_at(loop, _on_circle(omegas[ok])))
    return out if np.ndim(omega) else out[0]


@dataclass
class SweepResult:
    """Per-frequency peak gain and cost ratio for several controllers."""

    omegas: np.ndarray
    names: list
    sigma_max: dict
    per_freq_cr: dict  # name -> list of float or "degenerate-frequency"


def sweep(plant: LtiPlant, named_controllers, n_points: int = 512) -> SweepResult:
    """Evaluate sigma_max and the per-frequency ratio on a uniform grid.

    Per block, the plant-only work (the clairvoyant Gram and its ``eigh``)
    is done once for all loops, and each loop's transfer is solved once and
    read by both figures; the values are those of :func:`sigma_max` and
    :func:`per_freq_cr` on the block, bit for bit.
    """
    if isinstance(named_controllers, dict):
        items = list(named_controllers.items())
    else:
        items = list(named_controllers)
    omegas = default_grid(n_points)
    names = [name for name, _ in items]
    loops = {name: closed_loop(plant, ctrl) for name, ctrl in items}
    sig = {name: np.empty(omegas.size) for name in loops}
    cr = {name: [] for name in loops}
    for b in _blocks(omegas.size):
        z = _on_circle(omegas[b])
        ok, Ninv_half = _gram_inv_half(plant, omegas[b])
        for name, loop in loops.items():
            T = transfer_at(loop, z)
            sig[name][b] = np.linalg.svd(T, compute_uv=False)[..., 0]
            cr[name] += _ratios(ok, Ninv_half, T[ok])
    return SweepResult(omegas=omegas, names=names, sigma_max=sig, per_freq_cr=cr)


def write_sweep_csv(path: str, result: SweepResult) -> None:
    lines = ["controller,omega,sigma_max_TK,per_freq_cr"]
    for name in result.names:
        rows = np.column_stack([result.omegas, result.sigma_max[name]]).tolist()
        for (omega, sig), r in zip(rows, result.per_freq_cr[name]):
            fmt = "%s,%.17g,%.17g,%s" if isinstance(r, str) else "%s,%.17g,%.17g,%.17g"
            lines.append(fmt % (name, omega, sig, r))
    atomic_write_text(path, "\n".join(lines) + "\n")


def extremal_dc(plant: LtiPlant, controller):
    """Best- and worst-case constant disturbance directions.

    Unit eigenvectors of T_K(1)' T_K(1) for the smallest and largest
    eigenvalue, signed so the first nonzero coordinate is positive.
    Returns (best, worst).
    """
    loop = closed_loop(plant, controller)
    T1 = transfer_at(loop, 1.0 + 0.0j)
    T1 = np.real(T1)
    M = T1.T @ T1
    lam, V = np.linalg.eigh(0.5 * (M + M.T))
    best, worst = V[:, 0].copy(), V[:, -1].copy()

    def fix_sign(v):
        idx = np.argmax(np.abs(v) > 1e-12 * max(np.abs(v).max(), 1e-300))
        return -v if v[idx] < 0 else v

    return fix_sign(best), fix_sign(worst)
