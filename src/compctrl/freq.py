"""Frequency-domain analysis of closed loops.

Every causal controller here closes the loop into a discrete LTI system
mapping the disturbance w to the stacked performance output (s; u) with
s = Q^{1/2} x.  State-feedback laws give an n-state realization.  The
ratio-optimal controller reads x and brings its n-state w' filter
(``controller.realization``, the one its stepping reads), and the loop
stacks the filter under the plant state into 2n states.

Per-frequency cost ratio: with F and G the open-loop maps u -> s and
w -> s, the clairvoyant cost at frequency omega has Gram
N = G* (I + F F*)^{-1} G, and the controller's cost Gram is
M = T_K* T_K, so the reported ratio is the largest eigenvalue of
N^{-1/2} M N^{-1/2}.  Where N is numerically singular (always when p > n,
as N has rank at most n), the ratio is taken on N's range, with N^{-1/2}
its inverse square root there and 0 on its null space: a disturbance in
the null space costs the clairvoyant controller nothing, so the ratio is
finite only if the loop's response to it is 0 too.  Frequencies where that
response is not (relative to the loop's gain, at most 1e-8), or where N is
0, are reported as the string "degenerate-frequency" instead of a number.

Evaluation is stacked: transfer_at, open_loop_maps, clairvoyant_gram,
sigma_max and per_freq_cr take a scalar frequency, or a 1-D array of them
evaluated by one stacked call each (equal to the pointwise values; see
:mod:`compctrl.model`).  sweep and peak_gain walk their grid in blocks of
BLOCK = 64 points, which bounds the stacks held at once.

sweep takes the Gram's factor N^{-1/2}, which depends on the plant and the
grid alone, from :data:`gram_cache`, where it is kept per block, so a
process that sweeps one plant on one grid again solves no Gram;
per_freq_cr solves it at every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllers import CompetitiveController, PlantCache, StateFeedbackController, ZeroController
from .model import LtiPlant, shifted_solve
from .sim import _check_fits, atomic_write_text

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
#: largest response to the Gram's null space, relative to the loop's gain,
#: that still counts as none
_NULL_RESPONSE_REL = 1e-8
#: grid points per stacked evaluation in sweep and peak_gain
BLOCK = 64


@dataclass(frozen=True)
class ClosedLoop:
    """Discrete LTI realization of w -> (s; u)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def closed_loop(plant: LtiPlant, controller) -> ClosedLoop:
    """Fold a time-invariant causal controller into the plant.  A controller
    made for another n, m or p raises ValueError naming it."""
    if not isinstance(plant, LtiPlant):
        raise TypeError("closed_loop expects a time-invariant plant")
    if getattr(controller, "horizon", None) is not None:
        raise ValueError("closed_loop requires an infinite-horizon controller")
    _check_fits(plant, controller, None)
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
        # the state [x; nu] under the controller's realization
        Cx, Cn, Dz, Af, Bf, _ = (a[0] for a in controller.realization)
        Acl = np.block([[A + Bu @ Cx, Bu @ Cn], [np.zeros((n, n)), Af]])
        Bcl = np.vstack([Bw + Bu @ Dz, Bf])
        C = np.block([[Qh, np.zeros((n, n))], [Cx, Cn]])
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
    """(ok, N^{-1/2}, null) along a 1-D array of omega, for the clairvoyant
    Gram N; it depends on the plant only.

    ``ok`` flags the frequencies where N is not 0, and the rest is stacked
    over those alone.  Eigenvalues at most ``_SINGULAR_REL`` of the largest
    count as 0: N^{-1/2} is the inverse square root on N's range and 0 on
    its null space, and ``null`` holds N's null-space eigenvectors as
    columns, the range's columns being 0.  Where N is nonsingular, N^{-1/2}
    is (V / sqrt(lam)) V* of its ``eigh``.
    """
    lam, V = np.linalg.eigh(clairvoyant_gram(plant, omegas))
    ok = lam[:, -1] > 0.0
    lam, V = lam[ok], V[ok]
    singular = lam <= _SINGULAR_REL * lam[:, -1:]
    scale = np.sqrt(np.where(singular, np.inf, lam))  # a column over inf is 0
    return ok, (V / scale[:, None, :]) @ _herm(V), V * singular[:, None, :]


#: The process's cache of sweep grids' Gram factors, per plant and block: the
#: key (n_points, start) is the block of ``default_grid(n_points)`` from start.
gram_cache = PlantCache(
    lambda plant, key: _gram_inv_half(plant, default_grid(key[0])[key[1] : key[1] + BLOCK])
)


def _ratios(gram: tuple, T: np.ndarray) -> list:
    """The per-frequency ratios of the loop whose transfer is T at the
    frequencies flagged ``ok`` of ``gram`` (:func:`_gram_inv_half`), with
    the marker at the others and where the loop responds to N's null
    space."""
    ok, Ninv_half, null = gram
    W = Ninv_half @ (_herm(T) @ T) @ Ninv_half
    W = 0.5 * (W + _herm(W))
    ratios = np.linalg.eigvalsh(W)[:, -1].tolist()
    at = np.flatnonzero(null.any(axis=(1, 2)))  # where N is singular
    if at.size:
        response = np.linalg.norm(T[at] @ null[at], 2, axis=(1, 2))
        gain = np.linalg.norm(T[at], 2, axis=(1, 2))
        for i in at[~(response <= _NULL_RESPONSE_REL * gain)].tolist():  # NaN too
            ratios[i] = DEGENERATE_FREQUENCY
    ratios = iter(ratios)
    return [next(ratios) if good else DEGENERATE_FREQUENCY for good in ok.tolist()]


def per_freq_cr(plant: LtiPlant, loop: ClosedLoop, omega):
    """Largest eigenvalue of N^{-1/2} (T_K* T_K) N^{-1/2} at each frequency,
    on N's range where N is singular.

    A float, or the degenerate-frequency marker, for a scalar omega; a list
    of those for a 1-D array of omega.
    """
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    gram = _gram_inv_half(plant, omegas)
    out = _ratios(gram, transfer_at(loop, _on_circle(omegas[gram[0]])))
    return out if np.ndim(omega) else out[0]


@dataclass
class SweepResult:
    """Per-frequency peak gain and cost ratio for several controllers."""

    omegas: np.ndarray
    names: list
    sigma_max: dict
    per_freq_cr: dict  # name -> list of float or "degenerate-frequency"
    gram_cached: bool = False  # whether every block's Gram factor came from gram_cache


def sweep(plant: LtiPlant, named_controllers, n_points: int = 512) -> SweepResult:
    """Evaluate sigma_max and the per-frequency ratio on a uniform grid.

    The plant-only work (the clairvoyant Gram and its ``eigh``) is done once
    per block for all loops, and kept per block in :data:`gram_cache` for
    the next sweep of the plant on this grid.  Each loop's transfer is
    solved once per block and read by both figures, with the values of
    :func:`sigma_max` and :func:`per_freq_cr`.
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
    blocks, hits = _blocks(omegas.size), gram_cache.hits
    for b in blocks:
        gram = gram_cache.get(plant, (omegas.size, b.start))
        z = _on_circle(omegas[b])
        for name, loop in loops.items():
            T = transfer_at(loop, z)
            sig[name][b] = np.linalg.svd(T, compute_uv=False)[..., 0]
            cr[name] += _ratios(gram, T[gram[0]])
    every_hit = bool(blocks) and gram_cache.hits - hits == len(blocks)
    return SweepResult(omegas, names, sig, cr, gram_cached=every_hit)


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
