"""Plant data model, control-weight normalization, and dense stacked operators.

The toolkit works with discrete-time linear systems

    x_{t+1} = A_t x_t + B_{u,t} u_t + B_{w,t} w_t

under the quadratic cost ``sum_t x_t' Q_t x_t + u_t' u_t``.  A general control
weight R is absorbed into B_u at construction time (the synthesized controls
live in the rescaled coordinates u' = R^{1/2} u), so every downstream routine
can assume the control weight is the identity.  The recorded R^{1/2} allows
mapping controls back to original units.

Finite-horizon problems are also exposed in stacked ("lifted") form: with
s_t = Q_t^{1/2} x_t, the dynamics induce strictly causal block-lower-triangular
operators F and G with  s = F u + G w,  which serve as the ground truth for
offline-optimal costs and factorization identities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

__all__ = [
    "LtiPlant",
    "LtvPlant",
    "DenseOperators",
    "sqrt_psd",
    "inv_sqrt_pd",
    "shifted_solve",
    "rowwise",
    "step_costs",
    "normalize_control_weight",
    "normalize_control_weight_ltv",
    "build_dense_operators",
    "plant_from_json_dict",
    "plant_to_json_dict",
    "load_bundled_plant",
]

PLANT_SCHEMA_VERSION = 1


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues are clamped at max(lam, 0) so that tiny negative values of
    numerical origin (-1e-14 and the like) do not poison the square root.
    M may be a stack (..., n, n); each matrix gets the arithmetic of a lone
    one, so the stack's roots equal the one-by-one roots bit for bit.
    """
    M = np.asarray(M, dtype=float)
    lam, V = np.linalg.eigh(0.5 * (M + M.swapaxes(-1, -2)))
    lam = np.maximum(lam, 0.0)
    return (V * np.sqrt(lam)[..., None, :]) @ V.swapaxes(-1, -2)


def inv_sqrt_pd(M: np.ndarray, min_eig: float = 1e-12) -> np.ndarray:
    """Inverse symmetric square root of a PD matrix; rejects near-singular M.

    Stack-aware like :func:`sqrt_psd`; one matrix below ``min_eig`` rejects
    the stack, and an empty stack passes.
    """
    M = np.asarray(M, dtype=float)
    lam, V = np.linalg.eigh(0.5 * (M + M.swapaxes(-1, -2)))
    if lam.size and lam.min() <= min_eig:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {lam.min():.3e})"
        )
    return (V / np.sqrt(lam)[..., None, :]) @ V.swapaxes(-1, -2)


def shifted_solve(A: np.ndarray, B: np.ndarray, z) -> np.ndarray:
    """(zI - A)^{-1} B at a scalar z, or stacked along a 1-D array of z.

    The (zI - A) stack is filled in place, -A plus z on the diagonal, and
    solved by one stacked LAPACK call.  That call runs the routine a single
    matrix gets on each matrix of the stack, so a point of the stack equals
    the scalar evaluation at that point bit for bit.
    """
    z = np.asarray(z)
    n = A.shape[0]
    S = np.empty(z.shape + (n, n), dtype=np.result_type(z, A))
    np.negative(A, out=S)
    diag = np.arange(n)
    S[..., diag, diag] += z[..., None]
    return np.linalg.solve(S, B)


def rowwise(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M_t v_t for every row v_t of v (S, k), as an (S, r) array.

    ``M`` is one (r, k) matrix or a stack whose row t is M_t.  It is one
    stacked matmul, and numpy runs on each lane the matrix-vector kernel of
    the lone product ``M_t @ v_t``, so row t equals it bit for bit (``v @ M.T``
    would run a matrix-matrix kernel, which need not).
    """
    return (M @ v[:, :, None])[..., 0]


def step_costs(x: np.ndarray, u: np.ndarray, Q: np.ndarray) -> tuple:
    """(step costs, their running sum, total) of the states x (S, n) and
    controls u (S, m) under the weights ``Q``, one (n, n) matrix or a stack
    whose first S entries weight the steps.

    Step t costs x_t'Q_t x_t + u_t'u_t, the bits of
    ``float(x_t @ Q_t @ x_t + u_t @ u_t)``: the stacked matmuls run the
    kernels of the lone products on each lane.  The running sum is
    ``np.cumsum``, which adds in sequence like ``running += cost``; the total
    is its last entry as a float, 0.0 when S = 0.
    """
    if Q.ndim == 3:
        Q = Q[: x.shape[0]]
    quad = (x[:, None, :] @ Q) @ x[:, :, None] + u[:, None, :] @ u[:, :, None]
    cost = quad[:, 0, 0]
    cum = np.cumsum(cost)
    return cost, cum, float(cum[-1]) if cum.size else 0.0


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _check_psd_weight(Q: np.ndarray, name: str = "Q") -> np.ndarray:
    """Validate a symmetric PSD cost weight and clamp it onto the PSD cone."""
    scale = max(1.0, np.abs(Q).max())
    if np.abs(Q - Q.T).max() > 1e-8 * scale:
        raise ValueError(f"{name} must be symmetric")
    Qs = 0.5 * (Q + Q.T)
    lam, V = np.linalg.eigh(Qs)
    if lam.min() < -1e-10:
        raise ValueError(
            f"{name} must be PSD (min eigenvalue {lam.min():.3e} < -1e-10)"
        )
    if lam.min() >= 0.0:
        return Qs
    return (V * np.maximum(lam, 0.0)) @ V.T


@dataclass(frozen=True)
class LtiPlant:
    """Time-invariant plant with the control weight already normalized to I.

    Time-invariance is this type: an LtiPlant runs over the horizon its
    disturbance record sets, with one step's matrices.  ``R_half`` records
    the symmetric square root of the original control weight; controls
    produced by any synthesized controller can be mapped back to original
    units via u = R^{-1/2} u'.
    """

    A: np.ndarray
    Bu: np.ndarray
    Bw: np.ndarray
    Q: np.ndarray
    R_half: np.ndarray
    x0: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.Bu.shape[1]

    @property
    def p(self) -> int:
        return self.Bw.shape[1]

    @cached_property
    def Q_half(self) -> np.ndarray:
        return sqrt_psd(self.Q)

    def controls_to_original_units(self, u: np.ndarray) -> np.ndarray:
        """Map normalized controls back through the recorded R^{1/2}."""
        return np.linalg.solve(self.R_half, np.atleast_1d(u).T).T

    def to_ltv(self, T: int) -> "LtvPlant":
        """Replicate the plant into a horizon-T time-varying plant."""
        if T < 1:
            raise ValueError("horizon must be >= 1")
        rep = lambda M: np.repeat(M[None, :, :], T, axis=0)
        return LtvPlant(
            A=rep(self.A),
            Bu=rep(self.Bu),
            Bw=rep(self.Bw),
            Q=rep(self.Q),
            R_half=rep(self.R_half),
            x0=self.x0.copy(),
        )

    def advance(self, w: np.ndarray):
        """The plant's step on the record w: ``advance(t, x, u)`` is
        A x + B_u u + B_w w_t, one step's matrices at every t (the type is the
        time-invariance), B_w w_t taken for every row at once."""
        A, Bu, bw = self.A, self.Bu, rowwise(self.Bw, w)

        def advance(t, x, u):
            return A @ x + Bu @ u + bw[t]

        return advance


@dataclass(frozen=True)
class LtvPlant:
    """Finite-horizon time-varying plant; sequences indexed t = 0..T-1."""

    A: np.ndarray  # (T, n, n)
    Bu: np.ndarray  # (T, n, m)
    Bw: np.ndarray  # (T, n, p)
    Q: np.ndarray  # (T, n, n)
    R_half: np.ndarray  # (T, m, m)
    x0: np.ndarray  # (n,)

    @property
    def T(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.Bu.shape[2]

    @property
    def p(self) -> int:
        return self.Bw.shape[2]

    @cached_property
    def Q_half(self) -> np.ndarray:
        return sqrt_psd(self.Q)

    def advance(self, w: np.ndarray):
        """The plant's step on the record w (T, p): ``advance(t, x, u)`` is
        A_t x + B_{u,t} u + B_{w,t} w_t, step t's matrices even when all steps
        are equal, B_{w,t} w_t taken for every row at once."""
        A, Bu, bw = self.A, self.Bu, rowwise(self.Bw, w)

        def advance(t, x, u):
            return A[t] @ x + Bu[t] @ u + bw[t]

        return advance


def _disturbance_record(plant, w) -> np.ndarray:
    """w as a (T, p) record for ``plant`` ((T,) reads as (T, 1)): any T for
    an LtiPlant, its own horizon for an LtvPlant.  A non-plant raises
    TypeError, a record that does not fit ValueError."""
    if not isinstance(plant, (LtiPlant, LtvPlant)):
        raise TypeError("plant must be LtiPlant or LtvPlant")
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if isinstance(plant, LtvPlant) and len(w) != plant.T:
        raise ValueError("disturbance length does not match the plant horizon")
    if w.ndim != 2 or w.shape[1] != plant.p:
        raise ValueError(f"disturbance must have shape (T, p) = {(len(w), plant.p)}")
    return w


@dataclass(frozen=True)
class DenseOperators:
    """Stacked strictly causal maps: s = F u + G w with s_t = Q_t^{1/2} x_t."""

    F: np.ndarray  # (n*T, m*T)
    G: np.ndarray  # (n*T, p*T)
    T: int
    n: int
    m: int
    p: int


def normalize_control_weight(A, Bu, Bw, Q, R=None, x0=None) -> LtiPlant:
    """Build a time-invariant plant, absorbing the control weight R into B_u.

    R must be symmetric positive definite (min eigenvalue > 1e-12); Q must be
    symmetric PSD up to a -1e-10 eigenvalue tolerance (clamped).  With R = I
    (or omitted) the plant is stored unchanged.
    """
    A = _as_matrix(A, "A")
    Bu = _as_matrix(Bu, "Bu")
    Bw = _as_matrix(Bw, "Bw")
    Q = _as_matrix(Q, "Q")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if Bu.shape[0] != n or Bw.shape[0] != n or Q.shape != (n, n):
        raise ValueError("inconsistent plant dimensions")
    m = Bu.shape[1]
    Q = _check_psd_weight(Q)
    if R is None:
        R_half = np.eye(m)
    else:
        R = _as_matrix(R, "R")
        if R.shape != (m, m):
            raise ValueError("R must be m x m")
        scale = max(1.0, np.abs(R).max())
        if np.abs(R - R.T).max() > 1e-8 * scale:
            raise ValueError("R must be symmetric")
        lam = np.linalg.eigvalsh(0.5 * (R + R.T))
        if lam.min() <= 1e-12:
            raise ValueError(
                f"R must be positive definite (min eigenvalue {lam.min():.3e})"
            )
        R_half = sqrt_psd(R)
        Bu = Bu @ inv_sqrt_pd(R)
    if x0 is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ValueError("x0 must be an n-vector")
    return LtiPlant(A=A, Bu=Bu, Bw=Bw, Q=Q, R_half=R_half, x0=x0)


def normalize_control_weight_ltv(As, Bus, Bws, Qs, Rs=None, x0=None) -> LtvPlant:
    """Per-step analogue of :func:`normalize_control_weight`."""
    As = np.asarray(As, dtype=float)
    Bus = np.asarray(Bus, dtype=float)
    Bws = np.asarray(Bws, dtype=float)
    Qs = np.asarray(Qs, dtype=float)
    if As.ndim != 3:
        raise ValueError("LTV plant expects stacked (T, n, n) matrices")
    T, n = As.shape[0], As.shape[1]
    if not (len(Bus) == len(Bws) == len(Qs) == T):
        raise ValueError("all LTV sequences must have length T")
    m = Bus.shape[2]
    steps = []
    for t in range(T):
        Rt = None if Rs is None else Rs[t]
        steps.append(normalize_control_weight(As[t], Bus[t], Bws[t], Qs[t], Rt))
    if x0 is None:
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ValueError("x0 must be an n-vector")
    return LtvPlant(
        A=np.stack([s.A for s in steps]),
        Bu=np.stack([s.Bu for s in steps]),
        Bw=np.stack([s.Bw for s in steps]),
        Q=np.stack([s.Q for s in steps]),
        R_half=np.stack([s.R_half for s in steps]),
        x0=x0,
    )


def build_dense_operators(plant: LtvPlant) -> DenseOperators:
    """Assemble the stacked strictly causal operators F and G.

    Block (i, j) of F is Q_i^{1/2} A_{i-1} ... A_{j+1} B_{u,j} for j < i and
    zero otherwise (same for G with B_w).  Requires x0 = 0: the lifted
    description has no affine term.
    """
    if not isinstance(plant, LtvPlant):
        raise TypeError("build_dense_operators expects a finite-horizon plant")
    if np.any(plant.x0 != 0.0):
        raise ValueError("dense operators require x0 = 0")
    T, n, m, p = plant.T, plant.n, plant.m, plant.p
    F = np.zeros((n * T, m * T))
    G = np.zeros((n * T, p * T))
    Qh = plant.Q_half
    Su = np.zeros((n, 0))  # columns: A_{i-1}...A_{j+1} B_{u,j}, j = 0..i-1
    Sw = np.zeros((n, 0))
    for i in range(T):
        if i > 0:
            F[i * n : (i + 1) * n, : i * m] = Qh[i] @ Su
            G[i * n : (i + 1) * n, : i * p] = Qh[i] @ Sw
        Su = np.hstack([plant.A[i] @ Su, plant.Bu[i]])
        Sw = np.hstack([plant.A[i] @ Sw, plant.Bw[i]])
    return DenseOperators(F=F, G=G, T=T, n=n, m=m, p=p)


def plant_from_json_dict(obj: dict):
    """Parse the plant JSON schema into an LtiPlant (or LtvPlant if "horizon").

    Schema: {"schema_version": 1, "A": [[..]], "Bu": [[..]], "Bw": [[..]],
    "Q": [[..]], "R": [[..]] (optional, default identity), "x0": [..]
    (optional, default zero), "horizon": int (optional; presence selects
    replication into a time-varying plant)}.
    """
    version = obj.get("schema_version", PLANT_SCHEMA_VERSION)
    if version != PLANT_SCHEMA_VERSION:
        raise ValueError(f"unsupported plant schema_version {version}")
    for key in ("A", "Bu", "Bw", "Q"):
        if key not in obj:
            raise ValueError(f"plant JSON missing required field '{key}'")
    plant = normalize_control_weight(
        obj["A"], obj["Bu"], obj["Bw"], obj["Q"], obj.get("R"), obj.get("x0")
    )
    if "horizon" in obj and obj["horizon"] is not None:
        return plant.to_ltv(int(obj["horizon"]))
    return plant


def plant_to_json_dict(plant: LtiPlant) -> dict:
    """Serialize an LtiPlant back to the JSON schema (R already absorbed)."""
    return {
        "schema_version": PLANT_SCHEMA_VERSION,
        "A": plant.A.tolist(),
        "Bu": plant.Bu.tolist(),
        "Bw": plant.Bw.tolist(),
        "Q": plant.Q.tolist(),
        "x0": plant.x0.tolist(),
    }


def load_bundled_plant(name: str = "boeing747") -> LtiPlant:
    """Load one of the plants bundled with the package (data/<name>.json)."""
    path = resources.files("compctrl").joinpath("data", f"{name}.json")
    with path.open("r", encoding="utf-8") as fh:
        return plant_from_json_dict(json.load(fh))
