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

Stacks.  Across the package, a routine given a stack (..., k, k) of the
matrices a lone call takes makes one numpy call for the whole stack.  numpy
runs on each matrix of a stack the LAPACK routine, or the matrix-vector
kernel, that a lone matrix gets, so each entry of a stacked result equals
the lone call's, bit for bit.  (A block product ``v @ M.T`` runs a
matrix-matrix kernel instead, which need not: :func:`rowwise` is the
stacked form.)  A lone per-step product is ``np.ndarray.dot``, the gemv
that ``M @ v`` and a row of a stacked matmul run (ddot for x'x), the same
bits at about half the call cost; on a 1-state plant ``dot`` takes the 1x1
factor for a scalar, whose product with +0.0 can be -0.0 where gemv's is
not, so there it is ``np.matmul`` (:func:`_lone_dot`, chosen once per
bind).  Stacks keep ``@``: ``ndarray.dot`` of N-D arrays is another product.
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

#: a plant's arrays of one step, stacked over the steps of an LtvPlant
_STEP_ARRAYS = ("A", "Bu", "Bw", "Q", "R_half")


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues are clamped at max(lam, 0) so that tiny negative values of
    numerical origin (-1e-14 and the like) do not poison the square root.
    M may be a stack (..., n, n).
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
    solved by one stacked LAPACK call.
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

    ``M`` is one (r, k) matrix or a stack whose row t is M_t; row t equals
    the lone product ``M_t @ v_t`` (see the module docstring).
    """
    return (M @ v[:, :, None])[..., 0]


def _lone_dot(n: int):
    """The lone per-step product of an n-state plant (module docstring, "Stacks")."""
    return np.matmul if n == 1 else np.ndarray.dot


def step_costs(x: np.ndarray, u: np.ndarray, Q: np.ndarray) -> tuple:
    """(step costs, their running sum, total) of the states x (S, n) and
    controls u (S, m) under the weights ``Q``, one (n, n) matrix or a stack
    whose first S entries weight the steps.

    Step t costs x_t'Q_t x_t + u_t'u_t, the bits of
    ``float(x_t @ Q_t @ x_t + u_t @ u_t)``.  The running sum is
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


class _Plant:
    """What both plant types share: n, m and p, the last axes of A, B_u and
    B_w, and the cached Q^{1/2} (of each step, on a stack)."""

    @property
    def n(self) -> int:
        return self.A.shape[-1]

    @property
    def m(self) -> int:
        return self.Bu.shape[-1]

    @property
    def p(self) -> int:
        return self.Bw.shape[-1]

    @cached_property
    def Q_half(self) -> np.ndarray:
        return sqrt_psd(self.Q)


@dataclass(frozen=True)
class LtiPlant(_Plant):
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

    def controls_to_original_units(self, u: np.ndarray) -> np.ndarray:
        """Map normalized controls back through the recorded R^{1/2}."""
        return np.linalg.solve(self.R_half, np.atleast_1d(u).T).T

    def to_ltv(self, T: int) -> "LtvPlant":
        """Replicate the plant into a horizon-T time-varying plant."""
        if T < 1:
            raise ValueError("horizon must be >= 1")
        return LtvPlant(**{k: np.repeat(getattr(self, k)[None], T, axis=0)
                           for k in _STEP_ARRAYS}, x0=self.x0.copy())

    def advance(self, w: np.ndarray):
        """The plant's step on the record w: ``advance(t, x, u)`` is
        A x + B_u u + B_w w_t, one step's matrices at every t (the type is the
        time-invariance), B_w w_t taken for every row at once and the other
        two products by :func:`_lone_dot`."""
        A, Bu, bw, dot = self.A, self.Bu, rowwise(self.Bw, w), _lone_dot(self.n)

        def advance(t, x, u):
            return dot(A, x) + dot(Bu, u) + bw[t]

        return advance


@dataclass(frozen=True)
class LtvPlant(_Plant):
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

    def advance(self, w: np.ndarray):
        """The plant's step on the record w (T, p): ``advance(t, x, u)`` is
        A_t x + B_{u,t} u + B_{w,t} w_t, step t's matrices even when all steps
        are equal, B_{w,t} w_t taken for every row at once."""
        A, Bu, bw, dot = self.A, self.Bu, rowwise(self.Bw, w), _lone_dot(self.n)

        def advance(t, x, u):
            return dot(A[t], x) + dot(Bu[t], u) + bw[t]

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
    T = As.shape[0]
    if not (len(Bus) == len(Bws) == len(Qs) == T):
        raise ValueError("all LTV sequences must have length T")
    steps = []
    for t in range(T):
        Rt = None if Rs is None else Rs[t]
        steps.append(normalize_control_weight(As[t], Bus[t], Bws[t], Qs[t], Rt, x0))
    return LtvPlant(**{k: np.stack([getattr(s, k) for s in steps]) for k in _STEP_ARRAYS},
                    x0=steps[0].x0)


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


def _json_object(obj, what: str, version=None) -> dict:
    """``obj`` if it is a JSON object and, when ``version`` is given, of that
    schema version (a missing "schema_version" reads as ``version``); a
    ValueError naming ``what`` otherwise."""
    if not isinstance(obj, dict):
        got = "null" if obj is None else type(obj).__name__
        raise ValueError(f"{what} must be a JSON object, got {got}")
    if version is not None and obj.get("schema_version", version) != version:
        raise ValueError(f"unsupported {what} schema_version {obj['schema_version']}")
    return obj


_REQUIRED = object()


def _json_field(obj: dict, key: str, what: str, nullable: bool = False,
                default=_REQUIRED, convert=None):
    """``obj[key]`` read through ``convert`` (not a null), or ``default`` if
    it is missing; a ValueError naming ``what`` and ``key`` when the field
    is missing with no default, null and not ``nullable``, or refused by
    ``convert``."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{what} JSON missing required field '{key}'")
        return default
    value = obj[key]
    if value is None and not nullable:
        raise ValueError(f"{what} JSON field '{key}' is null")
    try:
        return value if value is None or convert is None else convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} JSON field '{key}' cannot be read: {exc}") from exc


def plant_from_json_dict(obj: dict):
    """Parse the plant JSON schema into an LtiPlant (or LtvPlant if "horizon").

    Schema: {"schema_version": 1, "A": [[..]], "Bu": [[..]], "Bw": [[..]],
    "Q": [[..]], "R": [[..]] (optional, default identity), "x0": [..]
    (optional, default zero), "horizon": int (optional; presence selects
    replication into a time-varying plant)}.
    """
    _json_object(obj, "plant", PLANT_SCHEMA_VERSION)
    A, Bu, Bw, Q = (_json_field(obj, key, "plant") for key in ("A", "Bu", "Bw", "Q"))
    plant = normalize_control_weight(A, Bu, Bw, Q, obj.get("R"), obj.get("x0"))
    horizon = _json_field(obj, "horizon", "plant", nullable=True, default=None, convert=int)
    return plant if horizon is None else plant.to_ltv(horizon)


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
