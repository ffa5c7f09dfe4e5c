import os

import numpy as np
import pytest

import compctrl
from compctrl.model import LtiPlant, LtvPlant, load_bundled_plant

#: the directory holding the imported compctrl package, as an absolute path
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(compctrl.__file__)))


def cli_env():
    """Environment for ``python -m compctrl`` child processes.

    COMPCTRL_SEED is dropped, and the absolute directory of the imported
    package goes in front of PYTHONPATH, so a child started in any working
    directory imports the same compctrl as the tests.
    """
    env = dict(os.environ)
    env.pop("COMPCTRL_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def random_lti(rng, n=3, m=1, p=1, radius=0.9, q_floor=0.05):
    """Random stable LTI plant with positive definite Q (so PBH is trivial)."""
    A = rng.standard_normal((n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho > 0:
        A = A * (radius / rho)
    Bu = rng.standard_normal((n, m))
    Bw = rng.standard_normal((n, p))
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n + q_floor * np.eye(n)
    return LtiPlant(
        A=A, Bu=Bu, Bw=Bw, Q=Q, R_half=np.eye(m), x0=np.zeros(n)
    )


def random_unstable_stabilizable(rng, n=3, m=None, p=1, radius=1.3):
    """Unstable plant with Bu square (controllable a.s. => stabilizable)."""
    if m is None:
        m = n
    A = rng.standard_normal((n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho > 0:
        A = A * (radius / rho)
    Bu = rng.standard_normal((n, m)) + 0.5 * np.eye(n, m)
    Bw = rng.standard_normal((n, p))
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n + 0.1 * np.eye(n)
    return LtiPlant(A=A, Bu=Bu, Bw=Bw, Q=Q, R_half=np.eye(m), x0=np.zeros(n))


def random_ltv(rng, T=8, n=2, m=1, p=1, scale=0.8):
    """Random finite-horizon time-varying plant with x0 = 0."""
    A = rng.standard_normal((T, n, n)) * (scale / np.sqrt(n))
    Bu = rng.standard_normal((T, n, m))
    Bw = rng.standard_normal((T, n, p))
    M = rng.standard_normal((T, n, n))
    Q = np.einsum("tij,tkj->tik", M, M) / n
    R_half = np.repeat(np.eye(m)[None], T, axis=0)
    return LtvPlant(A=A, Bu=Bu, Bw=Bw, Q=Q, R_half=R_half, x0=np.zeros(n))


def scalar_lti(a=1.0, bu=1.0, bw=1.0, q=1.0):
    return LtiPlant(
        A=np.array([[a]]),
        Bu=np.array([[bu]]),
        Bw=np.array([[bw]]),
        Q=np.array([[q]]),
        R_half=np.eye(1),
        x0=np.zeros(1),
    )


def assert_same_rollout(res, ref):
    """Every field of a rollout result equals the oracle's, bit for bit
    (so -0.0 differs from +0.0), and the total is a Python float."""
    for name in ("w", "wprime", "x", "u", "step_cost", "cum_cost"):
        got, want = getattr(res, name), ref[name]
        assert got.shape == want.shape, name
        bits = [np.ascontiguousarray(a, dtype=np.float64).view(np.uint64) for a in (got, want)]
        assert np.array_equal(*bits), name
    assert type(res.total_cost) is float
    assert res.total_cost == ref["total_cost"]
    assert (res.status, res.steps_completed) == (ref["status"], ref["steps_completed"])


@pytest.fixture(scope="session")
def boeing():
    return load_bundled_plant("boeing747")


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
