"""The shared marching kernel against the per-branch reference loops."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import march_reference as ref
from reduktor.dstoch import dstoch_residual
from reduktor.presets import random_model
from reduktor.scalar import (
    ConstantInput,
    CosineInput,
    LiftedPath,
    PiecewiseInput,
    lift_scalar,
    scalar_march,
)
from reduktor.volterra import (
    Kernel,
    SolverConfig,
    TimeGrid,
    _march,
    march_solve,
    march_solve_general,
    poisson_kernel,
)

TOL = 1e-12
NU = 1.0
GRID = TimeGrid(3.0, 300)


class Switched:
    """M(t) of one bath model on [0, tau), another on [tau, 2 tau), and so on.

    The two models do not commute, so every jump node exercises the full
    two-limit pairing, including pairs of jump nodes.
    """

    def __init__(self, n, tau):
        self.models = (random_model(n, 2, seed=5), random_model(n, 2, seed=6))
        self.tau = tau

    def _segment(self, ts):
        return np.floor(np.asarray(ts) / self.tau + 1e-9).astype(int) % 2

    def many(self, ts):
        ts = np.asarray(ts, dtype=float)
        a, b = (m.m_many(ts) for m in self.models)
        return np.where((self._segment(ts) == 0)[:, None, None], a, b)

    def left(self, t):
        return self.models[int(self._segment(t - self.tau / 2))].m_many(np.array([t]))[0]

    def right(self, t):
        return self.many(np.array([t]))[0]

    def jump_times(self, t0, t1):
        ks = np.arange(1, int(t1 / self.tau + 1e-9) + 1)
        return ks * self.tau


def limits(path, grid, jump_nodes):
    ML = path.many(grid.nodes).copy()
    MR = ML.copy()
    for j in jump_nodes:
        ML[j] = path.left(grid.nodes[j])
        MR[j] = path.right(grid.nodes[j])
    return ML, MR


@pytest.mark.parametrize("n", [2, 3, 8])
def test_smooth_march(n):
    model = random_model(n, 2, seed=5)
    traj = march_solve(model.m_path(), SolverConfig(NU, GRID))
    want = ref.march_smooth(model.m_many(GRID.nodes), NU, GRID.h)
    assert np.abs(traj.values - want).max() < TOL


@pytest.mark.parametrize("n", [2, 3, 8])
def test_two_limit_march(n):
    path = Switched(n, tau=0.25)
    traj = march_solve(path, SolverConfig(NU, GRID))
    assert traj.jump_nodes == tuple(range(25, 301, 25))
    want, want_left = ref.march_two_limit(*limits(path, GRID, traj.jump_nodes), NU, GRID.h)
    assert np.abs(traj.values - want).max() < TOL
    for j in traj.jump_nodes:
        assert np.abs(traj.left_values[j] - want_left[j]).max() < TOL


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("kernel", [
    poisson_kernel(NU),
    Kernel(a=lambda T: 1.0 / (1.0 + np.asarray(T, dtype=float)),
           b=lambda t, T: np.ones_like(np.asarray(t, dtype=float)) / (1.0 + T)),
], ids=["poisson", "rational"])
def test_general_kernel(n, kernel):
    model = random_model(n, 2, seed=5)
    traj = march_solve_general(model.m_path(), kernel, GRID)
    want = ref.march_general(model.m_many(GRID.nodes), kernel, GRID.nodes)
    assert np.abs(traj.values - want).max() < TOL


SCALAR_INPUTS = pytest.mark.parametrize(
    "alpha", [ConstantInput(0.6), CosineInput(),
              PiecewiseInput(0.5), PiecewiseInput(0.25, (1.0, 0.0, 0.5))],
    ids=["constant", "cosine", "alternating", "three-level"])


@SCALAR_INPUTS
def test_scalar_march(alpha):
    traj = scalar_march(alpha, NU, GRID)
    ts = GRID.nodes
    lo = np.asarray(alpha.many(ts), dtype=float)
    hi = lo.copy()
    for t, _, _ in traj.jumps:
        j = GRID.index_of(t)
        lo[j], hi[j] = alpha.left(t), alpha.right(t)
    want, want_left = ref.march_scalar(lo, hi, NU, GRID.h)
    assert np.abs(traj.beta - want).max() < TOL
    for t, left, _ in traj.jumps:
        assert abs(left - want_left[GRID.index_of(t)]) < TOL


def test_unit_mode_is_unit_growth():
    K = GRID.steps
    ones = np.ones((K + 1, 1, 1))
    _, _, sigma = _march(ones, ones, [], np.ones(K + 1), GRID.h, NU)
    want = ref.unit_growth(NU, GRID.h, K)
    assert np.abs(sigma[:, 0, 0] / want - 1.0).max() < TOL


@settings(max_examples=40, deadline=None)
@given(n2=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 200),
       h=st.floats(0.005, 0.1), hnu=st.floats(0.0, 0.5))
def test_two_level_route(n2, seed, K, h, hnu):
    # a 2 x 2 source is marched as its scalar mode and lifted back
    grid = TimeGrid(K * h, K)
    nu = hnu / grid.h
    model = random_model(2, n2, seed)
    traj = march_solve(model.m_path(), SolverConfig(nu, grid))
    want = ref.march_smooth(model.m_many(grid.nodes), nu, grid.h)
    assert np.abs(traj.values - want).max() < TOL
    assert dstoch_residual(traj.values).max() < TOL


@SCALAR_INPUTS
def test_two_level_route_is_the_lifted_scalar_march(alpha):
    traj = march_solve(LiftedPath(alpha, 2), SolverConfig(NU, GRID))
    want = lift_scalar(scalar_march(alpha, NU, GRID), 2)
    assert traj.jump_nodes == want.jump_nodes
    assert np.abs(traj.values - want.values).max() < 1e-14
    for j in traj.jump_nodes:
        assert np.abs(traj.left_values[j] - want.left_values[j]).max() < 1e-14


LONG_MARCH = """
import hashlib, numpy as np
from reduktor.volterra import _march
K = 12000
S = np.cos(np.linspace(0.0, 60.0, K + 1)).reshape(-1, 1, 1)
out, _, sigma = _march(S, S, [], np.ones(K + 1), 60.0 / K, 1.0)
print(hashlib.sha256(out.tobytes() + sigma.tobytes()).hexdigest())
"""


def test_long_scalar_mode_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10^4 terms over its threads
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", LONG_MARCH], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout)
    assert digests[0] == digests[1]
