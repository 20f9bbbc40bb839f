"""The shared marching kernel against the per-branch reference loops."""

import numpy as np
import pytest

import march_reference as ref
from reduktor.presets import random_model
from reduktor.scalar import ConstantInput, CosineInput, PiecewiseInput, scalar_march
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


@pytest.mark.parametrize("alpha", [ConstantInput(0.6), CosineInput(),
                                   PiecewiseInput(0.5), PiecewiseInput(0.25, (1.0, 0.0, 0.5))],
                         ids=["constant", "cosine", "alternating", "three-level"])
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
