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
from reduktor.dstoch import dstoch_residual, lift
from reduktor.presets import random_model, spin_flip_model
from reduktor.scalar import (
    ConstantInput,
    CosineInput,
    LiftedPath,
    PiecewiseInput,
    lift_scalar,
    scalar_march,
)
from reduktor.volterra import (
    MARCH_BLOCK,
    ConstantPath,
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


def digests_at_blas_threads(script):
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout)
    return digests


def test_long_scalar_mode_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10^4 terms over its threads
    digests = digests_at_blas_threads(LONG_MARCH)
    assert digests[0] == digests[1]


def test_long_stepped_scalar_mode_does_not_depend_on_blas_threads():
    # a varying weight keeps a 1 x 1 source on the node-by-node loop, whose
    # history sums (and sigma's, as for n >= 3) run past DOT_CHUNK terms
    script = LONG_MARCH.replace("60.0 / K, 1.0)", "60.0 / K, lambda k: np.ones(k + 1))")
    assert script != LONG_MARCH
    digests = digests_at_blas_threads(script)
    assert digests[0] == digests[1]


# -- the blocked 1 x 1 solver ------------------------------------------------

B = MARCH_BLOCK


def scalar_source(K, jump_nodes, seed=0):
    """Left and right limits of a smooth scalar source with a random step at
    each of (at most six) jump nodes; the values stay in [0, 1]."""
    rng = np.random.default_rng(seed)
    steps = np.zeros(K + 1)
    steps[list(jump_nodes)] = rng.uniform(-0.05, 0.05, len(jump_nodes))
    hi = 0.5 + 0.2 * np.cos(3.0 * np.linspace(0.0, 1.0, K + 1) + rng.uniform(0.0, 6.0))
    hi += np.cumsum(steps)
    return hi - steps, hi


def march_1x1(lo, hi, jump_nodes, nu, h):
    """The kernel on a 1 x 1 stack: normalized node values and left limits."""
    out, left, _ = _march(lo.reshape(-1, 1, 1), hi.reshape(-1, 1, 1), list(jump_nodes),
                          np.ones(len(lo)), h, nu)
    return out[:, 0, 0], {j: v[0, 0] for j, v in left.items()}


def assert_matches_scalar_reference(lo, hi, jump_nodes, nu, h):
    got, got_left = march_1x1(lo, hi, jump_nodes, nu, h)
    want, want_left = ref.march_scalar(lo, hi, nu, h)
    assert np.abs(got - want).max() < TOL
    assert sorted(got_left) == sorted(jump_nodes)
    for j in jump_nodes:
        assert abs(got_left[j] - want_left[j]) < TOL


@pytest.mark.parametrize("K", [1, 2, B - 1, B, B + 1, 3 * B + 5])
def test_blocked_solve_at_any_grid_size(K):
    # one partial block (K < B), exact blocks, and a partial last block
    lo, hi = scalar_source(K, [])
    assert_matches_scalar_reference(lo, hi, [], NU, 0.01)


@pytest.mark.parametrize("jump_nodes", [
    [B], [B + 1], [B - 1, B + 2], [1, 2 * B, 2 * B + 1], [B, 2 * B, 3 * B + 1]],
    ids=["last-of-block", "first-of-block", "next-to-boundary", "first-node-and-both-sides",
         "paired"])
def test_blocked_solve_with_jumps_at_block_boundaries(jump_nodes):
    # blocks hold nodes 1..B, B+1..2B, ...; "paired" has jump nodes t, s with
    # t + s also a jump node
    K = 3 * B + 10
    lo, hi = scalar_source(K, jump_nodes, seed=len(jump_nodes))
    assert_matches_scalar_reference(lo, hi, jump_nodes, 1.5, 0.02)


@pytest.mark.parametrize("tau_nodes", [B, B + 1])
def test_two_level_jumps_at_block_boundaries(tau_nodes):
    # non-commuting bath models switched at nodes tau_nodes, 2 tau_nodes, ...
    grid = TimeGrid(3 * B * 0.01, 3 * B)
    path = Switched(2, tau=tau_nodes * grid.h)
    traj = march_solve(path, SolverConfig(NU, grid))
    assert traj.jump_nodes[:2] == (tau_nodes, 2 * tau_nodes)
    want, want_left = ref.march_two_limit(*limits(path, grid, traj.jump_nodes), NU, grid.h)
    assert np.abs(traj.values - want).max() < TOL
    for j in traj.jump_nodes:
        assert np.abs(traj.left_values[j] - want_left[j]).max() < TOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 3 * B), h=st.floats(0.005, 0.1),
       hnu=st.floats(0.0, 0.5), data=st.data())
def test_blocked_solve_property(seed, K, h, hnu, data):
    # random scalar sources with random jump nodes, marched as scalars and
    # as their 2 x 2 lifts
    jump_nodes = sorted(data.draw(st.sets(st.integers(1, K), max_size=6)))
    lo, hi = scalar_source(K, jump_nodes, seed)
    nu = hnu / h
    assert_matches_scalar_reference(lo, hi, jump_nodes, nu, h)
    ML, MR = lift(lo, 2), lift(hi, 2)
    out, left, _ = _march(ML, MR, jump_nodes, np.ones(K + 1), h, nu)
    want, want_left = ref.march_two_limit(ML, MR, nu, h)
    assert np.abs(out - want).max() < TOL
    for j in jump_nodes:
        assert np.abs(left[j] - want_left[j]).max() < TOL
    assert dstoch_residual(out).max() < TOL


LONG = SolverConfig(1.0, TimeGrid(800.0, 1600))  # nu T = 800: e^{nu T} overflows


def test_long_horizon_identity_stays_the_identity():
    traj = march_solve(ConstantPath(np.eye(2)), LONG)
    np.testing.assert_array_equal(traj.values, np.broadcast_to(np.eye(2), traj.values.shape))


@pytest.mark.parametrize("path", [spin_flip_model().m_path(), LiftedPath(ConstantInput(0.6), 2)],
                         ids=["spin-flip", "constant-input"])
def test_long_horizon_two_level_march_is_doubly_stochastic(path):
    traj = march_solve(path, LONG)
    assert np.isfinite(traj.values).all()
    assert dstoch_residual(traj.values).max() < TOL
    assert traj.values.min() >= -TOL


def test_long_horizon_unit_input_is_exactly_one():
    # the tilted source e^{-nu t} * 1 is the unit mode's own source
    traj = scalar_march(ConstantInput(1.0), LONG.nu, LONG.grid)
    np.testing.assert_array_equal(traj.beta, np.ones(LONG.grid.steps + 1))
