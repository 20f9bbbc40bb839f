"""The shared marching kernel against the per-branch reference loops."""

import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import march_reference as ref
from reduktor import jump_mc, volterra
from reduktor.dstoch import dstoch_residual, lift
from reduktor.errors import KernelNormalizationViolation
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
    _modal_solve,
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

    def jump_times(self, t0, t1):
        ks = np.arange(1, int(t1 / self.tau + 1e-9) + 1)
        return ks * self.tau


def limits(path, grid, jump_nodes):
    ML = path.many(grid.nodes).copy()
    MR = ML.copy()
    for j in jump_nodes:
        ML[j] = path.left(grid.nodes[j])
        MR[j] = path.many(grid.nodes[j:j + 1])[0]
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


def test_general_kernel_evaluates_b_once_per_node():
    # three normalization checks, then b(T_0..T_k, T_k) once for k = 1..K
    poisson = poisson_kernel(NU)
    horizons = []

    def b(t, T):
        horizons.append(T)
        return poisson.b(t, T)

    grid = TimeGrid(2.0, 200)
    march_solve_general(random_model(3, 2, seed=5).m_path(), Kernel(poisson.a, b), grid)
    assert len(horizons) == 3 + grid.steps
    assert horizons[3:] == list(grid.nodes[1:])


MARCH_CODE = {"_march", "_march_terms", "_blocked_solve", "_constant_march", "_general_march"}


def code_names(code):
    """The global and attribute names a code object and its nested code use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= code_names(const)
    return names


def test_oracles_share_no_march_code():
    # each oracle stays independent of the solver it checks
    oracles = [volterra._convolution, volterra._series_levels,
               volterra.neumann_series_trajectory, volterra.derivative_consistency]
    for _, obj in inspect.getmembers(jump_mc):
        if getattr(obj, "__module__", None) != jump_mc.__name__:
            continue
        if inspect.isfunction(obj):
            oracles.append(obj)
        elif inspect.isclass(obj):
            oracles += [f for _, f in inspect.getmembers(obj, inspect.isfunction)
                        if f.__module__ == jump_mc.__name__]
    assert len(oracles) > 10
    assert code_names(march_solve.__code__) & MARCH_CODE  # the names are seen
    for fn in oracles:
        assert not code_names(fn.__code__) & MARCH_CODE, fn.__qualname__


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
    for j in traj.jump_nodes:
        lo[j], hi[j] = alpha.left(ts[j]), alpha(ts[j])
    want, want_left = ref.march_scalar(lo, hi, NU, GRID.h)
    assert np.abs(traj.values - want).max() < TOL
    for j, left in traj.left_values.items():
        assert abs(left - want_left[j]) < TOL


def test_unit_mode_is_unit_growth():
    # sigma is marched tilted, as the march of the source e^{-nu t}
    K = GRID.steps
    tilt = np.exp(-NU * GRID.h * np.arange(K + 1)).reshape(-1, 1, 1)
    w = volterra._march_terms(tilt, {}, GRID.h, NU)[0]
    sigma = volterra._blocked_solve(w, tilt, tilt)
    want = ref.unit_growth(NU, GRID.h, K) * tilt[:, 0, 0]
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


@pytest.mark.parametrize("typed, period, grid", [
    (0.3333333333, 1.0 / 3.0, TimeGrid(10.0, 30)),
    (0.3333333333, 1.0 / 3.0, TimeGrid(10.0, 3000)),
    (0.1 + 5e-11, 0.1, TimeGrid(1.0, 10)),
], ids=["third-30", "third-3000", "tenth"])
def test_a_period_a_rounding_off_the_grid_marches_as_the_grid_period(typed, period, grid):
    # each jump of the typed period lies within TOL_GRID of a node, before it
    # (a third) or after it (a tenth, the last one past t_max); both of its
    # limits are read at the jump time, so the march sees the grid period's
    # source bit for bit
    got, want = (scalar_march(PiecewiseInput(tau), NU, grid) for tau in (typed, period))
    assert got.values.tobytes() == want.values.tobytes()
    assert got.left_values == want.left_values
    assert len(want.left_values) == round(grid.t_max / period)
    got, want = (march_solve(LiftedPath(PiecewiseInput(tau), 3), SolverConfig(NU, grid))
                 for tau in (typed, period))
    assert got.values.tobytes() == want.values.tobytes()
    assert got.jump_nodes == want.jump_nodes
    for j in want.jump_nodes:
        assert got.left_values[j].tobytes() == want.left_values[j].tobytes()


LONG_MARCH = """
import hashlib, numpy as np
from reduktor.volterra import _march
K = 12000
S = np.cos(np.linspace(0.0, 60.0, K + 1)).reshape(-1, 1, 1)
out, _ = _march(S, {}, 60.0 / K, 1.0)
print(hashlib.sha256(out.tobytes()).hexdigest())
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


LONG_GENERAL_MARCH = """
import hashlib, numpy as np
from reduktor.volterra import _general_march
K = 12000
S = np.cos(np.linspace(0.0, 60.0, K + 1)).reshape(-1, 1, 1)
out = _general_march(S, np.ones(K + 1), 60.0 / K, lambda k: np.ones(k + 1))
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_long_stepped_scalar_mode_does_not_depend_on_blas_threads():
    # the general kernel's loop steps a 1 x 1 source and its sigma node by
    # node, and its history sums run past 10^4 terms
    digests = digests_at_blas_threads(LONG_GENERAL_MARCH)
    assert digests[0] == digests[1]


LONG_CONSTANT_MARCH = """
import hashlib, numpy as np
from reduktor.volterra import ConstantPath, SolverConfig, TimeGrid, march_solve
M = [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]]
traj = march_solve(ConstantPath(M), SolverConfig(1.0, TimeGrid(60.0, 12000)))
print(hashlib.sha256(traj.values.tobytes()).hexdigest())
"""


def test_long_stepped_matrix_march_does_not_depend_on_blas_threads():
    # a constant n >= 3 source marches past 10^4 nodes on one running sum
    digests = digests_at_blas_threads(LONG_CONSTANT_MARCH)
    assert digests[0] == digests[1]


LONG_LIFTED_MARCH = """
import hashlib
from reduktor.scalar import LiftedPath, PiecewiseInput
from reduktor.volterra import SolverConfig, TimeGrid, march_solve
traj = march_solve(LiftedPath(PiecewiseInput(1.0), 3), SolverConfig(1.0, TimeGrid(20.0, 2000)))
left = b"".join(traj.left_values[j].tobytes() for j in traj.jump_nodes)
print(hashlib.sha256(traj.values.tobytes() + left).hexdigest())
"""


def test_long_two_limit_matrix_march_does_not_depend_on_blas_threads():
    # an n >= 3 source with jumps is solved in blocks of MARCH_BLOCK // 3 nodes
    digests = digests_at_blas_threads(LONG_LIFTED_MARCH)
    assert digests[0] == digests[1]


LONG_8X8_MARCH = """
import hashlib
from reduktor.presets import random_model
from reduktor.volterra import SolverConfig, TimeGrid, march_solve
traj = march_solve(random_model(8, 4, 5).m_path(), SolverConfig(1.0, TimeGrid(3.0, 1000)))
print(hashlib.sha256(traj.values.tobytes()).hexdigest())
"""


def test_blocked_8x8_march_does_not_depend_on_blas_threads():
    # blocks of 8 nodes: the largest system (64 x 64) and block products
    digests = digests_at_blas_threads(LONG_8X8_MARCH)
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
    out, left = _march(hi.reshape(-1, 1, 1), {j: lo[j].reshape(1, 1) for j in jump_nodes}, h, nu)
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
    out, left = _march(MR, {j: ML[j] for j in jump_nodes}, h, nu)
    want, want_left = ref.march_two_limit(ML, MR, nu, h)
    assert np.abs(out - want).max() < TOL
    for j in jump_nodes:
        assert np.abs(left[j] - want_left[j]).max() < TOL
    assert dstoch_residual(out).max() < TOL


# -- the blocked n x n solver ------------------------------------------------

B3 = MARCH_BLOCK // 3


@pytest.mark.parametrize("K", [1, 2, B3 - 1, B3, B3 + 1, 3 * B3 + 5])
def test_matrix_blocked_solve_at_any_grid_size(K):
    # n = 3 takes blocks of B3 nodes: one partial block, exact blocks, and a
    # partial last block
    model = random_model(3, 2, seed=5)
    grid = TimeGrid(K * 0.01, K)
    traj = march_solve(model.m_path(), SolverConfig(NU, grid))
    want = ref.march_smooth(model.m_many(grid.nodes), NU, grid.h)
    assert np.abs(traj.values - want).max() < TOL


def test_blocked_solve_takes_one_node_per_block_past_the_block_size():
    # n > MARCH_BLOCK leaves one n x n node per block
    n = MARCH_BLOCK + 1
    model = random_model(n, 1, seed=5)
    grid = TimeGrid(0.03, 3)
    traj = march_solve(model.m_path(), SolverConfig(NU, grid))
    want = ref.march_smooth(model.m_many(grid.nodes), NU, grid.h)
    assert np.abs(traj.values - want).max() < TOL


@pytest.mark.parametrize("tau_nodes", [B3 - 1, B3, B3 + 1])
def test_matrix_jumps_at_block_boundaries(tau_nodes):
    # n = 3 bath models switched next to, at the end of and at the start of
    # a block; jump nodes tau and 2 tau pair into 3 tau
    grid = TimeGrid((4 * B3 + 5) * 0.01, 4 * B3 + 5)
    path = Switched(3, tau=tau_nodes * grid.h)
    traj = march_solve(path, SolverConfig(NU, grid))
    assert traj.jump_nodes[:3] == (tau_nodes, 2 * tau_nodes, 3 * tau_nodes)
    want, want_left = ref.march_two_limit(*limits(path, grid, traj.jump_nodes), NU, grid.h)
    assert np.abs(traj.values - want).max() < TOL
    for j in traj.jump_nodes:
        assert np.abs(traj.left_values[j] - want_left[j]).max() < TOL


@pytest.mark.parametrize("n", [1, 3])
def test_jump_terms_match_the_double_loop(n):
    # f sums the pair terms -w_t s[k] s[t] of jump nodes k and t with
    # k + t <= K in the order of a double loop over the jump nodes
    K, h, b = 400, 0.01, 1.5
    rng = np.random.default_rng(n)
    jump_idx = sorted(int(j) for j in rng.choice(np.arange(1, K + 1), 200, replace=False))
    ML = rng.uniform(0.0, 1.0, (K + 1, n, n))
    MR = ML.copy()
    MR[jump_idx] += rng.uniform(-0.1, 0.1, (len(jump_idx), n, n))
    w, Mbar, f, shift = volterra._march_terms(MR, {j: ML[j] for j in jump_idx}, h, b)
    s = {j: 0.5 * (MR[j] - ML[j]) for j in jump_idx}
    want = Mbar.copy()
    for k in jump_idx:
        want[k] -= w[0] * (Mbar[0] @ s[k] + s[k] @ Mbar[0])
        for t in jump_idx:
            if k + t <= K:
                want[k + t] -= w[t] * (s[k] @ s[t])
    assert f.tobytes() == want.tobytes()
    assert sorted(shift) == jump_idx
    for j in jump_idx:
        assert shift[j].tobytes() == s[j].tobytes()


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
    np.testing.assert_array_equal(traj.values, np.ones(LONG.grid.steps + 1))


CONSTANT_3X3 = [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]]  # configs/constant_matrix.json


@pytest.mark.parametrize("path", [random_model(3, 2, 5).m_path(), ConstantPath(CONSTANT_3X3),
                                  LiftedPath(PiecewiseInput(1.0), 3)],
                         ids=["bath-3x2", "constant-3x3", "lifted-alternating"])
def test_long_horizon_matrix_march_is_doubly_stochastic(path):
    # n >= 3 marches the tilted source e^{-nu t} M, so nothing overflows
    traj = march_solve(path, LONG)
    assert np.isfinite(traj.values).all()
    assert dstoch_residual(traj.values).max() < 1e-10
    assert traj.values.min() >= 0.0


def test_long_horizon_general_kernel_is_doubly_stochastic():
    # the normalization check resolves the kernel on the grid at nu T = 800
    traj = march_solve_general(random_model(3, 2, 5).m_path(), poisson_kernel(1.0), LONG.grid)
    assert np.isfinite(traj.values).all()
    assert dstoch_residual(traj.values).max() < 1e-10


def test_long_horizon_general_kernel_rejects_a_scaled_memory_weight():
    poisson = poisson_kernel(1.0)
    scaled = Kernel(poisson.a, lambda t, T: 1.001 * poisson.b(t, T))
    with pytest.raises(KernelNormalizationViolation):
        march_solve_general(random_model(3, 2, 5).m_path(), scaled, LONG.grid)


def test_long_horizon_identity_3x3_stays_the_identity():
    # the constant route marches X and sigma in the same operations
    traj = march_solve(ConstantPath(np.eye(3)), LONG)
    np.testing.assert_array_equal(traj.values, np.broadcast_to(np.eye(3), traj.values.shape))


def test_long_horizon_march_converges_on_an_unmixed_source():
    # 0.999 1 + 0.001 Theta_3 is still 0.245 from uniform at nu T = 1000, so
    # a march that returned the mixed limit would fail; its error against
    # the closed form falls fourfold when the step halves (second order)
    M = 0.999 * np.eye(3) + 0.001 / 3.0
    exact, _imag = _modal_solve(M, np.zeros((3, 3)), np.eye(3), 1.0, np.array([1000.0]))
    errors = [np.abs(march_solve(ConstantPath(M), SolverConfig(1.0, TimeGrid(1000.0, K))).final
                     - exact[0]).max() for K in (2000, 4000)]
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert errors[1] < 5e-3
    assert np.abs(exact[0] - 1.0 / 3.0).max() > 0.2


def test_constant_route_matches_the_blocked_route(monkeypatch):
    # a zero-stride stack takes the running sum, a contiguous copy of it
    # the blocked history sum
    K, h = 2000, 3.0 / 2000
    ML = np.broadcast_to(np.array(CONSTANT_3X3), (K + 1, 3, 3))
    blocked, _ = _march(np.ascontiguousarray(ML), {}, h, NU)
    monkeypatch.setattr(volterra, "_blocked_solve", None)
    constant, _ = _march(ML, {}, h, NU)
    assert np.abs(constant - blocked).max() < 1e-12


def test_constant_route_is_doubly_stochastic_to_rounding():
    # sigma comes from the loop that marches X, so the residual stays at
    # rounding over the K = 10^4 nodes of configs/constant_matrix.json
    traj = march_solve(ConstantPath(CONSTANT_3X3), SolverConfig(1.0, TimeGrid(10.0, 10000)))
    assert dstoch_residual(traj.values).max() < 1e-13
