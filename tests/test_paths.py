"""The time-path protocol shared by every source, and the shared sampler.

Constant matrices, bath models, rescaled paths, scalar inputs and their
matrix lifts are all ``volterra._SmoothPath`` time paths.  The contract:
``as_path`` passes them through, a single value is the batched value bit
for bit, and the one-sided limits agree with the value away from jumps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduktor.asymptotics import _RescaledPath
from reduktor.jump_mc import monte_carlo_average
from reduktor.presets import random_model
from reduktor.scalar import (
    ConstantInput,
    CosineInput,
    LiftedPath,
    PiecewiseInput,
    TabulatedInput,
    lift_scalar,
    scalar_march,
)
from reduktor.volterra import (
    ConstantPath,
    SolverConfig,
    TimeGrid,
    as_path,
    derivative_consistency,
    march_solve,
    march_solve_general,
    neumann_series_trajectory,
    poisson_kernel,
)

SCALAR_INPUTS = {
    "constant": ConstantInput(0.6),
    "piecewise": PiecewiseInput(0.75, (1.0, 0.0, 0.5, 0.5)),
    "cosine": CosineInput(0.6, 0.3),
    "tabulated": TabulatedInput(np.linspace(0.0, 4.0, 9),
                                0.5 + 0.4 * np.sin(np.linspace(0.0, 4.0, 9))),
}

PATHS = {
    "constant-matrix": ConstantPath([[0.7, 0.3], [0.3, 0.7]]),
    "bath-model": random_model(3, 2, seed=5),
    "rescaled-lifted-piecewise": _RescaledPath(LiftedPath(SCALAR_INPUTS["piecewise"], 3), 2.0),
    **{f"lifted-{k}": LiftedPath(a, 3) for k, a in SCALAR_INPUTS.items()},
    **SCALAR_INPUTS,
}

T_END = 4.0
SAMPLES = np.concatenate([np.linspace(0.0, T_END, 17), [0.1234, 1.4142, 2.7183, 3.3333]])


CFG = SolverConfig(nu=1.0, grid=TimeGrid(1.0, 10))
MATRIX_SOLVERS = {
    "march_solve": lambda m: march_solve(m, CFG),
    "march_solve_general": lambda m: march_solve_general(m, poisson_kernel(1.0), CFG.grid),
    "neumann_series_trajectory": lambda m: neumann_series_trajectory(m, CFG),
    "derivative_consistency": lambda m: derivative_consistency(
        m, march_solve(LiftedPath(m, 2), CFG), CFG),
    "monte_carlo_average": lambda m: monte_carlo_average(m, 1.0, 1.0, 100, seed=0),
    "monte_carlo_average-nu0": lambda m: monte_carlo_average(m, 0.0, 1.0, 100, seed=0),
}


@pytest.mark.parametrize("solve", MATRIX_SOLVERS.values(), ids=MATRIX_SOLVERS.keys())
def test_matrix_solver_names_a_scalar_input(solve):
    with pytest.raises(TypeError, match="ConstantInput is not a matrix path.*LiftedPath"):
        solve(ConstantInput(0.5))


@pytest.mark.parametrize("path", PATHS.values(), ids=PATHS.keys())
def test_path_contract(path):
    assert as_path(path) is path
    jumps = np.asarray(path.jump_times(0.0, T_END), dtype=float)
    for t in np.concatenate([SAMPLES, jumps]):
        assert np.array_equal(path(t), path.many(np.array([t]))[0])
    smooth = [t for t in SAMPLES if not np.any(np.abs(jumps - t) < 1e-9)]
    for t in smooth:
        assert np.array_equal(path.left(t), path(t))
    batch = path.many(SAMPLES)
    assert len(batch) == len(SAMPLES)
    for t, value in zip(SAMPLES, batch):
        assert np.array_equal(value, path(t))


def test_jumps_have_distinct_limits():
    path = PATHS["rescaled-lifted-piecewise"]
    jumps = path.jump_times(0.0, T_END)
    # pattern (1, 0, 0.5, 0.5) at tau = 0.75 / 2: the 0.5 -> 0.5 boundary is no jump
    np.testing.assert_allclose(jumps, [0.375, 0.75, 1.5, 1.875, 2.25, 3.0, 3.375, 3.75])
    for t in jumps:
        assert not np.array_equal(path.left(t), path(t))


@st.composite
def piecewise_problems(draw):
    """A random pattern with tau on a grid of K <= 200 steps, h nu <= 0.1."""
    level = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    pattern = draw(st.lists(level, min_size=1, max_size=4))
    K = draw(st.integers(2, 200))
    per_tau = draw(st.integers(1, K))
    h = draw(st.floats(0.005, 0.1))
    grid = TimeGrid(t_max=K * h, steps=K)
    nu = draw(st.floats(0.0, 0.1)) / grid.h
    return PiecewiseInput(per_tau * grid.h, pattern), nu, grid


@settings(max_examples=60, deadline=None)
@given(piecewise_problems())
def test_scalar_march_is_the_lifted_matrix_march(problem):
    alpha, nu, grid = problem
    lifted = lift_scalar(scalar_march(alpha, nu, grid), 3)
    matrix = march_solve(LiftedPath(alpha, 3), SolverConfig(nu=nu, grid=grid))
    assert lifted.jump_nodes == matrix.jump_nodes
    assert sorted(lifted.left_values) == sorted(matrix.left_values)
    assert np.abs(lifted.values - matrix.values).max() <= 1e-9
    for j, left in matrix.left_values.items():
        assert np.abs(lifted.left_values[j] - left).max() <= 1e-9
