"""Checks of the benchmark's exact references.

Run from the root of a checkout: python3 -m pytest benchmark/test_exact.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import exact  # noqa: E402
import workloads  # noqa: E402
from reduktor import (  # noqa: E402
    BathModel,
    PiecewiseInput,
    SolverConfig,
    TimeGrid,
    march_solve,
    scalar_march,
)

NU = 1.0


def gauged(n, n2, base_seed, seed, levels=None):
    base = workloads.base_joint(n, n2, base_seed, levels)
    return workloads.gauged_joint(base, n, n2, np.random.default_rng(seed)), base


@pytest.fixture(scope="module")
def model_3x2():
    joint, _ = gauged(3, 2, 2002, 7)
    return joint, exact.BathSolution(joint, 3, 2)


@pytest.mark.parametrize("n, n2, levels", [(3, 2, None), (8, 4, np.linspace(-1, 1, 7))])
def test_realization_matches_definition(n, n2, levels):
    joint, _ = gauged(n, n2, 11, 3, levels)
    sol = exact.BathSolution(joint, n, n2)
    ts = np.linspace(0.0, 5.0, 23)
    assert np.abs(sol.m(ts) - exact.bath_m(joint, n, n2, ts)).max() < 1e-12
    assert sol.size <= (n * n2) ** 2 if levels is None else sol.size <= 13 * n


def test_state_space_solves_the_integral_equation(model_3x2):
    joint, sol = model_3x2
    x, w = np.polynomial.legendre.leggauss(60)
    for T in (0.7, 2.0, 3.0):
        t = (x + 1.0) * T / 2.0
        m_lag = exact.bath_m(joint, 3, 2, T - t)
        mbar = sol.mbar_at(NU, t)
        integral = np.einsum("t,tij,tjk->ik", w * T / 2.0 * np.exp(NU * t), m_lag, mbar)
        rhs = np.exp(-NU * T) * (exact.bath_m(joint, 3, 2, [T])[0] + NU * integral)
        assert np.abs(sol.mbar_at(NU, [T])[0] - rhs).max() < 1e-12


def test_grid_propagation_matches_direct_exponentials(model_3x2):
    _, sol = model_3x2
    grid = sol.mbar(NU, 3.0, 300)
    direct = sol.mbar_at(NU, np.linspace(0.0, 3.0, 301)[::50])
    assert np.abs(grid[::50] - direct).max() < 1e-12


def test_march_converges_at_order_two(model_3x2):
    joint, sol = model_3x2
    model = BathModel.from_joint_generator(joint, 3, 2)
    errs = []
    for steps in (250, 500, 1000):
        traj = march_solve(model.m_path(), SolverConfig(NU, TimeGrid(2.0, steps)))
        errs.append(np.abs(traj.values - sol.mbar(NU, 2.0, steps)).max())
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.6) & (ratios < 4.4)), ratios


def test_gauge_relabels_the_basis():
    joint, base = gauged(3, 2, 2002, 5)
    ts = np.linspace(0.1, 4.0, 9)
    m = exact.bath_m(base, 3, 2, ts)
    mg = exact.bath_m(joint, 3, 2, ts)
    perms = [p for p in np.ndindex(3, 3, 3) if len(set(p)) == 3]
    assert min(np.abs(m[:, p][:, :, p] - mg).max() for p in map(list, perms)) < 1e-12


def test_spin_flip_formula_matches_state_space():
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sol = exact.BathSolution(sigma_x, 2, 1)
    for nu in (0.5, 1.0, 3.0):
        ts = np.linspace(0.0, 10.0, 201)
        want = exact.lift(exact.spin_flip_beta(nu, ts), 2)
        assert np.abs(sol.mbar(nu, 10.0, 200) - want).max() < 1e-12


@pytest.mark.parametrize("tau, nu", [(1.0, 1.0), (0.5, 2.0)])
def test_alternating_closed_forms(tau, nu):
    alt = exact.AlternatingSolution(tau, nu, 10)
    t0 = np.linspace(0.0, tau, 50, endpoint=False)
    assert np.abs(alt.beta(t0) - 1.0).max() < 1e-15
    t1 = tau + t0
    want = 1.0 + (nu * tau - nu * t1 - 1.0) * np.exp(-nu * tau)
    assert np.abs(alt.beta(t1) - want).max() < 1e-14
    k = np.arange(1, 11)
    jumps = alt.beta(k * tau) - alt.beta(k * tau, side="left")
    assert np.abs(jumps - (-1.0) ** k * np.exp(-nu * k * tau)).max() < 1e-14


def test_scalar_march_converges_to_the_alternating_solution_at_order_two():
    alpha = PiecewiseInput(1.0, (1.0, 0.0))
    alt = exact.AlternatingSolution(1.0, NU, 6)
    errs = []
    for steps in (300, 600, 1200):
        grid = TimeGrid(6.0, steps)
        errs.append(np.abs(scalar_march(alpha, NU, grid).beta - alt.beta(grid.nodes)).max())
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.6) & (ratios < 4.4)), ratios
