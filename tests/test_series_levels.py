"""The lag-major series levels and derivative residual against node-by-node sums."""

import numpy as np
import pytest

import series_reference as ref
from reduktor import volterra
from reduktor.presets import random_model
from reduktor.volterra import (
    ConstantPath,
    SolverConfig,
    TimeGrid,
    _series_levels,
    derivative_consistency,
    march_solve,
    neumann_series_trajectory,
)

SYM_M = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
LEVELS = 5


def bath_stack(n, T, K):
    return random_model(n, 2, seed=40 + n).m_many(np.linspace(0.0, T, K + 1))


def cosine_stack(T, K):
    ts = np.linspace(0.0, T, K + 1)
    return (0.5 + 0.5 * np.cos(2.0 * ts))[:, None, None]


def random_stack(n, K):
    return np.random.default_rng(n).random((K + 1, n, n))


SOURCES = {
    "cosine n=1 K=2000": lambda: (cosine_stack(4.0, 2000), 4.0),
    "random n=1 K=7": lambda: (random_stack(1, 7), 1.0),
    "bath n=2 K=1500": lambda: (bath_stack(2, 3.0, 1500), 3.0),
    "bath n=3 K=1000": lambda: (bath_stack(3, 2.0, 1000), 2.0),
    "random n=3 K=2": lambda: (random_stack(3, 2), 0.5),
    "random n=3 K=1": lambda: (random_stack(3, 1), 0.5),
    "bath n=8 K=400": lambda: (bath_stack(8, 2.0, 400), 2.0),
    "constant n=3 K=2000": lambda: (
        ConstantPath(SYM_M).many(np.linspace(0.0, 2.0, 2001)), 2.0),
}


@pytest.mark.parametrize("name", list(SOURCES))
def test_levels_match_node_by_node_sum(name):
    M, T = SOURCES[name]()
    K = len(M) - 1
    h = T / K
    got, want = _series_levels(M, h, K), ref.series_levels(M, h, K)
    for level in range(LEVELS):
        (F, u), (G, v) = next(got), next(want)
        assert F.shape == G.shape == M.shape
        if level:
            assert not F[0].any() and u[0] == 0.0
        # nodes 1 and K carry the end corrections at both ends of the sum
        for j in (1, K):
            assert np.abs(F[j] - G[j]).max() <= 1e-12 * np.abs(G).max()
        assert np.abs(F - G).max() <= 1e-12 * np.abs(G).max()
        assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()


def test_series_trajectory_matches_reference_levels(monkeypatch):
    model = random_model(3, 2, seed=5)
    cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, 500), n_max=16)
    got = neumann_series_trajectory(model.m_path(), cfg)
    monkeypatch.setattr(volterra, "_series_levels", ref.series_levels)
    want = neumann_series_trajectory(model.m_path(), cfg)
    assert np.abs(got.values - want.values).max() <= 1e-12


@pytest.mark.parametrize("nu, steps, constant", [
    (0.0, 300, False), (1.0, 300, False), (1.0, 150, False), (1.0, 300, True)])
def test_derivative_residual_matches_node_by_node_sum(generic_model, nu, steps,
                                                      constant):
    source = ConstantPath(SYM_M) if constant else generic_model.m_path()
    cfg = SolverConfig(nu=nu, grid=TimeGrid(3.0, steps))
    traj = march_solve(source, cfg)
    ts = cfg.grid.nodes
    want = ref.derivative_residual(np.asarray(source.many(ts), dtype=float),
                                   traj.values, nu, ts)
    # the residual is a difference of O(1) terms, so it carries their
    # rounding, about 1e-16, whatever the order of summation
    assert derivative_consistency(source, traj, cfg) == pytest.approx(
        want, rel=1e-12, abs=1e-15)
