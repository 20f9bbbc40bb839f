"""The FFT series levels and derivative residual against node-by-node sums."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_reference as ref
from reduktor import volterra
from reduktor.dstoch import dstoch_residual
from reduktor.presets import random_model
from reduktor.volterra import (
    ConstantPath,
    SolverConfig,
    TimeGrid,
    _convolution,
    _series_levels,
    derivative_consistency,
    march_solve,
    neumann_series_trajectory,
)

SYM_M = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
CONSTANT_M = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "constant_matrix.json").read_text()
)["constant_M"]
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
    got, want = _series_levels(M, h, 1.0), ref.series_levels(M, h, 1.0)
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


def test_tilted_levels_at_long_horizon():
    # nu T = 30: untilted, level m spans about T^m / m! over [0, T], and the
    # FFT's rounding, relative to that largest value, swamps the early nodes
    # (2.8e-3 of a tilted level's maximum over these 40 levels, against
    # 5.5e-15 tilted)
    K, T = 300, 30.0
    M = random_model(3, 2, seed=5).m_many(np.linspace(0.0, T, K + 1))
    got, want = _series_levels(M, T / K, 1.0), ref.series_levels(M, T / K, 1.0)
    for level in range(40):
        (F, u), (G, v) = next(got), next(want)
        assert np.abs(F - G).max() <= 1e-12 * np.abs(G).max()
        assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("source", ["constant", "bath"])
def test_long_horizon_series_is_doubly_stochastic(source):
    # nu T = 800 at h nu = 0.5, 987 levels: untilted sums overflow (node
    # 1386 of the constant source), and a tilt by nu leaves the unit sum at
    # up to 3.3e7 and the residual at 3.5e-8
    m = ConstantPath(CONSTANT_M) if source == "constant" else random_model(3, 2, seed=5)
    traj = neumann_series_trajectory(m, SolverConfig(nu=1.0, grid=TimeGrid(800.0, 1600)))
    assert np.isfinite(traj.values).all()
    assert dstoch_residual(traj.values).max() <= 1e-9


def block_nodes(n):
    return max(1, 64 // n)


def assert_level_close(G, want):
    assert G.shape == want.shape
    assert not G[0].any()
    assert np.abs(G - want).max() <= 1e-12 * np.abs(want).max()


# K + 1 = a B + b nodes: 1, 2, B - 1, B, B + 1 and 2B + 1
EDGES = [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)]


@pytest.mark.parametrize("a, b", EDGES)
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_convolution_at_block_edges(n, a, b):
    K1 = a * block_nodes(n) + b
    rng = np.random.default_rng(100 * n + K1)
    M, F = rng.random((K1, n, n)), rng.random((K1, n, n))
    assert_level_close(_convolution(M, 0.01)(F), ref.trapezoid_convolution(M, F, 0.01))


@pytest.mark.parametrize("a, b", EDGES[3:])
def test_convolution_of_zero_stride_stack(a, b):
    K1 = a * block_nodes(3) + b
    M = ConstantPath(SYM_M).many(np.linspace(0.0, 1.0, K1))
    assert M.strides[0] == 0
    for F in (M, np.random.default_rng(K1).random((K1, 3, 3))):
        assert_level_close(_convolution(M, 0.01)(F),
                           ref.trapezoid_convolution(M, F, 0.01))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_convolution_of_non_square_level(m):
    # F of shape (K + 1, n, m) with m != n, as the block layout must allow
    K1 = 2 * block_nodes(3) + 1
    rng = np.random.default_rng(m)
    M, F = rng.random((K1, 3, 3)), rng.random((K1, 3, m))
    assert_level_close(_convolution(M, 0.01)(F), ref.trapezoid_convolution(M, F, 0.01))


@settings(max_examples=60, deadline=None)
@given(K1=st.integers(1, 300), n=st.sampled_from([1, 2, 3]), m=st.integers(1, 4),
       constant=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_convolution_property(K1, n, m, constant, seed):
    rng = np.random.default_rng(seed)
    M = (np.broadcast_to(rng.random((n, n)), (K1, n, n)) if constant
         else rng.random((K1, n, n)))
    F = rng.random((K1, n, m))
    assert_level_close(_convolution(M, 0.01)(F), ref.trapezoid_convolution(M, F, 0.01))


def test_level_memory_bounded():
    # the transform of M is (L/2 + 1) n n complex values, 2.02 F.nbytes at
    # L = 8064, the smallest 7-smooth length >= 2K + 1, and F is transformed
    # a column at a time: measured 4.37 F.nbytes in all
    n, K1 = 3, 4001
    rng = np.random.default_rng(0)
    M, F = rng.random((K1, n, n)), rng.random((K1, n, n))
    _convolution(M[:10], 0.01)(F[:10])
    tracemalloc.start()
    try:
        _convolution(M, 0.01)(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (block_nodes(n) * n) ** 2 * 8
    # the block term is 31 752 bytes at n = 3
    assert peak <= 6 * F.nbytes + block


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
