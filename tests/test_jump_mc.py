import tracemalloc

import numpy as np
import pytest

from reduktor.dstoch import dstoch_residual
from reduktor.errors import InputValidationError
from reduktor.jump_mc import (
    BATCH,
    CHUNK,
    PoissonRealization,
    evolve_realization,
    monte_carlo_average,
    sample_realization,
    _stream,
)
from reduktor.presets import random_model
from reduktor.volterra import ConstantPath, SolverConfig, TimeGrid, march_solve

SYM_M = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])


def reference_average(path, nu, T, R, seed):
    """Mean and stderr from one history at a time, summed in index order
    within each chunk of CHUNK histories, then over chunks."""
    total = total_sq = 0.0
    for lo in range(0, R, CHUNK):
        part = part_sq = 0.0
        for r in range(lo, min(lo + CHUNK, R)):
            prod = evolve_realization(path, sample_realization(nu, T, _stream(seed, r)))
            part += prod
            part_sq += prod * prod
        total += part
        total_sq += part_sq
    mean = total / R
    var = np.maximum(total_sq - R * mean * mean, 0.0) / (R - 1)
    return mean, np.sqrt(var / R)


def first_bad_history(path, nu, T, seed, tol):
    r = 0
    while dstoch_residual(
            evolve_realization(path, sample_realization(nu, T, _stream(seed, r)))) <= tol:
        r += 1
    return r


class TestRealization:
    def test_ordering_enforced(self):
        with pytest.raises(InputValidationError):
            PoissonRealization(T=1.0, jumps=(0.7, 0.3))
        with pytest.raises(InputValidationError):
            PoissonRealization(T=1.0, jumps=(0.5, 1.5))

    def test_gaps_cover_horizon(self):
        r = PoissonRealization(T=2.0, jumps=(0.5, 1.2))
        np.testing.assert_allclose(r.gaps, [0.5, 0.7, 0.8])
        assert sum(r.gaps) == pytest.approx(2.0)

    def test_zero_rate_means_no_jumps(self):
        for i in range(50):
            r = sample_realization(0.0, 3.0, _stream(1, i))
            assert r.jumps == ()

    def test_replay_is_identical(self):
        a = sample_realization(2.0, 5.0, _stream(123, 7))
        b = sample_realization(2.0, 5.0, _stream(123, 7))
        assert a.jumps == b.jumps

    def test_mean_count(self):
        # 1e5 draws at nu*T = 10; empirical mean within 10 +- 0.1
        counts = [len(sample_realization(2.0, 5.0, _stream(0, i)).jumps)
                  for i in range(100000)]
        assert abs(np.mean(counts) - 10.0) < 0.1


class TestEvolve:
    def test_no_jumps_is_bare_evolution(self, generic_model):
        r = PoissonRealization(T=1.5, jumps=())
        out = evolve_realization(generic_model.m_path(), r)
        np.testing.assert_allclose(out, generic_model.m_many(np.array([1.5]))[0],
                                   atol=1e-13)

    def test_single_jump_product_order(self, generic_model):
        t1, T = 0.4, 1.5
        r = PoissonRealization(T=T, jumps=(t1,))
        out = evolve_realization(generic_model.m_path(), r)
        m = generic_model.m_many(np.array([t1, T - t1]))
        np.testing.assert_allclose(out, m[1] @ m[0], atol=1e-13)

    def test_products_stay_doubly_stochastic(self, generic_model):
        for i in range(100):
            r = sample_realization(1.5, 3.0, _stream(5, i))
            out = evolve_realization(generic_model.m_path(), r)
            assert dstoch_residual(out) < 1e-9


class TestAverage:
    def test_zero_rate_exact(self, generic_model):
        est = monte_carlo_average(generic_model.m_path(), 0.0, 2.0, 500, seed=1)
        np.testing.assert_allclose(est.mean, generic_model.m_many(np.array([2.0]))[0],
                                   atol=1e-13)
        assert est.stderr.max() == 0.0

    def test_minimum_sample_size(self, generic_model):
        with pytest.raises(ValueError):
            monte_carlo_average(generic_model.m_path(), 1.0, 1.0, 50, seed=0)

    def test_constant_input_against_closed_form(self):
        nu, T = 1.0, 2.0
        est = monte_carlo_average(ConstantPath(SYM_M), nu, T, 100000, seed=42)
        w, v = np.linalg.eigh(SYM_M)
        truth = (v * np.exp(nu * (w - 1.0) * T)) @ v.T @ SYM_M
        assert np.all(np.abs(est.mean - truth) <= 3.0 * est.stderr + 1e-9)

    def test_against_march(self, generic_model):
        nu, T = 1.0, 3.0
        cfg = SolverConfig(nu=nu, grid=TimeGrid(T, 1500))
        traj = march_solve(generic_model.m_path(), cfg)
        est = monte_carlo_average(generic_model.m_path(), nu, T, 100000, seed=7)
        within = np.abs(est.mean - traj.final) <= 3.0 * est.stderr + 1e-9
        assert within.mean() >= 0.99
        assert np.abs(est.mean - traj.final).max() < 0.01

    def test_bit_identical_across_workers(self, generic_model):
        kw = dict(nu=1.0, T=2.0, R=4000, seed=11)
        one = monte_carlo_average(generic_model.m_path(), workers=1, **kw)
        two = monte_carlo_average(generic_model.m_path(), workers=2, **kw)
        eight = monte_carlo_average(generic_model.m_path(), workers=8, **kw)
        np.testing.assert_array_equal(one.mean, two.mean)
        np.testing.assert_array_equal(one.mean, eight.mean)
        np.testing.assert_array_equal(one.stderr, eight.stderr)

    def test_stderr_scales_with_samples(self, generic_model):
        base = monte_carlo_average(generic_model.m_path(), 1.0, 2.0, 4000, seed=3)
        double = monte_carlo_average(generic_model.m_path(), 1.0, 2.0, 8000, seed=3)
        ratio = double.stderr.max() / base.stderr.max()
        assert abs(ratio - 1.0 / np.sqrt(2.0)) < 0.2 / np.sqrt(2.0)


class TestBatched:
    R = 2 * CHUNK + 37

    @pytest.mark.parametrize("source", ["bath", "constant"])
    def test_matches_per_history_loop(self, generic_model, source):
        path = generic_model.m_path() if source == "bath" else ConstantPath(SYM_M)
        est = monte_carlo_average(path, 1.0, 2.0, self.R, seed=19)
        mean, stderr = reference_average(path, 1.0, 2.0, self.R, seed=19)
        np.testing.assert_allclose(est.mean, mean, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(est.stderr, stderr, rtol=0.0, atol=1e-15)

    def test_names_first_non_stochastic_history(self):
        # a source that is not stochastic for short gaps only, so the first
        # bad history lies past the first batch
        def source(t):
            return SYM_M * (1.5 if t < 2e-4 else 1.0)

        bad = first_bad_history(source, 1.0, 2.0, 31, 1e-9)
        assert bad > BATCH
        with pytest.raises(InputValidationError, match=f"history {bad} produced"):
            monte_carlo_average(source, 1.0, 2.0, bad + CHUNK, seed=31)

    def test_memory_bounded(self, generic_model):
        path = generic_model.m_path()
        monte_carlo_average(path, 1.0, 2.0, 200, seed=2)
        tracemalloc.start()
        try:
            monte_carlo_average(path, 1.0, 2.0, 20000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6
