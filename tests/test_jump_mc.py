import tracemalloc

import numpy as np
import pytest

from reduktor.dstoch import dstoch_residual
from reduktor.errors import InputValidationError
from reduktor.jump_mc import (
    DRAW,
    CHUNK,
    McEstimate,
    PoissonRealization,
    evolve_realization,
    mc_estimate_to_csv,
    monte_carlo_average,
    sample_realization,
    _bulk_jumps,
    _draw_jumps,
    _key,
    _philox,
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

    @pytest.mark.parametrize("seed", [2**63, 2**63 + 1, 2**64 - 1])
    def test_seeds_past_int64_key_their_own_stream(self, seed):
        # numpy reads a key list holding ints past 2**63 through a float,
        # where 2**63 and 2**63 + 1 collide; the key word is seed mod 2**64
        state = _stream(seed, 3).bit_generator.state["state"]
        assert state["key"].tolist() == [seed, 3]
        assert _key(seed - 2**64) == seed

    @pytest.mark.parametrize("seed", [2**64, -2**63 - 1])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            _stream(seed, 0)

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

    def test_zero_rate_mean_is_a_copy(self):
        m = SYM_M.copy()
        est = monte_carlo_average(ConstantPath(m), 0.0, 2.0, 100, seed=0)
        assert not np.shares_memory(est.mean, m)
        est.mean[0, 0] = 1.0
        np.testing.assert_array_equal(m, SYM_M)

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

    def test_seeds_past_int64_give_distinct_averages(self, generic_model):
        means = [monte_carlo_average(generic_model.m_path(), 1.0, 2.0, 200, seed).mean
                 for seed in (2**63, 2**63 + 1, 2**63 + 1000)]
        assert not np.array_equal(means[0], means[1])
        assert not np.array_equal(means[0], means[2])
        with pytest.raises(ValueError, match="seed must lie in"):
            monte_carlo_average(generic_model.m_path(), 0.0, 2.0, 200, 2**64)

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
        # bad history lies past the first draw block and its product batches
        def source(t):
            return SYM_M * (1.5 if t < 2e-4 else 1.0)

        bad = first_bad_history(source, 1.0, 2.0, 31, 1e-9)
        assert bad > DRAW
        with pytest.raises(InputValidationError, match=f"history {bad} produced"):
            monte_carlo_average(source, 1.0, 2.0, bad + CHUNK, seed=31)

    def test_chunks_combined_in_chunk_order(self):
        # a 1x1 source with more than 8 chunks, which a pairwise sum over
        # the chunk totals would add out of order
        path = random_model(1, 2, seed=1).m_path()
        R = 12 * CHUNK
        est = monte_carlo_average(path, 1.0, 2.0, R, seed=23)
        mean, stderr = reference_average(path, 1.0, 2.0, R, seed=23)
        np.testing.assert_array_equal(est.mean, mean)
        np.testing.assert_array_equal(est.stderr, stderr)

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


def negative_zero_source(t):
    # doubly stochastic, with -0.0 in the first row and column
    c = 0.5 + 0.5 * np.cos(t)
    return np.array([[1.0, -0.0, -0.0], [-0.0, c, 1.0 - c], [-0.0, 1.0 - c, c]])


BIT_CASES = {  # source and rate
    "bath-1x2": (lambda: random_model(1, 2, seed=0), 1.0),  # M(t) off 1 by rounding
    "bath-2x1": (lambda: random_model(2, 1, seed=4), 1.0),
    "bath-3x2": (lambda: random_model(3, 2, seed=5), 1.0),
    "bath-8x4": (lambda: random_model(8, 4, seed=6), 1.0),
    "constant": (lambda: ConstantPath(SYM_M), 1.0),
    # nu T = 9.99: the last rate of the bulk draw, several counters per
    # history; nu T = 10: numpy's PTRS draw, one generator call per history
    "bath-3x2-rate-9.99": (lambda: random_model(3, 2, seed=5), 4.995),
    "bath-3x2-rate-10": (lambda: random_model(3, 2, seed=5), 5.0),
    # at nu T = 2e-6 almost no history jumps, so the products keep the -0.0
    # entries (a matrix product gives +0.0); the output must print them as 0,
    # as a history loop summing from 0.0 does
    "negative-zero-callable": (lambda: negative_zero_source, 1e-6),
}


@pytest.mark.parametrize("seed, r", [(0, 0), (23, 7), (-1, 2**32 + 5),
                                     (2**63 + 1, 2**40), (2**64 - 1, 2**63)])
def test_kernel_words_equal_random_raw(seed, r):
    key = np.array([_key(seed), r], dtype=np.uint64)
    want = np.random.Philox(key=key).random_raw(40)
    np.testing.assert_array_equal(_philox(_key(seed), [r], 10)[0], want)


@pytest.mark.parametrize("nu, big, many", [(1.0, [14233, 29417], 10),
                                           (4.995, [115942, 126257], 26)])
def test_bulk_draw_equals_generator_draw(nu, big, many):
    # the histories in big have so many events that their 2 many + 1
    # doubles run past the words of the first draw (5 and 13 counters)
    rs = np.array(big + list(range(200)))
    counts, jumps = _bulk_jumps(nu, 2.0, 23, rs)
    assert counts[:2].min() >= many
    for i, r in enumerate(rs):
        want = _draw_jumps(nu, 2.0, _stream(23, r))
        assert counts[i] == len(want)
        np.testing.assert_array_equal(jumps[i, :counts[i]], want)
        assert (jumps[i, counts[i]:] == 2.0).all()


@pytest.mark.parametrize("R", [100, 2 * CHUNK + 37])
@pytest.mark.parametrize("case", BIT_CASES.values(), ids=BIT_CASES.keys())
def test_bit_identical_to_per_history_loop(case, R):
    source, nu = case
    path = source()
    est = monte_carlo_average(path, nu, 2.0, R, seed=23)
    mean, stderr = reference_average(path, nu, 2.0, R, seed=23)
    np.testing.assert_array_equal(est.mean, mean)
    np.testing.assert_array_equal(est.stderr, stderr)
    ref = McEstimate(mean=mean, stderr=stderr, n_samples=R, seed=23)
    text = mc_estimate_to_csv(est, nu=nu, T=2.0)
    assert text == mc_estimate_to_csv(ref, nu=nu, T=2.0)
    assert not np.signbit(est.mean).any()
