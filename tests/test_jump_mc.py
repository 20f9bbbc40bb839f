import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mc_reference as ref
from reduktor.channels import BathModel
from reduktor.dstoch import dstoch_residual
from reduktor.errors import InputValidationError
from reduktor.jump_mc import (
    BATCH_BYTES,
    CHUNK,
    FLOOR,
    McEstimate,
    PoissonRealization,
    evolve_realization,
    mc_estimate_to_csv,
    monte_carlo_average,
    sample_realization,
    _key,
    _strata,
    _stream,
)
from reduktor.presets import random_model
from reduktor.volterra import (
    ConstantPath,
    SolverConfig,
    TimeGrid,
    _modal_solve,
    _SmoothPath,
    march_solve,
)

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
SYM_M = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])


class TestRealization:
    def test_ordering_enforced(self):
        with pytest.raises(InputValidationError):
            PoissonRealization(T=1.0, jumps=(0.7, 0.3))
        with pytest.raises(InputValidationError):
            PoissonRealization(T=1.0, jumps=(0.5, 1.5))

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(InputValidationError, match="horizon T"):
            PoissonRealization(T=T, jumps=())

    @pytest.mark.parametrize("nu, T", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                       (1.0, math.inf)])
    def test_non_finite_rate_or_horizon_not_sampled(self, nu, T):
        with pytest.raises(ValueError, match="finite nu >= 0 and T > 0"):
            sample_realization(nu, T, _stream(0, 1))

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

    @pytest.mark.parametrize("nu, T", [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan),
                                       (1.0, math.inf)])
    def test_non_finite_rate_or_horizon_fails_before_any_evaluation(self, nu, T):
        class Unevaluated(_SmoothPath):
            def many(self, ts):
                raise AssertionError("the source was evaluated")

        with pytest.raises(ValueError, match="finite nu >= 0 and T > 0"):
            monte_carlo_average(Unevaluated(), nu, T, 100, seed=0)

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
        mean, stderr = ref.average(path, 1.0, 2.0, self.R, seed=19)
        np.testing.assert_allclose(est.mean, mean, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(est.stderr, stderr, rtol=0.0, atol=1e-15)

    def test_names_first_non_stochastic_history(self):
        # a source that is not stochastic for short gaps only, so the first
        # bad history lies past the first product batches of its stratum
        def source(t):
            return SYM_M * (1.5 if t < 2e-4 else 1.0)

        label, bad = ref.first_bad_history(source, 1.0, 2.0, self.R, 31, 1e-9)
        assert bad > BATCH_BYTES // SYM_M.nbytes  # past its stratum's first batches
        with pytest.raises(InputValidationError,
                           match=f"stratum {label}, history {bad} produced"):
            monte_carlo_average(source, 1.0, 2.0, self.R, seed=31)

    def test_names_first_non_stochastic_tail_history(self):
        # at nu T = 2e-6 every history is in the tail, nearly all with one
        # event; the source is not stochastic near either end of [0, T]
        def source(t):
            return SYM_M * (1.5 if t < 0.1 else 1.0)

        label, bad = ref.first_bad_history(source, 1e-6, 2.0, 100, 5, 1e-9)
        assert label == "k>=1" and bad > 0
        with pytest.raises(InputValidationError,
                           match=f"stratum k>=1, history {bad} produced"):
            monte_carlo_average(source, 1e-6, 2.0, 100, seed=5)

    def test_chunks_combined_in_chunk_order(self):
        # a 1x1 source whose largest strata take several chunks each, which
        # a pairwise sum over the products or the chunk totals would add
        # out of order
        path = random_model(1, 2, seed=1).m_path()
        R = 12 * CHUNK
        est = monte_carlo_average(path, 1.0, 2.0, R, seed=23)
        mean, stderr = ref.average(path, 1.0, 2.0, R, seed=23)
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
    # nu T = 9.99 and 10: the mode moves from 9 to 10 events; at R = 4133
    # the three counts below the single ones are single too, and at R = 100
    # k >= 1 is one range; most histories have many events
    "bath-3x2-rate-9.99": (lambda: random_model(3, 2, seed=5), 4.995),
    "bath-3x2-rate-10": (lambda: random_model(3, 2, seed=5), 5.0),
    # nu T = 60: at R = 4133 the counts 1..45 are one range, drawn from
    # stream 0 before the range above the single counts
    "bath-3x2-rate-60": (lambda: random_model(3, 2, seed=5), 30.0),
    # at nu T = 2e-6 every history is in the tail and nearly all have one
    # event; M(T) keeps its -0.0 entries in p_0 M(T), and the output must
    # print them as 0, as a sum started from +0.0 does
    "negative-zero-callable": (lambda: negative_zero_source, 1e-6),
}


@pytest.mark.parametrize("mean", [SYM_M, 1.8 * SYM_M], ids=["doubly-stochastic", "row-sums-1.8"])
def test_non_finite_stderr_is_rejected(mean):
    # a NaN stderr makes a NaN tolerance, which every check of the mean passes
    stderr = np.zeros((3, 3))
    stderr[0, 1] = np.nan
    with pytest.raises(InputValidationError, match="non-finite"):
        McEstimate(mean=mean, stderr=stderr, n_samples=10, seed=0)


@pytest.mark.parametrize("R", [100, 2 * CHUNK + 37])
@pytest.mark.parametrize("case", BIT_CASES.values(), ids=BIT_CASES.keys())
def test_bit_identical_to_per_history_loop(case, R):
    source, nu = case
    path = source()
    est = monte_carlo_average(path, nu, 2.0, R, seed=23)
    mean, stderr = ref.average(path, nu, 2.0, R, seed=23)
    assert est.n_samples == R
    np.testing.assert_array_equal(est.mean, mean)
    np.testing.assert_array_equal(est.stderr, stderr)
    want = McEstimate(mean=mean, stderr=stderr, n_samples=R, seed=23)
    text = mc_estimate_to_csv(est, nu=nu, T=2.0)
    assert text == mc_estimate_to_csv(want, nu=nu, T=2.0)
    assert not np.signbit(est.mean).any()


class TestStrata:
    @pytest.mark.parametrize("R", [100, 2 * CHUNK + 37, 20000])
    @pytest.mark.parametrize("lam", [2e-6, 0.5, 2.0, 9.99, 10.0, 30.0, 200.0, 1000.0])
    def test_histories_sum_to_R(self, lam, R):
        strata = _strata(lam, R)
        histories = np.array([n for *_, n in strata])
        assert histories.sum() == R
        assert histories.min() >= FLOOR
        # the weights' lgamma-form exponents, of size lam log(lam), are
        # rounded, so the tolerances grow with it past lam = 30
        scale = max(1.0, lam * math.log(lam) / 110.0)
        weights = np.concatenate([p for _, _, p, _ in strata])
        assert math.exp(-lam) + weights.sum() == pytest.approx(1.0, abs=1e-14 * scale)
        counts = np.concatenate([k + np.arange(len(p)) for _, k, p, _ in strata])
        np.testing.assert_array_equal(counts, np.arange(1, len(counts) + 1))
        pmf = np.exp(np.cumsum(np.log(lam / counts)) - lam)  # p_1, p_2, ...
        np.testing.assert_allclose(weights, pmf, rtol=1e-12 * scale, atol=1e-300)
        # a count with R p_k at or above the floor is single; below those,
        # a single count is one of a few that have room, and the other
        # counts form at most one range below them and one above them
        big = counts[R * weights >= FLOOR]
        single = {k for _, k, p, _ in strata if len(p) == 1}
        ranges = [(k, k + len(p) - 1) for _, k, p, _ in strata if len(p) > 1]
        assert set(big) <= single
        if big.size:
            below = sorted(single - set(big))
            assert below in ([], list(range(1, big[0])))
            assert len(below) <= len(big)
            assert sum(hi < big[0] for _, hi in ranges) <= 1
            assert sum(lo > big[-1] for lo, _ in ranges) <= 1
            assert all(hi < big[0] or lo > big[-1] for lo, hi in ranges)
        else:
            assert [(label, k) for label, k, _, _ in strata] == [("k>=1", 1)]

    @pytest.mark.parametrize("lam, R, histories", [
        (2.0, 20000, [6213, 6213, 4152, 2092, 856, 307, 110, 57]),  # the oracle workload
        (10.0, 20000, [41, 76, 178, 398, 763, 1251, 1773, 2208, 2450, 2450, 2230, 1864,
                       1441, 1039, 703, 452, 279, 169, 104, 68, 63]),  # spin_flip.json
        (3.0, 50000, [7836, 11738, 11738, 8812, 5300, 2666, 1161, 455, 173, 74, 47]),
    ], ids=["oracle", "spin_flip", "random_3level"])
    def test_strata_of_the_shipped_runs_are_pinned(self, lam, R, histories):
        # every count below the last is single, and the last stratum is the
        # range above: the strata, streams and draws of these runs are fixed
        strata = _strata(lam, R)
        last = len(histories)
        labels = [f"k={k}" for k in range(1, last)] + [f"k>={last}"]
        assert [label for label, *_ in strata] == labels
        assert [n for *_, n in strata] == histories

    @pytest.mark.parametrize("R", [100, 2 * CHUNK + 37, 20000])
    def test_tiny_rate_puts_every_history_in_the_tail(self, R):
        (label, k, p, n), = _strata(2e-6, R)
        assert (label, k, n) == ("k>=1", 1, R)
        assert p.sum() == pytest.approx(-math.expm1(-2e-6), rel=1e-12)  # P(k >= 1)
        est = monte_carlo_average(ConstantPath(SYM_M), 1e-6, 2.0, R, seed=3)
        assert est.n_samples == R


def test_constant_source_exact_at_rate_10():
    # every product of a constant source is M^(k+1): the single strata have
    # no variance, and the tail's products all lie within 1e-9 of uniform
    nu, T = 1.0, 10.0
    est = monte_carlo_average(ConstantPath(SYM_M), nu, T, 10000, seed=0)
    w, v = np.linalg.eigh(SYM_M)
    truth = (v * np.exp(nu * (w - 1.0) * T)) @ v.T @ SYM_M
    assert np.abs(est.mean - truth).max() <= 1e-12


def test_long_horizon_on_an_unmixed_source():
    # 0.999 1 + 0.001 Theta_3 is still far from uniform at nu T = 200; the
    # histories go to the counts around the mode, where the weight is
    M = 0.999 * np.eye(3) + 0.001 / 3.0
    exact, _imag = _modal_solve(M, np.zeros((3, 3)), np.eye(3), 1.0, np.array([200.0]))
    start = time.perf_counter()
    est = monte_carlo_average(ConstantPath(M), 1.0, 200.0, 2000, seed=5)
    elapsed = time.perf_counter() - start
    assert (np.abs(est.mean - exact[0]) <= 6.0 * est.stderr).all()
    assert est.stderr.max() < 2e-4
    assert elapsed < 1.0


def test_stderr_of_nearly_equal_products():
    # at nu T = 80 the tail's products agree to about 5e-11: squares summed
    # about zero would cancel to rounding noise, and summed about the
    # stratum's first product they keep the variance of a two-pass sum
    path = random_model(3, 2, seed=0).m_path()
    nu, T, R = 1.0, 80.0, 200
    est = monte_carlo_average(path, nu, T, R, seed=7)
    var = 0.0
    for _, p, reals in ref.strata(nu, T, R, 7):
        x = np.stack([evolve_realization(path, r) for r in reals])
        var = var + p * p * ((x - x.mean(axis=0)) ** 2).sum(axis=0) / (len(x) - 1) / len(x)
    assert (est.stderr > 0.0).all()
    np.testing.assert_allclose(est.stderr, np.sqrt(var), rtol=0.01, atol=0.0)


def random_joint(seed, d=6):
    g = np.random.default_rng(seed).standard_normal((d, d, 2)) @ [1.0, 1.0j]
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


@pytest.mark.parametrize("T", [2.0, 10.0])
def test_coverage_against_exact_bath_solution(monkeypatch, T):
    # 40 seeds on a 3x2 bath model against its exact state-space solution:
    # at least 99 % of entries within 3 stderr, and the stderr is the scale
    # of the error (root-mean-square z), not an inflated bound
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import exact

    joint = random_joint(1957)
    model = BathModel.from_joint_generator(joint, 3, 2)
    want = exact.BathSolution(joint, 3, 2).mbar_at(1.0, np.array([T]))[-1]
    z = []
    for seed in range(40):
        est = monte_carlo_average(model, 1.0, T, 2000, seed)
        z.append((est.mean - want) / est.stderr)
    z = np.abs(np.array(z))
    assert (z <= 3.0).mean() >= 0.99
    assert 0.6 <= np.sqrt((z * z).mean()) <= 1.4
