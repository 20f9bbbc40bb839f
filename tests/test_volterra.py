import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import mc_reference as ref
from reduktor.dstoch import compression_many, dstoch_residual, theta
from reduktor.errors import (
    GridTooCoarseError,
    KernelNormalizationViolation,
    TailBoundExceededError,
    ValidationFailure,
)
from reduktor.presets import random_model, spin_flip_model
from reduktor.scalar import CosineInput, LiftedPath, PiecewiseInput
from reduktor.volterra import (
    TOL_TAIL,
    TOL_TRAJ,
    ConstantPath,
    Kernel,
    SolverConfig,
    TimeGrid,
    Trajectory,
    _csv_lines,
    _pick_series_order,
    _poisson_law,
    _SmoothPath,
    _validate_nodes,
    derivative_consistency,
    kernel_normalization_residual,
    march_solve,
    march_solve_general,
    neumann_series,
    neumann_series_trajectory,
    poisson_kernel,
    trajectory_to_csv,
)

SYM_M = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])


class OneBadMatrix(_SmoothPath):
    """A path with row sums 1.1 at time t: its node value, or its left limit."""

    def __init__(self, path, t, left=False):
        self.path, self.t, self.at_left = path, t, left

    def many(self, ts):
        out = np.array(self.path.many(ts))
        if not self.at_left:
            out[np.abs(np.asarray(ts) - self.t) < 1e-9] += 0.1 * np.eye(out.shape[-1])
        return out

    def left(self, t):
        out = self.path.left(t)
        return out + 0.1 * np.eye(len(out)) if self.at_left and abs(t - self.t) < 1e-9 else out

    def jump_times(self, t0, t1):
        return self.path.jump_times(t0, t1)


def constant_truth(m, nu, ts):
    """Closed form for a constant input: exp(nu (M - 1) t) @ M by eigh."""
    w, v = np.linalg.eigh(m)
    out = np.empty((len(ts),) + m.shape)
    for k, t in enumerate(ts):
        out[k] = (v * np.exp(nu * (w - 1.0) * t)) @ v.T @ m
    return out


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(2.0, 4)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.h == 0.5

    def test_index_of(self):
        g = TimeGrid(2.0, 4)
        assert g.index_of(1.5) == 3
        with pytest.raises(ValueError):
            g.index_of(1.3)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 5)
        with pytest.raises(ValueError):
            SolverConfig(nu=-0.5, grid=TimeGrid(1.0, 10))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_and_rate(self, value):
        # NaN compares false with every bound, so the checks must reject it outright
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid(value, 10)
        with pytest.raises(ValueError, match="nu"):
            SolverConfig(nu=value, grid=TimeGrid(1.0, 10))


class TestMarch:
    def test_node_zero_is_identity_for_physical_sources(self, generic_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(1.0, 100))
        traj = march_solve(generic_model.m_path(), cfg)
        np.testing.assert_allclose(traj.values[0], np.eye(generic_model.n), atol=1e-12)

    def test_nu_zero_returns_the_input(self, generic_model):
        cfg = SolverConfig(nu=0.0, grid=TimeGrid(2.0, 200))
        traj = march_solve(generic_model.m_path(), cfg)
        sampled = generic_model.m_many(cfg.grid.nodes)
        np.testing.assert_allclose(traj.values, sampled, atol=1e-13)

    def test_constant_uniform_projector_is_fixed(self):
        # the uniform projector annihilates the generator, so the
        # averaged evolution is constant in time
        th = theta(2).entries
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(5.0, 500))
        traj = march_solve(ConstantPath(th), cfg)
        assert np.abs(traj.values - th).max() < 1e-12

    def test_constant_symmetric_closed_form(self):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(5.0, 5000))
        traj = march_solve(ConstantPath(SYM_M), cfg)
        truth = constant_truth(SYM_M, 1.0, cfg.grid.nodes)
        assert np.abs(traj.values - truth).max() < 3e-7

    def test_every_node_doubly_stochastic(self, generic_model):
        cfg = SolverConfig(nu=1.5, grid=TimeGrid(4.0, 400))
        traj = march_solve(generic_model.m_path(), cfg)
        sums_r = traj.values.sum(axis=2)
        sums_c = traj.values.sum(axis=1)
        assert np.abs(sums_r - 1.0).max() < 1e-12
        assert np.abs(sums_c - 1.0).max() < 1e-12
        assert traj.values.min() >= 0.0

    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([2, 3]), n2=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           nu=st.floats(0.1, 4.0), K=st.integers(1, 2000), hnu=st.floats(0.01, 0.5))
    @example(n=3, n2=2, seed=5, nu=1.0, K=2000, hnu=0.5)
    @example(n=2, n2=2, seed=7, nu=2.5, K=1600, hnu=0.45)
    def test_random_bath_stays_doubly_stochastic(self, n, n2, seed, nu, K, hnu):
        # nu T = K h nu reaches 1000; past 709.8 e^{nu T} overflows, so only
        # a march that stays tilted gets there
        cfg = SolverConfig(nu=nu, grid=TimeGrid(K * hnu / nu, K))
        traj = march_solve(random_model(n, n2, seed).m_path(), cfg)
        values = np.array([*traj.values, *traj.left_values.values()])
        assert np.isfinite(values).all()
        assert dstoch_residual(values).max() <= TOL_TRAJ

    def test_compression_bounded_along_trajectory(self, generic_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(6.0, 600))
        traj = march_solve(generic_model.m_path(), cfg)
        assert compression_many(traj.values).max() <= 1.0 + 1e-9

    def test_validation_failure_on_bad_source(self):
        bad = np.array([[0.7, 0.4], [0.4, 0.7]])  # row sums 1.1
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, 100))
        with pytest.raises(ValidationFailure):
            march_solve(ConstantPath(bad), cfg)

    @pytest.mark.parametrize("t, left, node, detail", [
        (0.74, False, 37, "source"), (1.0, True, 50, "source left limit")],
        ids=["node", "left-limit"])
    def test_two_level_source_names_its_bad_node(self, t, left, node, detail):
        # a 2 x 2 march lifts a doubly stochastic output from any source,
        # so the source itself is checked; jumps at nodes 25, 50 and 75
        path = OneBadMatrix(LiftedPath(PiecewiseInput(0.5), 2), t, left)
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, 100))
        with pytest.raises(ValidationFailure) as err:
            march_solve(path, cfg)
        assert err.value.node == node
        assert abs(err.value.residual - 0.1) < 1e-12
        assert str(err.value).endswith(": " + detail)

    def test_general_two_level_source_names_its_bad_node(self):
        path = OneBadMatrix(LiftedPath(CosineInput(), 2), 0.74)
        with pytest.raises(ValidationFailure) as err:
            march_solve_general(path, poisson_kernel(1.0), TimeGrid(2.0, 100))
        assert err.value.node == 37
        assert str(err.value).endswith(": source")

    def test_validation_names_first_non_finite_node(self):
        values = np.broadcast_to(SYM_M, (12, 3, 3)).copy()
        values[5, 1, 2] = values[9, 0, 0] = np.nan
        with pytest.raises(ValidationFailure) as err:
            _validate_nodes(values, 1e-9)
        assert err.value.node == 5
        assert err.value.residual == np.inf

    def test_nu_elimination_rescaling(self, generic_model):
        # solving with (M(t), nu) equals solving with (M(s t), s nu) on the
        # compressed grid, node for node
        path = generic_model.m_path()
        base = march_solve(path, SolverConfig(nu=2.0, grid=TimeGrid(4.0, 800)))

        class Scaled:
            def __call__(self, t):
                return path(2.0 * t)

            def many(self, ts):
                return path.many(2.0 * np.asarray(ts))

            def left(self, t):
                return self(t)

            def jump_times(self, t0, t1):
                return np.empty(0)

        scaled = march_solve(Scaled(), SolverConfig(nu=4.0, grid=TimeGrid(2.0, 800)))
        assert np.abs(scaled.values - base.values).max() < 1e-8


class TestSeries:
    def test_nu_zero_is_bare_evolution(self, generic_model):
        cfg = SolverConfig(nu=0.0, grid=TimeGrid(2.0, 100))
        res = neumann_series(generic_model.m_path(), cfg, 2.0)
        truth = generic_model.m_many(np.array([2.0]))[0]
        np.testing.assert_allclose(res.value.entries, truth, atol=1e-12)
        assert res.n_terms == 0

    def test_constant_input_closed_form(self):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, 2000))
        res = neumann_series(ConstantPath(SYM_M), cfg, 2.0)
        truth = constant_truth(SYM_M, 1.0, np.array([2.0]))[0]
        assert np.abs(res.value.entries - truth).max() < 1e-6

    def test_matches_march(self, generic_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, 500))
        traj = march_solve(generic_model.m_path(), cfg)
        res = neumann_series(generic_model.m_path(), cfg, 2.0)
        assert np.abs(res.value.entries - traj.final).max() < 1e-6

    def test_truncation_and_grid_guards(self, generic_model):
        with pytest.raises(GridTooCoarseError):
            neumann_series(generic_model.m_path(),
                           SolverConfig(nu=1.0, grid=TimeGrid(2.0, 3)), 2.0)
        with pytest.raises(TailBoundExceededError):
            neumann_series(generic_model.m_path(),
                           SolverConfig(nu=1.0, grid=TimeGrid(2.0, 200), n_max=1), 2.0)

    def test_tail_bound_reported(self, generic_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, 200))
        res = neumann_series(generic_model.m_path(), cfg, 2.0)
        assert 0.0 <= res.tail_bound <= 1e-10


class TestPoissonTail:
    """The Poisson law and its tails, checked against decimal and scipy as oracles."""

    @pytest.mark.parametrize("mu", [0.5, 2.0, 30.0, 200.0, 1000.0])
    def test_law_is_exact_to_rounding(self, mu):
        first, p = _poisson_law(mu)
        assert abs(p.sum() - 1.0) <= 2e-16
        want = ref.poisson_pmf(mu, range(first, first + len(p)))
        np.testing.assert_allclose(p, want, rtol=1e-14, atol=0.0)

    def test_zero_mean_is_the_count_zero(self):
        first, p = _poisson_law(0.0)
        assert first == 0 and p.tolist() == [1.0]

    @settings(max_examples=300, deadline=None)
    @given(mu=st.floats(0.0, 1000.0, exclude_min=True), data=st.data())
    def test_sf_matches_scipy(self, mu, data):
        k = data.draw(st.integers(0, int(mu + 60)))
        # the law leaves out the terms below 2**-60 of the mode's, which
        # bounds the error of a tail near its end (and sets one past it to 0)
        left_out = 2.0 ** -56 * _poisson_law(mu)[1].max()
        assert _pick_series_order(mu, 1.0, k, 1.0)[1] == pytest.approx(
            float(stats.poisson.sf(k, mu)), rel=1e-11, abs=left_out)

    def test_series_order_matches_scipy_pick(self):
        def pick(mu, tol):
            k = max(1, math.ceil(mu))
            while stats.poisson.sf(k, mu) > tol:
                k += 1
            return k

        for mu in np.linspace(0.02, 60.0, 151):
            for tol in (1e-6, 1e-10, 1e-12, 1e-14):
                assert _pick_series_order(mu, 1.0, None, tol)[0] == pick(mu, tol)

    def test_series_orders_are_pinned(self):
        # the orders the lgamma-form tails gave, so no series output moves
        mus = (2.0, 3.0, 10.0, 1000.0)
        assert [_pick_series_order(mu, 1.0, None, TOL_TAIL)[0] for mu in mus] == [16, 19, 36, 1208]

    def test_explicit_order_past_the_law_has_no_tail(self):
        first, p = _poisson_law(2.0)
        assert _pick_series_order(2.0, 1.0, first + len(p), 0.0) == (first + len(p), 0.0)

    def test_explicit_order_below_mean(self):
        # an explicit n_max below nu*T sums the tail across the mode
        _, tail = _pick_series_order(4.0, 10.0, 30, 1.0)
        assert tail == pytest.approx(float(stats.poisson.sf(30, 40.0)), rel=1e-11)


class TestSchemeConvergence:
    def test_march_order_two_against_closed_form(self):
        errs = []
        for steps in (500, 1000):
            cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, steps))
            traj = march_solve(ConstantPath(SYM_M), cfg)
            truth = constant_truth(SYM_M, 1.0, cfg.grid.nodes)
            errs.append(np.abs(traj.values - truth).max())
        assert errs[0] / errs[1] >= 3.5

    def test_march_and_series_share_the_discretization(self, generic_model):
        # both routes apply the same discrete operator, so their gap is
        # the geometric truncation tail, far below the quadrature error,
        # at every resolution
        for steps in (250, 500):
            cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0, steps))
            traj = march_solve(generic_model.m_path(), cfg)
            series = neumann_series_trajectory(generic_model.m_path(), cfg)
            assert np.abs(series.values - traj.values).max() < 1e-9


class TestGeneralKernel:
    def test_poisson_kernel_reproduces_march(self, generic_model):
        grid = TimeGrid(5.0, 1000)
        march = march_solve(generic_model.m_path(), SolverConfig(nu=1.0, grid=grid))
        gen = march_solve_general(generic_model.m_path(), poisson_kernel(1.0), grid)
        assert np.abs(gen.values - march.values).max() < 1e-10

    def test_trivial_kernel_returns_input(self, generic_model):
        triv = Kernel(a=lambda T: np.ones_like(np.asarray(T, dtype=float)),
                      b=lambda t, T: np.zeros_like(np.asarray(t, dtype=float)))
        grid = TimeGrid(3.0, 300)
        traj = march_solve_general(generic_model.m_path(), triv, grid)
        np.testing.assert_allclose(traj.values, generic_model.m_many(grid.nodes),
                                   atol=1e-12)

    def test_rational_kernel_output_doubly_stochastic(self, generic_model):
        rat = Kernel(a=lambda T: 1.0 / (1.0 + np.asarray(T, dtype=float)),
                     b=lambda t, T: np.ones_like(np.asarray(t, dtype=float)) / (1.0 + T))
        grid = TimeGrid(4.0, 400)
        traj = march_solve_general(generic_model.m_path(), rat, grid)
        assert np.abs(traj.values.sum(axis=2) - 1.0).max() < 1e-12
        assert np.abs(traj.values.sum(axis=1) - 1.0).max() < 1e-12

    def test_broken_kernel_rejected(self, generic_model):
        pk = poisson_kernel(1.0)
        broken = Kernel(a=pk.a, b=lambda t, T: 1.1 * pk.b(t, T))
        with pytest.raises(KernelNormalizationViolation):
            march_solve_general(generic_model.m_path(), broken, TimeGrid(3.0, 300))

    def test_constant_b_may_be_a_number(self, generic_model):
        # b's value is broadcast to the shape of the times, in the
        # normalization check and in the march alike
        grid = TimeGrid(3.0, 300)
        number = Kernel(a=lambda T: 1.0 - np.asarray(T, dtype=float) / 4.0,
                        b=lambda t, T: 0.25)
        array = Kernel(a=number.a, b=lambda t, T: 0.25 + 0.0 * np.asarray(t, dtype=float))
        assert kernel_normalization_residual(number, 3.0, 100) == \
            kernel_normalization_residual(array, 3.0, 100)
        got = march_solve_general(generic_model.m_path(), number, grid)
        want = march_solve_general(generic_model.m_path(), array, grid)
        np.testing.assert_array_equal(got.values, want.values)


class TestKernelNormalization:
    def test_poisson_kernel_residual(self):
        res = kernel_normalization_residual(poisson_kernel(1.0), 3.0, 1000)
        assert res < 1e-8

    def test_trivial_kernel_exact(self):
        triv = Kernel(a=lambda T: np.ones_like(np.asarray(T, dtype=float)),
                      b=lambda t, T: np.zeros_like(np.asarray(t, dtype=float)))
        assert kernel_normalization_residual(triv, 4.0, 100) == 0.0

    def test_broken_kernel_residual_analytic(self):
        pk = poisson_kernel(1.0)
        broken = Kernel(a=pk.a, b=lambda t, T: 1.1 * pk.b(t, T))
        res = kernel_normalization_residual(broken, 3.0, 2000)
        assert res == pytest.approx(0.1 * (1.0 - np.exp(-3.0)), abs=1e-8)


class TestDerivativeConsistency:
    def test_nu_zero_is_exact(self, generic_model):
        cfg = SolverConfig(nu=0.0, grid=TimeGrid(3.0, 300))
        traj = march_solve(generic_model.m_path(), cfg)
        assert derivative_consistency(generic_model.m_path(), traj, cfg) < 1e-4

    def test_generic_model_residual(self, generic_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(3.0, 300))
        traj = march_solve(generic_model.m_path(), cfg)
        assert derivative_consistency(generic_model.m_path(), traj, cfg) < 5e-3

    def test_residual_decays_second_order(self, generic_model):
        res = []
        for steps in (150, 300):
            cfg = SolverConfig(nu=1.0, grid=TimeGrid(3.0, steps))
            traj = march_solve(generic_model.m_path(), cfg)
            res.append(derivative_consistency(generic_model.m_path(), traj, cfg))
        assert res[0] / res[1] >= 3.0

    def test_constant_input(self):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(3.0, 300))
        traj = march_solve(ConstantPath(SYM_M), cfg)
        assert derivative_consistency(ConstantPath(SYM_M), traj, cfg) < 1e-4

    def test_long_horizon_residual_is_finite(self):
        # nu T = 800: e^{nu t} overflows, so the integral is formed tilted
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(800.0, 16000))
        path = spin_flip_model().m_path()
        traj = march_solve(path, cfg)
        res = derivative_consistency(path, traj, cfg)
        assert np.isfinite(res) and res < 1e-3


class TestCsv:
    def test_header_and_precision(self):
        grid = TimeGrid(1.0, 2)
        values = np.stack([np.eye(2)] * 3)
        text = trajectory_to_csv(Trajectory(grid=grid, values=values))
        lines = text.strip().split("\n")
        assert lines[0] == "t,entry_0_0,entry_0_1,entry_1_0,entry_1_1"
        assert len(lines) == 4
        # 17 significant digits round-trip
        third = float(lines[2].split(",")[0])
        assert third == 0.5

    def test_roundtrip_full_precision(self, generic_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(1.0, 10))
        traj = march_solve(generic_model.m_path(), cfg)
        text = trajectory_to_csv(traj)
        body = np.array([[float(x) for x in line.split(",")]
                         for line in text.strip().split("\n")[1:]])
        parsed = body[:, 1:].reshape(traj.values.shape)
        np.testing.assert_array_equal(parsed, traj.values)

    def test_column_formatter_matches_per_value_formatting(self):
        # one %-format per row writes the same bytes as formatting each value
        awkward = [0.0, -0.0, 0.1, 1.0 / 3.0, 1e-300, 5e-324, -2.5e17, 1e22, np.inf,
                   -np.inf, np.nan, 123456789.123456789]
        t = np.arange(len(awkward)) * 0.1
        block = np.column_stack([awkward, awkward[::-1]])
        want = [",".join(f"{x:.17g}" for x in row)
                for row in zip(t, block[:, 0], block[:, 1])]
        assert _csv_lines(t, block) == want
        assert _csv_lines(np.float64(0.25) * np.ones((1, 1))) == ["0.25"]
