import numpy as np
import pytest
from scipy import linalg as sla

from reduktor.dstoch import theta
from reduktor.errors import ValidationFailure, ValueEscapeError
from reduktor.scalar import (
    _COSINE_L,
    _COSINE_Y0,
    ConstantInput,
    CosineInput,
    LiftedPath,
    PiecewiseInput,
    ScalarInput,
    TabulatedInput,
    lift_scalar,
    piecewise_delay_solve,
    scalar_march,
    scalar_trajectory_to_csv,
    trig_ode_solve,
)
from reduktor.volterra import SolverConfig, TimeGrid, Trajectory, _modal_solve, march_solve


class TestInputs:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            ConstantInput(1.2)
        with pytest.raises(ValueError):
            CosineInput(mean=0.5, amplitude=0.7)
        with pytest.raises(ValueError):
            PiecewiseInput(tau=1.0, pattern=(1.0, 1.5))
        with pytest.raises(ValueError, match="string"):  # not read as (1, 0)
            PiecewiseInput(tau=1.0, pattern="10")
        with pytest.raises(ValueError):
            TabulatedInput([0.0, 1.0], [0.5, 1.5])

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_period_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            PiecewiseInput(tau)

    def test_nan_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            CosineInput(mean=nan, amplitude=0.5)
        with pytest.raises(ValueError):
            CosineInput(mean=0.5, amplitude=nan)
        with pytest.raises(ValueError):
            TabulatedInput([0.0, 1.0, 2.0], [1.0, nan, 0.5])
        with pytest.raises(ValueError):
            TabulatedInput([0.0, nan, 2.0], [1.0, 0.5, 0.5])

    def test_piecewise_values_and_limits(self):
        alpha = PiecewiseInput(tau=0.5)
        assert alpha(0.0) == 1.0
        assert alpha(0.49) == 1.0
        assert alpha(0.5) == 0.0
        assert alpha.left(0.5) == 1.0
        assert alpha(0.5) == 0.0
        np.testing.assert_allclose(alpha.jump_times(0.0, 2.0), [0.5, 1.0, 1.5, 2.0])

    def test_tabulated_interpolates(self):
        alpha = TabulatedInput([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert alpha(0.5) == 0.5
        np.testing.assert_allclose(alpha.many([0.0, 1.5]), [0.0, 0.5])


class TestScalarMarch:
    def test_unit_input_is_fixed_point(self):
        traj = scalar_march(ConstantInput(1.0), 1.0, TimeGrid(5.0, 500))
        np.testing.assert_array_equal(traj.values, np.ones(501))

    def test_zero_input_collapses(self):
        traj = scalar_march(ConstantInput(0.0), 1.0, TimeGrid(5.0, 500))
        np.testing.assert_array_equal(traj.values, np.zeros(501))

    def test_non_finite_beta_escapes(self):
        # the [0, 1] check must not let NaN through, which compares false
        class Broken(ScalarInput):
            def many(self, ts):
                return np.where(np.asarray(ts) < 0.5, 0.5, np.nan)

        with pytest.raises(ValueEscapeError) as failure:
            scalar_march(Broken(), 1.0, TimeGrid(1.0, 100))
        assert np.isnan(failure.value.value)

    @pytest.mark.parametrize("nu", [np.nan, np.inf])
    def test_non_finite_rate_is_rejected(self, nu):
        with pytest.raises(ValueError, match="nu"):
            scalar_march(ConstantInput(0.5), nu, TimeGrid(1.0, 100))

    def test_initial_value_matches_input(self):
        traj = scalar_march(CosineInput(), 1.0, TimeGrid(1.0, 100))
        assert traj.values[0] == 1.0

    def test_constant_input_closed_form(self):
        # beta(T) = exp(nu (c - 1) T) * c for a constant input c
        c, nu = 0.6, 1.5
        grid = TimeGrid(4.0, 4000)
        traj = scalar_march(ConstantInput(c), nu, grid)
        truth = np.exp(nu * (c - 1.0) * grid.nodes) * c
        truth[0] = c
        assert np.abs(traj.values - truth).max() < 1e-7

    def test_piecewise_first_two_intervals(self):
        tau, nu = 1.0, 1.0
        grid = TimeGrid(2.0, 4000)
        traj = scalar_march(PiecewiseInput(tau), nu, grid)
        ts = grid.nodes
        first = ts < tau
        assert np.abs(traj.values[first] - 1.0).max() < 1e-8
        second = (ts >= tau) & (ts < 2.0 * tau)
        truth = 1.0 + (nu * tau - nu * ts[second] - 1.0) * np.exp(-nu * tau)
        assert np.abs(traj.values[second] - truth).max() < 1e-8

    def test_jump_log_matches_formula(self):
        # jumps carry the scheme's O(h^2) growth-factor deviation, about
        # exp(t nu^3 h^2 / 12) - 1 relative at these parameters
        tau, nu = 0.5, 2.0
        traj = scalar_march(PiecewiseInput(tau), nu, TimeGrid(3.0, 600))
        assert len(traj.left_values) == 6
        for k, j in enumerate(traj.jump_nodes, start=1):
            t, lo, hi = traj.times[j], traj.left_values[j], traj.values[j]
            assert t == pytest.approx(k * tau)
            assert hi - lo == pytest.approx((-1.0) ** k * np.exp(-nu * k * tau), abs=1e-5)

    def test_jumps_recovered_from_node_values(self):
        # extrapolate one-sided limits from nodes near each jump; this
        # checks the marched values, not the injected jump bookkeeping
        tau, nu = 1.0, 1.0
        grid = TimeGrid(4.0, 8000)
        traj = scalar_march(PiecewiseInput(tau), nu, grid)
        h = grid.h
        for k in (1, 2, 3):
            j = grid.index_of(k * tau)
            left = 3.0 * traj.values[j - 1] - 3.0 * traj.values[j - 2] + traj.values[j - 3]
            right = 3.0 * traj.values[j + 1] - 3.0 * traj.values[j + 2] + traj.values[j + 3]
            jump = right - left
            assert jump == pytest.approx((-1.0) ** k * np.exp(-nu * k * tau), abs=1e-5)

    def test_misaligned_jumps_rejected(self):
        # jumps must sit on grid nodes so no panel straddles one
        with pytest.raises(ValueError):
            scalar_march(PiecewiseInput(tau=1.0 / 3.0), 1.0, TimeGrid(1.0, 100))


def delay_reference(tau, nu, K, per):
    """The method of steps evaluated one node at a time, with each node's interval
    found by its own floor; the final node holds the right limit."""
    from numpy.polynomial import Polynomial

    decay = [(-1.0) ** k * np.exp(-nu * k * tau) for k in range(K + 1)]
    polys = [Polynomial([1.0])]
    for i in range(1, K):
        deriv = Polynomial([0.0])
        for k in range(1, i + 1):
            deriv = deriv + (nu * decay[k]) * polys[i - k]
        polys.append(deriv.integ(1, k=[polys[i - 1](tau) + decay[i]]))
    ts = TimeGrid(t_max=K * tau, steps=K * per).nodes
    beta = np.empty(len(ts))
    for idx, t in enumerate(ts):
        i = min(int(np.floor(t / tau + 1e-12)), K - 1)
        beta[idx] = polys[i](t - i * tau)
    beta[-1] = polys[K - 1](tau) + decay[K]
    return beta, {k * per: float(polys[k - 1](tau)) for k in range(1, K + 1)}


class TestDelaySolve:
    @pytest.mark.parametrize("tau, nu, K, per", [(1.0, 1.0, 10, 400), (1.0 / 3.0, 1.0, 30, 7),
                                                 (0.1, 3.0, 40, 13), (0.8, 1.3, 1, 5)])
    def test_equals_the_node_by_node_evaluation(self, tau, nu, K, per):
        traj = piecewise_delay_solve(tau, nu, K, nodes_per_interval=per)
        beta, left = delay_reference(tau, nu, K, per)
        assert traj.values.tobytes() == beta.tobytes()
        assert traj.left_values == left

    @pytest.mark.parametrize("tau,nu", [(1.0, 1.0), (0.5, 2.0)])
    def test_first_two_intervals_analytic(self, tau, nu):
        traj = piecewise_delay_solve(tau, nu, 6, nodes_per_interval=100)
        ts = traj.times
        first = (ts >= 0) & (ts < tau)
        assert np.abs(traj.values[first] - 1.0).max() < 1e-10
        second = (ts >= tau) & (ts < 2.0 * tau)
        truth = 1.0 + (nu * tau - nu * ts[second] - 1.0) * np.exp(-nu * tau)
        assert np.abs(traj.values[second] - truth).max() < 1e-10

    def test_jump_conditions(self):
        tau, nu = 0.8, 1.3
        traj = piecewise_delay_solve(tau, nu, 6, nodes_per_interval=50)
        for k, j in enumerate(traj.jump_nodes, start=1):
            t, lo, hi = traj.times[j], traj.left_values[j], traj.values[j]
            assert t == pytest.approx(k * tau)
            assert hi - lo == pytest.approx((-1.0) ** k * np.exp(-nu * k * tau), abs=1e-8)

    @pytest.mark.parametrize("tau,nu,named", [(1.0, np.nan, "nu=nan"), (1.0, np.inf, "nu=inf"),
                                              (np.nan, 1.0, "tau=nan"), (np.inf, 1.0, "tau=inf")])
    def test_non_finite_period_or_rate_rejected(self, tau, nu, named):
        with pytest.raises(ValueError, match=named):
            piecewise_delay_solve(tau, nu, 2, nodes_per_interval=4)

    @pytest.mark.parametrize("tau,nu", [(1.0, 1.0), (0.5, 2.0)])
    def test_agrees_with_march(self, tau, nu):
        K = 10
        exact = piecewise_delay_solve(tau, nu, K, nodes_per_interval=400)
        march = scalar_march(PiecewiseInput(tau), nu, exact.grid)
        assert np.abs(exact.values - march.values).max() < 1e-6


COSINE_CASES = [(0.5, 0.5, 1.0), (0.6, -0.3, 0.7), (0.3, 0.2, 3.0), (0.5, 0.5, 2.0),
                (0.5, 0.5, 0.0)]


class TestTrigOde:
    def test_initial_value_exact(self):
        sol = trig_ode_solve(CosineInput(), 1.0, TimeGrid(1.0, 10))
        assert sol.values[0] == 1.0

    def test_agrees_with_march(self):
        grid = TimeGrid(5.0, 5000)
        sol = trig_ode_solve(CosineInput(), 1.0, grid)
        march = scalar_march(CosineInput(), 1.0, grid)
        assert np.abs(sol.values - march.values).max() < 1e-6

    @pytest.mark.parametrize("mean, amplitude, nu", COSINE_CASES[1:])
    def test_agrees_with_march_at_any_rate(self, mean, amplitude, nu):
        grid = TimeGrid(5.0, 5000)
        alpha = CosineInput(mean, amplitude)
        sol = trig_ode_solve(alpha, nu, grid)
        march = scalar_march(alpha, nu, grid)
        assert np.abs(sol.values - march.values).max() < 1e-6

    def test_reconstruction_real(self):
        # the residue trig_ode_solve checks against TOL_IMAG, at a tighter bound
        c = np.array([[0.5, 0.5, 0.0]])  # CosineInput() on the states (1, cos t, sin t)
        _values, imag = _modal_solve(c, _COSINE_L, _COSINE_Y0, 1.0, TimeGrid(5.0, 500).nodes)
        assert imag < 1e-9

    @pytest.mark.parametrize("mean, amplitude, nu", COSINE_CASES)
    def test_matches_matrix_exponential(self, mean, amplitude, nu):
        # beta = c e^{S t} y0 on the states (1, cos t, sin t), with
        # S = L + nu y0 c - nu
        grid = TimeGrid(5.0, 50)
        c, y0 = np.array([mean, amplitude, 0.0]), np.array([1.0, 1.0, 0.0])
        L = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        S = L + nu * np.outer(y0, c) - nu * np.eye(3)
        expected = [c @ sla.expm(S * t) @ y0 for t in grid.nodes]
        sol = trig_ode_solve(CosineInput(mean, amplitude), nu, grid)
        np.testing.assert_allclose(sol.values, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nu", [-1.0, np.nan, np.inf])
    def test_bad_rate_rejected(self, nu):
        with pytest.raises(ValueError, match="nu"):
            trig_ode_solve(CosineInput(), nu, TimeGrid(1.0, 10))

    def test_decays_toward_zero(self):
        # the contraction statistic of the raised cosine is 3/4 < 1, so
        # the envelope of beta must shrink over successive windows
        grid = TimeGrid(30.0, 3000)
        sol = trig_ode_solve(CosineInput(), 1.0, grid)
        window = 500  # 5 time units
        sups = [np.abs(sol.values[k:k + window]).max()
                for k in range(500, 2500, window)]
        assert all(a > b for a, b in zip(sups[:-1], sups[1:]))
        assert sups[-1] < 0.1


class TestLift:
    def test_non_finite_beta_is_rejected(self):
        # NaN fails every comparison, so the check must be one NaN fails
        grid = TimeGrid(1.0, 4)
        traj = Trajectory(grid, np.array([1.0, np.nan, 0.5, 0.5, 0.5]))
        with pytest.raises(ValidationFailure) as err:
            lift_scalar(traj, 3)
        assert err.value.node == 1

    def test_first_negative_node_is_named(self):
        grid = TimeGrid(1.0, 4)
        traj = Trajectory(grid, np.array([1.0, 0.5, 1.5, -1.0, 2.0]))
        with pytest.raises(ValidationFailure) as err:
            lift_scalar(traj, 3)
        assert err.value.node == 2

    def test_extremes(self):
        grid = TimeGrid(1.0, 4)
        ones = scalar_march(ConstantInput(1.0), 0.0, grid)
        traj = lift_scalar(ones, 3)
        np.testing.assert_allclose(traj.values, np.stack([np.eye(3)] * 5), atol=1e-14)
        zeros = scalar_march(ConstantInput(0.0), 1.0, grid)
        traj = lift_scalar(zeros, 3)
        np.testing.assert_allclose(traj.values, np.stack([theta(3).entries] * 5),
                                   atol=1e-14)

    def test_family_closed_under_products(self, rng):
        eye, th = np.eye(4), theta(4).entries
        for _ in range(50):
            a, b = rng.random(2)
            left = (a * eye + (1 - a) * th) @ (b * eye + (1 - b) * th)
            right = a * b * eye + (1 - a * b) * th
            np.testing.assert_allclose(left, right, atol=1e-14)

    @pytest.mark.parametrize("alpha", [
        ConstantInput(0.7),
        CosineInput(),
        PiecewiseInput(0.5),
        TabulatedInput(np.linspace(0, 3, 61), 0.5 + 0.4 * np.sin(np.linspace(0, 3, 61))),
    ])
    def test_scalar_march_equals_matrix_march_of_lift(self, alpha):
        nu = 1.3
        grid = TimeGrid(3.0, 600)
        scalar = scalar_march(alpha, nu, grid)
        matrix = march_solve(LiftedPath(alpha, 3), SolverConfig(nu=nu, grid=grid))
        lifted = lift_scalar(scalar, 3)
        assert np.abs(lifted.values - matrix.values).max() < 1e-9

    @pytest.mark.parametrize("alpha, grid, tol", [
        # the shipped scalar configs' inputs and grids: the 2 x 2 march reads
        # beta = 1 - (1 - alpha), exact at alpha = 0 and 1 and a rounding off elsewhere
        (PiecewiseInput(1.0, (1, 0)), TimeGrid(10.0, 4000), 0.0),
        (CosineInput(0.5, 0.5), TimeGrid(5.0, 5000), 1e-15),
    ], ids=["alternating", "cosine"])
    def test_march_of_the_2x2_lift_is_the_lifted_scalar_march(self, alpha, grid, tol):
        matrix = march_solve(LiftedPath(alpha, 2), SolverConfig(nu=1.0, grid=grid))
        lifted = lift_scalar(scalar_march(alpha, 1.0, grid), 2)
        assert np.abs(matrix.values - lifted.values).max() <= tol
        assert matrix.jump_nodes == lifted.jump_nodes
        for j in lifted.jump_nodes:
            assert np.abs(matrix.left_values[j] - lifted.left_values[j]).max() <= tol

    def test_cosine_lift_matches_full_solver(self):
        grid = TimeGrid(5.0, 2500)
        sol = trig_ode_solve(CosineInput(), 1.0, grid)
        lifted = lift_scalar(sol, 3)
        matrix = march_solve(LiftedPath(CosineInput(), 3),
                             SolverConfig(nu=1.0, grid=grid))
        assert np.abs(lifted.values - matrix.values).max() < 1e-6


class TestCsv:
    def test_jump_sidecar(self):
        traj = scalar_march(PiecewiseInput(1.0), 1.0, TimeGrid(3.0, 300))
        text = scalar_trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,beta"
        sidecar = [ln for ln in lines if ln.startswith("#")]
        assert sidecar[0] == "# jumps"
        assert len(sidecar) == 2 + len(traj.left_values)
