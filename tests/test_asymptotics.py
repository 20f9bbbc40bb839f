import numpy as np
import pytest
from scipy import linalg as sla

from reduktor.asymptotics import (
    convergence_report,
    cyclic_example,
    cyclic_order,
    cyclic_permutation,
    delta_statistic,
    predict_limit,
    rescaling_check,
)
from reduktor.dstoch import compression_many, perm_matrix, theta
from reduktor.errors import NotCyclicOfOrderK, PeriodMismatchError
from reduktor.presets import (
    block_diagonal_model,
    integer_spectrum_model,
    random_model,
)
from reduktor.scalar import ConstantInput, CosineInput, PiecewiseInput, TabulatedInput
from reduktor.volterra import SolverConfig, TimeGrid


class TestDeltaStatistic:
    def test_unit_input(self):
        est = delta_statistic(ConstantInput(1.0))
        assert abs(est.value - 1.0) <= est.error_bound

    def test_zero_input(self):
        est = delta_statistic(ConstantInput(0.0))
        assert est.value == 0.0

    def test_exponential_input(self):
        # alpha(t) = e^{-t} tabulated: integral of e^{-2t} equals 1/2
        ts = np.linspace(0.0, 35.0, 20001)
        alpha = TabulatedInput(ts, np.exp(-ts))
        est = delta_statistic(alpha)
        assert abs(est.value - 0.5) < 1e-6 + est.error_bound

    def test_alternating_input_analytic(self):
        # closed form: (1 - e^{-tau}) / (1 - e^{-2 tau}) = 1 / (1 + e^{-tau})
        tau = 0.8
        est = delta_statistic(PiecewiseInput(tau))
        assert abs(est.value - 1.0 / (1.0 + np.exp(-tau))) < 1e-7

    def test_raised_cosine_analytic(self):
        est = delta_statistic(CosineInput())
        assert abs(est.value - 0.75) < 1e-7


class TestConvergenceReport:
    def test_generic_two_level_converges(self, spin_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(40.0, 2000))
        rep = convergence_report(spin_model.m_path(), 1.0, cfg)
        assert rep.verdict == "converged"
        np.testing.assert_allclose(rep.predicted_limit.entries, theta(2).entries)
        assert rep.final_distance < 1e-3
        # plateau confirmed at a longer horizon
        rep2 = convergence_report(spin_model.m_path(), 1.0,
                                  SolverConfig(nu=1.0, grid=TimeGrid(55.0, 2750)))
        assert rep2.final_distance < 1e-3

    def test_identity_sector_only(self, identity_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(20.0, 800))
        rep = convergence_report(identity_model.m_path(), 1.0, cfg)
        assert rep.verdict == "identity_sector_only"
        assert rep.partition.blocks == ()
        np.testing.assert_allclose(rep.predicted_limit.entries,
                                   np.eye(identity_model.n))

    def test_a_second_rate_is_refused(self, spin_model):
        # the rate of the report and the rate of its solver config must agree
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(4.0, 400))
        with pytest.raises(ValueError, match=r"cfg.nu = 1.0 differs from nu = 2.0"):
            convergence_report(spin_model.m_path(), 2.0, cfg)

    def test_a_scalar_input_is_refused_by_name(self):
        # predict_limit samples a matrix path; a scalar input needs its lift
        with pytest.raises(TypeError, match="LiftedPath"):
            predict_limit(ConstantInput(0.5), 1.0)

    def test_block_model_limit(self):
        model = block_diagonal_model(random_model(2, 2, seed=1),
                                     random_model(2, 2, seed=2))
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(50.0, 2500))
        rep = convergence_report(model.m_path(), 1.0, cfg)
        assert rep.partition.blocks == ((0, 1), (2, 3))
        expected = np.zeros((4, 4))
        expected[:2, :2] = 0.5
        expected[2:, 2:] = 0.5
        np.testing.assert_allclose(rep.predicted_limit.entries, expected)
        assert rep.final_distance < 1e-3

    def test_predicted_limit_idempotent_and_commuting(self, generic_model):
        limit, _ = predict_limit(generic_model.m_path(), 10.0)
        th = limit.entries
        np.testing.assert_allclose(th @ th, th, atol=1e-12)
        for t in np.linspace(0.5, 10.0, 8):
            m = generic_model.m_many(np.array([t]))[0]
            assert np.abs(th @ m - m @ th).max() < 1e-9


class TestCyclic:
    def test_identity_case(self):
        rep = cyclic_example(np.eye(3), 1, 1.0, 5.0)
        expected = np.broadcast_to(np.eye(3), rep.trajectory.values.shape)
        np.testing.assert_allclose(rep.trajectory.values, expected, atol=1e-12)
        np.testing.assert_allclose(rep.limit, np.eye(3))

    def test_three_cycle(self):
        p = cyclic_permutation(3)
        rep = cyclic_example(p, 3, 1.0, 30.0)
        np.testing.assert_allclose(rep.limit, theta(3).entries, atol=1e-14)
        assert rep.limit_residual < 1e-8

    def test_order_validation(self):
        with pytest.raises(NotCyclicOfOrderK):
            cyclic_example(cyclic_permutation(3), 2, 1.0, 5.0)
        assert cyclic_order(cyclic_permutation(5)) == 5
        assert cyclic_order(perm_matrix((1, 0, 3, 2))) == 2

    def test_doubled_permutation_keeps_unit_compression(self):
        p = cyclic_permutation(3)
        doubled = np.block([[p, np.zeros((3, 3))], [np.zeros((3, 3)), p]])
        rep = cyclic_example(doubled, 3, 1.0, 30.0)
        cs = compression_many(rep.trajectory.values[::60])
        np.testing.assert_allclose(cs, 1.0, atol=1e-9)
        assert rep.limit_residual < 1e-8
        # the limit is blockwise uniform, not globally uniform
        expected = np.zeros((6, 6))
        expected[:3, :3] = 1.0 / 3.0
        expected[3:, 3:] = 1.0 / 3.0
        np.testing.assert_allclose(rep.limit, expected, atol=1e-14)

    @pytest.mark.parametrize("k, copies", [(3, 1), (3, 2), (5, 1)])
    def test_matches_matrix_exponential(self, k, copies):
        p = np.kron(np.eye(copies), cyclic_permutation(k))
        rep = cyclic_example(p, k, 1.3, 30.0)
        gen = 1.3 * (p - np.eye(len(p)))
        expected = np.stack([sla.expm(gen * t) @ p for t in rep.trajectory.times])
        np.testing.assert_allclose(rep.trajectory.values, expected, rtol=0, atol=1e-12)

    def test_generator_spectrum(self):
        # nu (P - 1) has nonpositive real parts; the per-cycle ones
        # vectors span the kernel
        for k in (2, 3, 5):
            p = cyclic_permutation(k)
            w = np.linalg.eigvals(1.7 * (p - np.eye(k)))
            assert w.real.max() < 1e-12
            assert np.sum(np.abs(w) < 1e-12) == 1


class TestRescaling:
    def test_identity_rescale_is_exact(self, spin_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(6.0, 1200))
        res = rescaling_check(spin_model.m_path(), 2.0 * np.pi, 1.0, cfg)
        assert res == 0.0

    @pytest.mark.parametrize("tau", [np.pi, 4.0 * np.pi])
    def test_rescaled_runs_agree(self, spin_model, tau):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(6.0, 1200))
        res = rescaling_check(spin_model.m_path(), tau, 1.0, cfg)
        assert res < 1e-7

    def test_residual_stable_under_refinement(self, spin_model):
        # node-aligned grids make the check exact up to roundoff at any
        # resolution, comfortably inside the second-order budget
        for steps in (600, 1200):
            cfg = SolverConfig(nu=1.0, grid=TimeGrid(6.0, steps))
            assert rescaling_check(spin_model.m_path(), np.pi, 1.0, cfg) < 1e-12

    def test_a_second_rate_is_refused(self, spin_model):
        cfg = SolverConfig(nu=5.0, grid=TimeGrid(6.0, 1200))
        with pytest.raises(ValueError, match=r"cfg.nu = 5.0 differs from nu = 1.0"):
            rescaling_check(spin_model.m_path(), np.pi, 1.0, cfg)

    def test_aperiodic_source_rejected(self, generic_model):
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(4.0, 400))
        with pytest.raises(PeriodMismatchError):
            rescaling_check(generic_model.m_path(), np.pi, 1.0, cfg)

    def test_periodic_bath_model(self):
        model = integer_spectrum_model(2, 2, seed=4)
        cfg = SolverConfig(nu=1.0, grid=TimeGrid(2.0 * np.pi, 1200))
        res = rescaling_check(model.m_path(), np.pi, 1.0, cfg)
        assert res < 1e-7
