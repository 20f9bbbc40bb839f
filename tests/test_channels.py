import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla

from reduktor.channels import (
    M_BLOCK_BYTES,
    BathModel,
    basis_genericity,
    genericity_check,
    kraus_at,
    m_of_t,
    second_order_matrix,
)
from reduktor.dstoch import compression, dstoch_residual
from reduktor.errors import (
    BlockIndexOutOfRange,
    NonHermitianModelError,
    NonUnitaryBasisError,
)
from reduktor.presets import SIGMA_X, random_model


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestModelValidation:
    def test_non_hermitian_rejected(self):
        blocks = np.zeros((1, 1, 2, 2), dtype=complex)
        blocks[0, 0] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(NonHermitianModelError):
            BathModel(blocks)

    def test_cross_block_hermiticity(self):
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 1] = SIGMA_X
        blocks[1, 0] = 2.0 * SIGMA_X  # should be SIGMA_X^dag
        with pytest.raises(NonHermitianModelError):
            BathModel(blocks)

    def test_non_unitary_basis_rejected(self):
        with pytest.raises(NonUnitaryBasisError):
            BathModel(SIGMA_X.reshape(1, 1, 2, 2), basis=np.ones((2, 2)))


class TestKraus:
    def test_initial_family(self, generic_model):
        fam = kraus_at(generic_model, 0.0)
        n, n2 = generic_model.n, generic_model.n2
        expected = np.zeros((n2, n2, n, n), dtype=complex)
        for a in range(n2):
            expected[a, a] = np.eye(n) / np.sqrt(n2)
        np.testing.assert_allclose(fam.operators, expected, atol=1e-12)

    def test_bathless_is_plain_propagator(self):
        h = np.array([[1.0, 0.5], [0.5, -0.3]], dtype=complex)
        model = BathModel(h.reshape(1, 1, 2, 2))
        fam = kraus_at(model, 1.3)
        truth = sla.expm(-1j * h * 1.3)
        np.testing.assert_allclose(fam.operators[0, 0], truth, atol=1e-12)

    def test_normalization_residual(self, generic_model):
        assert kraus_at(generic_model, 1.7).normalization_residual() < 1e-9

    def test_against_independent_expm(self, generic_model):
        # oracle: Pade-approximant matrix exponential of the assembled
        # joint generator, sliced into blocks
        t = 1.7
        u = sla.expm(-1j * generic_model.joint_generator * t)
        n, n2 = generic_model.n, generic_model.n2
        fam = kraus_at(generic_model, t)
        for a in range(n2):
            for b in range(n2):
                block = u[a * n:(a + 1) * n, b * n:(b + 1) * n] / np.sqrt(n2)
                np.testing.assert_allclose(fam.operators[a, b], block, atol=1e-11)

    def test_group_property(self, generic_model):
        t, s = 0.8, 1.9
        u_ts = generic_model.propagator(t + s)
        u_t = generic_model.propagator(t)
        u_s = generic_model.propagator(s)
        assert np.abs(u_ts - u_t @ u_s).max() < 1e-9


class TestMOfT:
    def test_zero_time_is_identity(self, generic_model):
        m = m_of_t(generic_model, 0.0)
        np.testing.assert_allclose(m.entries, np.eye(generic_model.n), atol=1e-12)

    def test_eigenbasis_gives_identity_for_all_t(self, identity_model):
        for t in (0.3, 1.0, 7.7):
            m = m_of_t(identity_model, t)
            np.testing.assert_allclose(m.entries, np.eye(identity_model.n), atol=1e-12)

    def test_doubly_stochastic(self, generic_model):
        m = m_of_t(generic_model, 0.5)
        assert dstoch_residual(m.entries) < 1e-9

    def test_direct_summation_oracle(self, generic_model):
        # oracle: loop over all a, b, i, j with explicit matrix elements
        t = 0.5
        fam = kraus_at(generic_model, t)
        basis = generic_model.basis
        n, n2 = generic_model.n, generic_model.n2
        direct = np.zeros((n, n))
        for a in range(n2):
            for b in range(n2):
                op = basis.conj().T @ fam.operators[a, b] @ basis
                for i in range(n):
                    for j in range(n):
                        direct[i, j] += abs(op[i, j]) ** 2
        np.testing.assert_allclose(m_of_t(generic_model, t).entries, direct, atol=1e-12)

    def test_spin_flip_closed_form(self, spin_model):
        for t in (0.3, 0.7, 2.1):
            truth = np.array([[np.cos(t) ** 2, np.sin(t) ** 2],
                              [np.sin(t) ** 2, np.cos(t) ** 2]])
            np.testing.assert_allclose(m_of_t(spin_model, t).entries, truth, atol=1e-12)

    def test_compression_never_exceeds_one(self, generic_model):
        ms = generic_model.m_many(np.linspace(0.0, 6.0, 40))
        for m in ms:
            assert compression(m) <= 1.0 + 1e-10


def rotated_model(n, n2, seed):
    """Random model measured in a random basis."""
    base = random_model(n, n2, seed=seed)
    basis = random_unitary(np.random.default_rng(seed), n)
    return BathModel.from_joint_generator(base.joint_generator, n, n2, basis=basis)


def m_reference(model, t):
    """M(t) from the propagator at one time, without the cached G."""
    n, n2 = model.n, model.n2
    big = np.kron(np.eye(n2), model.basis)
    c = (big.conj().T @ model.propagator(t) @ big).reshape(n2, n, n2, n)
    return (np.abs(c) ** 2).sum(axis=(0, 2)) / n2


def m_reshape_sum(model, ts):
    """m_many with the partial trace taken by one reshape-sum per block."""
    n, n2 = model.n, model.n2
    out = np.empty((len(ts), n, n))
    for lo in range(0, len(ts), model._block):
        t = ts[lo:lo + model._block]
        phases = np.exp(-1j * np.outer(t, model._evals))
        c = (model._g * phases[:, None, :]).reshape(-1, n * n2) @ model._gh
        sq = c.real ** 2
        sq += c.imag ** 2
        out[lo:lo + model._block] = sq.reshape(len(t), n2, n, n2, n).sum(axis=(1, 3))
    out /= n2
    return out


class TestMMany:
    SHAPES = [(2, 1), (3, 2), (8, 4)]

    @pytest.mark.parametrize("n2", [1, 2, 3, 4])
    def test_partial_trace_bits_equal_reshape_sum(self, n2):
        model = rotated_model(3, n2, seed=31 + n2)
        block = model._block
        for length in (block - 1, block, block + 1):
            ts = np.linspace(0.0, 7.0, length)
            np.testing.assert_array_equal(model.m_many(ts), m_reshape_sum(model, ts))

    @pytest.mark.parametrize("n, n2", SHAPES)
    def test_matches_propagator_at_block_edges(self, n, n2):
        model = rotated_model(n, n2, seed=17)
        block = model._block
        for length in (0, 1, block - 1, block, block + 1, 4001):
            ts = np.linspace(0.0, 7.0, length)
            got = model.m_many(ts)
            assert got.shape == (length, n, n)
            want = np.array([m_reference(model, t) for t in ts]).reshape(length, n, n)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n, n2", SHAPES)
    def test_value_independent_of_batch(self, n, n2):
        model = rotated_model(n, n2, seed=23)
        ts = np.linspace(0.0, 7.0, 4001)
        batch = model.m_many(ts)
        block = model._block
        for i in sorted({0, 1, block - 1, block, block + 1, 2 * block + 5, 2000, 4000}):
            if i < len(ts):
                np.testing.assert_array_equal(model.m_many(ts[i:i + 1])[0], batch[i])
                np.testing.assert_array_equal(model.m_many(ts[i:])[0], batch[i])

    def test_block_memory_bounded(self):
        model = rotated_model(8, 4, seed=29)
        ts = np.linspace(0.0, 7.0, 4001)
        model.m_many(ts[:10])
        tracemalloc.start()
        try:
            out = model.m_many(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block's two complex stacks take M_BLOCK_BYTES, its real
        # squares and phases a fraction more
        assert peak <= out.nbytes + 2 * M_BLOCK_BYTES


class TestSecondOrder:
    def test_identity_blocks_give_zero(self):
        blocks = np.zeros((2, 2, 3, 3), dtype=complex)
        blocks[0, 0] = 1.5 * np.eye(3)
        blocks[1, 1] = -0.5 * np.eye(3)
        blocks[0, 1] = 0.7 * np.eye(3)
        blocks[1, 0] = 0.7 * np.eye(3)
        model = BathModel(blocks)
        np.testing.assert_allclose(second_order_matrix(model), 0.0, atol=1e-12)

    def test_matches_richardson_finite_differences(self, generic_model):
        m2 = second_order_matrix(generic_model)

        def fd(h):
            m = generic_model.m_many(np.array([h]))[0]
            return 2.0 * (m - np.eye(generic_model.n)) / h ** 2

        richardson = 2.0 * fd(5e-4) - fd(1e-3)
        np.testing.assert_allclose(m2, richardson, atol=1e-6)

    def test_small_time_expansion_order(self, generic_model):
        m2 = second_order_matrix(generic_model)
        eye = np.eye(generic_model.n)

        def remainder(h):
            m = generic_model.m_many(np.array([h]))[0]
            return np.abs(m - eye - 0.5 * m2 * h ** 2).max()

        order = np.log10(remainder(1e-2) / remainder(1e-3))
        assert order >= 2.7

    def test_quadratic_form_nonpositive(self, rng):
        for seed in range(3):
            model = random_model(3, 2, seed=seed)
            m2 = second_order_matrix(model)
            for _ in range(200):
                p = rng.random(3)
                p /= p.sum()
                assert p @ m2 @ p <= 1e-10


class TestGenericity:
    def test_diagonal_block_not_generic_basis(self):
        blocks = np.diag([1.0, 2.0]).astype(complex).reshape(1, 1, 2, 2)
        model = BathModel(blocks)
        assert basis_genericity(model, (0, 0)) is False

    def test_uniform_offdiagonal_block(self):
        b = np.full((2, 2), 0.3, dtype=complex)
        model = BathModel(b.reshape(1, 1, 2, 2))
        assert basis_genericity(model, (0, 0)) is True

    def test_block_index_out_of_range(self, generic_model):
        with pytest.raises(BlockIndexOutOfRange):
            basis_genericity(generic_model, (0, 5))

    def test_random_bases_almost_surely_generic(self, rng):
        base = random_model(3, 2, seed=9)
        failures = 0
        for _ in range(100):
            model = BathModel(base.blocks, basis=random_unitary(rng, 3))
            failures += not basis_genericity(model, (0, 1))
        assert failures == 0

    def test_eigenbasis_model_not_generic(self, identity_model):
        report = genericity_check(identity_model, np.linspace(0.1, 5.0, 50))
        assert report.generic is False
        assert report.c_min == pytest.approx(1.0, abs=1e-9)

    def test_spin_flip_witness_near_quarter_pi(self, spin_model):
        ts = np.linspace(0.01, 1.5, 300)
        report = genericity_check(spin_model, ts)
        assert report.generic is True
        assert abs(report.witness_t - np.pi / 4.0) < 0.01
        cs = np.abs(np.cos(2.0 * ts))
        sampled = [compression(m) for m in spin_model.m_many(ts[::30])]
        np.testing.assert_allclose(sampled, cs[::30], atol=1e-10)

    def test_random_model_generic(self):
        model = random_model(3, 2, seed=11)
        report = genericity_check(model, np.linspace(0.05, 10.0, 200))
        assert report.generic is True
