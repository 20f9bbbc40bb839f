import itertools
import warnings

import numpy as np
import pytest

from reduktor.dstoch import (
    BlockPartition,
    DStochMatrix,
    compression,
    compression_many,
    decomposability_witness,
    dstoch_residual,
    perm_matrix,
    single_block_partition,
    support_blocks,
    theta,
    theta_of,
    validate_dstoch,
)
from reduktor.errors import (
    EmptySampleListError,
    InputValidationError,
    InvalidPartitionError,
    NegativeEntryError,
    NotSquareError,
    RowSumViolation,
)
from reduktor.presets import random_model

from dstoch_reference import exhaustive_witness


def assert_witness_splits(m, witness, support_tol=1e-9):
    """perm is a permutation, the partition covers every index, and
    perm_matrix(perm) @ m has no support between two of its parts."""
    perm, part = witness
    n = m.shape[0]
    assert sorted(perm) == list(range(n))
    assert part.covers(n)
    comps = list(part.blocks) + [(i,) for i in part.id_sector]
    assert len(comps) >= 2
    label = np.empty(n, dtype=int)
    for k, c in enumerate(comps):
        label[list(c)] = k
    pm = perm_matrix(perm) @ m
    across = label[:, None] != label[None, :]
    assert np.abs(pm[across]).max(initial=0.0) <= support_tol


def random_dstoch(rng, n, n_perms=4):
    """Random convex combination of permutation matrices."""
    weights = rng.random(n_perms)
    weights /= weights.sum()
    out = np.zeros((n, n))
    for w in weights:
        out += w * perm_matrix(rng.permutation(n))
    return out


class TestValidate:
    def test_identity_accepted(self):
        m = validate_dstoch(np.eye(3), tol_sum=1e-12, tol_entry=1e-12)
        assert m.n == 3
        np.testing.assert_array_equal(m.entries, np.eye(3))

    def test_uniform_accepted(self):
        m = validate_dstoch(np.full((3, 3), 1.0 / 3.0))
        assert m.n == 3

    def test_row_sum_violation_reports_index_and_value(self):
        with pytest.raises(RowSumViolation) as err:
            validate_dstoch(np.array([[0.9, 0.0], [0.0, 1.0]]))
        assert err.value.index == 0
        assert err.value.value == pytest.approx(0.9)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_dstoch(np.ones((2, 3)) / 3.0)

    def test_negative_entry(self):
        bad = np.array([[1.1, -0.1], [-0.1, 1.1]])
        with pytest.raises(NegativeEntryError):
            validate_dstoch(bad)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            m = np.array([[bad, 0.5], [0.5, 0.5]])
            assert dstoch_residual(m) == np.inf
            with pytest.raises(InputValidationError):
                validate_dstoch(m)

    def test_residual_of_stack(self):
        sym = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        stack = np.stack([np.eye(3), sym, 1.5 * sym, 2.0 / 3.0 - np.eye(3)])
        stack = np.concatenate([stack, np.full((1, 3, 3), np.nan)])
        res = dstoch_residual(stack)
        assert res.shape == (5,)
        np.testing.assert_array_equal(res, [dstoch_residual(m) for m in stack])
        assert res[-1] == np.inf
        assert isinstance(dstoch_residual(stack[0]), float)
        assert dstoch_residual(stack.reshape(5, 1, 3, 3)).shape == (5, 1)

    def test_residual_of_negative_entry(self):
        # every row and column sums to one; only the entries -1/3 are off
        m = 2.0 / 3.0 - np.eye(3)
        assert dstoch_residual(m) == pytest.approx(1.0 / 3.0, abs=1e-15)
        np.testing.assert_array_equal(dstoch_residual(np.stack([np.eye(3), m])),
                                      [0.0, dstoch_residual(m)])

    def test_tiny_negative_clamped(self):
        m = validate_dstoch(np.array([[1.0 + 1e-13, -1e-13], [-1e-13, 1.0 + 1e-13]]))
        assert m.entries.min() == 0.0

    def test_entries_immutable(self):
        m = validate_dstoch(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.5

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1 passes no copy keyword to __array__")
    def test_numpy_2_array_protocol(self):
        # numpy 2 warns when __array__ does not take its copy keyword
        m = theta(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copied = np.array(m)
            shared = np.asarray(m, copy=False)
            DStochMatrix(m)
        copied[0, 0] = 0.0
        assert m.entries[0, 0] == 1.0 / 3.0
        assert np.shares_memory(shared, m.entries)


class TestCompression:
    def test_identity_is_one(self):
        for n in range(2, 7):
            assert compression(np.eye(n)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_is_zero(self):
        for n in range(2, 6):
            assert compression(theta(n)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5])
    def test_two_level_mixing(self, p):
        m = np.array([[1.0 - p, p], [p, 1.0 - p]])
        assert compression(m) == pytest.approx(abs(1.0 - 2.0 * p), abs=1e-12)

    def test_range_on_random_combinations(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            c = compression(random_dstoch(rng, n))
            assert -1e-12 <= c <= 1.0 + 1e-10

    def test_submultiplicative(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = random_dstoch(rng, n)
            b = random_dstoch(rng, n)
            assert compression(a @ b) <= compression(a) * compression(b) + 1e-10

    def test_permutations_have_unit_compression(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = perm_matrix(rng.permutation(n))
            assert compression(p) == pytest.approx(1.0, abs=1e-12)

    def test_batched_matches_scalar(self, rng):
        stack = np.stack([random_dstoch(rng, 4) for _ in range(20)])
        batched = compression_many(stack)
        single = [compression(m) for m in stack]
        np.testing.assert_allclose(batched, single, atol=1e-12)


class TestTheta:
    def test_single_block_is_uniform(self):
        m = theta_of(single_block_partition(3), 3)
        np.testing.assert_allclose(m.entries, np.full((3, 3), 1.0 / 3.0))

    def test_two_blocks(self):
        part = BlockPartition(blocks=((0, 1), (2, 3)))
        m = theta_of(part, 4)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 0.5
        expected[2:, 2:] = 0.5
        np.testing.assert_allclose(m.entries, expected)

    def test_block_plus_identity_sector(self):
        part = BlockPartition(blocks=((0, 1),), id_sector=(2,))
        m = theta_of(part, 3)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(m.entries, expected)

    def test_idempotent_and_null_compression(self):
        part = BlockPartition(blocks=((0, 2), (1, 3, 4)))
        m = theta_of(part, 5).entries
        np.testing.assert_allclose(m @ m, m, atol=1e-14)
        assert compression(theta(6)) <= 1e-12

    def test_partition_validation(self):
        with pytest.raises(InvalidPartitionError):
            BlockPartition(blocks=((0,),))
        with pytest.raises(InvalidPartitionError):
            BlockPartition(blocks=((0, 1), (1, 2)))
        with pytest.raises(InvalidPartitionError):
            theta_of(BlockPartition(blocks=((0, 1),)), 4)


class TestDecomposability:
    def test_identity_goes_to_id_sector(self):
        perm, part = decomposability_witness(np.eye(3))
        assert perm == (0, 1, 2)
        assert part.blocks == ()
        assert part.id_sector == (0, 1, 2)

    def test_visibly_decomposable(self):
        m = np.zeros((4, 4))
        m[:2, :2] = 0.5
        m[2:, 2:] = 0.5
        perm, part = decomposability_witness(m)
        assert perm == (0, 1, 2, 3)
        assert part.blocks == ((0, 1), (2, 3))

    def test_uniform_returns_none(self):
        assert decomposability_witness(theta(3)) is None

    def test_needs_permutation(self):
        # A plain swap is decomposable only after applying its inverse.
        m = perm_matrix((1, 0))
        perm, part = decomposability_witness(m)
        check = perm_matrix(perm) @ m
        assert len(part.blocks) + len(part.id_sector) >= 2
        # the witnessed product must split: no support across components
        comps = list(part.blocks) + [(i,) for i in part.id_sector]
        for a in comps:
            for b in comps:
                if a is not b:
                    assert np.abs(check[np.ix_(a, b)]).max() < 1e-12

    def test_permuted_block_matrix_beyond_exhaustive_reach(self):
        # n = 10: a search over all 10! permutations would be out of reach
        rng = np.random.default_rng(11)
        m = np.zeros((10, 10))
        for lo, hi in ((0, 3), (3, 7), (7, 8), (8, 10)):
            k = hi - lo
            perms = [np.eye(k)[rng.permutation(k)] for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            m[lo:hi, lo:hi] = sum(wk * p for wk, p in zip(w, perms))
        rows, cols = rng.permutation(10), rng.permutation(10)
        m = m[rows][:, cols]
        witness = decomposability_witness(m)
        assert witness is not None
        assert_witness_splits(m, witness)

    def test_connected_support_within_tol_of_unit_compression(self):
        # compression 1 - 6e-9 passes tol = 1e-8, but the support is connected
        eps = 3e-9
        m = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
        assert compression(m) >= 1.0 - 1e-8
        assert exhaustive_witness(m) is None
        assert decomposability_witness(m) is None

    def test_agrees_with_exhaustive_search(self):
        # random convex combinations of permutations, n = 2..6: a witness
        # exists exactly when the exhaustive search finds one, and it
        # splits; the partition itself may differ from the search's
        rng = np.random.default_rng(2024)
        found = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(k))
            m = sum(wk * np.eye(n)[rng.permutation(n)] for wk in w)
            got, want = decomposability_witness(m), exhaustive_witness(m)
            assert (got is None) == (want is None)
            if got is not None:
                assert_witness_splits(m, got)
                found += 1
        assert 50 < found < 300

    def test_agrees_with_compression_on_grid(self):
        # every convex combination of <= 3 permutations of S_3 on a
        # quarter-weight grid: witness exists iff compression is 1
        perms = [perm_matrix(p) for p in itertools.permutations(range(3))]
        for trio in itertools.combinations(range(6), 3):
            for i in range(5):
                for j in range(5 - i):
                    w = (i / 4.0, j / 4.0, (4 - i - j) / 4.0)
                    m = sum(wk * perms[k] for wk, k in zip(w, trio))
                    has_witness = decomposability_witness(m) is not None
                    assert has_witness == (compression(m) >= 1.0 - 1e-8)


class TestSupportBlocks:
    def test_identity_sample(self):
        part = support_blocks([np.eye(4)])
        assert part.blocks == ()
        assert part.id_sector == (0, 1, 2, 3)

    def test_block_sample(self):
        m = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        part = support_blocks([m])
        assert part.blocks == ((0, 1),)
        assert part.id_sector == (2,)

    def test_generic_model_gives_single_block(self):
        model = random_model(2, 2, seed=7)
        samples = model.m_many(np.linspace(0.1, 5.0, 16))
        part = support_blocks(list(samples))
        assert part.blocks == ((0, 1),)
        assert part.id_sector == ()

    def test_empty_list_rejected(self):
        with pytest.raises(EmptySampleListError):
            support_blocks([])

    def test_union_over_samples(self):
        a = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        b = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        part = support_blocks([a, b])
        assert part.blocks == ((0, 1, 2),)
