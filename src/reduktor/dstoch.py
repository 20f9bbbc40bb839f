"""Doubly stochastic matrix core.

A doubly stochastic matrix has nonnegative entries and all row and column
sums equal to one.  This module provides validated construction, the
compression functional (the spectral norm of the restriction to the
zero-sum subspace), block-uniform projectors, the lift a * 1 + (1 - a) *
Theta_n of a number onto the line through the identity and the uniform
projector Theta_n, and a decomposability witness, read off the support
graph, that characterizes matrices of unit compression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ColSumViolation,
    EmptySampleListError,
    InputValidationError,
    InvalidPartitionError,
    NegativeEntryError,
    NotSquareError,
    RowSumViolation,
)

TOL_SUM = 1e-9
TOL_ENTRY = 1e-12
UNIT_COMPRESSION_TOL = 1e-8
TOL_SUPPORT = 1e-8          # entries above it are support_blocks' edges
TOL_WITNESS_SUPPORT = 1e-9  # entries above it are decomposability_witness' edges


class DStochMatrix:
    """Validated doubly stochastic matrix.

    Immutable after construction; the entry array is write-protected so
    instances are safe to share between threads.
    """

    __slots__ = ("entries", "n")

    def __init__(self, raw, tol_sum=TOL_SUM, tol_entry=TOL_ENTRY):
        a = np.array(raw, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if not np.isfinite(a).all():
            raise InputValidationError("matrix has non-finite entries")
        low = a.min()
        if low < -tol_entry:
            idx = tuple(int(i) for i in np.unravel_index(np.argmin(a), a.shape))
            raise NegativeEntryError(idx, float(low), tol_entry)
        rows = a.sum(axis=1)
        bad = np.argmax(np.abs(rows - 1.0))
        if abs(rows[bad] - 1.0) > tol_sum:
            raise RowSumViolation(int(bad), float(rows[bad]), tol_sum)
        cols = a.sum(axis=0)
        bad = np.argmax(np.abs(cols - 1.0))
        if abs(cols[bad] - 1.0) > tol_sum:
            raise ColSumViolation(int(bad), float(cols[bad]), tol_sum)
        # Clamp only entries that are within tolerance of the valid range.
        np.clip(a, 0.0, 1.0, out=a)
        a.setflags(write=False)
        self.entries = a
        self.n = n

    def __repr__(self):
        return f"DStochMatrix(n={self.n})"

    def __array__(self, dtype=None, copy=None):
        if copy is None:  # numpy 1 passes no copy, and its np.array refuses copy=None
            return np.asarray(self.entries, dtype=dtype)
        return np.array(self.entries, dtype=dtype, copy=copy)


def validate_dstoch(raw, tol_sum=TOL_SUM, tol_entry=TOL_ENTRY) -> DStochMatrix:
    """Validate a raw square matrix as doubly stochastic.

    Raises NotSquareError, NegativeEntryError, RowSumViolation or
    ColSumViolation with the offending index and magnitude.
    """
    return DStochMatrix(raw, tol_sum=tol_sum, tol_entry=tol_entry)


def dstoch_residual(raw):
    """Largest violation of the doubly stochastic constraints.

    Accepts one (n, n) matrix, for which it returns a float, or an
    (..., n, n) stack, for which it returns one residual per matrix.  A
    matrix with a non-finite entry has an infinite residual: such an entry
    makes its row sum NaN or infinite, and NaN is mapped to infinity so
    that no ``res > tol`` test can pass it.
    """
    a = np.asarray(raw, dtype=float)
    dev = np.concatenate((a.sum(axis=-1), a.sum(axis=-2)), axis=-1)
    dev -= 1.0
    res = np.maximum(np.abs(dev, out=dev).max(axis=-1), -a.min(axis=(-2, -1)))
    res = np.fmin(res, np.inf)  # fmin ignores NaN, so NaN becomes infinity
    return float(res) if a.ndim == 2 else res


def zero_sum_basis(n) -> np.ndarray:
    """Deterministic orthonormal basis of the zero-sum subspace.

    Helmert construction: column k-1 is (1, ..., 1, -k, 0, ..., 0) with k
    leading ones, normalized.  Bit-reproducible across runs.
    """
    q = np.zeros((n, n - 1))
    for k in range(1, n):
        q[:k, k - 1] = 1.0
        q[k, k - 1] = -float(k)
        q[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return q


def compression(m) -> float:
    """Spectral norm of the matrix restricted to the zero-sum subspace.

    Equals the largest singular value of Q^T M Q where the columns of Q
    are an orthonormal basis of {v : sum v_i = 0}.  Lies in [0, 1] for
    every doubly stochastic matrix; 1 for permutations, 0 for the uniform
    projector.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if n == 1:
        return 0.0
    q = zero_sum_basis(n)
    return float(np.linalg.norm(q.T @ a @ q, 2))


def compression_many(stack) -> np.ndarray:
    """Compression of each matrix in a (k, n, n) stack (batched SVD)."""
    a = np.asarray(stack, dtype=float)
    n = a.shape[-1]
    if n == 1:
        return np.zeros(a.shape[0])
    q = zero_sum_basis(n)
    restricted = np.einsum("pi,kij,jq->kpq", q.T, a, q)
    return np.linalg.svd(restricted, compute_uv=False)[:, 0]


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint index blocks plus an identity sector.

    Blocks must have size >= 2; indices not listed in any block belong to
    the identity sector, on which the limiting projector acts as identity.
    """

    blocks: tuple
    id_sector: tuple = ()

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        ids = tuple(sorted(int(i) for i in self.id_sector))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "id_sector", ids)
        seen = set()
        for b in blocks:
            if len(b) < 2:
                raise InvalidPartitionError(f"block {b} has size < 2")
            if seen & set(b):
                raise InvalidPartitionError("blocks are not disjoint")
            seen |= set(b)
        if seen & set(ids):
            raise InvalidPartitionError("identity sector overlaps a block")

    @property
    def indices(self):
        out = set(self.id_sector)
        for b in self.blocks:
            out |= set(b)
        return out

    def covers(self, n) -> bool:
        return self.indices == set(range(n))


def single_block_partition(n) -> BlockPartition:
    return BlockPartition(blocks=(tuple(range(n)),))


def theta_of(partition: BlockPartition, n) -> DStochMatrix:
    """Blockwise-uniform projector for a partition.

    Uniform entries 1/|block| inside each block, identity on the identity
    sector.  With a single block covering all indices this is the global
    maximal-entropy projector with all entries 1/n.
    """
    if not partition.covers(n):
        raise InvalidPartitionError(
            f"partition covers {sorted(partition.indices)}, expected 0..{n - 1}")
    a = np.zeros((n, n))
    for b in partition.blocks:
        w = 1.0 / len(b)
        for i in b:
            for j in b:
                a[i, j] = w
    for i in partition.id_sector:
        a[i, i] = 1.0
    return DStochMatrix(a)


def theta(n) -> DStochMatrix:
    """Global maximal-entropy projector: all entries 1/n."""
    return theta_of(single_block_partition(n), n)


def lift(a, n):
    """a * 1 + (1 - a) * Theta_n: an (n, n) matrix for a number, a stack for an array.

    Doubly stochastic for every a up to rounding, and nonnegative for a in
    [-1 / (n - 1), 1].  Every 2 x 2 doubly stochastic matrix M is the lift
    of a = 1 - M[0, 1] - M[1, 0].
    """
    a = np.asarray(a, dtype=float)[..., None, None]
    return a * np.eye(n) + (1.0 - a) * theta(n).entries


def perm_matrix(perm) -> np.ndarray:
    """Permutation matrix sending basis vector j to basis vector perm[j]."""
    perm = tuple(perm)
    n = len(perm)
    p = np.zeros((n, n))
    p[perm, range(n)] = 1.0
    return p


def _support_components(a, tol):
    """Connected components of the symmetrized support graph of a matrix."""
    n = a.shape[0]
    adj = (a > tol) | (a.T > tol)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.flatnonzero(adj[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        comps.append(tuple(sorted(comp)))
    return comps


def _partition_from_components(comps) -> BlockPartition:
    blocks = tuple(c for c in comps if len(c) >= 2)
    ids = tuple(sorted(i for c in comps if len(c) == 1 for i in c))
    return BlockPartition(blocks=blocks, id_sector=ids)


def decomposability_witness(m):
    """Find a permutation P making P @ M block-decomposable.

    Returns (perm, BlockPartition) when compression(M) is at least
    1 - UNIT_COMPRESSION_TOL and the support splits; returns None otherwise.
    The witness comes from the connected components of the bipartite
    row/column support graph (entries above TOL_WITNESS_SUPPORT): each
    component's sorted rows are sent onto its sorted columns, so P @ M has
    support only inside the column sets, which form the partition.  A
    component with unequal row and column counts (impossible for a doubly
    stochastic M) gives None.  Unit compression is equivalent to
    decomposability after a permutation, so for exact inputs a witness
    exists exactly when the compression is one.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    if compression(a) < 1.0 - UNIT_COMPRESSION_TOL:
        return None
    bipartite = np.zeros((2 * n, 2 * n))
    bipartite[:n, n:] = a  # rows are nodes 0..n-1, columns n..2n-1
    perm = [0] * n
    blocks = []
    for comp in _support_components(bipartite, TOL_WITNESS_SUPPORT):
        rows = [i for i in comp if i < n]
        cols = [j - n for j in comp if j >= n]
        if len(rows) != len(cols):
            return None
        for i, j in zip(rows, cols):
            perm[i] = j
        blocks.append(tuple(cols))
    if len(blocks) < 2:
        return None
    return tuple(perm), _partition_from_components(sorted(blocks))


def support_blocks(samples) -> BlockPartition:
    """Partition induced by the union of support patterns of the samples.

    Entries above TOL_SUPPORT are treated as edges; the symmetrized graph's
    connected components become blocks, singletons go to the identity
    sector.
    """
    mats = [np.asarray(s, dtype=float) for s in samples]
    if not mats:
        raise EmptySampleListError("need at least one sample matrix")
    n = mats[0].shape[0]
    for s in mats:
        if s.shape != (n, n):
            raise InvalidPartitionError("samples have mismatched dimensions")
    union = np.zeros((n, n))
    for s in mats:
        np.maximum(union, np.abs(s), out=union)
    # Ignore the diagonal: self-loops never join indices.
    np.fill_diagonal(union, 0.0)
    comps = _support_components(union, TOL_SUPPORT)
    return _partition_from_components(comps)
