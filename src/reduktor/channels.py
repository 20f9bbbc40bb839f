"""Bath models and the doubly stochastic matrices they generate.

A bath model is a Hermitian family of operator blocks B[a, b] acting on an
n-dimensional system, indexed by bath levels a, b = 0..n2-1, together with
a measurement basis.  The joint generator is the Hermitian matrix built
from the blocks; its unitary propagator, cut back into blocks and scaled
by 1/sqrt(n2), is a family of operators A[a, b](t) satisfying the two-sided
normalization sum_ab A A^dag = sum_ab A^dag A = 1.  Squared matrix elements
of the family in the measurement basis give a doubly stochastic matrix
M(t) with M(0) = identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dstoch import DStochMatrix, validate_dstoch, compression_many
from .volterra import _SmoothPath
from .errors import (
    BlockIndexOutOfRange,
    InputValidationError,
    NonHermitianModelError,
    NonUnitaryBasisError,
)

TOL_HERMITIAN = 1e-12
TOL_UNITARY = 1e-10
TOL_OFFDIAG = 1e-10
M_BLOCK_BYTES = 1 << 18  # working memory of one block of BathModel.m_many


class BathModel(_SmoothPath):
    """System-bath generator blocks plus a measurement basis.

    The model is itself the smooth time path t -> M(t) that the solvers
    consume: ``many`` is ``m_many``.

    Parameters
    ----------
    blocks : complex array of shape (n2, n2, n, n)
        Operator blocks B[a, b]; Hermiticity B[a, b] = B[b, a]^dag is
        required within TOL_HERMITIAN.
    basis : complex (n, n) unitary, optional
        Columns are the measurement basis vectors.  Defaults to the
        computational basis (identity).
    """

    def __init__(self, blocks, basis=None):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape[0] != blocks.shape[1] \
                or blocks.shape[2] != blocks.shape[3]:
            raise NonHermitianModelError(
                f"expected blocks of shape (n2, n2, n, n), got {blocks.shape}")
        n2, n = blocks.shape[0], blocks.shape[2]
        if not np.isfinite(blocks).all():
            raise InputValidationError("bath model blocks have non-finite entries")
        herm_dev = np.abs(blocks - np.conj(blocks.transpose(1, 0, 3, 2))).max()
        if herm_dev > TOL_HERMITIAN:
            raise NonHermitianModelError(
                f"blocks violate B[a,b] = B[b,a]^dag (deviation {herm_dev:.3e})")
        if basis is None:
            basis = np.eye(n, dtype=complex)
        else:
            basis = np.asarray(basis, dtype=complex)
            if not np.isfinite(basis).all():
                raise InputValidationError("measurement basis has non-finite entries")
            dev = np.abs(basis.conj().T @ basis - np.eye(n)).max()
            if dev > TOL_UNITARY:
                raise NonUnitaryBasisError(
                    f"measurement basis is not unitary (deviation {dev:.3e})")
        self.n = n
        self.n2 = n2
        self.blocks = blocks
        self.basis = basis
        joint = blocks.transpose(0, 2, 1, 3).reshape(n * n2, n * n2)
        self._joint = joint
        evals, evecs = np.linalg.eigh(joint)
        self._evals = evals
        self._evecs = evecs
        # Basis-rotated eigenvector matrix: propagator matrix elements in
        # the measurement basis come from G e^{-i w t} G^dag.
        big_basis = np.kron(np.eye(n2), basis)
        self._g = big_basis.conj().T @ evecs
        self._gh = self._g.conj().T
        # times per m_many block: two complex (block, n n2, n n2) stacks
        self._block = max(1, M_BLOCK_BYTES // (32 * (n * n2) ** 2))

    @classmethod
    def from_joint_generator(cls, joint, n, n2, basis=None):
        """Build a model by slicing an (n*n2) x (n*n2) Hermitian matrix."""
        joint = np.asarray(joint, dtype=complex)
        if joint.shape != (n * n2, n * n2):
            raise NonHermitianModelError(
                f"joint generator must be {(n * n2, n * n2)}, got {joint.shape}")
        blocks = joint.reshape(n2, n, n2, n).transpose(0, 2, 1, 3)
        return cls(blocks, basis=basis)

    @property
    def joint_generator(self):
        return self._joint

    def propagator(self, t) -> np.ndarray:
        """Unitary exp(-i * joint * t) via the cached eigendecomposition."""
        v = self._evecs
        return (v * np.exp(-1j * self._evals * t)) @ v.conj().T

    def m_many(self, ts) -> np.ndarray:
        """Evaluate M(t) for a batch of times; returns (len(ts), n, n).

        Times run in blocks of ``self._block``, each one BLAS product
        (G e^{-i w t}) @ G^dag whose two complex (block, n n2, n n2) stacks
        take at most M_BLOCK_BYTES = 256 KiB together (or one time's worth,
        if larger), small enough to stay in a core's L2 cache.  The output
        is the only array that grows with len(ts), and a time's value does
        not depend on the rest of the batch.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), self.n, self.n))
        for lo in range(0, len(ts), self._block):
            self._m_block(ts[lo:lo + self._block], out[lo:lo + self._block])
        out /= self.n2
        return out

    def _m_block(self, ts, out):
        """Write n2 M(t) for one block of times into out (the stacks die on return).

        The partial trace over the bath adds the n2^2 slices [:, a, :, b] of
        the squared moduli to the first in (a, b) row-major order, the order
        in which ``sum(axis=(1, 3))`` adds them, with the same bits.
        """
        n, n2 = self.n, self.n2
        phases = np.exp(-1j * np.outer(ts, self._evals))
        c = (self._g * phases[:, None, :]).reshape(-1, n * n2) @ self._gh
        sq = c.real ** 2
        sq += c.imag ** 2
        sq = sq.reshape(len(ts), n2, n, n2, n)
        out[...] = sq[:, 0, :, 0]
        for ab in range(1, n2 * n2):
            out += sq[:, ab // n2, :, ab % n2]

    many = m_many

    def m_path(self):
        """Time path handle consumed by the solvers: the model itself."""
        return self


@dataclass
class KrausFamily:
    """Operator family A[a, b](t) of shape (n2, n2, n, n) at a fixed time."""

    t: float
    operators: np.ndarray

    def normalization_residual(self) -> float:
        """Deviation of sum_ab A A^dag and sum_ab A^dag A from identity."""
        a = self.operators
        n = a.shape[-1]
        eye = np.eye(n)
        left = np.einsum("abij,abkj->ik", a, a.conj())
        right = np.einsum("abji,abjk->ik", a.conj(), a)
        return float(max(np.abs(left - eye).max(), np.abs(right - eye).max()))


def kraus_at(model: BathModel, t) -> KrausFamily:
    """Propagator blocks scaled by 1/sqrt(n2) at time t.

    At t=0 the family is delta_ab * identity / sqrt(n2); the two-sided
    normalization holds for all t by unitarity of the propagator.
    """
    n, n2 = model.n, model.n2
    u = model.propagator(t)
    ops = u.reshape(n2, n, n2, n).transpose(0, 2, 1, 3) / np.sqrt(n2)
    return KrausFamily(t=float(t), operators=ops)


def m_of_t(model: BathModel, t) -> DStochMatrix:
    """Doubly stochastic matrix of squared propagator matrix elements.

    M[i, j](t) = sum_ab |<i| A[a, b](t) |j>|^2 in the measurement basis.
    M(0) is the identity; it is checked with the ``validate_dstoch`` defaults.
    """
    return validate_dstoch(model.m_many(np.array([float(t)]))[0])


def second_order_matrix(model: BathModel) -> np.ndarray:
    """Second-order short-time coefficient of M(t).

    M(t) = 1 + t^2/2 * M2 + O(t^3) with
    (M2)_jl = (2/n2) * (sum_ab |<j|B[a,b]|l>|^2
                        - delta_jl <j| sum_ac B[a,c] B[c,a] |j>),
    matrix elements taken in the measurement basis.  The associated
    quadratic form is nonpositive on probability vectors.
    """
    b = model.blocks
    v = model.basis
    rotated = np.einsum("ki,abkl,lj->abij", v.conj(), b, v)
    term1 = (np.abs(rotated) ** 2).sum(axis=(0, 1))
    pt = np.einsum("acij,cajk->ik", b, b)
    pt_rot = v.conj().T @ pt @ v
    m2 = term1.astype(float)
    m2[np.diag_indices(model.n)] -= np.real(np.diag(pt_rot))
    return 2.0 / model.n2 * m2


def basis_genericity(model: BathModel, which_block) -> bool:
    """Whether one block has all off-diagonal elements nonzero in the basis.

    True iff every off-diagonal matrix element of B[a, b] expressed in the
    measurement basis exceeds TOL_OFFDIAG in modulus.
    """
    a, b = which_block
    if not (0 <= a < model.n2 and 0 <= b < model.n2):
        raise BlockIndexOutOfRange(
            f"block index {(a, b)} out of range for bath dimension {model.n2}")
    v = model.basis
    rotated = v.conj().T @ model.blocks[a, b] @ v
    off = np.abs(rotated[~np.eye(model.n, dtype=bool)])
    if off.size == 0:
        return True
    return bool(off.min() > TOL_OFFDIAG)


@dataclass
class GenericityReport:
    generic: bool
    witness_t: float | None
    c_min: float


def genericity_check(model: BathModel, t_samples, delta_threshold=0.999) -> GenericityReport:
    """Sample the compression of M(t) and look for a dip below threshold.

    The map is declared generic when some sampled compression is at most
    delta_threshold < 1; the minimizing sample time is returned as a
    witness.
    """
    ts = np.asarray(t_samples, dtype=float)
    if ts.size == 0:
        raise ValueError("need a nonempty sample grid")
    cs = compression_many(model.m_many(ts))
    k = int(np.argmin(cs))
    c_min = float(cs[k])
    generic = c_min <= delta_threshold
    return GenericityReport(generic=generic,
                            witness_t=float(ts[k]) if generic else None,
                            c_min=c_min)
