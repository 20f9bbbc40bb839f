"""Bath models and the doubly stochastic matrices they generate.

A bath model is a Hermitian family of operator blocks B[a, b] acting on an
n-dimensional system, indexed by bath levels a, b = 0..n2-1, together with
a measurement basis.  The joint generator is the Hermitian matrix built
from the blocks; its unitary propagator, cut back into blocks and scaled
by 1/sqrt(n2), is a family of operators A[a, b](t) satisfying the two-sided
normalization sum_ab A A^dag = sum_ab A^dag A = 1.  Squared matrix elements
of the family in the measurement basis give a doubly stochastic matrix
M(t) with M(0) = identity.

A finite bath has finitely many Bohr frequencies w_k - w_l, differences of
the joint generator's eigenvalues, so M(t) is an exact sum of their
exponentials with rank-one residues (``_residues``).  ``BathModel.m_many``
evaluates that realization, two real GEMMs per group of GEMM_ROWS times,
where it costs less than the propagator route (one complex GEMM and a
partial trace per block of times) and its residue table fits in
REALIZATION_BYTES; the choice is made per model from (n, n2) alone, and the
two routes are checked against each other when the model is built.
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
    NumericalError,
)

TOL_HERMITIAN = 1e-12
TOL_UNITARY = 1e-10
TOL_OFFDIAG = 1e-10
M_BLOCK_BYTES = 1 << 18  # working memory of one block of BathModel.m_many
REALIZATION_BYTES = 1 << 21  # the realization's residue table and one GEMM group, at most
TOL_REALIZATION = 1e-12  # agreement of m_many's two routes, checked at build
REALIZATION_CHECK_TIMES = (0.5, 1.7, 4.1)
GEMM_ROWS = 8  # rows of every BLAS product of the realization route


def _bohr_bytes(n, n2):
    """Bytes of an n x n2 model's residue table, and of one time's work arrays.

    The table is (2, P, n^2) floats, P = d (d - 1) / 2 pairs, d = n n2; a
    time takes its d phases, its gathered pairs, their real and imaginary
    parts, and two products.
    """
    d = n * n2
    p = d * (d - 1) // 2
    return 16 * p * n * n, 16 * d + 64 * p + 16 * n * n


def _bohr_wins(n, n2):
    """Whether an n x n2 model's m_many takes the Bohr-frequency route.

    Per time the route costs n^2 d (d - 1) real multiply-adds, d = n n2,
    against the 4 d^3 of the propagator's complex d x d product.  Its pair
    phases and 8-row products take longer per multiply-add, so the line is
    drawn at 3 d^3.  On 2 cores with one BLAS thread (calls of thousands
    of times) that sent 3x1, 2x2, 3x2, 4x2, 6x2, 6x3, 4x4, 6x4 and 8x4 to
    a route 1.3-1.9x as fast as the other, 2x8, 4x8, 2x16, 4x16 and 2x32
    to one 3.4-44x as fast, and 8x1, 12x1, 16x1, 12x2, 16x2 and 16x4 to
    one 1.1-2.4x as fast.  Near the line the routes ran at most 1.15x
    apart: 2x1 and 8x3 (realization, 1.06x and 1.15x as fast as the
    propagator) and 4x1, 6x1, 8x2 and 12x3 (propagator; the realization
    ran 1.06x, 0.98x, 1.12x and 1.03x as fast).

    The route also keeps its residue table and works on GEMM_ROWS times
    at once, and both must fit in REALIZATION_BYTES.  Past that the table
    streams from memory for every group of times (12x4, inside the line,
    ran at 0.8x the propagator's speed), and a large bath would take many
    times the propagator's memory (2x64: 4.7 MB against 0.5 MB).  So 8x8
    and 2x64 take the propagator too, though the realization ran 2.3x and
    63x as fast there.
    """
    d = n * n2
    table, per_time = _bohr_bytes(n, n2)
    return n * n * (d - 1) < 3 * d * d \
        and table + GEMM_ROWS * per_time <= REALIZATION_BYTES


def _residues(g, n, n2):
    """Pairs and residues of M(t) at its Bohr frequencies, from G = g.

    With U[k, l, i] = sum_a G[(a,i),k] conj(G[(a,i),l]) and the rank-one
    residues Y_kl = U_kl (x) conj(U_kl) / n2,
    M(t) = sum_k Y_kk + 2 Re sum_{k<l} e^{-i (w_k - w_l) t} Y_kl.
    Returns the pair indices k < l, the (2, P, n^2) tables 2 Re Y_kl and
    -2 Im Y_kl, and sum_k Y_kk, flattened.
    """
    d = n * n2
    g = g.reshape(n2, n, d).transpose(1, 0, 2)
    u = g.transpose(0, 2, 1) @ g.conj()  # U[k, l, i] at [i, k, l]
    k, l = np.triu_indices(d, 1)
    pairs = u[:, k, l].T
    y = pairs[:, :, None] * pairs[:, None, :].conj()
    w = np.stack([y.real, -y.imag]).reshape(2, -1, n * n) * (2.0 / n2)
    diag = np.diagonal(u, axis1=1, axis2=2).real
    return k, l, w, (diag @ diag.T / n2).ravel()


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
        self._bohr = _bohr_wins(n, n2)
        d = n * n2
        if self._bohr:
            self._k, self._l, self._w, self._y0 = _residues(self._g, n, n2)
            # times per block, a multiple of GEMM_ROWS
            per_time = _bohr_bytes(n, n2)[1]
            self._block = GEMM_ROWS * max(1, M_BLOCK_BYTES // per_time // GEMM_ROWS)
            self._check_routes()
        else:
            # times per m_many block: two complex (block, d, d) stacks
            self._block = max(1, M_BLOCK_BYTES // (32 * d * d))

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

        Times run in blocks of ``self._block`` by one of two routes, chosen
        per model from (n, n2) by ``_bohr_wins``: the Bohr-frequency
        realization (``_bohr_block``, two real GEMMs per group of
        GEMM_ROWS times) or the propagator (``_m_block``, one complex GEMM
        (G e^{-i w t}) @ G^dag per block and a partial trace).  A block's
        work arrays take about M_BLOCK_BYTES = 256 KiB, small enough to stay
        in a core's L2 cache, or the smallest block's worth, if larger: one
        time on the propagator route, one group on the realization, within
        REALIZATION_BYTES with the table.  A short call works on its own
        times, padded to a whole group on the realization.  The output is
        the only array that grows with len(ts), and a time's value does not
        depend on the rest of the batch.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.empty((len(ts), self.n, self.n))
        block = self._bohr_block if self._bohr else self._m_block
        for lo in range(0, len(ts), self._block):
            block(ts[lo:lo + self._block], out[lo:lo + self._block])
        return out

    def _m_block(self, ts, out):
        """Write M(t) for one block of times into out (the stacks die on return).

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
        out /= n2

    def _check_routes(self):
        """Raise NumericalError unless the two routes agree at a few times."""
        ts = np.array(REALIZATION_CHECK_TIMES)
        got, want = np.empty((2, len(ts), self.n, self.n))
        self._bohr_block(ts, got)
        self._m_block(ts, want)
        dev = float(np.abs(got - want).max())
        if not dev <= TOL_REALIZATION:
            raise NumericalError(
                f"Bohr-frequency realization of M(t) deviates from the propagator by "
                f"{dev:.3e} (tolerance {TOL_REALIZATION:g})")

    def _bohr_block(self, ts, out):
        """Write M(t) for at most ``self._block`` times into out from the residues.

        The pair phases p_kl = e^{-i w_k t} conj(e^{-i w_l t}) go into
        Re p and Im p, each a contiguous array of P columns, and M(t) is
        Re p @ _w[0] + Im p @ _w[1] + sum_k Y_kk.  A time's bits must not
        depend on its place in the batch.  So every GEMM has the same
        shape: the rows go through them in groups of GEMM_ROWS, one BLAS
        product per group (a stacked matmul), the unused rows of the last
        group zero.  One row would make a GEMM a matrix-vector product, and
        other row counts other BLAS kernels, with other rounding.  And the
        pair phases are formed by real products and sums, each rounded
        once, where numpy's vectorized complex product rounds the tail of
        an array differently from its body.
        """
        b = len(ts)
        rows = -(-b // GEMM_ROWS) * GEMM_ROWS
        e = np.exp(np.multiply.outer(ts, -1j * self._evals))
        ek = np.take(e, self._k, axis=1)
        el = np.take(e, self._l, axis=1)
        x = np.empty((2, rows, len(self._k)))
        x[:, b:] = 0.0
        re, im = x[0, :b], x[1, :b]
        np.multiply(ek.real, el.real, out=re)
        re += ek.imag * el.imag
        np.multiply(ek.imag, el.real, out=im)
        im -= ek.real * el.imag
        x = x.reshape(2, -1, GEMM_ROWS, len(self._k))
        prod = x[0] @ self._w[0]
        prod += x[1] @ self._w[1]
        np.add(prod.reshape(rows, -1)[:b], self._y0, out=out.reshape(b, -1))
        np.maximum(out, 0.0, out=out)  # a sum of squared moduli; cancellation leaves -eps

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
