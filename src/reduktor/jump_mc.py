"""Direct Monte Carlo simulation of the stochastic-reduction process.

Each history draws reduction instants from a Poisson process on [0, T]
(count first, then sorted uniform positions, so there is no
time-discretization bias), composes the matrix evolution over the
inter-event gaps, and the histories are averaged entrywise.  This is the
discretization-free oracle against which the quadrature solvers are
validated.

History r draws from the counter-based stream ``_stream(seed, r)``: a
Philox4x64-10 generator keyed (seed mod 2**64, r), for any integer seed in
[-2**63, 2**64).  The draws are made in bulk, DRAW histories at a time,
with the bits of one fresh generator per history.  For nu T < 10 numpy
counts events by multiplying uniforms, and ``_bulk_jumps`` repeats that
with array operations on the words of ``_philox``, a numpy Philox kernel
evaluated for many keys at once.  From nu T = 10 numpy switches to PTRS,
whose libm and ``loggam`` bits array code does not reproduce, so each
history there draws from one generator reset to its key.  Both draws give
rows of sorted instants padded with T, and one ``np.diff`` gives the gaps.

Evaluation is batched.  The gaps of consecutive histories go to one
``many`` call of the source whose M(t) stack takes at most BATCH_BYTES,
histories with the same number of gaps are multiplied together as stacked
products, and the batch's products are checked for double stochasticity
in one pass.  ``evolve_realization`` is the one-history case of the same
product routine.  BATCH_BYTES trades speed for memory: on a 3x2 bath model
32 KiB batches ran Monte Carlo 15-18 % faster, but raised the peak
resident set of a run by about 0.3 MB, where 12 KiB keeps it at the level
of the older 64-history batches.

Determinism contract: within each fixed chunk of CHUNK histories the
products are accumulated from zero in history-index order, and the chunk
sums are combined in chunk order, so results are bit-identical for a
given (seed, R).  The histories run on one thread: the per-history work
holds the GIL, so threads cannot share it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dstoch import dstoch_residual, validate_dstoch
from .errors import InputValidationError
from .volterra import _matrix_stack, as_path

CHUNK = 2048  # histories per partial sum; fixed, so the summation order is too
DRAW = 512    # histories per bulk draw
BATCH_BYTES = 3 << 12  # M(t) stack of one path.many call (one history's, if larger)
PTRS_RATE = 10.0  # numpy's Poisson draw switches from products of uniforms to PTRS
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # Philox4x64 multipliers
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # Philox4x64 key increments
_LO, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


@dataclass(frozen=True)
class PoissonRealization:
    """Ordered reduction instants strictly inside (0, T)."""

    T: float
    jumps: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.jumps)
        object.__setattr__(self, "jumps", ts)
        if self.T <= 0:
            raise InputValidationError(f"horizon must be positive, got {self.T}")
        prev = 0.0
        for t in ts:
            if not prev < t < self.T:
                raise InputValidationError(
                    f"jump times must be strictly increasing inside (0, {self.T}), got {ts}")
            prev = t

    @property
    def gaps(self):
        """Waiting times between consecutive events, ending at the horizon."""
        pts = (0.0,) + self.jumps + (self.T,)
        return tuple(b - a for a, b in zip(pts[:-1], pts[1:]))


def _key(seed):
    """First Philox key word, seed mod 2**64, for -2**63 <= seed < 2**64."""
    seed = int(seed)
    if not -2**63 <= seed < 2**64:
        raise ValueError(f"seed must lie in [-2**63, 2**64), got {seed}")
    return seed % 2**64


def _stream(seed, index):
    """Counter-based random stream for one history."""
    key = np.array([_key(seed), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_jumps(nu, T, stream):
    """Sorted reduction instants of one history: count, then positions."""
    k = int(stream.poisson(nu * T)) if nu > 0 else 0
    return np.sort(stream.uniform(0.0, T, size=k)) if k else np.empty(0)


def _mulhilo(a, b):
    """High and low words of the 128-bit products a * b, b a uint64 array."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LO, b >> _32
    cross, cross2 = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> _32) + (cross & _LO) + (cross2 & _LO)
    return a_hi * b_hi + (cross >> _32) + (cross2 >> _32) + (mid >> _32), np.uint64(a) * b


def _philox(key, rs, n_ctr):
    """Philox4x64-10 words of counters 1..n_ctr under keys (key, r), shape
    (len(rs), 4 n_ctr): row i is ``random_raw(4 n_ctr)`` of a fresh
    ``np.random.Philox(key=[key, rs[i]])``."""
    k1 = np.asarray(rs, dtype=np.uint64)[:, None]
    x0 = np.broadcast_to(np.arange(1, n_ctr + 1, dtype=np.uint64), (len(k1), n_ctr))
    x1 = x2 = x3 = np.zeros_like(x0)
    for i in range(10):
        k0 = np.uint64((key + i * _WEYL[0]) % 2**64)
        hi0, lo0 = _mulhilo(_MUL[0], x0)
        hi1, lo1 = _mulhilo(_MUL[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k1 = k1 + np.uint64(_WEYL[1])  # array addition wraps mod 2**64
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(len(k1), 4 * n_ctr)


def _bulk_jumps(nu, T, seed, rs):
    """Counts and T-padded sorted instants of histories rs, for nu T < 10.

    numpy's ``random_poisson_mult`` on each history's doubles
    ``(word >> 11) 2**-53``: the count k is the number of leading running
    products above exp(-nu T), and the instants are T times the next k
    doubles.  Rows whose 2k + 1 doubles run past the words drawn are drawn
    again with twice the counters; the other rows are padded with zeros,
    which keep their counts.
    """
    lam, key = nu * T, _key(seed)
    n_ctr = 2 + int(lam + 4 * math.sqrt(lam)) // 2
    u, short = np.empty((len(rs), 0)), np.ones(len(rs), dtype=bool)
    while short.any():
        u = np.pad(u, ((0, 0), (0, 4 * n_ctr - u.shape[1])))
        u[short] = (_philox(key, rs[short], n_ctr) >> np.uint64(11)) * 2.0**-53
        k = np.count_nonzero(np.multiply.accumulate(u, axis=1) > math.exp(-lam), axis=1)
        short, n_ctr = 2 * k >= u.shape[1], 2 * n_ctr
    lane = np.arange(k.max(initial=0))
    idx = np.minimum(k[:, None] + 1 + lane, u.shape[1] - 1)
    pos = np.where(lane < k[:, None], T * np.take_along_axis(u, idx, axis=1), T)
    return k, np.sort(pos, axis=1)


def _generator_jumps(nu, T, seed, rs):
    """Counts and T-padded sorted instants of histories rs, one generator
    call each: one generator, before history r reset to key (seed, r),
    counter 0 and an empty buffer, draws as ``_stream(seed, r)`` does."""
    gen = _stream(seed, 0)
    fresh = gen.bit_generator.state
    draws = []
    for r in rs:
        fresh["state"]["key"][1] = r
        gen.bit_generator.state = fresh
        draws.append(_draw_jumps(nu, T, gen))
    counts = np.array([len(d) for d in draws])
    jumps = np.full((len(rs), counts.max()), float(T))
    jumps[np.arange(jumps.shape[1]) < counts[:, None]] = np.concatenate(draws)
    return counts, jumps


def sample_realization(nu, T, stream) -> PoissonRealization:
    """Draw one Poisson realization: count, then sorted uniform positions."""
    if nu < 0 or T <= 0:
        raise ValueError("need nu >= 0 and T > 0")
    return PoissonRealization(T=float(T), jumps=tuple(_draw_jumps(nu, T, stream)))


def _products(mats):
    """Ordered products mats[:, -1] @ ... @ mats[:, 0] of a (B, k, n, n) stack."""
    out = mats[:, 0]
    for j in range(1, mats.shape[1]):
        out = mats[:, j] @ out
    return out


def evolve_realization(m, r: PoissonRealization) -> np.ndarray:
    """Ordered product of the evolution over the inter-event gaps.

    The factor for the final gap is applied last (leftmost), so with one
    event at t1 the product is M(T - t1) @ M(t1).
    """
    mats = _matrix_stack(as_path(m), np.asarray(r.gaps))
    return _products(mats[None])[0]


@dataclass
class McEstimate:
    """Entrywise sample mean and standard error over R histories."""

    mean: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: int

    def __post_init__(self):
        tol = 3.0 * float(self.stderr.max()) + 1e-9
        validate_dstoch(self.mean, tol_sum=tol, tol_entry=tol)


def _batch_products(path, counts, gaps):
    """Evolution products of histories with counts[i] events and padded gaps
    rows, shape (len(counts), n, n).

    One ``path.many`` call covers every real gap, and histories with the
    same number of gaps are multiplied together as stacked products.
    """
    n_gaps = counts + 1
    mats = _matrix_stack(path, gaps[np.arange(gaps.shape[1]) < n_gaps[:, None]])
    starts = np.cumsum(n_gaps) - n_gaps
    prods = np.empty((len(counts),) + mats.shape[1:])
    for k in np.unique(n_gaps):
        rows = np.flatnonzero(n_gaps == k)
        prods[rows] = _products(mats[starts[rows, None] + np.arange(k)])
    return prods


def _product_batches(path, nu, T, seed, lo, hi, cap):
    """(first history, products) over histories lo..hi-1 in index order, in
    batches of at most ``cap`` gaps (or one history)."""
    draw = _bulk_jumps if nu * T < PTRS_RATE else _generator_jumps
    for start in range(lo, hi, DRAW):
        counts, jumps = draw(nu, T, seed, np.arange(start, min(start + DRAW, hi)))
        edge = np.full((len(counts), 1), float(T))
        gaps = np.diff(np.concatenate((np.zeros_like(edge), jumps, edge), axis=1), axis=1)
        ends = np.cumsum(counts + 1)  # gaps up to and including each history
        a = 0
        while a < len(counts):  # histories a..b-1: the most that fit in cap
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] - 1 + cap, "right")))
            yield start + a, _batch_products(path, counts[a:b], gaps[a:b])
            a = b


def _chunk_sums(batches, product_tol):
    """Entrywise sum and sum of squares over one chunk's batches, in index order.

    ``np.add.accumulate`` adds in sequence from zero, where ``sum`` would
    add a 1x1 stack pairwise and move the last bits.
    """
    run = None
    for start, prods in batches:
        if product_tol is not None:
            res = dstoch_residual(prods)
            bad = np.flatnonzero(~(res <= product_tol))
            if bad.size:
                raise InputValidationError(
                    f"history {start + bad[0]} produced a non-stochastic product "
                    f"(residual {res[bad[0]]:.3e})")
        pairs = np.stack((prods, prods * prods), axis=1)
        head = np.zeros_like(pairs[:1]) if run is None else run[-1:]
        run = np.add.accumulate(np.concatenate((head, pairs)))
    return run[-1, 0], run[-1, 1]


def monte_carlo_average(m, nu, T, R, seed, *, workers=1,
                        product_tol=1e-9) -> McEstimate:
    """Average the composed evolution over R independent histories.

    Deterministic for fixed (seed, R): chunk boundaries are fixed, each
    history has its own keyed stream, and the chunk sums are combined in
    chunk order.  ``workers`` is accepted for compatibility and ignored.
    """
    if R < 100:
        raise ValueError(f"need at least 100 histories, got {R}")
    if nu < 0 or T <= 0:
        raise ValueError("need nu >= 0 and T > 0")
    _key(seed)  # an out-of-range seed fails before any evaluation
    path = as_path(m)
    m_T = _matrix_stack(path, np.array([T]))[0]
    if nu == 0:
        # every history is the bare evolution; the average is exact
        return McEstimate(mean=m_T.copy(), stderr=np.zeros_like(m_T),
                          n_samples=R, seed=int(seed))
    cap = max(1, BATCH_BYTES // m_T.nbytes)
    total = total_sq = 0.0
    for lo in range(0, R, CHUNK):
        batches = _product_batches(path, nu, T, seed, lo, min(lo + CHUNK, R), cap)
        part, part_sq = _chunk_sums(batches, product_tol)
        total, total_sq = total + part, total_sq + part_sq
    mean = total / R
    var = np.maximum(total_sq - R * mean * mean, 0.0) / (R - 1)
    stderr = np.sqrt(var / R)
    return McEstimate(mean=mean, stderr=stderr, n_samples=R, seed=int(seed))


def mc_estimate_to_csv(est: McEstimate, *, nu=None, T=None) -> str:
    """Mean block then stderr block, with commented metadata headers."""
    meta = [f"# histories={est.n_samples}", f"# seed={est.seed}"]
    if nu is not None:
        meta.insert(0, f"# nu={nu:.17g}")
    if T is not None:
        meta.insert(1, f"# T={T:.17g}")
    lines = meta + ["# mean"]
    for row in est.mean:
        lines.append(",".join(f"{x:.17g}" for x in row))
    lines.append("# stderr")
    for row in est.stderr:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"
