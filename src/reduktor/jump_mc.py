"""Direct Monte Carlo simulation of the stochastic-reduction process.

Each history draws reduction instants from a Poisson process on [0, T]
(count first, then sorted uniform positions, so there is no
time-discretization bias), composes the matrix evolution over the
inter-event gaps, and the histories are averaged entrywise.  This is the
discretization-free oracle against which the quadrature solvers are
validated.

Evaluation is batched.  The gaps of BATCH consecutive histories go to one
``many`` call of the source, histories with the same number of gaps are
multiplied together as stacked products, and the batch's products are
checked for double stochasticity in one pass.  ``evolve_realization`` is
the one-history case of the same product routine.

Determinism contract: history r uses its own counter-based random stream
keyed by (seed, r): one generator per call, reset before each history to
the fresh state of that key, so the draws are those of a new generator.
Within each fixed chunk of CHUNK histories the products are accumulated
from zero in history-index order, and the chunk sums are combined in
chunk order, so results are bit-identical for a given (seed, R).  The
histories run on one thread: the per-history work holds the GIL, so
threads cannot share it out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dstoch import dstoch_residual, validate_dstoch
from .errors import InputValidationError
from .volterra import _matrix_stack, as_path

CHUNK = 2048  # histories per partial sum; fixed, so the summation order is too
BATCH = 64    # histories per path.many call; bounds the batch's working memory


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


def _stream(seed, index):
    """Counter-based random stream for one history."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(index)]))


def _rekeyed_streams(seed):
    """``r -> _stream(seed, r)`` from one generator, reset to key (seed, r),
    counter 0 and an empty buffer; a new Philox per history costs more."""
    gen = _stream(seed, 0)
    fresh = gen.bit_generator.state

    def stream(r):
        fresh["state"]["key"][1] = r
        gen.bit_generator.state = fresh
        return gen
    return stream


def _draw_jumps(nu, T, stream):
    """Sorted reduction instants of one history: count, then positions."""
    k = int(stream.poisson(nu * T)) if nu > 0 else 0
    return np.sort(stream.uniform(0.0, T, size=k)) if k else np.empty(0)


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


def _batch_products(path, nu, T, stream, lo, hi):
    """Evolution products of histories lo..hi-1, shape (hi - lo, n, n).

    One ``np.diff`` of every history's 0, jumps, T laid end to end gives
    the gaps (less the T -> 0 steps), and one ``path.many`` call covers
    them; histories with the same number of gaps are multiplied together
    as stacked products.
    """
    jumps = [_draw_jumps(nu, T, stream(r)) for r in range(lo, hi)]
    counts = np.array([len(j) + 1 for j in jumps])
    starts = np.cumsum(counts) - counts
    edge = np.array([T, 0.0])
    pts = np.concatenate([[0.0]] + [a for j in jumps for a in (j, edge)])[:-1]
    gaps = np.delete(np.diff(pts), starts[1:] + np.arange(len(jumps) - 1))
    mats = _matrix_stack(path, gaps)
    prods = np.empty((hi - lo,) + mats.shape[1:])
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        prods[rows] = _products(mats[starts[rows, None] + np.arange(k)])
    return prods


def _chunk_sums(path, nu, T, stream, lo, hi, product_tol):
    """Entrywise sum and sum of squares over histories lo..hi-1, in index order.

    ``np.add.accumulate`` adds in sequence from zero, where ``sum`` would
    add a 1x1 stack pairwise and move the last bits.
    """
    for start in range(lo, hi, BATCH):
        prods = _batch_products(path, nu, T, stream, start, min(start + BATCH, hi))
        if product_tol is not None:
            res = dstoch_residual(prods)
            bad = np.flatnonzero(~(res <= product_tol))
            if bad.size:
                raise InputValidationError(
                    f"history {start + bad[0]} produced a non-stochastic product "
                    f"(residual {res[bad[0]]:.3e})")
        pairs = np.stack((prods, prods * prods), axis=1)
        head = run[-1:] if start > lo else np.zeros_like(pairs[:1])
        run = np.add.accumulate(np.concatenate((head, pairs)))
    return run[-1, 0], run[-1, 1]


def monte_carlo_average(m, nu, T, R, seed, *, workers=1,
                        product_tol=1e-9) -> McEstimate:
    """Average the composed evolution over R independent histories.

    Deterministic for fixed (seed, R): chunk boundaries are fixed, each
    history has its own keyed stream, and the chunk sums are combined in
    index order.  ``workers`` is accepted for compatibility and ignored.
    """
    if R < 100:
        raise ValueError(f"need at least 100 histories, got {R}")
    if nu < 0 or T <= 0:
        raise ValueError("need nu >= 0 and T > 0")
    path = as_path(m)
    if nu == 0:
        # every history is the bare evolution; the average is exact
        mean = _matrix_stack(path, np.array([T]))[0].copy()
        return McEstimate(mean=mean, stderr=np.zeros_like(mean),
                          n_samples=R, seed=int(seed))
    stream = _rekeyed_streams(seed)
    partials = [_chunk_sums(path, nu, T, stream, lo, min(lo + CHUNK, R), product_tol)
                for lo in range(0, R, CHUNK)]
    total = np.sum(np.stack([p[0] for p in partials]), axis=0)
    total_sq = np.sum(np.stack([p[1] for p in partials]), axis=0)
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
