"""Monte Carlo over Poisson event histories, stratified by event count.

The reduction-averaged evolution is a Poisson mixture over the number k of
reductions in [0, T], with weights p_k = exp(-nu T) (nu T)**k / k!:

    Mbar(T) = sum_k p_k E[M(T - t_k) ... M(t_2 - t_1) M(t_1) | k events],

where given k the instants are k sorted uniform points of [0, T], so there
is no time-discretization bias.  This is the oracle against which the
quadrature solvers are validated.  ``monte_carlo_average`` samples the
mixture by strata of k (stratified sampling: Cochran, *Sampling
Techniques*, 3rd ed., 1977, ch. 5).  k = 0 is exact, p_0 M(T), and spends
no history.  Each count k >= 1 with R p_k >= FLOOR is a stratum of its own,
and so are the counts below those if they are few; otherwise they form one
range stratum, and the counts above form another, whose counts are drawn by
inverse CDF from the conditional Poisson law.  The mean is
p_0 M(T) + sum_s p_s m_s and the squared stderr sum_s p_s**2 s_s**2 / R_s,
from the sample mean m_s and variance s_s**2 of the R_s histories of
stratum s, summed about the stratum's first product so that products
agreeing to many digits do not cancel; ``_strata`` sets the strata and the
R_s.  The weights are formed here, in lgamma form, not from the series.

A single count k draws only uniforms, from the counter-based stream
``_stream(seed, k)``: a Philox4x64-10 generator keyed (seed mod 2**64, k),
for any integer seed in [-2**63, 2**64).  The ranges draw their counts,
then their instants, from the one ``_stream(seed, 0)``, the lower range
first.  A history with k events takes the next k uniforms, sorted; its row
of the batch's gap array holds them and T, scaled by T and differenced in
place.  All histories of one count have as many gaps, so each batch of them
whose M(t) stack takes at most BATCH_BYTES is one ``many`` call and one
stacked product, checked for double stochasticity in one pass; a range
goes count by count.  On the ``oracle`` benchmark's 3x2 bath model
(R = 20000, one BLAS thread, 2 cores, quartiles of two runs of 40 paired
repeats), 64 KiB batches took 0.88-0.94 of the time of 32 KiB and 12 KiB
1.11-1.22, with bit-identical results.

Determinism contract: within each stratum the products are accumulated
from zero in history order, in fixed chunks of CHUNK histories whose sums
are combined in chunk order, and the strata are combined in count order
from +0.0, so results are bit-identical for a given (seed, R).  The
histories run on one thread, since the batch work holds the GIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dstoch import dstoch_residual, validate_dstoch
from .errors import InputValidationError
from .volterra import _csv_lines, _matrix_stack, as_path

CHUNK = 2048  # histories per partial sum; fixed, so the summation order is too
FLOOR = 32    # fewest histories in a stratum, and the R p_k that makes count k one
BATCH_BYTES = 1 << 16  # M(t) stack of one path.many call (one history's, if larger)
TOL_PRODUCT = 1e-9  # double stochasticity of every history's product


@dataclass(frozen=True)
class PoissonRealization:
    """Ordered reduction instants strictly inside (0, T)."""

    T: float
    jumps: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.jumps)
        object.__setattr__(self, "jumps", ts)
        if not 0 < self.T < math.inf:  # NaN fails too
            raise InputValidationError(f"horizon T must be positive and finite, got {self.T}")
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
    """Counter-based random stream keyed (seed, index)."""
    key = np.array([_key(seed), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_realization(nu, T, stream) -> PoissonRealization:
    """Draw one Poisson realization: count, then sorted uniform positions."""
    if not (0 <= nu < math.inf and 0 < T < math.inf):  # NaN fails too
        raise ValueError(f"need finite nu >= 0 and T > 0, got nu={nu}, T={T}")
    k = int(stream.poisson(nu * T)) if nu > 0 else 0
    return PoissonRealization(T=float(T), jumps=tuple(np.sort(stream.uniform(0.0, T, size=k))))


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
    """Entrywise mean and standard error of a Monte Carlo average over R histories."""

    mean: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: int

    def __post_init__(self):
        if not np.isfinite(self.stderr).all():  # a NaN tolerance would pass any mean
            raise InputValidationError("Monte Carlo standard error has non-finite entries")
        tol = 3.0 * float(self.stderr.max()) + 1e-9
        validate_dstoch(self.mean, tol_sum=tol, tol_entry=tol)


def _strata(lam, R):
    """Strata of R histories at Poisson mean lam > 0: (label, k, p, histories) each.

    Count k >= 1 is a single stratum when R p_k >= FLOOR; these counts are
    contiguous, as the pmf is unimodal.  The counts below them are single
    too if they are no more and every stratum still gets FLOOR histories,
    else one range; the counts above, to where the law holds < exp(-45),
    are one range.  A range of one count is single.  ``p`` holds the
    weights of counts k, k + 1, ...  Each stratum gets FLOOR histories and a
    share of the rest by weight, rounded by largest remainder.
    """
    ks = range(int(lam + 10.0 * math.sqrt(lam)) + 41)
    p = np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in ks])
    single = [k for k in ks[1:] if R * p[k] >= FLOOR]
    lo, hi = (single[0], single[-1] + 1) if single else (1, 1)
    lo = 1 if lo - 1 <= hi - lo and FLOOR * hi <= R else lo  # few below, and room for them
    edges = sorted({1, *range(lo, hi + 1), len(p)})
    weights = np.array([p[a:b].sum() for a, b in zip(edges, edges[1:])])
    share = (R - FLOOR * len(weights)) * weights / weights.sum()
    histories = FLOOR + np.floor(share).astype(int)
    histories[np.argsort(np.floor(share) - share, kind="stable")[:R - histories.sum()]] += 1
    return [(f"k={a}" if b == a + 1 else f"k>={a}" if b == len(p) else f"k<={b - 1}",
             a, p[a:b], n) for a, b, n in zip(edges, edges[1:], histories.tolist())]


def _counts(p, k, n, stream):
    """(count, histories) pairs, counts increasing, of n draws from p_k, p_k+1, ..."""
    cdf = np.cumsum(p)
    idx = np.searchsorted(cdf, cdf[-1] * stream.random(n), "right")
    return zip(*np.unique(k + np.minimum(idx, len(cdf) - 1), return_counts=True))


def _stratum_sums(path, T, counts, stream, run, label):
    """Entrywise sums of the products x and of (x - s)^2 over one stratum, and s.

    s is the stratum's first product.  ``counts`` holds (count, histories)
    pairs.  The histories go in batches of at most BATCH_BYTES of M(t) stack
    (or one history) within one chunk, each one ``many`` call and one
    stacked product.  The products and the squares are accumulated from
    zero in history order within each chunk, in ``run``, of shape
    (b + 1, 2, n, n) for batches of up to b histories, and the chunk sums in
    chunk order.  ``np.add.accumulate`` adds in sequence, where ``sum``
    would add a 1x1 stack pairwise.
    """
    cap = max(1, BATCH_BYTES // run[0, 0].nbytes)
    total, i, b = 0.0, 0, 0
    for k, n in counts:
        end = i + n
        while i < end:
            if i and i % CHUNK == 0:
                total = total + run[b]
            run[0] = run[b] if i % CHUNK else 0.0
            b = min(max(1, cap // (k + 1)), end - i, CHUNK - i % CHUNK)
            gaps = np.empty((b, k + 1))  # the instants, then T, scaled and differenced
            gaps[:, :k] = np.sort(stream.random((b, k)), axis=1)
            gaps[:, k] = 1.0
            gaps *= T
            gaps[:, 1:] -= gaps[:, :-1]  # numpy reads the overlap as it was
            mats = _matrix_stack(path, gaps.ravel())
            prods = _products(mats.reshape((b, k + 1) + mats.shape[1:]))
            res = dstoch_residual(prods)
            bad = np.flatnonzero(~(res <= TOL_PRODUCT))
            if bad.size:
                raise InputValidationError(
                    f"stratum {label}, history {i + bad[0]} produced a non-stochastic "
                    f"product (residual {res[bad[0]]:.3e})")
            if not i:
                shift = prods[0].copy()
            run[1:b + 1, 0] = prods
            dev = np.subtract(prods, shift, out=run[1:b + 1, 1])
            np.multiply(dev, dev, out=dev)
            np.add.accumulate(run[:b + 1], axis=0, out=run[:b + 1])
            i += b
    return total + run[b], shift


def _check_run(R, seed):
    """Raise ValueError unless ``monte_carlo_average`` takes R histories and the seed."""
    if R < 100:
        raise ValueError(f"need at least 100 histories, got {R}")
    _key(seed)


def monte_carlo_average(m, nu, T, R, seed, *, workers=1) -> McEstimate:
    """Average the composed evolution over R histories, stratified by count.

    Exact for the no-event term p_0 M(T); the R histories go to the strata
    of the counts k >= 1 as the module docstring sets out.  Deterministic
    for fixed (seed, R): each stratum has its own keyed stream, and the sums
    are formed in a fixed order.  ``workers`` is accepted for compatibility
    and ignored.  Each product is checked to be doubly stochastic within
    TOL_PRODUCT; the first that is not raises ``InputValidationError``
    naming its stratum and history.
    """
    _check_run(R, seed)  # before any evaluation
    if not (0 <= nu < math.inf and 0 < T < math.inf):  # NaN fails too
        raise ValueError(f"need finite nu >= 0 and T > 0, got nu={nu}, T={T}")
    path = as_path(m)
    m_T = _matrix_stack(path, np.array([T]))[0]
    if nu == 0:
        # every history is the bare evolution; the average is exact
        return McEstimate(mean=m_T.copy(), stderr=np.zeros_like(m_T),
                          n_samples=R, seed=int(seed))
    ranges = _stream(seed, 0)  # both range strata draw from it, in count order
    run = np.empty((max(1, BATCH_BYTES // m_T.nbytes // 2) + 1, 2) + m_T.shape)
    mean, var = 0.0 + math.exp(-nu * T) * m_T, 0.0
    for label, k, p, n in _strata(nu * T, R):
        stream = _stream(seed, k) if len(p) == 1 else ranges  # a single count draws no count
        counts = [(k, n)] if len(p) == 1 else _counts(p, k, n, stream)
        (total, total_sq), shift = _stratum_sums(path, T, counts, stream, run, label)
        m_s, w = total / n, p.sum()
        mean = mean + w * m_s
        dev = m_s - shift
        var = var + w * w * (np.maximum(total_sq - n * dev * dev, 0.0) / (n - 1)) / n
    return McEstimate(mean=mean, stderr=np.sqrt(var), n_samples=R, seed=int(seed))


def mc_estimate_to_csv(est: McEstimate, *, nu, T) -> str:
    """Mean block then stderr block, with commented metadata headers."""
    meta = [f"# nu={nu:.17g}", f"# T={T:.17g}", f"# histories={est.n_samples}",
            f"# seed={est.seed}"]
    lines = meta + ["# mean"] + _csv_lines(est.mean) + ["# stderr"] + _csv_lines(est.stderr)
    return "\n".join(lines) + "\n"
