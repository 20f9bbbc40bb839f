"""Direct Monte Carlo simulation of the stochastic-reduction process.

Each history draws reduction instants from a Poisson process on [0, T]
(count first, then sorted uniform positions, so there is no
time-discretization bias), composes the matrix evolution over the
inter-event gaps, and the histories are averaged entrywise.  This is the
discretization-free oracle against which the quadrature solvers are
validated.

Determinism contract: history r uses its own counter-based random stream
keyed by (seed, r), and the reduction over histories runs in fixed index
order, so results are bit-identical for a given (seed, R).  The histories
run on one thread: the per-history work holds the GIL, so threads cannot
share it out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dstoch import dstoch_residual, validate_dstoch
from .errors import InputValidationError
from .volterra import as_path

CHUNK = 2048  # histories per partial sum; fixed, so the summation order is too


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


def sample_realization(nu, T, stream) -> PoissonRealization:
    """Draw one Poisson realization: count, then sorted uniform positions."""
    if nu < 0 or T <= 0:
        raise ValueError("need nu >= 0 and T > 0")
    k = int(stream.poisson(nu * T)) if nu > 0 else 0
    times = np.sort(stream.uniform(0.0, T, size=k)) if k else np.empty(0)
    return PoissonRealization(T=float(T), jumps=tuple(times))


def evolve_realization(m, r: PoissonRealization) -> np.ndarray:
    """Ordered product of the evolution over the inter-event gaps.

    The factor for the final gap is applied last (leftmost), so with one
    event at t1 the product is M(T - t1) @ M(t1).
    """
    path = as_path(m)
    gaps = r.gaps
    mats = path.many(np.asarray(gaps))
    out = mats[0]
    for g in mats[1:]:
        out = g @ out
    return out


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


def _chunk_sums(m_path, nu, T, seed, lo, hi, product_tol):
    """Entrywise sum and sum of squares over histories lo..hi-1."""
    total = total_sq = 0.0
    for r in range(lo, hi):
        prod = evolve_realization(m_path, sample_realization(nu, T, _stream(seed, r)))
        if product_tol is not None:
            res = dstoch_residual(prod)
            if res > product_tol:
                raise InputValidationError(
                    f"history {r} produced a non-stochastic product (residual {res:.3e})")
        total += prod
        total_sq += prod * prod
    return total, total_sq


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
        mean = path.many(np.array([T]))[0]
        return McEstimate(mean=mean, stderr=np.zeros_like(mean),
                          n_samples=R, seed=int(seed))
    partials = [_chunk_sums(path, nu, T, seed, lo, min(lo + CHUNK, R), product_tol)
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
