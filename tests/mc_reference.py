"""The stratified Monte Carlo estimator, one history at a time.

The same estimator as ``jump_mc.monte_carlo_average``: the library's
allocation (``_strata``) and the same stratum streams, but each history is
drawn on its own as a ``PoissonRealization``, evolved with
``evolve_realization``, and added to plain running sums.  Within a stratum
the sums run over chunks of CHUNK histories, combined in chunk order, and
the strata are combined in count order from +0.0, as the library does.
"""

import math

import numpy as np

from reduktor.dstoch import dstoch_residual
from reduktor.jump_mc import (
    CHUNK,
    PoissonRealization,
    _strata,
    _stream,
    evolve_realization,
)


def strata(nu, T, R, seed):
    """(label, weight, realizations) of each stratum, in the library's order.

    A single count k draws k uniforms per history from stream (seed, k).
    The tail, k >= k_c, draws one uniform per history from stream (seed, 0),
    inverts the conditional Poisson law on it, sorts the counts, then draws
    each history's uniforms in that order.
    """
    k_c, weights, histories, tail = _strata(nu * T, R)
    cdf = np.cumsum(tail)
    for k, p, n in zip(range(1, k_c + 1), weights, histories):
        if k < k_c:
            stream, counts, label = _stream(seed, k), [k] * n, f"k={k}"
        else:
            stream, label = _stream(seed, 0), f"k>={k_c}"
            counts = sorted(k_c + min(int(np.searchsorted(cdf, cdf[-1] * u, "right")),
                                      len(cdf) - 1)
                            for u in stream.random(n))
        yield label, p, [PoissonRealization(T, T * np.sort(stream.random(c))) for c in counts]


def average(path, nu, T, R, seed):
    """Mean and stderr: p_0 M(T) + sum_s p_s m_s, and sum_s p_s^2 s_s^2 / R_s."""
    m_T = evolve_realization(path, PoissonRealization(T, ()))
    mean, var = 0.0 + math.exp(-nu * T) * m_T, 0.0
    for _, p, reals in strata(nu, T, R, seed):
        total = total_sq = 0.0
        for lo in range(0, len(reals), CHUNK):
            part = part_sq = 0.0
            for r in reals[lo:lo + CHUNK]:
                prod = evolve_realization(path, r)
                part = part + prod
                part_sq = part_sq + prod * prod
            total = total + part
            total_sq = total_sq + part_sq
        n = len(reals)
        m_s = total / n
        mean = mean + p * m_s
        var = var + p * p * (np.maximum(total_sq - n * m_s * m_s, 0.0) / (n - 1)) / n
    return mean, np.sqrt(var)


def first_bad_history(path, nu, T, R, seed, tol):
    """(stratum label, history index) of the first product off double
    stochasticity by more than tol, or None."""
    for label, _, reals in strata(nu, T, R, seed):
        for i, r in enumerate(reals):
            if not dstoch_residual(evolve_realization(path, r)) <= tol:
                return label, i
    return None
