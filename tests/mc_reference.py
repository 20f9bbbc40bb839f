"""The stratified Monte Carlo estimator, one history at a time.

The same estimator as ``jump_mc.monte_carlo_average``: the library's
allocation (``_strata``) and the same stratum streams, but each history is
drawn on its own as a ``PoissonRealization``, evolved with
``evolve_realization``, and added to plain running sums.  Within a stratum
the sums run over chunks of CHUNK histories, combined in chunk order, and
the strata are combined in count order from +0.0, as the library does.
"""

from decimal import Decimal, localcontext

import numpy as np

from reduktor.dstoch import dstoch_residual
from reduktor.jump_mc import (
    CHUNK,
    PoissonRealization,
    _strata,
    _stream,
    evolve_realization,
)
from reduktor.volterra import _poisson_law


def poisson_pmf(mu, ks):
    """Poisson(mu) weights of the increasing counts ks, in 60-digit decimal arithmetic."""
    out, j = [], 0
    with localcontext() as ctx:
        ctx.prec = 60
        m = Decimal(mu)  # the float's exact value
        log_mu, log_fact = m.ln(), Decimal(0)
        for k in ks:
            while j < k:
                j += 1
                log_fact += Decimal(j).ln()
            out.append(float((k * log_mu - m - log_fact).exp()))
    return np.array(out)


def strata(nu, T, R, seed):
    """(label, weight, realizations) of each stratum, in the library's order.

    A single count k draws k uniforms per history from stream (seed, k).
    A range of counts draws one uniform per history from stream (seed, 0),
    inverts the Poisson law of its counts on it, sorts the counts, then
    draws each history's uniforms in that order.  The range above the single
    counts goes on from where the range below them left that stream.
    """
    ranges = _stream(seed, 0)
    for label, k, p, n in _strata(nu * T, R):
        if len(p) == 1:
            stream, counts = _stream(seed, k), [k] * n
        else:
            stream, cdf = ranges, np.cumsum(p)
            counts = sorted(k + min(int(np.searchsorted(cdf, cdf[-1] * u, "right")),
                                    len(cdf) - 1)
                            for u in stream.random(n))
        yield label, p.sum(), [PoissonRealization(T, T * np.sort(stream.random(c)))
                               for c in counts]


def average(path, nu, T, R, seed):
    """Mean and stderr: p_0 M(T) + sum_s p_s m_s, and sum_s p_s^2 s_s^2 / R_s.

    s_s^2 is (sum (x - x_0)^2 - n (m_s - x_0)^2) / (n - 1) over the stratum's
    products x, x_0 the first of them.
    """
    m_T = evolve_realization(path, PoissonRealization(T, ()))
    first, law = _poisson_law(nu * T)
    mean, var = 0.0 + (law[0] if first == 0 else 0.0) * m_T, 0.0
    for _, p, reals in strata(nu, T, R, seed):
        shift = evolve_realization(path, reals[0])
        total = total_sq = 0.0
        for lo in range(0, len(reals), CHUNK):
            part = part_sq = 0.0
            for r in reals[lo:lo + CHUNK]:
                prod = evolve_realization(path, r)
                part = part + prod
                part_sq = part_sq + (prod - shift) * (prod - shift)
            total = total + part
            total_sq = total_sq + part_sq
        n = len(reals)
        m_s = total / n
        mean = mean + p * m_s
        dev = m_s - shift
        var = var + p * p * (np.maximum(total_sq - n * dev * dev, 0.0) / (n - 1)) / n
    return mean, np.sqrt(var)


def first_bad_history(path, nu, T, R, seed, tol):
    """(stratum label, history index) of the first product off double
    stochasticity by more than tol, or None."""
    for label, _, reals in strata(nu, T, R, seed):
        for i, r in enumerate(reals):
            if not dstoch_residual(evolve_realization(path, r)) <= tol:
                return label, i
    return None
