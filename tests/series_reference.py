"""Reference node-by-node sums for the series levels and the derivative residual.

These are the loops ``reduktor.volterra`` used before both sums ran
lag-major through ``_trapezoid_convolution``.  ``test_series_levels``
holds the library to them; they are test code only.
"""

import numpy as np


def series_levels(M, h, K):
    """Generator of iterated-integral levels F_1 = M, F_m = conv(M, F_{m-1})."""
    F = M.copy()
    u = np.ones(K + 1)
    yield F, u
    while True:
        Fn = np.zeros_like(F)
        un = np.zeros(K + 1)
        for j in range(1, K + 1):
            acc = 0.5 * (M[j] @ F[0]) + 0.5 * (M[0] @ F[j])
            uacc = 0.5 * (u[0] + u[j])
            if j > 1:
                acc += np.einsum("tij,tjk->ik", M[j - 1:0:-1], F[1:j])
                uacc += u[1:j].sum()
            Fn[j] = h * acc
            un[j] = h * uacc
        F, u = Fn, un
        yield F, u


def derivative_residual(M, Mbar, nu, ts):
    """Largest residual of the once-differentiated equation, one node at a time."""
    K = len(ts) - 1
    h = ts[1] - ts[0]

    def fd(stack):
        d = np.empty_like(stack)
        d[1:-1] = (stack[2:] - stack[:-2]) / (2.0 * h)
        d[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * h)
        d[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * h)
        return d

    dM = fd(M)
    dMbar = fd(Mbar)
    ew = np.exp(nu * ts)
    lag = Mbar[0] - np.eye(M.shape[-1])
    worst = 0.0
    for j in range(1, K + 1):
        w = np.full(j + 1, h)
        w[0] = w[-1] = h / 2.0
        integ = np.einsum("t,tij,tjk->ik", w * ew[:j + 1], M[j::-1], dMbar[:j + 1])
        rhs = np.exp(-nu * ts[j]) * (dM[j] + nu * (M[j] @ lag) + nu * integ)
        worst = max(worst, float(np.abs(dMbar[j] - rhs).max()))
    return worst
