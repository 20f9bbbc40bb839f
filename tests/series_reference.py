"""Reference node-by-node sums for the series levels and the derivative residual.

``test_series_levels`` holds the library's FFT products
(``volterra._convolution``) to these loops; they are test code only.
"""

import math

import numpy as np


def trapezoid_convolution(M, F, h):
    """G[j] = h (sum_{t<=j} M[j-t] F[t] - M[j] F[0] / 2 - M[0] F[j] / 2), node by node."""
    K1, n, m = F.shape
    G = np.zeros((K1, n, m))
    for j in range(1, K1):
        acc = 0.5 * (M[j] @ F[0]) + 0.5 * (M[0] @ F[j])
        if j > 1:
            acc += np.einsum("tij,tjk->ik", M[j - 1:0:-1], F[1:j])
        G[j] = h * acc
    return G


def series_levels(M, h, nu):
    """Generator of the levels nu^(m-1) e^{-gamma t} F_m and their unit series.

    F_1 = M and F_m = conv(M, F_{m-1}); the tilt, gamma h =
    ln((1 + nu h / 2) / (1 - nu h / 2)), is applied to the source, and each
    level is the node-by-node convolution of nu e^{-gamma t} M with the
    last.  The unit series is the same recursion on M = 1.
    """
    g = math.log((1.0 + 0.5 * nu * h) / (1.0 - 0.5 * nu * h))
    tilt = np.exp(-g * np.arange(len(M)))
    F = tilt[:, None, None] * M
    u = tilt.copy()
    yield F, u
    while True:
        un = np.zeros(len(M))
        for j in range(1, len(M)):
            uacc = 0.5 * (tilt[j] * u[0] + u[j])
            if j > 1:
                uacc += tilt[j - 1:0:-1] @ u[1:j]
            un[j] = nu * h * uacc
        F, u = trapezoid_convolution(nu * tilt[:, None, None] * M, F, h), un
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
