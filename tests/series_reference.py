"""Reference node-by-node sums for the series levels and the derivative residual.

``test_series_levels`` holds the library's block-Toeplitz sums
(``volterra._trapezoid_convolution``) to these loops; they are test code
only.
"""

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


def series_levels(M, h, K):
    """Generator of iterated-integral levels F_1 = M, F_m = conv(M, F_{m-1})."""
    F = M.copy()
    u = np.ones(K + 1)
    yield F, u
    while True:
        un = np.zeros(K + 1)
        for j in range(1, K + 1):
            uacc = 0.5 * (u[0] + u[j])
            if j > 1:
                uacc += u[1:j].sum()
            un[j] = h * uacc
        F, u = trapezoid_convolution(M, F, h), un
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
