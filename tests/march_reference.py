"""Reference marching loops: one hand-written loop per solver branch.

These are the loops the solvers used before they shared one kernel
(``reduktor.volterra._march``).  ``test_march_kernel`` holds the kernel to
them node for node; they are test code only.
"""

import numpy as np


def unit_growth(nu, h, steps):
    """Trapezoid solution of n(T) = 1 + nu * int_0^T n(t) dt on the grid."""
    s = np.empty(steps + 1)
    s[0] = 1.0
    q = nu * h / 2.0
    for k in range(1, steps + 1):
        acc = 0.5 * s[0] + s[1:k].sum()
        s[k] = (1.0 + nu * h * acc) / (1.0 - q)
    return s


def march_smooth(M, nu, h):
    """Smooth branch: N[k] = M[k] + nu h sum_t w_t M[k - t] N[t], normalized."""
    K = len(M) - 1
    n = M.shape[-1]
    s = unit_growth(nu, h, K)
    pref = np.linalg.inv(np.eye(n) - nu * h / 2.0 * M[0])
    N = np.empty_like(M)
    N[0] = M[0]
    for k in range(1, K + 1):
        acc = 0.5 * (M[k] @ N[0])
        if k > 1:
            acc += np.einsum("tij,tjk->ik", M[k - 1:0:-1], N[1:k])
        N[k] = pref @ (M[k] + nu * h * acc)
    return N / s[:, None, None]


def march_two_limit(ML, MR, nu, h):
    """Piecewise branch: both one-sided limits, two contractions per step.

    Returns the normalized right limits (node values) and left limits.
    """
    K = len(ML) - 1
    n = ML.shape[-1]
    s = unit_growth(nu, h, K)
    pref = np.linalg.inv(np.eye(n) - nu * h / 2.0 * MR[0])
    NL = np.empty_like(ML)
    NR = np.empty_like(ML)
    NL[0] = NR[0] = MR[0]
    for k in range(1, K + 1):
        acc = 0.5 * (ML[k] @ NR[0])
        if k > 1:
            acc += 0.5 * np.einsum("tij,tjk->ik", MR[k - 1:0:-1], NL[1:k])
            acc += 0.5 * np.einsum("tij,tjk->ik", ML[k - 1:0:-1], NR[1:k])
        NL[k] = pref @ (ML[k] + nu * h * acc)
        NR[k] = NL[k] + (MR[k] - ML[k])
    return NR / s[:, None, None], NL / s[:, None, None]


def march_general(M, kernel, ts):
    """Generalized kernel: a(T) M(T) + int M(T - t) X(t) b(t, T) dt, normalized."""
    K = len(ts) - 1
    h = ts[1] - ts[0]
    n = M.shape[-1]
    eye = np.eye(n)
    out = np.empty_like(M)
    sigma = np.empty(K + 1)
    a0 = float(kernel.a(0.0))
    out[0] = a0 * M[0]
    sigma[0] = a0
    for k in range(1, K + 1):
        T = ts[k]
        bw = np.asarray(kernel.b(ts[:k + 1], T), dtype=float)
        aT = float(kernel.a(T))
        w = np.full(k + 1, h)
        w[0] = w[-1] = h / 2.0
        acc = np.einsum("t,tij,tjk->ik", (w * bw)[:k], M[k:0:-1], out[:k])
        diag = w[-1] * bw[-1]
        out[k] = np.linalg.solve(eye - diag * M[0], aT * M[k] + acc)
        sigma[k] = (aT + float(np.dot((w * bw)[:k], sigma[:k]))) / (1.0 - diag)
    return out / sigma[:, None, None]


def march_scalar(lo, hi, nu, h):
    """Scalar loop on the left (lo) and right (hi) input limits.

    Returns the normalized right and left values.
    """
    K = len(lo) - 1

    def march(lo, hi):
        denom = 1.0 - nu * h / 2.0 * hi[0]
        NL = np.empty(K + 1)
        NR = np.empty(K + 1)
        NL[0] = NR[0] = hi[0]
        for k in range(1, K + 1):
            acc = 0.5 * lo[k] * NR[0]
            if k > 1:
                acc += 0.5 * np.dot(hi[k - 1:0:-1], NL[1:k])
                acc += 0.5 * np.dot(lo[k - 1:0:-1], NR[1:k])
            NL[k] = (lo[k] + nu * h * acc) / denom
            NR[k] = NL[k] + (hi[k] - lo[k])
        return NL, NR

    NL, NR = march(lo, hi)
    ones = np.ones(K + 1)
    _, s = march(ones, ones)
    return NR / s, NL / s
