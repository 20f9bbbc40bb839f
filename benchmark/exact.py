"""Exact solutions of the averaged-evolution equation, with numpy alone.

Nothing here imports the library under test: these are the references the
benchmark checks the library's outputs against.

Bath models.  With eigenpairs (w_k, v_k) of the joint generator, the
evolution matrix is a finite sum of Bohr oscillations

    M(t) = sum_kl e^{-i (w_k - w_l) t} X_kl,

and each X_kl is the rank-one product of two n-vectors.  Grouping equal
frequencies gives a realization M(t) = C e^{A t} B with A diagonal, so the
rescaled unknown of N(T) = M(T) + nu int_0^T M(T - t) N(t) dt is exactly

    N(T) = C e^{(A + nu B C) T} B,      Mbar(T) = e^{-nu T} N(T).

Scalar inputs.  The spin-flip model has M = cos(2t) 1 + (1 - cos 2t) Theta,
whose averaged coefficient is a damped cosine; the alternating 1/0 input is
solved interval by interval by the method of steps.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

FREQ_TOL = 1e-10  # Bohr frequencies closer than this are one frequency
RANK_TOL = 1e-13  # relative singular-value cut for each frequency's weight


def expm(a):
    """Matrix exponential by scaling, a degree-20 Taylor sum, and squaring."""
    a = np.asarray(a)
    norm = float(np.abs(a).sum(axis=1).max())
    s = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0 else 0
    a = a / 2.0 ** s
    out = np.eye(a.shape[0], dtype=a.dtype)
    term = out
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def bath_m(joint, n, n2, ts):
    """M(t) straight from its definition, (1/n2) sum_ab |<a i|U(t)|b j>|^2."""
    w, v = np.linalg.eigh(joint)
    out = np.empty((len(ts), n, n))
    for idx, t in enumerate(np.asarray(ts, dtype=float)):
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        blocks = u.reshape(n2, n, n2, n)
        out[idx] = (np.abs(blocks) ** 2).sum(axis=(0, 2)) / n2
    return out


class BathSolution:
    """State-space realization of a bath model's M(t) and its exact solution."""

    def __init__(self, joint, n, n2):
        w, v = np.linalg.eigh(np.asarray(joint, dtype=complex))
        d = n * n2
        g = v.reshape(n2, n, d)
        p = (np.einsum("aik,ail->kli", g, g.conj()) / n2).reshape(d * d, n)
        q = np.einsum("bjk,bjl->klj", g.conj(), g).reshape(d * d, n)
        freq = (w[:, None] - w[None, :]).ravel()
        order = np.argsort(freq, kind="stable")
        cuts = np.flatnonzero(np.diff(freq[order]) > FREQ_TOL) + 1
        lams, cols, rows = [], [], []
        weights = [p[idx].T @ q[idx] for idx in np.split(order, cuts)]
        scale = max(np.abs(x).max() for x in weights)
        for idx, x in zip(np.split(order, cuts), weights):
            u, s, vh = np.linalg.svd(x)
            r = int((s > RANK_TOL * scale).sum())
            lams.append(np.full(r, -1j * freq[idx].mean()))
            cols.append(u[:, :r] * s[:r])
            rows.append(vh[:r])
        self.n = n
        self.lam = np.concatenate(lams)
        self.c = np.hstack(cols)
        self.b = np.vstack(rows)
        self.omega = float(w[-1] - w[0])  # largest Bohr frequency

    @property
    def size(self):
        return len(self.lam)

    def m(self, ts):
        """M(t) from the realization; shape (len(ts), n, n)."""
        e = np.exp(np.outer(ts, self.lam))
        return np.einsum("ps,ts,sq->tpq", self.c, e, self.b).real

    def _generator(self, nu):
        return np.diag(self.lam) + nu * self.b @ self.c

    def mbar_at(self, nu, ts):
        """Exact Mbar at arbitrary times, one exponential per time."""
        f = self._generator(nu)
        return np.stack([np.exp(-nu * t) * (self.c @ expm(f * t) @ self.b).real
                         for t in np.asarray(ts, dtype=float)])

    def mbar(self, nu, t_max, steps):
        """Exact Mbar on the uniform grid 0, h, ..., t_max."""
        h = t_max / steps
        step = expm(self._generator(nu) * h)
        y = self.b.astype(complex)
        out = np.empty((steps + 1, self.n, self.n))
        for k in range(steps + 1):
            out[k] = np.exp(-nu * k * h) * (self.c @ y).real
            y = step @ y
        return out


def spin_flip_beta(nu, ts):
    """Averaged coefficient for alpha(t) = cos 2t (needs nu < 4)."""
    ts = np.asarray(ts, dtype=float)
    om = np.sqrt(4.0 - nu * nu / 4.0)
    return np.exp(-nu * ts / 2.0) * (np.cos(om * ts) + nu / (2.0 * om) * np.sin(om * ts))


def alternating_jump(tau, nu, k):
    """beta(k tau +) - beta(k tau -) for the alternating 1/0 input."""
    return (-1.0) ** k * np.exp(-nu * k * tau)


class AlternatingSolution:
    """Exact beta for alpha = 1, 0, 1, 0, ... on intervals of length tau.

    On interval i the solution obeys the lag equation
    beta'(T) = nu sum_{k=1}^{i} (-1)^k e^{-nu k tau} beta(T - k tau) and jumps
    by (-1)^i e^{-nu i tau} at its left end; beta = 1 on interval 0, so every
    interval is a polynomial in the local coordinate u = T - i tau.
    """

    def __init__(self, tau, nu, intervals):
        self.tau, self.nu = float(tau), float(nu)
        polys = [Polynomial([1.0])]
        for i in range(1, intervals):
            slope = sum((nu * alternating_jump(tau, nu, k) * polys[i - k]
                         for k in range(1, i + 1)), Polynomial([0.0]))
            start = polys[i - 1](tau) + alternating_jump(tau, nu, i)
            polys.append(slope.integ(k=[start]))
        self.polys = polys

    def beta(self, ts, side="right"):
        """Right-continuous values, or left limits with side='left'."""
        ts = np.asarray(ts, dtype=float)
        r = ts / self.tau
        i = np.floor(r + 1e-9).astype(int)
        if side == "left":
            i = np.where(np.abs(r - np.round(r)) < 1e-9, np.round(r).astype(int) - 1, i)
        i = np.clip(i, 0, len(self.polys) - 1)
        out = np.empty(len(ts))
        for k in np.unique(i):
            sel = i == k
            out[sel] = self.polys[k](ts[sel] - k * self.tau)
        if side == "right":
            # a node exactly at the end of the last interval takes its jump
            end = np.abs(r - len(self.polys)) < 1e-9
            out[end] += alternating_jump(self.tau, self.nu, len(self.polys))
        return out


def lift(beta, n):
    """Matrices beta 1 + (1 - beta) Theta_n for a vector of coefficients."""
    beta = np.asarray(beta, dtype=float)[:, None, None]
    return beta * np.eye(n) + (1.0 - beta) * np.full((n, n), 1.0 / n)


def dstoch_violation(stack):
    """Largest row-sum, column-sum or negativity violation over a stack."""
    a = np.asarray(stack, dtype=float)
    return float(max(np.abs(a.sum(axis=-1) - 1.0).max(),
                     np.abs(a.sum(axis=-2) - 1.0).max(),
                     max(0.0, -a.min())))
