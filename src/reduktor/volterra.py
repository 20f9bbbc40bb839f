"""Volterra solvers for the averaged stochastic-reduction evolution.

The averaged evolution Mbar solves a linear Volterra equation of the
second kind,

    Mbar(T) = e^{-nu T} ( M(T) + nu * int_0^T M(T-t) Mbar(t) e^{nu t} dt ),

equivalently, with N(t) = e^{nu t} Mbar(t),

    N(T) = M(T) + nu * int_0^T M(T-t) N(t) dt.

The equation has no differential form, so every marching solver (this
module's ``march_solve`` and ``march_solve_general``, and the scalar
route) runs one kernel, ``_march``, that marches

    X(T_k) = a(T_k) M(T_k) + sum_{t <= k} c_t(k) M(T_k - t) X(t)

with the composite trapezoid rule on a uniform grid, the endpoint t = k
solved implicitly.  ``march_solve`` uses a = 1 and c = nu h trapezoid;
the generalized kernel form with arrival weight a(T) and memory weight
b(t, T), constrained by int_0^T b(t, T) dt = 1 - a(T), uses
c = trapezoid * b(t, T_k).

The back-rescaling divides by the scheme's own discrete growth factor
(the same recursion run on M = 1), not by e^{nu T}: the two agree to
O(h^2), but the discrete factor is exactly the row/column-sum mode of the
marched solution, so every output node is doubly stochastic to machine
precision instead of drifting by e^{T nu^3 h^2 / 12}.

A 2 x 2 source takes the kernel's 1 x 1 path.  Every doubly stochastic
2 x 2 matrix is beta 1 + (1 - beta) Theta_2, with Theta_2 the uniform
projector and beta = 1 - M[0, 1] - M[1, 0] in [-1, 1]; these matrices
commute and share the eigenvectors (1, 1) and (1, -1), so the march
splits exactly into the unit mode and one scalar mode beta, which is
marched on its own and lifted back (the paper's scalar reduction, which
for n = 2 covers every source).  The lift is doubly stochastic whatever
beta is, so ``march_solve`` and ``march_solve_general`` check a 2 x 2
source before marching it.

With a constant memory weight b, the 1 x 1 path (scalar inputs and the
beta mode of every 2 x 2 source) is not stepped node by node: in the
node averages of X the march is one lower-triangular system, solved in
blocks of MARCH_BLOCK nodes (``_blocked_solve``; Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532).  Each block adds
the pull of the finished blocks, then solves its own B x B system.  This
path marches the tilted unknowns e^{-b T} X and e^{-b T} sigma, from the
sources e^{-b t} M(t) and e^{-b t}; their ratio is unchanged in exact
arithmetic, and nothing overflows at large b T.  Larger sources
(n >= 3) and varying weights b(t, T) are still stepped node by node and
untilted, so they overflow once nu T is above about 700.

Sources are time paths: subclasses of ``_SmoothPath``, which supplies
``__call__``, ``many(ts)`` for batched evaluation and the one-sided limits
``left``/``right`` with ``jump_times`` of a continuous source.  Constant
matrices, bath models (``channels.BathModel``), scalar inputs alpha(t)
(``scalar``) and their matrix lifts are all such paths; ``as_path`` wraps
a plain callable t -> (n, n) array.  ``_limits`` samples every path's
one-sided limits on the grid for the marches, so quadrature panels never
straddle a discontinuity (jumps must sit on grid nodes).  A panel that
ends on jump nodes pairs the right limit of M with the left limit of X
and vice versa, averaged.  With node averages Mbar = (ML + MR) / 2,
Xbar = (XL + XR) / 2 and jumps D = MR - ML, XR - XL = a D, that pair is

    (MR[s] XL[t] + ML[s] XR[t]) / 2 = Mbar[s] Xbar[t] - D[s] a[t] D[t] / 4,

so each step is still one contraction of Mbar with Xbar.  The only extra
terms are the t = 0 endpoint, which uses the left limit ML[k], and the
pairs where both t and k - t are jump nodes; neither depends on X.

The realization-count series and the derivative-consistency residual are
oracles for that kernel and share none of its code.  Each needs the
explicit trapezoid convolution

    G[j] = h ( sum_{t <= j} M[j - t] F[t] - M[j] F[0] / 2 - M[0] F[j] / 2 )

at every node, which ``_trapezoid_convolution`` forms as a block-Toeplitz
product (block convolution of Volterra sums: Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6 (1985) 532).  Nodes go in blocks of B, and
one BLAS-3 product per block lag covers all nodes, where a march steps
node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dstoch import DStochMatrix, dstoch_residual, lift
from .errors import (
    GridTooCoarseError,
    InputValidationError,
    KernelNormalizationViolation,
    TailBoundExceededError,
    UnsupportedOrderError,
    ValidationFailure,
)

TOL_TRAJ = 1e-7
DEFAULT_TAIL_TOL = 1e-10
# Rows of one block-Toeplitz block in _trapezoid_convolution (B n for B
# nodes of n x n matrices): a 32 KiB block, within 14 % of the fastest
# block size at n = 1, 2, 3 and 8 for K from 100 to 6400, one BLAS thread.
CONV_BLOCK_ROWS = 64
# OpenBLAS splits a dot product of more than 10^4 terms over its threads,
# which moves the bits of the sum; _conv sums longer 1 x 1 contractions
# (sigma, and 1 x 1 sources under a varying weight) in chunks of this many
# terms, in order.
DOT_CHUNK = 10_000
# Nodes per block of the 1 x 1 march (_blocked_solve).  Its B x B solve
# stays below the 10^4 entries at which OpenBLAS threads an LU, so the
# bits cannot depend on the thread count.
MARCH_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, h, 2h, ..., t_max with h = t_max / steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        if self.t_max <= 0 or self.steps < 1:
            raise ValueError(f"need t_max > 0 and steps >= 1, got {self}")

    @property
    def h(self) -> float:
        return self.t_max / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        out = np.linspace(0.0, self.t_max, self.steps + 1)
        out.setflags(write=False)
        return out

    def index_of(self, t, tol=1e-9) -> int:
        """Node index of a time that must lie on the grid."""
        j = int(round(t / self.h))
        if not (0 <= j <= self.steps) or abs(t - j * self.h) > tol * max(1.0, abs(t)):
            raise ValueError(f"time {t!r} does not lie on the grid (h={self.h!r})")
        return j


@dataclass(frozen=True)
class SolverConfig:
    """Reduction rate, grid, and optional series truncation order."""

    nu: float
    grid: TimeGrid
    n_max: int | None = None

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"reduction rate must be >= 0, got {self.nu}")


@dataclass(frozen=True)
class Kernel:
    """Generalized arrival/memory kernel pair.

    ``a(T)`` weights the bare evolution, ``b(t, T)`` weights the memory
    integral; both nonnegative with int_0^T b(t, T) dt = 1 - a(T).
    Functions must broadcast over numpy arrays in their first argument.
    """

    a: object
    b: object
    description: str = ""


def poisson_kernel(nu) -> Kernel:
    """Kernel reproducing the exponential-waiting-time equation."""
    return Kernel(a=lambda T: np.exp(-nu * np.asarray(T, dtype=float)),
                  b=lambda t, T: nu * np.exp(-nu * (T - np.asarray(t, dtype=float))),
                  description=f"poisson(nu={nu:g})")


def kernel_normalization_residual(kernel: Kernel, T, quad_steps=1000) -> float:
    """| int_0^T b(t, T) dt + a(T) - 1 | by composite Simpson quadrature.

    Simpson (trapezoid with one Richardson step) is used so the residual
    reflects the kernel rather than quadrature error at moderate step
    counts; the step count is rounded up to an even number.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0:
        return float(abs(float(kernel.a(0.0)) - 1.0))
    m = int(quad_steps)
    if m % 2:
        m += 1
    ts = np.linspace(0.0, T, m + 1)
    vals = np.asarray(kernel.b(ts, T), dtype=float)
    if vals.shape != ts.shape:
        vals = np.array([float(kernel.b(t, T)) for t in ts])
    h = T / m
    integral = h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                          + 2.0 * vals[2:-1:2].sum())
    return float(abs(integral + float(kernel.a(T)) - 1.0))


# -- time-path protocol ------------------------------------------------------

class _SmoothPath:
    """Time-path protocol with the defaults of a continuous source.

    Subclasses define ``__call__`` or ``many`` (each default calls the
    other) and override ``left``, ``right`` and ``jump_times`` only when
    the source jumps.  A matrix path's ``many`` returns an (len(ts), n, n)
    stack, a scalar input's a 1-d array of len(ts) values.
    """

    def __call__(self, t):
        return self.many(np.array([float(t)]))[0]

    def many(self, ts):
        return np.stack([self(t) for t in np.asarray(ts, dtype=float)])

    def left(self, t):
        return self(t)

    def right(self, t):
        return self(t)

    def jump_times(self, t0, t1):
        return np.empty(0)


class _CallablePath(_SmoothPath):
    """Wrap a plain callable as a smooth time path."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, t):
        out = self._fn(t)
        return np.asarray(getattr(out, "entries", out), dtype=float)


class ConstantPath(_SmoothPath):
    """Time-independent matrix source."""

    def __init__(self, matrix):
        self.matrix = np.asarray(getattr(matrix, "entries", matrix), dtype=float)
        if not np.isfinite(self.matrix).all():
            raise InputValidationError("constant source has non-finite entries")

    def __call__(self, t):
        return self.matrix

    def many(self, ts):
        return np.broadcast_to(self.matrix, (len(ts),) + self.matrix.shape)


def as_path(m):
    """Coerce a solver input into the time-path protocol."""
    if all(hasattr(m, k) for k in ("many", "left", "right", "jump_times")):
        return m
    if callable(m):
        return _CallablePath(m)
    raise TypeError(f"cannot interpret {type(m).__name__} as a time-dependent matrix")


@dataclass
class Trajectory:
    """Matrix values on a uniform grid, right-continuous at jump nodes."""

    grid: TimeGrid
    values: np.ndarray
    jump_nodes: tuple = ()
    left_values: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    def at_time(self, t) -> np.ndarray:
        return self.values[self.grid.index_of(t)]

    def __len__(self):
        return len(self.values)


def _csv_lines(*columns):
    """CSV lines of the columns side by side, each value in 17 significant digits.

    ``columns`` are 1-d arrays or 2-d blocks of columns, as for
    ``np.column_stack``; each row is formatted by one %-format string.
    """
    rows = np.column_stack(columns).tolist()
    fmt = ",".join(["%.17g"] * len(rows[0]))
    return [fmt % tuple(row) for row in rows]


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize to CSV: header t,entry_0_0,... and 17 significant digits."""
    n = traj.values.shape[-1]
    header = "t," + ",".join(f"entry_{i}_{j}" for i in range(n) for j in range(n))
    lines = [header] + _csv_lines(traj.times, traj.values.reshape(len(traj.values), n * n))
    return "\n".join(lines) + "\n"


def _validate_nodes(values, tol, what="trajectory", nodes=None):
    """Raise ValidationFailure at the first matrix of a stack not within tol.

    The failure names that matrix by its entry of ``nodes``, by default by
    its index in the stack.
    """
    res = dstoch_residual(values)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size:
        k = bad[0]
        raise ValidationFailure(int(k if nodes is None else nodes[k]), float(res[k]),
                                detail=what)


def _validate_source(ML, MR, jump_idx, tol):
    """Check a 2 x 2 source doubly stochastic at every node and left limit.

    The march lifts a doubly stochastic output from any 2 x 2 source (see
    ``_march``), so the output check cannot catch a bad one; larger
    sources are left to the output check.
    """
    if ML.shape[-1] != 2:
        return
    _validate_nodes(MR, tol, "source")
    if jump_idx:
        _validate_nodes(ML[jump_idx], tol, "source left limit", jump_idx)


def _conv(S, Y, k, bk):
    """sum_{t<k} bk[t] S[k - t] Y[t]; unit weights when bk is None.

    1 x 1 stacks (the unit mode sigma, and 1 x 1 sources under a varying
    weight) take
    ``np.dot``, which is faster there than ``np.einsum``, in chunks of at
    most DOT_CHUNK terms so that the BLAS thread count cannot reach the sum.
    """
    if S.shape[-1] == 1:
        s = S[k:0:-1, 0, 0]
        y = Y[:k, 0, 0] if bk is None else bk[:k] * Y[:k, 0, 0]
        if k <= DOT_CHUNK:
            return np.dot(s, y)
        return sum(np.dot(s[i:i + DOT_CHUNK], y[i:i + DOT_CHUNK])
                   for i in range(0, k, DOT_CHUNK))
    if bk is None:
        return np.einsum("tij,tjk->ik", S[k:0:-1], Y[:k])
    return np.einsum("t,tij,tjk->ik", bk[:k], S[k:0:-1], Y[:k])


def _block_pull(S, H, j0, j1, acc):
    """Add the pull of finished nodes j0..j1-1 to every later node of acc.

    acc[k] += sum_{j0 <= t < j1} S[k - t] H[t] for k >= j1: the B x B
    Toeplitz products of one finished block with the history weights of
    every later block, each node's share a dot product of j1 - j0 terms.
    """
    if j1 < len(acc):
        acc[j1:] += np.correlate(S[1:len(acc) - j0], H[j0:j1][::-1], "valid")


def _march_weights(K, h, b, jump_idx):
    """Trapezoid weights w and the jump pairs of the march on K steps.

    w_t is h, and h / 2 at t = 0, times b when the memory weight b is a
    number.  ``pairs`` maps each node k to the jump nodes t for which
    k - t is a jump node too: there the product of the two jumps enters
    the implicit step's right-hand side.
    """
    w = np.full(K + 1, h)
    w[0] = 0.5 * h
    if not callable(b):
        w *= b
    pairs = {}
    for t in jump_idx:
        for s in jump_idx:
            if t + s <= K:
                pairs.setdefault(t + s, []).append(t)
    return w, pairs


def _march_1x1(SL, SR, jump_idx, a, h, b):
    """The 1 x 1 march with a constant memory weight b, divided by sigma.

    SL and SR are the (K+1,) left and right limits of the source, equal
    off the jump nodes; ``a`` is as in ``_march``.  Returns the node values
    and the left limits at the jump nodes, both divided by the unit mode
    sigma, and sigma itself; sigma is the same solve run on M = 1.

    Both are marched tilted: e^{-b T} X solves the same march with the
    source e^{-b t} M(t), since T_k = T_{k-t} + T_t on the grid, and
    e^{-b T} sigma with the unit source e^{-b t}.  Nothing then grows
    like e^{b T}, and the ratio is unchanged in exact arithmetic.  The
    returned sigma is untilted, so it overflows to inf once b T > 709;
    the outputs do not.
    """
    tilt = np.exp(-b * h * np.arange(len(SL)))
    xbar, shift = _blocked_solve(tilt * SL, tilt * SR, jump_idx, a, h, b)
    sigma, _ = _blocked_solve(tilt, tilt, [], a, h, b)
    left = {j: (xbar[j] - shift[j]) / sigma[j] for j in jump_idx}
    for j in jump_idx:
        xbar[j] += shift[j]
    xbar /= sigma
    with np.errstate(over="ignore"):
        sigma *= np.exp(b * h * np.arange(len(SL)))
    return xbar, left, sigma


def _blocked_solve(SL, SR, jump_idx, a, h, b):
    """Node averages Xbar = (XL + XR) / 2 of the 1 x 1 march, block by block.

    In Xbar the march with a constant memory weight b is one
    lower-triangular system,

        d Xbar[k] - sum_{t<k} c_t Sbar[k - t] Xbar[t] = f[k],

    with d = 1 - (h / 2) b SR[0] the implicit step, c_t = w_t b as in
    ``_march``, Sbar = (SL + SR) / 2, and f[k] = a[k] SL[k] plus the
    known jump terms of ``_march``: the t = 0 endpoint on the left limit,
    the pairs of jump nodes, and d s[k] for the shift
    s[k] = a[k] (SR[k] - SL[k]) / 2 = Xbar[k] - XL[k].  The nodes go in
    blocks of B = MARCH_BLOCK (Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6 (1985) 532): each block takes the pull of the
    finished blocks and solves its own B x B system with
    ``np.linalg.solve``, so a singular implicit step raises LinAlgError.
    Each finished block adds its pull to every later node at once
    (``_block_pull``), so each node sums its history in block order, in
    products too small for BLAS to split over threads, and no temporary
    exceeds a few B x B blocks.  Returns Xbar and the shifts s.
    """
    K = len(SL) - 1
    D = {j: SR[j] - SL[j] for j in jump_idx}
    Sbar = 0.5 * (SL + SR) if D else SL
    shift = {j: 0.5 * a[j] * D[j] for j in jump_idx}
    w, pairs = _march_weights(K, h, b, jump_idx)
    special = sorted(set(D).union(pairs))
    B = min(MARCH_BLOCK, K)
    lag = np.abs(np.subtract.outer(np.arange(B), np.arange(B)))
    system = -w[1] * np.tril(Sbar[lag], -1)  # [u, v] = -c Sbar[u - v] below the diagonal
    d = 1.0 - 0.5 * h * b * SR[0]
    np.fill_diagonal(system, d)
    xbar = np.empty(K + 1)
    H = np.empty(K + 1)  # w_t Xbar[t], with the weight b
    acc = np.zeros(K + 1)  # pull of the finished blocks
    xbar[0] = a[0] * SR[0]
    H[0] = w[0] * xbar[0]
    _block_pull(Sbar, H, 0, 1, acc)
    for k0 in range(1, K + 1, B):
        k1 = min(k0 + B, K + 1)
        rhs = acc[k0:k1] + a[k0:k1] * SL[k0:k1]
        for k in special:
            if not k0 <= k < k1:
                continue
            if k in D:
                rhs[k - k0] += d * shift[k] - 0.5 * w[0] * D[k] * xbar[0]
            for t in pairs.get(k, ()):
                rhs[k - k0] -= 0.25 * w[t] * a[t] * D[k - t] * D[t]
        xbar[k0:k1] = np.linalg.solve(system[:k1 - k0, :k1 - k0], rhs)
        H[k0:k1] = w[k0:k1] * xbar[k0:k1]
        _block_pull(Sbar, H, k0, k1, acc)
    return xbar, shift


def _march(ML, MR, jump_idx, a, h, b):
    """Trapezoid march of X(T_k) = a_k M(T_k) + sum_{t<=k} c_t(k) M(T_k - t) X(t).

    ML and MR are the (K+1, n, n) left and right limits of M on the grid,
    equal off the jump nodes ``jump_idx`` (all > 0); ``a`` holds the
    arrival weights per node.  The weights are c_t(k) = w_t b(t, T_k) with
    trapezoid weights w; ``b`` is a number when the memory weight is
    constant, so the history is stored pre-weighted, and otherwise a
    callable k -> b(T_0..T_k, T_k).  The endpoint t = k is solved
    implicitly.

    Returns the node values and the left limits at the jump nodes, both
    divided by the unit mode sigma, and sigma itself, shape (K+1, 1, 1).
    sigma is the same recursion run on M = 1 through the same arithmetic,
    so a unit input normalizes to exactly one.

    A 2 x 2 source is marched as the (K+1, 1, 1) stacks of its scalar mode
    beta = 1 - M[0, 1] - M[1, 0] and lifted back to beta 1 + (1 - beta)
    Theta_2.  This is exact: the matrices beta 1 + (1 - beta) Theta_2
    commute and share the eigenvectors (1, 1) and (1, -1), so the 2 x 2
    march is the unit mode sigma and the beta mode, each marched on its
    own.  Only the doubly stochastic part of the source reaches the
    output, so callers check a 2 x 2 source first.  A 1 x 1 source with a
    constant weight b goes to ``_march_1x1``, the blocked, tilted solve.
    Every other source (n >= 3, or a varying weight) is stepped node by
    node, with sigma from the same loop on M = 1.
    """
    if ML.shape[-1] == 2:
        bL, bR = ((1.0 - M[:, 0, 1] - M[:, 1, 0]).reshape(-1, 1, 1) for M in (ML, MR))
        out, left, sigma = _march(bL, bR, jump_idx, a, h, b)
        return lift(out[:, 0, 0], 2), {j: lift(v[0, 0], 2) for j, v in left.items()}, sigma
    if ML.shape[-1] == 1 and not callable(b):
        out, left, sigma = _march_1x1(ML[:, 0, 0], MR[:, 0, 0], jump_idx, a, h, b)
        return (out.reshape(-1, 1, 1), {j: np.reshape(v, (1, 1)) for j, v in left.items()},
                sigma.reshape(-1, 1, 1))
    K = len(ML) - 1
    jumps = {j: MR[j] - ML[j] for j in jump_idx}
    Mbar = 0.5 * (ML + MR) if jumps else ML
    unit = np.ones((K + 1, 1, 1))
    varying = callable(b)
    w, pairs = _march_weights(K, h, b, jump_idx)
    # H[t] = w_t Xbar(t), laid out like Mbar: for a constant source (zero
    # stride in t) that makes H contiguous in t, which einsum sums fast
    X, H = np.empty_like(Mbar), np.empty_like(Mbar)
    sigma, Hs = np.empty_like(unit), np.empty_like(unit)
    X[0] = a[0] * MR[0]
    sigma[0] = a[0]
    H[0] = w[0] * X[0]
    Hs[0] = w[0] * sigma[0]
    left = {}
    diag = None
    for k in range(1, K + 1):
        bk = np.asarray(b(k), dtype=float) if varying else None
        ck = 0.5 * h * (bk[k] if varying else b)
        if ck != diag:
            diag = ck
            pref = np.linalg.inv(np.eye(ML.shape[-1]) - ck * MR[0])
            pref_s = np.linalg.inv([[1.0 - ck]])[0, 0]
        rhs = a[k] * ML[k] + _conv(Mbar, H, k, bk)
        c = w if bk is None else w[:k + 1] * bk
        if k in jumps:
            rhs -= 0.5 * c[0] * (jumps[k] @ X[0])
        for t in pairs.get(k, ()):
            rhs -= 0.25 * c[t] * a[t] * (jumps[k - t] @ jumps[t])
        X[k] = pref @ rhs
        if k in jumps:
            left[k] = X[k].copy()
            X[k] += a[k] * jumps[k]
            H[k] = w[k] * 0.5 * (left[k] + X[k])
        else:
            H[k] = w[k] * X[k]
        sigma[k] = pref_s * (a[k] + _conv(unit, Hs, k, bk))
        Hs[k] = w[k] * sigma[k]
    X /= sigma
    return X, {j: left[j] / sigma[j] for j in left}, sigma


def _matrix_stack(path, ts):
    """``path.many(ts)`` as floats, checked to be a (len(ts), n, n) stack."""
    M = np.asarray(path.many(ts), dtype=float)
    if M.shape != (len(ts),) + M.shape[-1:] * 2:
        raise TypeError(f"{type(path).__name__} is not a matrix path (many returned shape "
                        f"{M.shape}); lift a scalar input with LiftedPath(alpha, n)")
    return M


def _limits(path, grid, matrix=True):
    """Left and right limits of a path at the grid nodes, and its jump nodes.

    Returns (ML, MR, jump_idx): ``path.many`` at the nodes, checked to be a
    matrix stack unless ``matrix`` is false (a scalar input), with the
    one-sided limits put in at the jump nodes in (0, t_max], which must lie
    on the grid.  ML and MR are one array when there is no jump.
    """
    ts = grid.nodes
    jumps = np.asarray(path.jump_times(0.0, grid.t_max), dtype=float)
    jump_idx = sorted({grid.index_of(t) for t in jumps if 0.0 < t <= grid.t_max})
    ML = MR = _matrix_stack(path, ts) if matrix else np.asarray(path.many(ts), dtype=float)
    if jump_idx:
        ML, MR = ML.copy(), ML.copy()
        for j in jump_idx:
            ML[j] = path.left(ts[j])
            MR[j] = path.right(ts[j])
    return ML, MR, jump_idx


def march_solve(m, cfg: SolverConfig, *, tol_traj=TOL_TRAJ) -> Trajectory:
    """March the rescaled equation N(T) = M(T) + nu int_0^T M(T-t) N(t) dt.

    Composite trapezoid on the uniform grid with the implicit endpoint
    term solved exactly; jumps of the source use one-sided limits.  The
    output is N divided by the discrete growth factor, validated doubly
    stochastic at every node and every left limit within tol_traj.
    """
    grid = cfg.grid
    ML, MR, jump_idx = _limits(as_path(m), grid)
    _validate_source(ML, MR, jump_idx, tol_traj)
    out, left, _ = _march(ML, MR, jump_idx, np.ones(grid.steps + 1), grid.h, cfg.nu)
    _validate_nodes(out, tol_traj)
    if jump_idx:
        _validate_nodes(np.stack([left[j] for j in jump_idx]), tol_traj, "left limit",
                        jump_idx)
    return Trajectory(grid=grid, values=out, jump_nodes=tuple(jump_idx),
                      left_values=left)


def march_solve_general(m, kernel: Kernel, grid: TimeGrid, *,
                        tol_traj=TOL_TRAJ, norm_tol=1e-6) -> Trajectory:
    """March Mbar(T) = a(T) M(T) + int_0^T M(T-t) Mbar(t) b(t, T) dt.

    The kernel normalization is checked on sampled horizons first.  Each
    node is divided by the discrete unit-mode factor of the same scheme,
    keeping the output doubly stochastic to machine precision.
    """
    for T in (grid.t_max, grid.t_max / 2.0, grid.t_max / 4.0):
        res = kernel_normalization_residual(kernel, T, quad_steps=2048)
        if res > norm_tol:
            raise KernelNormalizationViolation(T, res)
    path = as_path(m)
    if np.asarray(path.jump_times(0.0, grid.t_max)).size:
        raise ValueError("the generalized-kernel solver requires a continuous source")
    ts = grid.nodes
    M = _matrix_stack(path, ts)
    _validate_source(M, M, [], tol_traj)
    a = np.broadcast_to(np.asarray(kernel.a(ts), dtype=float), ts.shape)
    out, _, _ = _march(M, M, [], a, grid.h, lambda k: kernel.b(ts[:k + 1], ts[k]))
    _validate_nodes(out, tol_traj)
    return Trajectory(grid=grid, values=out)


@dataclass
class SeriesResult:
    """Truncated realization-count expansion at one horizon."""

    value: DStochMatrix
    n_terms: int
    tail_bound: float


def _trapezoid_convolution(M, F, h):
    """Explicit trapezoid convolution of M with F at every node.

    Returns G with G[j] = h (sum_{t<=j} M[j-t] F[t] - M[j] F[0] / 2 - M[0] F[j] / 2)
    and G[0] = 0, for F of shape (K+1, n, m).  The sum is a block-Toeplitz
    product: the nodes, padded with zeros to nb blocks of B = CONV_BLOCK_ROWS // n,
    are laid out as X of shape (B n, nb m), node t = T B + b in row block b
    and column block T.  Block lag d is the (B n, B n) matrix with block
    (a, b) equal to M[d B + a - b] (zero at negative lags), built in one
    reused buffer, and one GEMM of it with the first nb - d column blocks
    of X adds into column blocks d..nb-1: about (K+1) / B BLAS-3 products
    in all, and no block is kept past its own product.
    """
    K1, n, m = F.shape
    B = max(1, CONV_BLOCK_ROWS // n)
    nb = -(-K1 // B)
    # lag l sits at B - 1 + l: the zeros before lag 0 fill the upper
    # triangle of block lag 0, those past lag K only meet padded nodes
    Mext = np.zeros((B - 1 + nb * B, n, n))
    Mext[B - 1:B - 1 + K1] = M[:K1]
    lags = sliding_window_view(Mext, B, axis=0)[..., ::-1]  # [s, i, k, b] = M[s - b]
    X = np.zeros((nb * B, n, m))
    X[:K1] = F
    X = X.reshape(nb, B * n, m).transpose(1, 0, 2).reshape(B * n, nb * m)
    Y = np.zeros((B * n, nb * m))
    buf = np.empty((B * n, nb * m))  # C order, so the output below is a view of it
    block = np.empty((B * n, B * n))
    for d in range(nb):
        np.copyto(block.reshape(B, n, B, n), lags[d * B:(d + 1) * B].transpose(0, 1, 3, 2))
        cols = (nb - d) * m
        np.matmul(block, X[:, :cols], out=buf[:, :cols])
        Y[:, d * m:] += buf[:, :cols]
    out = buf.reshape(nb * B, n, m)  # node-major, in the memory of buf
    np.copyto(out.reshape(nb, B * n, m), Y.reshape(B * n, nb, m).transpose(1, 0, 2))
    out = out[:K1]
    out -= M[:K1] @ (0.5 * F[0])
    out -= (0.5 * M[0]) @ F
    out *= h
    out[0] = 0.0
    return out


def _series_levels(M, h, K):
    """Generator of iterated-integral levels F_1 = M, F_m = conv(M, F_{m-1}).

    Yields each level with its unit series u_m, the same recursion on
    M = 1, which is a cumulative sum.
    """
    F = M.copy()
    u = np.ones(K + 1)
    yield F, u
    while True:
        F = _trapezoid_convolution(M, F, h)
        u = h * (np.cumsum(u) - 0.5 * (u[0] + u))
        u[0] = 0.0
        yield F, u


def _poisson_sf(k, mu):
    """P[X > k] for X ~ Poisson(mu), mu > 0, by direct summation.

    Sums the pmf from k + 1 upward, each term formed on its own as
    exp(-mu + j log mu - lgamma(j + 1)), so nothing drifts or underflows as
    a running product would (that reaches 0 once mu > 745).  Stops when a
    term falls below 1e-17 of the running sum, but never while j <= mu,
    where the terms still grow.
    """
    log_mu, total, j = math.log(mu), 0.0, k + 1
    while True:
        term = math.exp(-mu + j * log_mu - math.lgamma(j + 1))
        total += term
        if j > mu and term <= 1e-17 * total:
            return total
        j += 1


def _pick_series_order(nu, T, n_max, tail_tol):
    mu = nu * T
    if n_max is not None:
        tail = _poisson_sf(n_max, mu) if mu > 0 else 0.0
        if tail > tail_tol:
            raise TailBoundExceededError(
                f"Poisson tail P[K > {n_max}] = {tail:.3e} exceeds {tail_tol:g} at nu*T={mu:g}")
        return n_max, tail
    if mu == 0:
        return 0, 0.0
    k = max(1, int(math.ceil(mu)))
    while (tail := _poisson_sf(k, mu)) > tail_tol:
        k += 1
    return k, tail


def neumann_series(m, cfg: SolverConfig, T, *, tail_tol=DEFAULT_TAIL_TOL) -> SeriesResult:
    """Realization-count expansion truncated by the Poisson tail bound.

    Evaluates sum_{k=0}^{n_max} nu^k F_{k+1}(T) over the normalizing unit
    series, where F_1 = M and F_{m+1}(T) = int_0^T M(T-t) F_m(t) dt by
    iterated trapezoid quadrature.  The e^{-nu T} prefactor cancels in the
    normalization, so no large exponentials are formed.  Each level is
    formed at every node up to T by one block-Toeplitz convolution (see
    ``neumann_series_trajectory``).
    """
    traj = neumann_series_trajectory(m, cfg, tail_tol=tail_tol, horizon=T)
    nmax, tail = _pick_series_order(cfg.nu, T, cfg.n_max, tail_tol)
    return SeriesResult(value=DStochMatrix(traj.values[-1]),
                        n_terms=nmax, tail_bound=tail)


def neumann_series_trajectory(m, cfg: SolverConfig, *, tail_tol=DEFAULT_TAIL_TOL,
                              horizon=None) -> Trajectory:
    """Series evaluation at every grid node up to the horizon.

    Level F_{m+1} is the trapezoid convolution of M with F_m at all K + 1
    nodes at once (``_trapezoid_convolution``): about (K + 1) / B GEMMs of
    one (B n, B n) block-Toeplitz block each with the level laid out as a
    (B n, (K+1) n / B) array, B = CONV_BLOCK_ROWS // n nodes per block,
    O(K^2 n^3) work per level.  The unit series, the same recursion on
    M = 1, is a cumulative sum.
    """
    grid, nu = cfg.grid, cfg.nu
    h = grid.h
    if h * nu > 0.5:
        raise GridTooCoarseError(
            f"h * nu = {h * nu:g} > 0.5; refine the grid for the series expansion")
    T = grid.t_max if horizon is None else float(horizon)
    K = grid.index_of(T)
    if K == grid.steps:
        sub = grid
    else:
        sub = TimeGrid(t_max=float(grid.nodes[K]), steps=K)
    path = as_path(m)
    if np.asarray(path.jump_times(0.0, T)).size:
        raise ValueError("the series evaluator requires a continuous source")
    M = _matrix_stack(path, grid.nodes[:K + 1])
    nmax, _tail = _pick_series_order(nu, T, cfg.n_max, tail_tol)
    total = np.zeros_like(M)
    mass = np.zeros(K + 1)
    gen = _series_levels(M, h, K)
    coeff = 1.0
    for level in range(nmax + 1):
        F, u = next(gen)
        total += coeff * F
        mass += coeff * u
        coeff *= nu
    out = total / mass[:, None, None]
    _validate_nodes(out, 1e-9, "series")
    return Trajectory(grid=sub, values=out)


def derivative_consistency(m, traj: Trajectory, cfg: SolverConfig, k=1) -> float:
    """Residual of the once-differentiated equation along a trajectory.

    Differentiating the rescaled equation once gives

        Mbar'(T) = e^{-nu T} [ M'(T) + L1(T)
                               + nu int_0^T M(T-t) Mbar'(t) e^{nu t} dt ]

    with the lag term L1(T) = nu M(T) (Mbar(0) - 1), which vanishes for
    sources normalized to M(0) = identity.  Both derivatives are formed by
    second-order finite differences of the node values; the returned value
    is the largest sup-norm residual over the nodes.  Only first order
    (k=1) is supported.
    """
    if k != 1:
        raise UnsupportedOrderError(f"only k=1 is implemented, got k={k}")
    nu, h = cfg.nu, cfg.grid.h
    ts = cfg.grid.nodes
    M = _matrix_stack(as_path(m), ts)
    Mbar = traj.values

    def fd(stack):
        d = np.empty_like(stack)
        d[1:-1] = (stack[2:] - stack[:-2]) / (2.0 * h)
        d[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * h)
        d[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * h)
        return d

    dM = fd(M)
    dMbar = fd(Mbar)
    lag = Mbar[0] - np.eye(M.shape[-1])
    integ = _trapezoid_convolution(M, np.exp(nu * ts)[:, None, None] * dMbar, h)
    rhs = np.exp(-nu * ts)[:, None, None] * (dM + nu * (M @ lag) + nu * integ)
    return float(np.abs(dMbar - rhs)[1:].max())
