"""Volterra solvers for the averaged stochastic-reduction evolution.

The averaged evolution Mbar solves a linear Volterra equation of the
second kind,

    Mbar(T) = e^{-nu T} ( M(T) + nu * int_0^T M(T-t) Mbar(t) e^{nu t} dt ),

equivalently, with N(t) = e^{nu t} Mbar(t),

    N(T) = M(T) + nu * int_0^T M(T-t) N(t) dt.

The equation has no differential form, so it is marched with the
composite trapezoid rule on a uniform grid, the endpoint t = k solved
implicitly.  The paper's equation has a constant memory weight, and one
kernel, ``_march``, marches it for ``march_solve`` and the scalar route,
each returning a ``Trajectory``, node values and left limits by jump node:

    X(T_k) = M(T_k) + b sum_{t <= k} w_t M(T_k - t) X(t),

with trapezoid weights w and the number b = nu.  The generalized kernel
form, with arrival weight a(T) and memory weight b(t, T) constrained by
int_0^T b(t, T) dt = 1 - a(T),

    X(T_k) = a(T_k) M(T_k) + sum_{t <= k} w_t b(t, T_k) M(T_k - t) X(t),

takes only continuous sources, and ``march_solve_general`` solves it with
the same block solver for a ``Kernel`` of either form: a lag function,
b = psi(T - t), or a rank-one pair, b = u(T) v(t).

The back-rescaling divides by the scheme's own discrete growth factor
sigma, the same march run on the unit source M = 1, not by
e^{nu T}: the two agree to O(h^2), but sigma is exactly the row/column-sum
mode of the marched solution, so every output node is doubly stochastic
to machine precision instead of drifting by e^{T nu^3 h^2 / 12}.

A 2 x 2 source takes the kernel's 1 x 1 path.  Every doubly stochastic
2 x 2 matrix is beta 1 + (1 - beta) Theta_2, with Theta_2 the uniform
projector and beta = 1 - M[0, 1] - M[1, 0] in [-1, 1]; these matrices
commute and share the eigenvectors (1, 1) and (1, -1), so the march
splits exactly into the unit mode and one scalar mode beta, which is
marched on its own and lifted back (the paper's scalar reduction, which
for n = 2 covers every source).  The lift is doubly stochastic whatever
beta is, so no output check can catch a bad source; ``_limits`` checks it.

The march of an n x n source (sigma, a scalar input and the beta mode of
a 2 x 2 source have n = 1) is one block lower-triangular system in the
node averages of X, solved in blocks of MARCH_BLOCK // n nodes
(``_blocked_solve``; Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
Comput. 6 (1985) 532).  A constant n >= 3 source instead sums its
history, and sigma's, in one running term (``_constant_march``).
``_march`` solves for the tilted e^{-b T} X from the source e^{-b t} M(t),
since T_k = T_{k-t} + T_t on the grid, so nothing overflows at large b T.

Sources are time paths: ``many(ts)``, the right-continuous values, with
``left(t)`` and ``jump_times``; ``_SmoothPath`` supplies them (and
``__call__``) for a continuous source.  Constant matrices, bath models
(``channels.BathModel``), scalar inputs alpha(t) (``scalar``) and their
matrix lifts are all such paths; ``as_path`` wraps a plain callable
t -> (n, n) array.  ``_limits`` alone reads a path for the marches: the
node values M and the left limit L at each jump node, both read at the
jump time, which must lie on the grid; a source not doubly stochastic
there is an input error (``SourceViolation``), as in the series.  A panel
ending on jump nodes pairs the right limit of M with the left limit of X
and vice versa, averaged.  With node averages Mbar = (L + M) / 2,
Xbar = (XL + XR) / 2 and jumps D = M - L = XR - XL, that pair is

    (M[s] XL[t] + L[s] XR[t]) / 2 = Mbar[s] Xbar[t] - D[s] D[t] / 4,

so each step is still one contraction of Mbar with Xbar, and the march
solves for Xbar.  The only extra terms are the t = 0 endpoint,
which uses the left limit L[k], the implicit endpoint, which uses
XL[k] = Xbar[k] - D[k] / 2, and the pairs where both t and k - t are
jump nodes; none depends on X, and ``_march_terms`` forms them once.

The realization-count series and the derivative-consistency residual are
oracles for that kernel and share none of its code.  Each needs the
explicit trapezoid convolution

    G[j] = h ( sum_{t <= j} M[j - t] F[t] - M[j] F[0] / 2 - M[0] F[j] / 2 )

at every node, which ``_convolution`` forms as one zero-padded
FFT product (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6
(1985) 532), O(K log K) work for all nodes where the march's history
sums take O(K^2).  The series transforms its source once and sums its
levels tilted by e^{-gamma t}, gamma the growth rate of the trapezoid unit
mode, so the levels sum to about 1 at every node and the FFT's rounding,
relative to each level's largest value, stays below the series' check at
any nu T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dstoch import dstoch_residual, lift
from .errors import (
    GridTooCoarseError,
    InputValidationError,
    KernelNormalizationViolation,
    NonRealReconstructionError,
    SourceViolation,
    TailBoundExceededError,
    ValidationFailure,
)

TOL_TRAJ = 1e-7    # double stochasticity of every source and march node and left limit
TOL_NORM = 1e-6    # kernel normalization |int_0^T b(t, T) dt + a(T) - 1|
TOL_TAIL = 1e-10   # Poisson tail P[K > n_max] left out of the series
TOL_GRID = 1e-9    # distance of a time from its node, relative to max(1, |t|)
TOL_IMAG = 1e-7    # imaginary residue of _modal_solve's real solution
# Rows of the march's block system (_blocked_solve): an n x n march takes
# blocks of B = MARCH_BLOCK // n nodes, so its one system is Bn x Bn with
# Bn <= 64 (n x n, one node per block, for n > 64).
# That inversion and each product with the inverse stay below the sizes at
# which OpenBLAS threads an LU (10^4 entries) or a product with a matrix or
# vector, so the bits cannot depend on the thread count.
MARCH_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, h, 2h, ..., t_max with h = t_max / steps."""

    t_max: float
    steps: int

    def __post_init__(self):
        if not 0 < self.t_max < math.inf or self.steps < 1:  # NaN fails too
            raise ValueError(f"need a finite t_max > 0 and steps >= 1, got {self}")

    @property
    def h(self) -> float:
        return self.t_max / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        out = np.linspace(0.0, self.t_max, self.steps + 1)
        out.setflags(write=False)
        return out

    def index_of(self, t) -> int:
        """Node index of a time that must lie on the grid, within TOL_GRID."""
        j = int(round(t / self.h))
        if not (0 <= j <= self.steps) or abs(t - j * self.h) > TOL_GRID * max(1.0, abs(t)):
            raise ValueError(f"time {t!r} does not lie on the grid (h={self.h!r})")
        return j


@dataclass(frozen=True)
class SolverConfig:
    """Reduction rate, grid, and optional series truncation order."""

    nu: float
    grid: TimeGrid
    n_max: int | None = None

    def __post_init__(self):
        if not 0 <= self.nu < math.inf:  # NaN fails too
            raise ValueError(f"reduction rate nu must be finite and >= 0, got {self.nu}")
        if self.n_max is not None and self.n_max < 0:
            raise ValueError(f"series order n_max must be >= 0, got {self.n_max}")


@dataclass(frozen=True)
class Kernel:
    """Generalized arrival/memory kernel pair.

    ``a(T)`` weights the bare evolution and b(t, T) the memory integral;
    both nonnegative with int_0^T b(t, T) dt = 1 - a(T).  ``memory`` gives
    b in one of two forms, else TypeError: a lag function psi, b(t, T) =
    psi(T - t), or a pair (u, v) of rank-one factors, b(t, T) = u(T) v(t)
    with u > 0.  Each is called on an array of times, its value broadcast.
    """

    a: object
    memory: object

    def __post_init__(self):
        m = self.memory
        if not (callable(m) or isinstance(m, tuple) and len(m) == 2 and all(map(callable, m))):
            raise TypeError("a kernel's memory is a lag function psi, b(t, T) = psi(T - t), or "
                            f"a pair (u, v) of rank-one factors, b(t, T) = u(T) v(t); got {m!r}")

    def b(self, t, T):
        """The memory weight b(t, T) of either form."""
        if callable(self.memory):
            return self.memory(T - np.asarray(t, dtype=float))
        return self.memory[0](T) * self.memory[1](np.asarray(t, dtype=float))


def poisson_kernel(nu) -> Kernel:
    """Kernel reproducing the exponential-waiting-time equation: the lag nu e^{-nu s}."""
    return Kernel(a=lambda T: np.exp(-nu * np.asarray(T, dtype=float)),
                  memory=lambda s: nu * np.exp(-nu * s))


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
    m = int(quad_steps) + int(quad_steps) % 2
    ts = np.linspace(0.0, T, m + 1)
    vals = np.broadcast_to(np.asarray(kernel.b(ts, T), dtype=float), ts.shape)
    h = T / m
    integral = h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                          + 2.0 * vals[2:-1:2].sum())
    return float(abs(integral + float(kernel.a(T)) - 1.0))


# -- time-path protocol ------------------------------------------------------

class _SmoothPath:
    """Time-path protocol with the defaults of a continuous source.

    Subclasses define ``__call__`` or ``many`` (each default calls the
    other) and override ``left`` and ``jump_times`` only when the source
    jumps; the library reads ``many``, ``left`` and ``jump_times`` alone.
    A matrix path's ``many`` returns an (len(ts), n, n) stack, a scalar
    input's a 1-d array of len(ts) values.
    """

    def __call__(self, t):
        return self.many(np.array([float(t)]))[0]

    def many(self, ts):
        return np.stack([self(t) for t in np.asarray(ts, dtype=float)])

    def left(self, t):
        return self(t)

    def jump_times(self, t0, t1):
        return np.empty(0)


class _CallablePath(_SmoothPath):
    """Wrap a plain callable as a smooth time path."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, t):
        return np.asarray(self._fn(t), dtype=float)


class ConstantPath(_SmoothPath):
    """Time-independent matrix source."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InputValidationError(
                f"constant source must be a square matrix, got shape {self.matrix.shape}")
        if not np.isfinite(self.matrix).all():
            raise InputValidationError("constant source has non-finite entries")

    def __call__(self, t):
        return self.matrix

    def many(self, ts):
        # zero stride in t, which sends the stack to _march's constant route
        return np.broadcast_to(self.matrix, (len(ts),) + self.matrix.shape)


def as_path(m):
    """Coerce a solver input into the time-path protocol."""
    if all(hasattr(m, k) for k in ("many", "left", "jump_times")):
        return m
    if callable(m):
        return _CallablePath(m)
    raise TypeError(f"cannot interpret {type(m).__name__} as a time-dependent matrix")


@dataclass
class Trajectory:
    """(K+1, n, n) matrices or a scalar's (K+1,) beta on a grid; left limits by jump node."""

    grid: TimeGrid
    values: np.ndarray
    left_values: dict = field(default_factory=dict)

    @property
    def jump_nodes(self) -> tuple:
        return tuple(sorted(self.left_values))

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]

    def at_time(self, t) -> np.ndarray:
        return self.values[self.grid.index_of(t)]

    @property
    def beta(self) -> np.ndarray:
        """The values of a scalar solution, by the name of its coefficient."""
        return self.values


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


def _validate_nodes(values, tol, what="trajectory", nodes=None, error=ValidationFailure):
    """Raise ``error`` (ValidationFailure) at the first matrix of a stack not within tol.

    The error names that matrix by its entry of ``nodes``, by default by
    its index in the stack.
    """
    res = dstoch_residual(values)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size:
        k = bad[0]
        raise error(int(k if nodes is None else nodes[k]), float(res[k]), detail=what)


def _validate_limits(values, left, what, error=ValidationFailure):
    """``_validate_nodes`` within TOL_TRAJ on the node values and on the left limits by node."""
    _validate_nodes(values, TOL_TRAJ, what, error=error)
    if left:
        _validate_nodes(np.stack([*left.values()]), TOL_TRAJ, f"{what} left limit", [*left], error)


def _block_pull(Mbar, H, j0, X):
    """Add the pull of the finished nodes j0..j1-1 to every later node of X.

    X[k] += sum_{j0 <= t < j1} Mbar[k - t] H[t] for k >= j1, H the history
    weights w_t Xbar[t] of the block: its Toeplitz products with every
    later block at once.  For n = 1 each node's share is a dot product of
    j1 - j0 terms (``np.correlate``); for larger n it is one ``np.einsum``
    over a sliding window of Mbar, which calls no BLAS, so no sum depends
    on the thread count.
    """
    j1 = j0 + len(H)
    if j1 == len(X):
        return
    if X.shape[-1] == 1:
        X[j1:, 0, 0] += np.correlate(Mbar[1:len(X) - j0, 0, 0], H[::-1, 0, 0], "valid")
    else:
        window = np.lib.stride_tricks.sliding_window_view(Mbar[1:len(X) - j0], len(H), 0)
        X[j1:] += np.einsum("kijt,tjl->kil", window, H[::-1])


def _march_terms(M, left, h, b):
    """Weights, node averages and jump terms of the march with constant weight b.

    Returns w, the trapezoid weights times b (h b, and h b / 2 at t = 0);
    Mbar, the source of the history sums, M with (L[j] + M[j]) / 2 at each
    jump node j of ``left``; f, the known right-hand side of the implicit
    step for the node averages Xbar; and the shift s[j] = (M[j] - L[j]) / 2
    = XR[j] - Xbar[j] = Xbar[j] - XL[j], by jump node in order.  f is Mbar,
    plus at each jump node k the t = 0 endpoint on the left limit and the
    implicit endpoint on XL[k], together -w_0 (M[0] s[k] + s[k] M[0]) since
    X[0] = M[0], and at each node k the pairs -w_t s[k - t] s[t] of jump
    nodes t and k - t.  Without jumps Mbar and f are M itself.
    """
    K = len(M) - 1
    w = np.full(K + 1, h)
    w[0] = 0.5 * h
    w *= b
    if not left:
        return w, M, M, {}
    jumps = np.array(sorted(left))
    L, R = np.stack([left[j] for j in jumps]), M[jumps]
    Mbar, s = M.copy(), 0.5 * (R - L)
    Mbar[jumps] = 0.5 * (L + R)
    f = Mbar.copy()
    for i, k in enumerate(jumps):
        f[k] -= w[0] * (Mbar[0] @ s[i] + s[i] @ Mbar[0])
        pairs = jumps <= K - k  # partners t, in order, with k + t on the grid
        f[k + jumps[pairs]] -= w[jumps[pairs], None, None] * (s[i] @ s[pairs])
    return w, Mbar, f, dict(zip(jumps.tolist(), s))


def _blocked_solve(w, Mbar, f):
    """Node averages Xbar of the march, block by block.

    w are the history weights, trapezoid weights times the memory weight,
    and Mbar and f (K+1, n, n) stacks, as ``_march_terms`` forms them.  From
    Xbar[0] = f[0], the march is one block lower-triangular system,

        (1 - w_k Mbar[0] / 2) Xbar[k] - sum_{t<k} w_t Mbar[k - t] Xbar[t] = f[k],

    solved in blocks of B = MARCH_BLOCK // n nodes, at least one (Hairer,
    Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532).  Each
    block takes the pull of the finished blocks and applies the inverse of
    its Bn x Bn system (a singular implicit step raises LinAlgError): one
    inverse for weights constant past t = 0, its leading block for a
    partial last block, or one per block for weights that vary.  Each
    finished block adds its pull to every later node at once
    (``_block_pull``), in products too small for BLAS to split over threads.
    """
    K, n = len(Mbar) - 1, Mbar.shape[-1]
    B = min(max(MARCH_BLOCK // n, 1), K)
    lag = np.subtract.outer(np.arange(B), np.arange(B))
    below = np.where((lag > 0)[:, :, None, None], Mbar[np.abs(lag)], 0.0)
    def near(ws):  # inverse of [u, v] = -ws[v] Mbar[u - v], 1 - ws[u] Mbar[0] / 2 at u = v
        b = len(ws)
        system = -ws[:, None, None] * below[:b, :b]
        system[np.arange(b), np.arange(b)] = np.eye(n) - 0.5 * ws[:, None, None] * Mbar[0]
        return np.linalg.inv(system.transpose(0, 2, 1, 3).reshape(b * n, b * n))
    vary = (w[1:] != w[1]).any()
    inverse = None if vary else near(w[1:B + 1])
    X = np.zeros_like(Mbar)
    X[0] = f[0]
    _block_pull(Mbar, w[0] * X[:1], 0, X)
    for k0 in range(1, K + 1, B):
        k1 = min(k0 + B, K + 1)
        rhs = (X[k0:k1] + f[k0:k1]).reshape(-1, n)
        inv = near(w[k0:k1]) if vary else inverse[:len(rhs), :len(rhs)]
        X[k0:k1] = (inv @ rhs).reshape(-1, n, n)
        _block_pull(Mbar, w[k0:k1, None, None] * X[k0:k1], k0, X)
    return X


def _constant_march(M, w, tilt):
    """Tilted march of a constant n x n source M and its unit mode sigma.

    The tilted history sum_{t<k} w_t tilt[k - t] M X(t), tilt[k] = e^{-b T_k},
    is M Z_k with Z_k = tilt[1] (Z_{k-1} + w_{k-1} X(k-1)), a one-term
    exponential sum (Lubich & Schaedle, SIAM J. Sci. Comput. 24 (2002) 161):
    X(k) = (1 - w_0 M)^{-1} (tilt[k] M + M Z_k), O(n^3) per node.  The loop
    marches diag(M, 1), so sigma takes the operations X takes.
    """
    n = len(M)
    A = np.pad(M, (0, 1))
    A[n, n] = 1.0
    X = np.empty((len(w), n + 1, n + 1))
    X[0], Z = A, np.zeros_like(A)
    pref = np.linalg.inv(np.eye(n + 1) - w[0] * A)
    for k in range(1, len(w)):
        Z = tilt[1] * (Z + w[k - 1] * X[k - 1])
        X[k] = pref @ (tilt[k] * A + A @ Z)
    return X[:, :n, :n].copy(), X[:, n:, n:]


def _march(M, left, h, b):
    """Trapezoid march of X(T_k) = M(T_k) + b sum_{t<=k} w_t M(T_k - t) X(t).

    M is the (K+1, n, n) source on the grid and ``left`` its left limits by
    jump node (all > 0), as ``_limits`` returns them; b is the constant
    memory weight.  Returns the node values and the left limits, both
    divided by the unit mode sigma, the march of the unit source.  X and
    sigma are marched tilted, from the sources e^{-b t} M and e^{-b t}, so
    nothing overflows.  A 2 x 2 source is marched as the 1 x 1 stacks of
    its scalar mode beta = 1 - M[0, 1] - M[1, 0] and lifted back to
    beta 1 + (1 - beta) Theta_2, exactly, as the module docstring shows.  A
    jump-free source of zero stride in t (``ConstantPath``) is marched with
    its sigma by ``_constant_march``.  Every other source and sigma are solved for the
    node averages Xbar by ``_blocked_solve``, and the node values and left
    limits are Xbar + s and Xbar - s, s the shift of ``_march_terms``.
    """
    if M.shape[-1] == 2:
        def beta(A):  # the scalar mode, as a 1 x 1 matrix or stack of them
            return (1.0 - A[..., 0, 1] - A[..., 1, 0])[..., None, None]
        out, out_left = _march(beta(M), {j: beta(L) for j, L in left.items()}, h, b)
        return lift(out[:, 0, 0], 2), {j: lift(v[0, 0], 2) for j, v in out_left.items()}
    tilt = np.exp(-b * h * np.arange(len(M))).reshape(-1, 1, 1)  # e^{-b t}
    w, Mbar, f, shift = _march_terms(tilt * M, {j: tilt[j] * L for j, L in left.items()}, h, b)
    if M.strides[0] == 0 and not left:
        X, sigma = _constant_march(M[0], w, tilt[:, 0, 0])
    else:
        X = _blocked_solve(w, Mbar, f)
        sigma = _blocked_solve(w, tilt, tilt)
    out_left = {j: (X[j] - s) / sigma[j] for j, s in shift.items()}
    for j, s in shift.items():
        X[j] += s
    X /= sigma
    return X, out_left


def _matrix_stack(path, ts):
    """``path.many(ts)`` as floats, checked to be a (len(ts), n, n) stack."""
    M = np.asarray(path.many(ts), dtype=float)
    if M.shape != (len(ts),) + M.shape[-1:] * 2:
        raise TypeError(f"{type(path).__name__} is not a matrix path (many returned shape "
                        f"{M.shape}); lift a scalar input with LiftedPath(alpha, n)")
    return M


def _limits(path, grid, matrix=True):
    """A path's values at the grid nodes and its left limits at the jump nodes.

    Returns (M, left): ``path.many`` at the nodes, checked to be a matrix
    stack unless ``matrix`` is false (a scalar input, as 1 x 1 matrices),
    and a map, in node order, from the node j of each jump time t > 0 on
    the grid to ``path.left(t)``, with M[j] = ``path.many`` at t: both
    read at t, so a jump a rounding off its node keeps both its limits.
    A matrix source not doubly stochastic within TOL_TRAJ at either raises
    SourceViolation, an input error, naming the node.
    """
    def sample(ts):
        return (_matrix_stack(path, ts) if matrix
                else np.asarray(path.many(ts), dtype=float)[:, None, None])

    M, left = sample(grid.nodes), {}
    t_end = grid.t_max + TOL_GRID * max(1.0, grid.t_max)  # a jump that close is on t_max
    jumps = sorted(t for t in np.asarray(path.jump_times(0.0, t_end), dtype=float) if t > 0.0)
    if jumps:
        M = M.copy()
        for t, right in zip(jumps, sample(np.array(jumps))):
            j = grid.index_of(t)
            M[j] = right
            left[j] = np.reshape(np.asarray(path.left(t), dtype=float), M.shape[1:])
    if matrix:
        _validate_limits(M, left, "source", SourceViolation)
    return M, left


def march_solve(m, cfg: SolverConfig) -> Trajectory:
    """March the rescaled equation N(T) = M(T) + nu int_0^T M(T-t) N(t) dt.

    Composite trapezoid on the uniform grid with the implicit endpoint
    term solved exactly; jumps of the source use one-sided limits.  The
    output, N over the discrete growth factor, and the source are checked
    doubly stochastic at every node and left limit within TOL_TRAJ.
    """
    grid = cfg.grid
    out, out_left = _march(*_limits(as_path(m), grid), grid.h, cfg.nu)
    _validate_limits(out, out_left, "trajectory")
    return Trajectory(grid=grid, values=out, left_values=out_left)


def march_solve_general(m, kernel: Kernel, grid: TimeGrid) -> Trajectory:
    """March Mbar(T) = a(T) M(T) + int_0^T M(T-t) Mbar(t) b(t, T) dt.

    The kernel normalization is checked on sampled horizons first, by
    Simpson's rule on panels of a sixteenth of a grid step (at least 2048):
    on a kernel the march resolves, its error stays far below TOL_NORM at
    any horizon.  a and each factor of b are sampled once, on the grid, and
    ``_blocked_solve`` marches X and sigma, the march of M = 1: a lag kernel
    from the source psi M and arrival a, a rank-one one as Y = X / u, from M
    with history weights w u v and arrival a / u.  X / sigma is checked
    doubly stochastic within TOL_TRAJ at every node.
    """
    for T in (grid.t_max, grid.t_max / 2.0, grid.t_max / 4.0):
        quad_steps = max(2048, math.ceil(16.0 * T / grid.h))
        res = kernel_normalization_residual(kernel, T, quad_steps=quad_steps)
        if not res <= TOL_NORM:  # NaN fails too
            raise KernelNormalizationViolation(T, res)
    M, left = _limits(as_path(m), grid)
    if left:
        raise ValueError("the generalized-kernel solver requires a continuous source")
    ts = grid.nodes
    def sample(g):  # (K+1, 1, 1) values of a factor on the grid
        return np.broadcast_to(np.asarray(g(ts), dtype=float), ts.shape).reshape(-1, 1, 1)
    w = _march_terms(M, {}, grid.h, 1.0)[0]  # the trapezoid weights
    if callable(kernel.memory):  # the lag psi at the lags T_k - T_t = T_{k-t}
        psi, f = sample(kernel.memory), sample(kernel.a)
    else:
        u, v = map(sample, kernel.memory)
        psi, f, w = np.ones_like(u), sample(kernel.a) / u, w * (u * v)[:, 0, 0]
    out = _blocked_solve(w, psi * M, f * M) / _blocked_solve(w, psi, f)
    _validate_nodes(out, TOL_TRAJ)
    return Trajectory(grid=grid, values=out)


def _modal_solve(C, L, B, nu, ts):
    """Exact tilted solution e^{-nu t} N(t) of a source M(t) = C e^{L t} B.

    N = C Z for the state Z' = (L + nu B C) Z, Z(0) = B, so the solution is
    C e^{S t} B with S = L + nu B C - nu: one eigendecomposition
    S = V diag(w) V^{-1}, then Re (C V) e^{w t} (V^{-1} B) at every time.
    It calls neither the march nor the series, so it checks both.  Returns
    the (len(ts), p, q) values and their largest imaginary residue, which
    must not exceed TOL_IMAG.
    """
    S = L + nu * (B @ C) - nu * np.eye(len(L))
    w, V = np.linalg.eig(S)
    values = np.einsum("pm,tm,mq->tpq", C @ V, np.exp(np.outer(ts, w)), np.linalg.solve(V, B))
    imag = float(np.abs(values.imag).max())
    if not imag <= TOL_IMAG:
        raise NonRealReconstructionError(imag)
    return values.real, imag


def _fft_length(n):
    """Smallest 2^a 3^b 5^c 7^d >= n, a length numpy's FFT transforms fast."""
    L = n
    while True:
        r = L
        while (g := math.gcd(r, 210)) > 1:  # 210 = 2 3 5 7
            r //= g
        if r == 1:
            return L
        L += 1


def _convolution(M, h):
    """The explicit trapezoid convolution with the source M, as a function of F.

    It maps F of shape (K+1, n, m) to G with G[0] = 0 and
    G[j] = h (sum_{t<=j} M[j-t] F[t] - M[j] F[0] / 2 - M[0] F[j] / 2),
    the sum one real FFT product of M and F zero-padded to L >= 2K + 1 (so
    the circular product is the linear one), M transformed once, here, and F
    one column at a time.  The rounding is relative to the largest value
    transformed, so callers tilt sources that grow.
    """
    K1 = len(M)
    L = _fft_length(2 * K1 - 1)
    M_hat = np.fft.rfft(M, L, axis=0)

    def convolve(F):
        G = np.empty(F.shape)
        for c in range(F.shape[-1]):  # a column at a time keeps the temporaries small
            G[..., c:c + 1] = np.fft.irfft(M_hat @ np.fft.rfft(F[..., c:c + 1], L, axis=0),
                                           L, axis=0)[:K1]
        G -= M @ (0.5 * F[0])
        G -= (0.5 * M[0]) @ F
        G *= h
        G[0] = 0.0
        return G
    return convolve


def _series_levels(M, h, nu):
    """Generator of the levels nu^(m-1) e^{-gamma t} F_m and their unit series.

    F_1 = M and F_{m+1} = conv(M, F_m); the unit series is the same
    recursion on M = 1.  Tilting commutes with the convolution, so each
    level convolves nu e^{-gamma t} M with the last.  gamma h =
    ln((1 + nu h / 2) / (1 - nu h / 2)) is the trapezoid unit mode's growth
    per step, so the levels sum to about 1 at every node.
    """
    g = math.log((1.0 + 0.5 * nu * h) / (1.0 - 0.5 * nu * h))  # gamma h
    tilt = np.exp(-g * np.arange(len(M)))[:, None, None]
    F, u = tilt * M, tilt
    yield F, u[:, 0, 0]
    conv, conv_unit = _convolution(nu * F, h), _convolution(nu * u, h)
    while True:
        F, u = conv(F), conv_unit(u)
        yield F, u[:, 0, 0]


def _poisson_law(mu):
    """(first, p): the Poisson(mu) weights of the counts first, first + 1, ...

    From the mode m = floor(mu), p_m = 1, p_{k+1} = p_k mu / (k + 1) and
    p_{k-1} = p_k k / mu run out to the first term below 2**-60 p_m on each
    side, and one fsum normalizes.  Neither e^{-mu} (0 past mu = 745) nor an
    exponent of size mu log mu is formed, so the weights are exact to
    rounding.  mu = 0 gives [1].
    """
    m, cut = int(mu), 2.0 ** -60
    up, k = [1.0], m
    while (p := up[-1] * mu / (k := k + 1)) >= cut:
        up.append(p)
    down, k = [1.0], m + 1
    while (k := k - 1) and (p := down[-1] * k / mu) >= cut:
        down.append(p)
    w = np.array(down[:0:-1] + up)
    return m + 1 - len(down), w / math.fsum(w)


def _pick_series_order(nu, T, n_max, tail_tol):
    """Order n_max, else the first k >= max(1, nu T), with tail P[K > k] <= tail_tol."""
    mu = nu * T
    first, p = _poisson_law(mu)
    # P[K > k] for k = 0, 1, ..., summed from the top of the law; 0.0 past it
    sf = np.append(np.cumsum(np.concatenate([np.zeros(first), p])[:0:-1])[::-1], 0.0)
    if n_max is None:
        n_max = max(1, math.ceil(mu)) if mu else 0
        while n_max < len(sf) and sf[n_max] > tail_tol:
            n_max += 1
    tail = min(float(sf[n_max]), 1.0) if n_max < len(sf) else 0.0  # the sum can round past 1
    if tail > tail_tol:
        raise TailBoundExceededError(
            f"Poisson tail P[K > {n_max}] = {tail:.3e} exceeds {tail_tol:g} at nu*T={mu:g}")
    return n_max, tail


def neumann_series_trajectory(m, cfg: SolverConfig) -> Trajectory:
    """Realization-count expansion at every grid node; a horizon T is ``.at_time(T)``.

    Sums nu^k F_{k+1}, F_1 = M and F_{m+1}(T) = int_0^T M(T-t) F_m(t) dt,
    over the normalizing unit series, to the order ``_pick_series_order``
    gives at t_max, where the Poisson tail is largest.  Level F_{m+1} is the
    trapezoid convolution of M with F_m at all K + 1 nodes at once, one FFT
    product with M transformed once per call, and the unit series is the
    same recursion on M = 1.  Both are summed weighted by nu^m and tilted by
    e^{-gamma t}, gamma the trapezoid unit mode's growth rate
    (``_series_levels``), so every sum stays near 1 at any nu T; a tilt by
    nu leaves them growing as e^{(gamma - nu) t}, 3e7 at h nu = 0.5 and
    nu T = 800.  The tilt cancels in the ratio.  A bad source raises
    SourceViolation before the first level.
    """
    grid, nu = cfg.grid, cfg.nu
    h = grid.h
    if h * nu > 0.5:
        raise GridTooCoarseError(
            f"h * nu = {h * nu:g} > 0.5; refine the grid for the series expansion")
    path = as_path(m)
    if np.asarray(path.jump_times(0.0, grid.t_max)).size:
        raise ValueError("the series evaluator requires a continuous source")
    M = _matrix_stack(path, grid.nodes)
    _validate_limits(M, {}, "source", SourceViolation)
    nmax, _tail = _pick_series_order(nu, grid.t_max, cfg.n_max, TOL_TAIL)
    total = np.zeros_like(M)
    mass = np.zeros(len(M))
    for _, (F, u) in zip(range(nmax + 1), _series_levels(M, h, nu)):
        total += F
        mass += u
    out = total / mass[:, None, None]
    _validate_nodes(out, 1e-9, "series")
    return Trajectory(grid=grid, values=out)


def derivative_consistency(m, traj: Trajectory, cfg: SolverConfig) -> float:
    """Residual of the once-differentiated equation along a trajectory.

    Differentiating the rescaled equation once gives

        Mbar'(T) = e^{-nu T} [ M'(T) + L1(T)
                               + nu int_0^T M(T-t) Mbar'(t) e^{nu t} dt ]

    with the lag term L1(T) = nu M(T) (Mbar(0) - 1), which vanishes for
    sources normalized to M(0) = identity.  Both derivatives are formed by
    second-order finite differences of the node values; the returned value
    is the largest sup-norm residual over the nodes.  The convolution of
    e^{-nu t} M with Mbar' gives e^{-nu T} times the integral, so nothing
    overflows at large nu T.  The nodes and h are the trajectory's own;
    ``cfg`` gives only nu.
    """
    nu, h = cfg.nu, traj.grid.h
    ts = traj.grid.nodes
    M = _matrix_stack(as_path(m), ts)
    Mbar = traj.values

    def fd(stack):
        d = np.empty_like(stack)
        d[1:-1] = (stack[2:] - stack[:-2]) / (2.0 * h)
        d[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * h)
        d[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * h)
        return d

    dM, dMbar = fd(M), fd(Mbar)
    lag = Mbar[0] - np.eye(M.shape[-1])
    decay = np.exp(-nu * ts)[:, None, None]
    integ = _convolution(decay * M, h)(dMbar)
    rhs = decay * (dM + nu * (M @ lag)) + nu * integ
    return float(np.abs(dMbar - rhs)[1:].max())
