"""Scalar reduction of the averaged-evolution equation.

When the input matrix family lies on the segment between the identity and
the uniform projector, M(t) = alpha(t) * 1 + (1 - alpha(t)) * Theta, the
matrix equation collapses to a scalar one for the coefficient beta(t) of
the averaged evolution:

    beta(T) = e^{-nu T} alpha(T)
              + nu e^{-nu T} int_0^T alpha(T-t) beta(t) e^{nu t} dt.

For n = 2 the reduction is exact for every source: each 2 x 2 doubly
stochastic matrix is alpha 1 + (1 - alpha) Theta_2 with alpha in [-1, 1],
and ``volterra._march`` marches every 2 x 2 source this way.  The inputs
here keep alpha in [0, 1], where the lift is nonnegative for every n.

Scalar inputs are time paths of the same protocol as the matrix sources
(``volterra._SmoothPath``, exported here as ``ScalarInput``) whose
``many`` returns a 1-d array of values; ``LiftedPath`` is the matrix path
alpha(t) * 1 + (1 - alpha(t)) * Theta_n of an input.

Three solution methods are provided: trapezoid marching (any input), an
exact polynomial method of steps for the alternating 1/0 input with period
tau, and the constant-coefficient ODE route for the cosine input at any
reduction rate, mean and amplitude (``volterra._modal_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dstoch import lift
from .errors import ValueEscapeError
from .volterra import (SolverConfig, TimeGrid, Trajectory, _csv_lines, _limits, _march,
                       _modal_solve, _SmoothPath, _validate_nodes)

SCALAR_ESCAPE_TOL = 1e-7  # how far a marched beta may leave [0, 1]


# -- scalar inputs -----------------------------------------------------------

# Inputs alpha(t) with values in [0, 1]: right-continuous time paths whose
# ``many`` returns a 1-d array.
ScalarInput = _SmoothPath


class ConstantInput(ScalarInput):
    def __init__(self, value):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"constant input must lie in [0, 1], got {value}")
        self.value = float(value)

    def many(self, ts):
        return np.full(len(np.atleast_1d(ts)), self.value)


class PiecewiseInput(ScalarInput):
    """Repeating pattern of constant values on intervals of length tau.

    alpha(t) = pattern[floor(t / tau) mod len(pattern)], right-continuous.
    """

    def __init__(self, tau, pattern=(1.0, 0.0)):
        if not 0 < tau < np.inf:  # NaN fails too
            raise ValueError(f"tau must be positive and finite, got {tau}")
        pattern = tuple(float(p) for p in pattern)
        if not pattern or any(not 0.0 <= p <= 1.0 for p in pattern):
            raise ValueError("pattern values must lie in [0, 1]")
        self.tau = float(tau)
        self.pattern = pattern

    def _segment(self, k):
        return self.pattern[k % len(self.pattern)]

    @staticmethod
    def _segment_index(r):
        # nudge by a few ulps so exact multiples land right-continuously
        # without absorbing genuinely lower points
        pad = 32.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(r))
        return np.floor(r + pad).astype(int)

    def many(self, ts):
        ks = self._segment_index(np.asarray(ts, dtype=float) / self.tau)
        pat = np.asarray(self.pattern)
        return pat[ks % len(pat)]

    def left(self, t):
        k = int(round(t / self.tau))
        if abs(t - k * self.tau) <= 1e-12 * max(1.0, t) and k >= 1:
            return self._segment(k - 1)
        return self(t)

    def jump_times(self, t0, t1):
        k0 = max(1, int(np.ceil(t0 / self.tau - 1e-12)))
        k1 = int(np.floor(t1 / self.tau + 1e-12))
        ts = [k * self.tau for k in range(k0, k1 + 1)
              if self._segment(k) != self._segment(k - 1)]
        return np.asarray(ts)


class CosineInput(ScalarInput):
    """alpha(t) = mean + amplitude * cos(t), constrained to [0, 1]."""

    def __init__(self, mean=0.5, amplitude=0.5):
        if not (mean - abs(amplitude) >= 0.0 and mean + abs(amplitude) <= 1.0):  # NaN fails too
            raise ValueError("cosine input leaves [0, 1]")
        self.mean = float(mean)
        self.amplitude = float(amplitude)

    def many(self, ts):
        return self.mean + self.amplitude * np.cos(np.asarray(ts, dtype=float))


class TabulatedInput(ScalarInput):
    """Piecewise-linear interpolation of tabulated values in [0, 1]."""

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or len(times) < 2:
            raise ValueError("need matching 1-d time and value tables")
        if not np.all(np.diff(times) > 0):  # NaN fails too
            raise ValueError("times must be strictly increasing")
        if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails too
            raise ValueError("tabulated values must lie in [0, 1]")
        self.times = times
        self.table = values

    def many(self, ts):
        return np.interp(np.asarray(ts, dtype=float), self.times, self.table)


# -- scalar trajectory -------------------------------------------------------

@dataclass
class ScalarTrajectory:
    """beta values on a uniform grid plus a log of discontinuities.

    Node values are right-continuous; ``jumps`` holds (t, left, right)
    triples at the discontinuity times.
    """

    grid: TimeGrid
    beta: np.ndarray
    jumps: list = field(default_factory=list)

    @property
    def times(self):
        return self.grid.nodes

    def at_time(self, t):
        return float(self.beta[self.grid.index_of(t)])


def scalar_trajectory_to_csv(traj: ScalarTrajectory) -> str:
    """CSV with a commented ``jumps`` sidecar listing discontinuities."""
    lines = ["t,beta"] + _csv_lines(traj.times, traj.beta)
    if traj.jumps:
        lines += ["# jumps", "# t,left,right"]
        lines += ["# " + line for line in _csv_lines(np.array(traj.jumps))]
    return "\n".join(lines) + "\n"


# -- marching solver ---------------------------------------------------------

def scalar_march(alpha: ScalarInput, nu, grid: TimeGrid) -> ScalarTrajectory:
    """Trapezoid marching of the scalar equation.

    The n = 1 case of the matrix march (``volterra._march``): the march
    of N(t) = e^{nu t} beta(t), divided by the discrete growth factor of
    the scheme.  Both are solved tilted, as e^{-nu t} N from the source
    e^{-nu t} alpha(t) and the factor from e^{-nu t}, so nothing overflows
    at large nu T, and each is one lower-triangular system solved in
    blocks of ``volterra.MARCH_BLOCK`` nodes.  Quadrature panels use the
    one-sided limits of alpha read at each jump time, which must lie on
    the grid (``volterra._limits``).  A node that leaves [0, 1] by more than
    SCALAR_ESCAPE_TOL, or is not finite, raises ValueEscapeError.
    """
    SolverConfig(nu=nu, grid=grid)  # a negative or non-finite nu fails here
    out, left = _march(*_limits(alpha, grid, matrix=False), grid.h, nu)
    betaR = out[:, 0, 0]
    lo, hi = betaR.min(), betaR.max()  # nan if any node is, and nan escapes too
    if not (lo >= -SCALAR_ESCAPE_TOL and hi <= 1.0 + SCALAR_ESCAPE_TOL):
        k = int(np.argmin(betaR) if not lo >= -SCALAR_ESCAPE_TOL else np.argmax(betaR))
        raise ValueEscapeError(k, float(betaR[k]))
    jumps_log = [(float(grid.nodes[j]), float(v[0, 0]), float(betaR[j])) for j, v in left.items()]
    return ScalarTrajectory(grid=grid, beta=betaR, jumps=jumps_log)


# -- lift to matrices --------------------------------------------------------

class LiftedPath(_SmoothPath):
    """Matrix path alpha(t) * 1 + (1 - alpha(t)) * Theta_n."""

    def __init__(self, alpha: ScalarInput, n):
        self.alpha = alpha
        self.n = int(n)

    def many(self, ts):
        return lift(self.alpha.many(ts), self.n)

    def left(self, t):
        return lift(self.alpha.left(t), self.n)

    def jump_times(self, t0, t1):
        return self.alpha.jump_times(t0, t1)


def lift_scalar(traj: ScalarTrajectory, n) -> Trajectory:
    """Lift a scalar trajectory to matrices beta * 1 + (1 - beta) * Theta_n."""
    if n < 2:
        raise ValueError("matrix lift needs n >= 2")
    values = lift(traj.beta, n)
    _validate_nodes(values, 1e-9, "lifted trajectory")
    left_values = {traj.grid.index_of(t): lift(lo, n) for t, lo, _ in traj.jumps}
    return Trajectory(grid=traj.grid, values=values, left_values=left_values)


# -- exact method of steps for the alternating input -------------------------

def piecewise_delay_solve(tau, nu, n_intervals, *, nodes_per_interval=200) -> ScalarTrajectory:
    """Exact interval-by-interval solution for the alternating 1/0 input.

    On each interval [i tau, (i+1) tau) the derivative of beta is a lag
    combination of earlier intervals,

        beta'(T) = nu * sum_{k=1}^{i} (-1)^k e^{-nu k tau} beta(T - k tau),

    with jump conditions beta(k tau +) - beta(k tau -) = (-1)^k e^{-nu k tau}.
    Since the interval-0 solution is constant, every interval is a
    polynomial in the local coordinate; the recursion integrates those
    polynomials exactly, so the first two intervals reproduce the analytic
    solutions 1 and 1 + (nu tau - nu T - 1) e^{-nu tau} to roundoff.
    """
    from numpy.polynomial import Polynomial

    if not (0 < tau < np.inf and 0 <= nu < np.inf):  # NaN fails too
        raise ValueError(f"need finite tau > 0 and nu >= 0, got tau={tau}, nu={nu}")
    K = int(n_intervals)
    if K < 1:
        raise ValueError("need at least one interval")
    decay = [(-1.0) ** k * np.exp(-nu * k * tau) for k in range(K + 1)]
    polys = [Polynomial([1.0])]
    for i in range(1, K):
        deriv = Polynomial([0.0])
        for k in range(1, i + 1):
            deriv = deriv + (nu * decay[k]) * polys[i - k]
        start = polys[i - 1](tau) + decay[i]
        polys.append(deriv.integ(1, k=[start]))

    grid = TimeGrid(t_max=K * tau, steps=K * int(nodes_per_interval))
    ts = grid.nodes
    beta = np.empty(len(ts))
    for idx, t in enumerate(ts):
        i = min(int(np.floor(t / tau + 1e-12)), K - 1)
        u = t - i * tau
        if idx == len(ts) - 1:
            # Final node: store the right-continuous value like scalar_march.
            beta[idx] = polys[K - 1](tau) + decay[K]
        else:
            beta[idx] = polys[i](u)
    jumps = [(k * tau, float(polys[k - 1](tau)),
              float(polys[k - 1](tau) + decay[k])) for k in range(1, K + 1)]
    return ScalarTrajectory(grid=grid, beta=beta, jumps=jumps)


# -- ODE route for the cosine input -------------------------------------------

# alpha(t) = mean + amplitude cos t is c e^{L t} y0 on the states (1, cos t, sin t)
_COSINE_L = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_COSINE_Y0 = np.array([[1.0], [1.0], [0.0]])


@dataclass
class TrigSolution:
    """Cosine-input solution of the ODE route and its imaginary residue."""

    trajectory: ScalarTrajectory
    imag_residual: float


def trig_ode_solve(alpha: CosineInput, nu, grid: TimeGrid) -> TrigSolution:
    """Solve the cosine input through the constant-coefficient ODE.

    The input is realized on the three states (1, cos t, sin t), so beta
    is the closed form of ``volterra._modal_solve``: a matrix exponential
    of a 3 x 3 system, at any nu, mean and amplitude.  Raises
    NonRealReconstructionError when the reconstruction has imaginary
    residue above ``volterra.TOL_IMAG``.
    """
    SolverConfig(nu=nu, grid=grid)  # a negative or non-finite nu fails here
    c = np.array([[alpha.mean, alpha.amplitude, 0.0]])
    values, imag = _modal_solve(c, _COSINE_L, _COSINE_Y0, nu, grid.nodes)
    return TrigSolution(trajectory=ScalarTrajectory(grid=grid, beta=values[:, 0, 0]),
                        imag_residual=imag)
