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
tau, and a constant-coefficient ODE reconstruction for the raised-cosine
input at unit reduction rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dstoch import lift
from .errors import (
    NonRealReconstructionError,
    ValidationFailure,
    ValueEscapeError,
)
from .volterra import TimeGrid, Trajectory, _csv_lines, _limits, _march_1x1, _SmoothPath

SCALAR_ESCAPE_TOL = 1e-7


# -- scalar inputs -----------------------------------------------------------

# Inputs alpha(t) with values in [0, 1]: right-continuous time paths whose
# ``many`` returns a 1-d array.
ScalarInput = _SmoothPath


class ConstantInput(ScalarInput):
    def __init__(self, c):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"constant input must lie in [0, 1], got {c}")
        self.c = float(c)

    def many(self, ts):
        return np.full(len(np.atleast_1d(ts)), self.c)


class PiecewiseInput(ScalarInput):
    """Repeating pattern of constant values on intervals of length tau.

    alpha(t) = pattern[floor(t / tau) mod len(pattern)], right-continuous.
    """

    def __init__(self, tau, pattern=(1.0, 0.0)):
        if tau <= 0:
            raise ValueError("tau must be positive")
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

def scalar_march(alpha: ScalarInput, nu, grid: TimeGrid, *,
                 escape_tol=SCALAR_ESCAPE_TOL) -> ScalarTrajectory:
    """Trapezoid marching of the scalar equation.

    The n = 1 case of the matrix march (``volterra._march_1x1``): the march
    of N(t) = e^{nu t} beta(t), divided by the discrete growth factor of
    the scheme.  Both are solved tilted, as e^{-nu t} N from the source
    e^{-nu t} alpha(t), so nothing overflows at large nu T, and each is one
    lower-triangular system solved in blocks of ``volterra.MARCH_BLOCK``
    nodes.  Quadrature panels use one-sided limits at discontinuities of
    alpha, which therefore must sit on grid nodes.  A node that leaves
    [0, 1] by more than escape_tol, or is not finite, raises
    ValueEscapeError.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    ts = grid.nodes
    aL, aR, jump_idx = _limits(alpha, grid, matrix=False)
    betaR, left, _ = _march_1x1(aL, aR, jump_idx, np.ones(grid.steps + 1), grid.h, nu)
    lo, hi = betaR.min(), betaR.max()  # nan if any node is, and nan escapes too
    if not (lo >= -escape_tol and hi <= 1.0 + escape_tol):
        k = int(np.argmin(betaR) if not lo >= -escape_tol else np.argmax(betaR))
        raise ValueEscapeError(k, float(betaR[k]))
    jumps_log = [(float(ts[j]), float(left[j]), float(betaR[j])) for j in jump_idx]
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

    def right(self, t):
        return lift(self.alpha.right(t), self.n)

    def jump_times(self, t0, t1):
        return self.alpha.jump_times(t0, t1)


def lift_scalar(traj: ScalarTrajectory, n) -> Trajectory:
    """Lift a scalar trajectory to matrices beta * 1 + (1 - beta) * Theta_n."""
    if n < 2:
        raise ValueError("matrix lift needs n >= 2")
    values = lift(traj.beta, n)
    for k, m in enumerate(values):
        lo = m.min()
        if lo < -1e-9:
            raise ValidationFailure(k, float(-lo), "lifted trajectory")
    jump_nodes = tuple(traj.grid.index_of(t) for t, _, _ in traj.jumps)
    left_values = {traj.grid.index_of(t): lift(lo, n) for t, lo, _ in traj.jumps}
    return Trajectory(grid=traj.grid, values=values,
                      jump_nodes=jump_nodes, left_values=left_values)


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

    if tau <= 0 or nu < 0:
        raise ValueError("need tau > 0 and nu >= 0")
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


# -- constant-coefficient ODE route for the raised-cosine input ---------------

# With alpha(t) = 1/2 + cos(t)/2 and unit reduction rate, the rescaled
# solution splits into oscillation channels e^t beta = a + b e^{it} +
# conj(b) e^{-it} whose coefficients satisfy constant-coefficient cubics:
#     a''' - a'' + a' - a/2 = 0          a(0) = a'(0) = a''(0) = 1/2
#     b''' + (3i-1) b'' - 2(1+i) b' + b/2 = 0
#                                        b(0) = 1/4, b'(0) = 1/4,
#                                        b''(0) = (1 - i)/4
# The channels are defined by a = 1/2 + (1/2) int N and
# b = 1/4 + (1/4) int e^{-it} N for N = e^t beta, from which the equations
# and initial data follow by differentiation.

_A_LAST_ROW = np.array([0.5, -1.0, 1.0])
_A_INIT = np.array([0.5, 0.5, 0.5])
_B_LAST_ROW = np.array([-0.5, 2.0 + 2.0j, 1.0 - 3.0j])
_B_INIT = np.array([0.25, 0.25, 0.25 - 0.25j])


def _companion(last_row):
    """Companion matrix of the cubic y^(3) = last_row . (y, y', y'')."""
    c = np.zeros((3, 3), dtype=last_row.dtype)
    c[0, 1] = 1.0
    c[1, 2] = 1.0
    c[2, :] = last_row
    return c


def _expm_states(system, y0, ts):
    """Rows of exp(system * t) @ y0 for each t via eigendecomposition."""
    w, v = np.linalg.eig(system)
    coef = np.linalg.solve(v, np.asarray(y0, dtype=complex))
    return (np.exp(np.outer(ts, w))[:, None, :] * (v * coef)).sum(axis=2)


def _channel_states(ts):
    """Real (a, a', a'') and complex (b, b', b'') channel states at ts."""
    a = _expm_states(_companion(_A_LAST_ROW), _A_INIT, ts).real
    return a, _expm_states(_companion(_B_LAST_ROW), _B_INIT, ts)


@dataclass
class TrigSolution:
    """Cosine-input solution with channel states for residual checking."""

    trajectory: ScalarTrajectory
    a_state: np.ndarray      # (len, 3): a, a', a''
    b_state: np.ndarray      # (len, 3) complex: b, b', b''
    imag_residual: float

    def states_at(self, ts):
        """Channel states at arbitrary times (exact, for residual oracles)."""
        return _channel_states(np.asarray(ts, dtype=float))


def trig_ode_solve(grid: TimeGrid, *, imag_tol=1e-7) -> TrigSolution:
    """Solve the raised-cosine input case through the channel ODEs.

    The two cubics are integrated as first-order systems by exact matrix
    exponentials of their companion matrices (real for a, complex for b),
    and beta is reconstructed as e^{-t} (a + b e^{it} + conj(b) e^{-it}).
    Raises when the reconstruction has imaginary residue above imag_tol.
    """
    ts = grid.nodes
    a_state, b_state = _channel_states(ts)
    b = b_state[:, 0]
    osc = np.exp(1j * ts)
    recon = a_state[:, 0] + b * osc + np.conj(b) * np.conj(osc)
    imag_res = float(np.abs(recon.imag).max())
    if imag_res > imag_tol:
        raise NonRealReconstructionError(imag_res)
    beta = np.exp(-ts) * recon.real
    return TrigSolution(trajectory=ScalarTrajectory(grid=grid, beta=beta),
                        a_state=a_state, b_state=b_state,
                        imag_residual=imag_res)
