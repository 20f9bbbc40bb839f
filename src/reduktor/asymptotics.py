"""Long-time behavior of the averaged evolution.

Exhibits for the convergence theory: the contraction statistic
delta = int_0^inf alpha(t) e^{-t} dt driving the scalar proof, convergence
reports that compare trajectories against the blockwise-uniform projector
predicted from support patterns, the constant-permutation example in which
compression stays at one yet the powers average out, and the exact
invariance of the dynamics under joint rescaling of the time axis and the
reduction rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dstoch import (
    BlockPartition,
    DStochMatrix,
    compression_many,
    perm_matrix,
    support_blocks,
    theta_of,
)
from .errors import NotCyclicOfOrderK, PeriodMismatchError
from .volterra import (
    SolverConfig,
    TimeGrid,
    Trajectory,
    _csv_lines,
    _matrix_stack,
    _modal_solve,
    _SmoothPath,
    as_path,
    march_solve,
)

TOL_CYCLE = 1e-12   # distance of P^k from the identity that counts as equal
TOL_PERIOD = 1e-9   # deviation of M(t + PERIOD) from M(t) that rescaling_check allows
EPS_CONV = 1e-3     # final distance to the predicted limit that counts as converged
LIMIT_SAMPLES = 64  # times on (0, t_max] whose supports predict_limit reads
TAIL_WINDOW = 0.1   # share of the trajectory's nodes whose distance must not rise
MAX_ORDER = 64      # largest cyclic order cyclic_order looks for
CYCLIC_STEPS = 600  # grid steps of cyclic_example's closed-form trajectory
PERIOD = 2.0 * np.pi  # period of the sources rescaling_check takes
DELTA_HORIZON = 40.0  # delta_statistic's upper limit; the tail it drops is e^{-40}
DELTA_STEPS = 40000   # delta_statistic's trapezoid panels on [0, DELTA_HORIZON]


@dataclass
class DeltaEstimate:
    """Quadrature value of int_0^H alpha e^{-t} dt with an error bound.

    The bound combines the truncated tail e^{-H} with a two-resolution
    quadrature error estimate.
    """

    value: float
    error_bound: float

    def __float__(self):
        return self.value


def delta_statistic(alpha: _SmoothPath) -> DeltaEstimate:
    """Contraction statistic of a scalar input.

    Composite trapezoid on [0, DELTA_HORIZON] with panels split at the input's
    discontinuities; values below one certify the contraction that drives
    the decay of the scalar solution.
    """
    def integrate(m):
        base = np.linspace(0.0, DELTA_HORIZON, m + 1)
        cuts = np.asarray(alpha.jump_times(0.0, DELTA_HORIZON), dtype=float)
        edges = np.unique(np.concatenate([[0.0, DELTA_HORIZON], cuts]))
        pad = 1e-12 * DELTA_HORIZON  # drop fp-ambiguous points at cuts
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            inner = base[(base > a + pad) & (base < b - pad)]
            xs = np.concatenate([[a], inner, [b]])
            vals = np.asarray(alpha.many(xs), dtype=float)
            vals[-1] = float(alpha.left(b))
            fs = vals * np.exp(-xs)
            total += float(np.sum(0.5 * np.diff(xs) * (fs[:-1] + fs[1:])))
        return total

    fine = integrate(DELTA_STEPS)
    coarse = integrate(DELTA_STEPS // 2)
    # |fine - coarse| is about three times the fine-grid error for a
    # second-order rule; used unscaled as a conservative bound
    quad_err = abs(fine - coarse)
    return DeltaEstimate(fine, float(np.exp(-DELTA_HORIZON) + quad_err + 1e-14))


@dataclass
class ConvergenceReport:
    """Trajectory compression profile and distance to the predicted limit."""

    times: np.ndarray
    c_values: np.ndarray
    predicted_limit: DStochMatrix
    partition: BlockPartition
    distances: np.ndarray
    verdict: str  # converged | not_converged | identity_sector_only

    @property
    def final_distance(self) -> float:
        return float(self.distances[-1])


def predict_limit(m, t_max):
    """Blockwise-uniform projector from the supports at LIMIT_SAMPLES times on (0, t_max]."""
    ts = np.linspace(t_max / LIMIT_SAMPLES, t_max, LIMIT_SAMPLES)
    samples = _matrix_stack(as_path(m), ts)
    part = support_blocks(samples)
    n = samples.shape[-1]
    return theta_of(part, n), part


def convergence_report(m, nu, cfg: SolverConfig) -> ConvergenceReport:
    """Solve, predict the limit from supports, and classify the outcome.

    Verdict ``converged`` requires the final distance below EPS_CONV, a
    tenfold drop of the compression from its maximum, and a nonincreasing
    distance over the trailing TAIL_WINDOW share of the nodes.  When every
    index sits in the identity sector the verdict is ``identity_sector_only``.
    A ``cfg.nu`` other than ``nu`` is refused (ValueError).
    """
    if cfg.nu != nu:
        raise ValueError(f"cfg.nu = {cfg.nu!r} differs from nu = {nu!r}; give one rate")
    traj = march_solve(m, cfg)
    limit, part = predict_limit(m, cfg.grid.t_max)
    diffs = traj.values - limit.entries
    distances = np.abs(diffs).max(axis=(1, 2))
    c_values = compression_many(traj.values)
    tail = max(2, int(TAIL_WINDOW * len(distances)))
    tail_slice = distances[-tail:]
    nonincreasing = bool(np.all(np.diff(tail_slice) <= 1e-9))
    if not part.blocks:
        verdict = "identity_sector_only" if distances.max() < 1e-6 else "not_converged"
    elif (distances[-1] < EPS_CONV
          and c_values[-1] <= 0.1 * c_values.max() + 1e-15
          and nonincreasing):
        verdict = "converged"
    else:
        verdict = "not_converged"
    return ConvergenceReport(times=traj.times, c_values=c_values,
                             predicted_limit=limit, partition=part,
                             distances=distances, verdict=verdict)


def convergence_report_to_csv(report: ConvergenceReport) -> str:
    lines = ["t,c_value,distance"]
    lines += _csv_lines(report.times, report.c_values, report.distances)
    return "\n".join(lines) + "\n"


@dataclass
class CyclicReport:
    """Averaged evolution of a constant cyclic permutation input."""

    trajectory: Trajectory
    limit: np.ndarray
    limit_residual: float


def cyclic_order(p):
    """Smallest k <= MAX_ORDER with P^k = identity within TOL_CYCLE, or None."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    acc = np.eye(n)
    for k in range(1, MAX_ORDER + 1):
        acc = acc @ p
        if np.abs(acc - np.eye(n)).max() <= TOL_CYCLE:
            return k
    return None


def cyclic_example(p, k, nu, T) -> CyclicReport:
    """Constant permutation input: trajectory on CYCLIC_STEPS steps, and its limit.

    For M(t) = P the averaged evolution is P exp(nu t (P - 1)), the closed
    form of ``volterra._modal_solve`` with realization (C, L, B) = (P, 0, 1).
    As P^k = 1, the eigenvalues of nu (P - 1) are nu (omega - 1) for k-th
    roots of unity omega, whose real parts are negative except at
    omega = 1, so the limit is the projector onto the fixed vectors of P,
    the power average (1/k) sum_{r<k} P^r.
    """
    p = np.asarray(p, dtype=float)
    order = cyclic_order(p)
    if order != k:
        raise NotCyclicOfOrderK(
            f"matrix has cyclic order {order}, expected {k}")
    grid = TimeGrid(t_max=float(T), steps=CYCLIC_STEPS)
    values, _imag = _modal_solve(p, np.zeros_like(p), np.eye(len(p)), nu, grid.nodes)
    limit = sum(np.linalg.matrix_power(p, r) for r in range(k)) / k
    residual = float(np.abs(values[-1] - limit).max())
    return CyclicReport(trajectory=Trajectory(grid=grid, values=values), limit=limit,
                        limit_residual=residual)


def cyclic_permutation(k) -> np.ndarray:
    """Permutation matrix of the k-cycle 0 -> 1 -> ... -> k-1 -> 0."""
    return perm_matrix(tuple(range(1, k)) + (0,))


def rescaling_check(m, tau, nu, cfg: SolverConfig) -> float:
    """Invariance of the dynamics under joint time/rate rescaling.

    For a source of period PERIOD, solving with (M, nu) and with
    (M'(t) = M(PERIOD * t / tau), nu' = PERIOD * nu / tau) on grids whose
    nodes correspond exactly gives trajectories related by pure time
    rescaling; the sup-norm mismatch over corresponding nodes is returned.
    A ``cfg.nu`` other than ``nu`` is refused (ValueError).
    """
    if cfg.nu != nu:
        raise ValueError(f"cfg.nu = {cfg.nu!r} differs from nu = {nu!r}; give one rate")
    path = as_path(m)
    probe = np.linspace(0.13, PERIOD, 7)
    dev = float(np.abs(path.many(probe + PERIOD) - path.many(probe)).max())
    if dev > TOL_PERIOD:
        raise PeriodMismatchError(
            f"source is not {PERIOD:g}-periodic (deviation {dev:.3e})")
    base = march_solve(m, cfg)
    scale = PERIOD / tau
    scaled_grid = TimeGrid(t_max=cfg.grid.t_max / scale, steps=cfg.grid.steps)
    scaled_path = _RescaledPath(path, scale)
    scaled = march_solve(scaled_path, SolverConfig(nu=nu * scale, grid=scaled_grid))
    return float(np.abs(scaled.values - base.values).max())


class _RescaledPath(_SmoothPath):
    def __init__(self, path, scale):
        self.path = path
        self.scale = scale

    def many(self, ts):
        return self.path.many(self.scale * np.asarray(ts, dtype=float))

    def left(self, t):
        return self.path.left(self.scale * t)

    def jump_times(self, t0, t1):
        inner = np.asarray(self.path.jump_times(self.scale * t0, self.scale * t1))
        return inner / self.scale
