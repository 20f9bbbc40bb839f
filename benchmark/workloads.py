"""The benchmark's workloads: inputs made from the seed, one job, its checks.

Each workload is a closed loop of one fixed job.  ``job(tr, mark)`` makes
the calls into the library and calls ``mark`` after each in-process call,
which samples the machine's speed (``RESCALED`` workloads report their job
time at a reference speed); ``verify`` then compares what the calls
returned with the exact references from ``exact`` (not timed).  Constructing a workload builds its inputs with the library's own
constructors, which is the part of set-up that ``setup_s`` times.

Seeds only choose a gauge of three fixed base models: a random bath
unitary, a permutation and phases of the measurement basis, and an energy
shift.  The library sees different generator blocks on every seed, while
M(t) is the same up to a relabelling of the basis, so the discretization
error ``err_max`` is a property of the workload rather than of the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import exact
from reduktor import (
    BathModel,
    LiftedPath,
    PiecewiseInput,
    SolverConfig,
    TimeGrid,
    evolve_realization,
    march_solve,
    march_solve_general,
    monte_carlo_average,
    neumann_series_trajectory,
    poisson_kernel,
    sample_realization,
    trajectory_to_csv,
)
from reduktor.dstoch import dstoch_residual

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

NU = 1.0
TOL_DSTOCH = 1e-7
TOL_ROUNDOFF = 1e-9   # outputs with no discretization error
TOL_COEF = 0.1        # tol = TOL_COEF (omega + nu)^2 T h^2, see second_order_tol
MC_SIGMAS = 6.0
MC_HISTORIES = 20000
MC_SPLIT_HISTORIES = 2000  # histories timed piecewise in the traced run
SERIES_LEVELS = 16


def second_order_tol(grid, omega, nu=NU):
    """Bound for a second-order scheme on a source with frequencies <= omega.

    The trapezoid error is h^2/12 times the second derivative of the
    integrand, integrated over [0, T]; derivatives grow with (omega + nu)^2.
    The coefficient leaves a margin of 19-66x over the errors seen on the
    workloads; a first-order scheme, whose error scales with h, misses it
    by orders of magnitude.
    """
    return TOL_COEF * (omega + nu) ** 2 * grid.t_max * grid.h ** 2


class Check:
    """Collects deviations from the references; any failure fails the job."""

    def __init__(self):
        self.err = 0.0
        self.failures = []

    def fail(self, message):
        self.failures.append(message)

    def close(self, what, got, want, tol):
        """Deviation counted in err_max and held to tol."""
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape}, expected {want.shape}")
            self.err = np.inf
            return
        dev = float(np.abs(got - want).max())
        self.err = max(self.err, dev) if dev == dev else np.inf
        if not dev <= tol:
            self.fail(f"{what}: deviation {dev:.3e} > {tol:.3e}")

    def dstoch(self, what, stack):
        dev = exact.dstoch_violation(stack)
        if not dev <= TOL_DSTOCH:
            self.fail(f"{what}: not doubly stochastic (violation {dev:.3e})")

    def band(self, what, mean, stderr, want):
        """Monte Carlo mean within MC_SIGMAS standard errors of the exact value."""
        dev = np.abs(np.asarray(mean) - want) - (MC_SIGMAS * np.asarray(stderr) + 1e-12)
        if not dev.max() <= 0.0:
            self.fail(f"{what}: outside the {MC_SIGMAS:g}-stderr band by {dev.max():.3e}")

    def true(self, what, ok):
        if not ok:
            self.fail(what)


# -- inputs ------------------------------------------------------------------

def _gaussian(d, rng):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _haar(g):
    """Haar-distributed unitary from a complex Gaussian matrix."""
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def base_joint(n, n2, seed, levels=None):
    """Fixed base generator: unit-norm random Hermitian, or Haar eigenvectors
    over a given list of levels (repeated to fill the dimension)."""
    d = n * n2
    g = _gaussian(d, np.random.default_rng(seed))
    if levels is None:
        joint = (g + g.conj().T) / 2.0
        return joint / np.linalg.norm(joint, 2)
    q = _haar(g)
    joint = (q * np.resize(np.asarray(levels, dtype=float), d)) @ q.conj().T
    return (joint + joint.conj().T) / 2.0


def gauged_joint(joint, n, n2, rng):
    """The same M(t), up to relabelling, seen through fresh generator blocks.

    Conjugating by (bath unitary) x (permutation times phases) preserves the
    Frobenius norm of every bath block of the propagator, and an energy
    shift only multiplies the propagator by a phase.
    """
    v = _haar(_gaussian(n2, rng))
    mono = np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n))
    u = np.kron(v, mono)
    out = u @ joint @ u.conj().T + rng.uniform(-1.0, 1.0) * np.eye(n * n2)
    return (out + out.conj().T) / 2.0


class BathCase:
    """A gauged bath model, built with the library's constructor."""

    def __init__(self, base, n, n2, seed, tag):
        self.n, self.n2 = n, n2
        self.joint = gauged_joint(base, n, n2, np.random.default_rng([seed, tag]))
        self.model = BathModel.from_joint_generator(self.joint, n, n2)

    def solution(self):
        return exact.BathSolution(self.joint, self.n, self.n2)


def conv_flops(n, steps, piecewise=False):
    """Nominal trapezoid-sum work 2 n^3 sum_k k of one march."""
    return 2.0 * n ** 3 * steps * (steps + 1) / 2.0 * (2 if piecewise else 1)


def residual_pass(tr, stack):
    """Traced runs time the library's residual over every output node."""
    if tr.tracing:
        with tr.span("dstoch.residual"):
            for m in stack:
                dstoch_residual(m)


# -- march -------------------------------------------------------------------

class March:
    """Four marches: two sizes, smooth and piecewise branches, general kernel."""

    RESCALED = True

    BASE_A = (3, 2, 2002)
    BASE_B = (8, 4, 204, np.linspace(-1.0, 1.0, 7))

    def __init__(self, seed):
        n, n2, s = self.BASE_A
        self.a = BathCase(base_joint(n, n2, s), n, n2, seed, 1)
        n, n2, s, levels = self.BASE_B
        self.b = BathCase(base_joint(n, n2, s, levels), n, n2, seed, 2)
        self.grid_a = TimeGrid(t_max=3.0, steps=2000)
        self.grid_b = TimeGrid(t_max=3.0, steps=1000)
        self.alpha = PiecewiseInput(1.0, (1.0, 0.0))
        self.lifted = LiftedPath(self.alpha, 3)
        self.grid_l = TimeGrid(t_max=10.0, steps=2000)
        self.kernel = poisson_kernel(NU)

    def prepare(self):
        sol_a, sol_b = self.a.solution(), self.b.solution()
        self.omega_a, self.omega_b = sol_a.omega, sol_b.omega
        self.ref_a = sol_a.mbar(NU, self.grid_a.t_max, self.grid_a.steps)
        self.ref_b = sol_b.mbar(NU, self.grid_b.t_max, self.grid_b.steps)
        intervals = int(round(self.grid_l.t_max / self.alpha.tau))
        self.alt = exact.AlternatingSolution(self.alpha.tau, NU, intervals)

    def job(self, tr, mark):
        out = {}
        for key, case, grid in (("a", self.a, self.grid_a), ("b", self.b, self.grid_b)):
            with tr.span("volterra.march_solve"):
                out[key] = march_solve(tr.path(case.model.m_path()), SolverConfig(NU, grid))
            tr.count("volterra.conv_flops", conv_flops(case.n, grid.steps))
            residual_pass(tr, out[key].values)
            mark()
        with tr.span("volterra.march_solve"):
            out["lifted"] = march_solve(tr.path(self.lifted), SolverConfig(NU, self.grid_l))
        tr.count("volterra.conv_flops", conv_flops(3, self.grid_l.steps, piecewise=True))
        residual_pass(tr, out["lifted"].values)
        mark()
        with tr.span("volterra.march_solve_general"):
            out["general"] = march_solve_general(tr.path(self.a.model.m_path()),
                                                 self.kernel, self.grid_a)
        tr.count("volterra.conv_flops", conv_flops(3, self.grid_a.steps))
        residual_pass(tr, out["general"].values)
        return out

    def verify(self, out, chk):
        tol_a = second_order_tol(self.grid_a, self.omega_a)
        chk.close("march 3x2", out["a"].values, self.ref_a, tol_a)
        chk.close("march 8x4", out["b"].values, self.ref_b,
                  second_order_tol(self.grid_b, self.omega_b))
        chk.close("general kernel 3x2", out["general"].values, self.ref_a, tol_a)
        lifted = out["lifted"]
        ts = self.grid_l.nodes
        tol_l = second_order_tol(self.grid_l, 0.0)
        chk.close("lifted alternating", lifted.values, exact.lift(self.alt.beta(ts), 3), tol_l)
        jumps = sorted(lifted.left_values)
        boundaries = [k * self.alpha.tau for k in range(1, len(self.alt.polys) + 1)]
        chk.true(f"lifted alternating: jump nodes {jumps}",
                 jumps == [self.grid_l.index_of(t) for t in boundaries])
        left = np.stack([lifted.left_values[j] for j in jumps])
        chk.close("lifted alternating, left limits", left,
                  exact.lift(self.alt.beta(ts[jumps], side="left"), 3), tol_l)
        for key in ("a", "b", "lifted", "general"):
            chk.dstoch(key, out[key].values)
        chk.dstoch("lifted left limits", left)


# -- oracle ------------------------------------------------------------------

class Oracle:
    """The compare triangle: march, realization-count series, Monte Carlo."""

    RESCALED = True

    BASE = (3, 2, 1957)

    def __init__(self, seed):
        n, n2, s = self.BASE
        self.c = BathCase(base_joint(n, n2, s), n, n2, seed, 3)
        self.cfg = SolverConfig(NU, TimeGrid(t_max=2.0, steps=1000), n_max=SERIES_LEVELS)
        self.mc_seed = int(np.random.default_rng([seed, 4]).integers(2 ** 31))

    def prepare(self):
        sol = self.c.solution()
        self.omega = sol.omega
        self.ref = sol.mbar(NU, self.cfg.grid.t_max, self.cfg.grid.steps)

    def job(self, tr, mark):
        grid = self.cfg.grid
        path = self.c.model.m_path()
        out = {}
        with tr.span("volterra.march_solve"):
            out["march"] = march_solve(tr.path(path), self.cfg)
        tr.count("volterra.conv_flops", conv_flops(3, grid.steps))
        residual_pass(tr, out["march"].values)
        mark()
        with tr.span("volterra.neumann_series_trajectory"):
            out["series"] = neumann_series_trajectory(tr.path(path), self.cfg)
        tr.count("volterra.series_levels", SERIES_LEVELS)
        residual_pass(tr, out["series"].values)
        mark()
        with tr.span("jump_mc.monte_carlo_average"):
            out["mc"] = monte_carlo_average(tr.path(path), NU, grid.t_max, MC_HISTORIES,
                                            self.mc_seed, workers=1)
        tr.count("jump_mc.histories", MC_HISTORIES)
        if tr.tracing:
            mark()
            for r in range(MC_SPLIT_HISTORIES):
                with tr.span("jump_mc.sample"):
                    stream = np.random.Generator(np.random.Philox(key=[self.mc_seed, r]))
                    real = sample_realization(NU, grid.t_max, stream)
                with tr.span("jump_mc.evolve"):
                    evolve_realization(path, real)
            tr.count("jump_mc.split_histories", MC_SPLIT_HISTORIES)
        return out

    def verify(self, out, chk):
        tol = second_order_tol(self.cfg.grid, self.omega)
        chk.close("march", out["march"].values, self.ref, tol)
        chk.close("series", out["series"].values, self.ref, tol)
        chk.dstoch("march", out["march"].values)
        chk.dstoch("series", out["series"].values)
        mc = out["mc"]
        chk.true(f"Monte Carlo histories {mc.n_samples}", mc.n_samples == MC_HISTORIES)
        chk.band("Monte Carlo mean", mc.mean, mc.stderr, self.ref[-1])


# -- cli ---------------------------------------------------------------------

def _pairs(data):
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _load(name):
    with open(CONFIGS / name, encoding="utf-8") as fh:
        return json.load(fh)


def _grid(cfg):
    return TimeGrid(t_max=float(cfg["grid"]["t_max"]), steps=int(cfg["grid"]["steps"]))


class Cli:
    """Four fresh CLI processes on the shipped configs.

    The seed does not enter: the configs are fixed files.  The traced job
    also repeats the commands' library calls in-process, which is where the
    per-layer numbers of this workload come from.
    """

    RESCALED = False  # the calibration cannot follow the CLI processes
    COMMANDS = (("solve", "spin_flip.json"), ("asymptote", "spin_flip.json"),
                ("genericity", "spin_flip.json"), ("scalar", "scalar_alternating.json"))

    def __init__(self, seed):
        spin = _load("spin_flip.json")
        self.spin_model = BathModel(_pairs(spin["B"]))
        self.spin_nu = float(spin["nu"])
        self.spin_grid = _grid(spin)
        scal = _load("scalar_alternating.json")
        entry = scal["scalar"]
        self.alpha = PiecewiseInput(float(entry["tau"]), tuple(entry["pattern"]))
        self.scalar_nu = float(scal["nu"])
        self.scalar_grid = _grid(scal)
        self.rundir = None

    def prepare(self):
        ts = self.spin_grid.nodes
        self.beta = exact.spin_flip_beta(self.spin_nu, ts)
        sample = ts[1:]
        k = int(np.argmin(np.abs(np.cos(2.0 * sample))))
        self.c_min, self.witness = abs(float(np.cos(2.0 * sample[k]))), float(sample[k])
        intervals = int(round(self.scalar_grid.t_max / self.alpha.tau))
        self.alt = exact.AlternatingSolution(self.alpha.tau, self.scalar_nu, intervals)

    def job(self, tr, mark):
        out = {"runs": []}
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for cmd, cfg in self.COMMANDS:
            target = self.rundir / f"{cmd}.out"
            errlog = self.rundir / f"{cmd}.err"
            argv = [sys.executable, "-m", "reduktor.cli", cmd, "--config",
                    str(CONFIGS / cfg), "--quiet", "--out", str(target)]
            with open(errlog, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                        stdout=subprocess.DEVNULL, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out["runs"].append((cmd, proc.returncode, wall, usage.ru_maxrss / 1024.0))
            out[cmd] = target
        if tr.tracing:
            tr.count("cli.out_bytes", sum(out[c].stat().st_size for c, _ in self.COMMANDS
                                           if out[c].exists()))
            self._in_process(tr)
        return out

    def _in_process(self, tr):
        """The library calls the four commands make, traced."""
        from reduktor import compression_many, convergence_report, piecewise_delay_solve
        from reduktor import scalar_march
        from reduktor.asymptotics import convergence_report_to_csv, predict_limit
        from reduktor.scalar import scalar_trajectory_to_csv

        cfg = SolverConfig(self.spin_nu, self.spin_grid)
        path = tr.path(self.spin_model.m_path())
        with tr.span("volterra.march_solve"):
            traj = march_solve(path, cfg)
        tr.count("volterra.conv_flops", conv_flops(2, self.spin_grid.steps))
        residual_pass(tr, traj.values)
        with tr.span("volterra.csv"):
            trajectory_to_csv(traj)
        predict_limit(path, self.spin_grid.t_max)
        with tr.span("asymptotics.convergence_report"):
            report = convergence_report(path, self.spin_nu, cfg)
        with tr.span("volterra.csv"):
            convergence_report_to_csv(report)
        stack = path.many(self.spin_grid.nodes[1:])
        with tr.span("dstoch.compression_many"):
            compression_many(stack)
        k = int(round(self.scalar_grid.t_max / self.alpha.tau))
        with tr.span("scalar.scalar_march"):
            straj = scalar_march(self.alpha, self.scalar_nu, self.scalar_grid)
        with tr.span("scalar.piecewise_delay_solve"):
            piecewise_delay_solve(self.alpha.tau, self.scalar_nu, k,
                                  nodes_per_interval=self.scalar_grid.steps // k)
        with tr.span("volterra.csv"):
            scalar_trajectory_to_csv(straj)

    def verify(self, out, chk):
        for cmd, code, _, _ in out["runs"]:
            if code != 0:
                log = (self.rundir / f"{cmd}.err").read_text(errors="replace").strip()
                chk.fail(f"reduktor {cmd} exited {code}: {log[-300:]}")
        if chk.failures:
            return
        ts = self.spin_grid.nodes
        tol = second_order_tol(self.spin_grid, 2.0, self.spin_nu)

        solve = np.loadtxt(out["solve"], delimiter=",", skiprows=1, ndmin=2)
        chk.close("solve: times", solve[:, 0], ts, TOL_ROUNDOFF)
        mats = solve[:, 1:].reshape(-1, 2, 2)
        chk.close("solve: Mbar", mats, exact.lift(self.beta, 2), tol)
        chk.dstoch("solve", mats)

        asym = np.loadtxt(out["asymptote"], delimiter=",", skiprows=1, ndmin=2)
        chk.close("asymptote: times", asym[:, 0], ts, TOL_ROUNDOFF)
        chk.close("asymptote: compression", asym[:, 1], np.abs(self.beta), tol)
        chk.close("asymptote: distance", asym[:, 2], np.abs(self.beta) / 2.0, tol)

        gen = json.loads(out["genericity"].read_text())
        chk.true(f"genericity: generic = {gen['generic']}", gen["generic"] is True)
        chk.close("genericity: c_min", gen["c_min"], self.c_min, TOL_ROUNDOFF)
        chk.close("genericity: witness", gen["witness_t"] or np.nan, self.witness, TOL_ROUNDOFF)

        rows, jumps = [], []
        for line in out["scalar"].read_text().splitlines()[1:]:
            if not line.startswith("#"):
                rows.append([float(x) for x in line.split(",")])
            elif line[1:].strip()[:1].isdigit():
                jumps.append([float(x) for x in line[1:].split(",")])
        rows, jumps = np.asarray(rows), np.asarray(jumps)
        sts = self.scalar_grid.nodes
        stol = second_order_tol(self.scalar_grid, 0.0, self.scalar_nu)
        chk.close("scalar: times", rows[:, 0], sts, TOL_ROUNDOFF)
        chk.close("scalar: beta", rows[:, 1], self.alt.beta(sts), stol)
        k = np.arange(1, len(self.alt.polys) + 1)
        chk.close("scalar: jump times", jumps[:, 0], k * self.alpha.tau, TOL_ROUNDOFF)
        chk.close("scalar: left limits", jumps[:, 1],
                  self.alt.beta(jumps[:, 0], side="left"), stol)
        chk.close("scalar: jumps", jumps[:, 2] - jumps[:, 1],
                  exact.alternating_jump(self.alpha.tau, self.scalar_nu, k), stol)


WORKLOADS = {"march": March, "oracle": Oracle, "cli": Cli}
