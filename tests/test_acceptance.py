"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import itertools
import json

import numpy as np
import pytest

from reduktor.asymptotics import convergence_report, cyclic_example, rescaling_check
from reduktor.channels import genericity_check, second_order_matrix
from reduktor.cli import complex_to_pairs, main as cli_main
from reduktor.dstoch import (
    compression,
    compression_many,
    decomposability_witness,
    perm_matrix,
)
from reduktor.jump_mc import monte_carlo_average
from reduktor.presets import (
    battery,
    bathless_diagonal_model,
    random_model,
    spin_flip_model,
)
from reduktor.scalar import (
    CosineInput,
    PiecewiseInput,
    piecewise_delay_solve,
    scalar_march,
    trig_ode_solve,
)
from reduktor.volterra import (
    ConstantPath,
    Kernel,
    SolverConfig,
    TimeGrid,
    kernel_normalization_residual,
    march_solve,
    march_solve_general,
    neumann_series,
    poisson_kernel,
)

CONSTANT_MATRICES = [
    np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]),
    np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]]),
    np.array([[0.1, 0.6, 0.3], [0.6, 0.2, 0.2], [0.3, 0.2, 0.5]]),
]

ORACLE_MODELS = [random_model(n, 2, seed=200 + i, scale=1.0)
                 for i, n in enumerate((2, 3, 2, 3, 2))]


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def constant_truth(m, nu, ts):
    w, v = np.linalg.eigh(m)
    return np.einsum("ij,tj,kj->tik", v, np.exp(nu * (w - 1.0) * ts[:, None]), v) @ m


def test_criterion_1_constant_input_closed_form():
    """Constant symmetric inputs match the closed-form solution."""
    worst = 0.0
    grid = TimeGrid(10.0, 10000)
    for m in CONSTANT_MATRICES:
        assert np.abs(m - m.T).max() == 0.0
        for nu in (0.5, 1.0, 2.0):
            traj = march_solve(ConstantPath(m), SolverConfig(nu=nu, grid=grid))
            truth = constant_truth(m, nu, grid.nodes)
            worst = max(worst, float(np.abs(traj.values - truth).max()))
    report(1, worst <= 1e-6,
           f"sup-norm error vs exp(nu (M - 1) T) M is {worst:.3e} (tol 1e-6, "
           f"h=1e-3, T in [0, 10], nu in {{0.5, 1, 2}})")


def test_criterion_2_oracle_triangle():
    """March, series, and Monte Carlo agree on random generic models."""
    horizons = (1.0, 2.0)
    grid = TimeGrid(2.0, 2000)
    worst_series = 0.0
    hits = total = 0
    worst_mc = 0.0
    for i, model in enumerate(ORACLE_MODELS):
        assert genericity_check(model, np.linspace(0.05, 10.0, 200)).generic
        cfg = SolverConfig(nu=1.0, grid=grid)
        traj = march_solve(model.m_path(), cfg)
        for T in horizons:
            series = neumann_series(model.m_path(), cfg, T)
            gap = np.abs(series.value.entries - traj.at_time(T)).max()
            worst_series = max(worst_series, float(gap))
            est = monte_carlo_average(model.m_path(), 1.0, T, 100000,
                                      seed=3000 + i)
            within = np.abs(est.mean - traj.at_time(T)) <= 3.0 * est.stderr + 1e-12
            hits += int(within.sum())
            total += within.size
            worst_mc = max(worst_mc, float(np.abs(est.mean - traj.at_time(T)).max()))
    frac = hits / total
    ok = worst_series <= 1e-6 and frac >= 0.99
    report(2, ok,
           f"march vs series {worst_series:.3e} (tol 1e-6); MC within 3 stderr on "
           f"{hits}/{total} entries ({100 * frac:.1f}%, need 99%); max |MC - march| "
           f"{worst_mc:.3e}")


def test_criterion_3_alternating_input_exact_pieces():
    """Method of steps reproduces the analytic pieces and matches marching."""
    worst_piece = 0.0
    worst_jump = 0.0
    worst_cross = 0.0
    for tau, nu in ((1.0, 1.0), (0.5, 2.0)):
        exact = piecewise_delay_solve(tau, nu, 10, nodes_per_interval=400)
        ts = exact.times
        first = (ts >= 0) & (ts < tau)
        worst_piece = max(worst_piece, float(np.abs(exact.values[first] - 1.0).max()))
        second = (ts >= tau) & (ts < 2.0 * tau)
        analytic = 1.0 + (nu * tau - nu * ts[second] - 1.0) * np.exp(-nu * tau)
        worst_piece = max(worst_piece,
                          float(np.abs(exact.values[second] - analytic).max()))
        for k in range(1, 6):
            j = exact.jump_nodes[k - 1]
            lo, hi = exact.left_values[j], exact.values[j]
            worst_jump = max(worst_jump,
                             abs((hi - lo) - (-1.0) ** k * np.exp(-nu * k * tau)))
        march = scalar_march(PiecewiseInput(tau), nu, exact.grid)
        worst_cross = max(worst_cross, float(np.abs(exact.values - march.values).max()))
    ok = worst_piece <= 1e-10 and worst_jump <= 1e-8 and worst_cross <= 1e-6
    report(3, ok,
           f"analytic intervals {worst_piece:.3e} (tol 1e-10); jumps k=1..5 "
           f"{worst_jump:.3e} (tol 1e-8); march agreement on [0, 10 tau] "
           f"{worst_cross:.3e} (tol 1e-6)")


def test_criterion_4_cosine_input_cross_method():
    """ODE reconstruction agrees with marching for the raised-cosine input."""
    grid = TimeGrid(5.0, 5000)
    sol = trig_ode_solve(CosineInput(), 1.0, grid)
    march = scalar_march(CosineInput(), 1.0, grid)
    gap = float(np.abs(sol.trajectory.values - march.values).max())
    beta0 = sol.trajectory.values[0]
    ok = gap <= 1e-6 and sol.imag_residual <= 1e-9 and beta0 == 1.0
    report(4, ok,
           f"ode vs march {gap:.3e} (tol 1e-6); imaginary residue "
           f"{sol.imag_residual:.1e} (tol 1e-9); beta(0) = {beta0!r} (exactly 1)")


def test_criterion_5_asymptotic_battery():
    """Generic battery collapses to the predicted projector; identity sector inert."""
    nu = 1.0
    worst_ratio = 0.0
    worst_d1 = worst_d2 = 0.0
    for model in battery():
        gen = genericity_check(model, np.linspace(0.05, 25.0, 500))
        assert gen.generic, "battery model unexpectedly not generic"
        rep1 = convergence_report(model.m_path(), nu,
                                  SolverConfig(nu=nu, grid=TimeGrid(50.0 / nu, 2500)))
        rep2 = convergence_report(model.m_path(), nu,
                                  SolverConfig(nu=nu, grid=TimeGrid(65.0 / nu, 3250)))
        worst_ratio = max(worst_ratio,
                          float(rep1.c_values[-1] / rep1.c_values.max()))
        worst_d1 = max(worst_d1, rep1.final_distance)
        worst_d2 = max(worst_d2, rep2.final_distance)
    ident = bathless_diagonal_model()
    traj = march_solve(ident.m_path(),
                       SolverConfig(nu=nu, grid=TimeGrid(20.0, 1000)))
    off = traj.values.copy()
    for k in range(len(off)):
        np.fill_diagonal(off[k], 0.0)
    off_max = float(np.abs(off).max())
    diag_dev = float(np.abs(np.diagonal(traj.values, axis1=1, axis2=2) - 1.0).max())
    ok = (worst_ratio <= 0.1 and worst_d1 < 1e-3 and worst_d2 < 1e-3
          and off_max == 0.0 and diag_dev <= 1e-12)
    report(5, ok,
           f"compression ratio {worst_ratio:.2e} (tol 0.1); plateau distances "
           f"{worst_d1:.2e} / {worst_d2:.2e} at T=50, 65 (tol 1e-3); identity "
           f"model off-diagonal {off_max!r} (exactly 0), diagonal deviation "
           f"{diag_dev:.1e}")


def test_criterion_6_cyclic_counterexample():
    """Unit-compression constant inputs still stabilize to power averages."""
    p3 = perm_matrix((1, 2, 0))
    doubled = np.block([[p3, np.zeros((3, 3))], [np.zeros((3, 3)), p3]])
    worst_res = 0.0
    worst_c_dev = 0.0
    for p, k in ((p3, 3), (doubled, 3)):
        rep = cyclic_example(p, k, 1.0, 30.0)
        worst_res = max(worst_res, rep.limit_residual)
        # input map is constantly P, so c(M(t)) = c(P) at every time
        worst_c_dev = max(worst_c_dev, abs(compression(p) - 1.0))
    cs = compression_many(cyclic_example(doubled, 3, 1.0, 30.0)
                          .trajectory.values[::60])
    worst_c_dev = max(worst_c_dev, float(np.abs(cs - 1.0).max()))
    ok = worst_res < 1e-8 and worst_c_dev < 1e-9
    report(6, ok,
           f"limit residual {worst_res:.3e} at T=30 (tol 1e-8); compression "
           f"deviation from 1 is {worst_c_dev:.1e} along the doubled run")


def test_criterion_7_rescaling_law():
    """Joint time/rate rescaling leaves the dynamics invariant."""
    model = spin_flip_model()
    grid = TimeGrid(2.0 * np.pi, 6284)  # h close to 1e-3
    worst = 0.0
    for tau in (np.pi, 4.0 * np.pi):
        res = rescaling_check(model.m_path(), tau, 1.0,
                              SolverConfig(nu=1.0, grid=grid))
        worst = max(worst, res)
    report(7, worst < 1e-7,
           f"rescaling residual {worst:.3e} for tau in {{pi, 4 pi}} (tol 1e-7)")


def test_criterion_8_second_order_and_decomposability():
    """Short-time expansion and the unit-compression characterization."""
    worst_order = np.inf
    worst_form = -np.inf
    rng = np.random.default_rng(77)
    for model in ORACLE_MODELS:
        m2 = second_order_matrix(model)
        eye = np.eye(model.n)

        def remainder(h):
            return np.abs(model.m_many(np.array([h]))[0] - eye
                          - 0.5 * m2 * h ** 2).max()

        order = np.log10(remainder(1e-2) / remainder(1e-3))
        worst_order = min(worst_order, order)
        probs = rng.random((1000, model.n))
        probs /= probs.sum(axis=1, keepdims=True)
        forms = np.einsum("ki,ij,kj->k", probs, m2, probs)
        worst_form = max(worst_form, float(forms.max()))

    perms = [perm_matrix(p) for p in itertools.permutations(range(3))]
    mismatches = 0
    checked = 0
    for trio in itertools.combinations(range(6), 3):
        for i in range(5):
            for j in range(5 - i):
                w = (i / 4.0, j / 4.0, (4 - i - j) / 4.0)
                m = sum(wk * perms[kk] for wk, kk in zip(w, trio))
                has_witness = decomposability_witness(m) is not None
                mismatches += has_witness != (compression(m) >= 1.0 - 1e-8)
                checked += 1
    ok = worst_order >= 2.7 and worst_form <= 1e-12 and mismatches == 0
    report(8, ok,
           f"expansion order {worst_order:.2f} (need >= 2.7); max quadratic form "
           f"{worst_form:.2e} (tol 1e-12); witness/compression mismatches "
           f"{mismatches}/{checked}")


def test_criterion_9_generalized_kernel():
    """Kernel normalization and equivalence of the generalized solver."""
    model = random_model(2, 2, seed=31)
    res_poisson = kernel_normalization_residual(poisson_kernel(1.0), 3.0, 1000)
    rational = Kernel(a=lambda T: 1.0 / (1.0 + np.asarray(T, dtype=float)),
                      b=lambda t, T: np.ones_like(np.asarray(t, dtype=float)) / (1.0 + T))
    res_rational = kernel_normalization_residual(rational, 3.0, 1000)
    grid = TimeGrid(5.0, 1000)
    march = march_solve(model.m_path(), SolverConfig(nu=1.0, grid=grid))
    general = march_solve_general(model.m_path(), poisson_kernel(1.0), grid)
    gap = float(np.abs(general.values - march.values).max())
    ok = res_poisson < 1e-8 and res_rational < 1e-8 and gap <= 1e-10
    report(9, ok,
           f"normalization residuals poisson {res_poisson:.2e}, rational "
           f"{res_rational:.2e} (tol 1e-8); generalized vs plain march "
           f"{gap:.2e} (tol 1e-10)")


def test_criterion_10_determinism(tmp_path):
    """Byte-identical outputs across repeated runs and worker counts."""
    model = spin_flip_model()
    model_cfg = {
        "n": 2, "n2": 1, "B": complex_to_pairs(model.blocks), "nu": 1.0,
        "grid": {"t_max": 2.0, "steps": 200}, "R": 2000, "seed": 9,
    }
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(model_cfg))
    scalar_cfg = tmp_path / "scalar.json"
    scalar_cfg.write_text(json.dumps({
        "scalar": {"variant": "piecewise", "tau": 0.5, "pattern": [1, 0]},
        "nu": 1.0, "grid": {"t_max": 4.0, "steps": 800},
    }))
    failures = []

    def run_twice(command, config, extra=()):
        blobs = []
        for rep in range(2):
            out = tmp_path / f"{command}{rep}.out"
            code = cli_main([command, "--config", str(config), "--out", str(out),
                             "--quiet", *map(str, extra)])
            if code != 0:
                failures.append(f"{command} exited {code}")
                return
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            failures.append(f"{command} output changed between runs")

    for command in ("solve", "series", "simulate", "compare", "asymptote",
                    "genericity"):
        run_twice(command, cfg_path)
    run_twice("scalar", scalar_cfg)

    worker_blobs = {}
    for command in ("simulate", "compare"):
        outs = []
        for w in (1, 2, 8):
            out = tmp_path / f"{command}-w{w}.out"
            code = cli_main([command, "--config", str(cfg_path), "--out", str(out),
                             "--workers", str(w), "--quiet"])
            if code != 0:
                failures.append(f"{command} workers={w} exited {code}")
            outs.append(out.read_bytes())
        worker_blobs[command] = len(set(outs)) == 1
        if not worker_blobs[command]:
            failures.append(f"{command} output depends on worker count")
    ok = not failures
    report(10, ok,
           "all commands byte-identical across reruns and workers {1, 2, 8}"
           if ok else "; ".join(failures))
