"""Batch command-line front end.

Commands: solve | series | simulate | compare | asymptote | genericity
| scalar.  Every command reads a JSON config, writes CSV or JSON, and is
deterministic given the config, the seed, and any worker count.

``main`` reads the config and its grid, calls ``cmd(args, cfg, grid)`` for
(output text, summary thunk, exit code), and writes the text to --out or
stdout: without --out, stdout holds only the output.  The summary line is
made and printed only with --out and without --quiet.

Exit codes: 0 success, 1 usage or config error, 2 input validation error,
3 numerical failure.

Each command imports the library modules it uses when it runs, so a
process pays only for its own command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, InputValidationError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
TOL_SERIES = 1e-6  # compare: largest |march - series| that passes
MC_SIGMAS = 3.0    # compare: Monte Carlo band, in stderr, on top of march_err
# every top-level key some command reads, and the keys each scalar variant
# reads besides "variant"; a config with any other key is refused, not run
# on defaults
CONFIG_KEYS = {"B", "N_max", "R", "basis", "constant_M", "grid", "n", "n2", "nu", "scalar",
               "seed"}
SCALAR_KEYS = {"constant": {"value"}, "piecewise": {"pattern", "tau"},
               "trig": {"amplitude", "mean"}, "tabulated": {"times", "values"}}


def _pairs_to_complex(data):
    a = np.asarray(data, dtype=float)
    if a.shape[-1] != 2:
        raise ConfigError("complex entries must be [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def complex_to_pairs(a):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if isinstance(cfg, dict):
        _check_keys(cfg)
    return cfg


def _check_keys(cfg):
    """Refuse a config key no command reads, by name, before anything runs.

    Under scalar, that is any key its variant does not read.
    """
    if "thresholds" in cfg:  # ignoring it would change verdicts silently
        from .asymptotics import EPS_CONV
        from .channels import DELTA_GENERIC
        raise ConfigError(
            "config key 'thresholds' is not supported; the checks use fixed values: "
            f"solver_vs_series {TOL_SERIES:g}, mc_sigmas {MC_SIGMAS:g}, "
            f"eps_conv {EPS_CONV:g}, delta {DELTA_GENERIC:g}")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    variant = cfg["scalar"].get("variant") if isinstance(cfg.get("scalar"), dict) else None
    read = SCALAR_KEYS.get(variant) if isinstance(variant, str) else None
    if read is None:  # no variant, or one that the scalar command refuses by name
        read = set().union(*SCALAR_KEYS.values())
    nested = {"grid": {"steps", "t_max"}, "scalar": read | {"variant"}}
    for name, keys in nested.items():
        if isinstance(cfg.get(name), dict):
            unknown += sorted(f"{name}.{key}" for key in set(cfg[name]) - keys)
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                          "no command reads them")


def _one_source(cfg):
    """Refuse a config that gives more than one source, by key, before any solver runs."""
    sources = [[key] for key in ("constant_M", "scalar") if key in cfg]
    model = sorted({"B", "basis", "n", "n2"} & set(cfg))
    if len(sources) + bool(model) > 1:
        named = " | ".join(", ".join(map(repr, keys)) for keys in sources + [model] if keys)
        raise ConfigError(f"config gives more than one source ({named}); keep one")


def _integral(value, what):
    """An integer config field: an int or an integral float such as 1e4, never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _grid_from(cfg):
    from .volterra import TimeGrid

    try:
        g = cfg["grid"]
        return TimeGrid(t_max=float(g["t_max"]), steps=_integral(g["steps"], "grid.steps"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config needs grid.t_max and grid.steps: {exc}") from exc


def _nu_from(cfg):
    """The reduction rate; every command that solves requires it."""
    try:
        nu = float(cfg["nu"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config needs a numeric nu: {exc!r}") from exc
    if not 0 <= nu < math.inf:  # NaN fails too; checked before the source is read
        raise ConfigError(f"reduction rate nu must be finite and >= 0, got {nu}")
    return nu


def _model_from(cfg):
    from .channels import BathModel

    _one_source(cfg)
    try:
        n = _integral(cfg["n"], "n")
        n2 = _integral(cfg["n2"], "n2")
        blocks = _pairs_to_complex(cfg["B"])
    except KeyError as exc:
        raise ConfigError(f"model config needs n, n2 and B: missing {exc}") from exc
    if blocks.shape != (n2, n2, n, n):
        raise ConfigError(
            f"B has shape {blocks.shape}, expected {(n2, n2, n, n)}")
    basis = _pairs_to_complex(cfg["basis"]) if cfg.get("basis") is not None else None
    return BathModel(blocks, basis=basis)


def _source_from(cfg):
    """Matrix source from a config: bath model or constant matrix."""
    from .volterra import ConstantPath

    if "constant_M" in cfg:
        _one_source(cfg)
        return ConstantPath(np.asarray(cfg["constant_M"], dtype=float))
    return _model_from(cfg).m_path()


def _scalar_input_from(cfg):
    from .scalar import ConstantInput, CosineInput, PiecewiseInput, TabulatedInput

    inputs = {"constant": ConstantInput, "piecewise": PiecewiseInput, "trig": CosineInput,
              "tabulated": TabulatedInput}
    _one_source(cfg)
    try:
        entry = cfg["scalar"]
        variant = entry["variant"]
        if isinstance(variant, str) and variant in inputs:
            return inputs[variant](**{k: entry[k] for k in SCALAR_KEYS[variant] if k in entry})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scalar input entry: {exc}") from exc
    raise ConfigError(f"unknown scalar variant {variant!r}")


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _n_max(cfg):
    n_max = cfg.get("N_max")
    return None if n_max is None else _integral(n_max, "N_max")


def _histories_and_seed(args, cfg):
    from .jump_mc import _check_run

    R = _integral(cfg.get("R", 10000), "R")
    seed = args.seed if args.seed is not None else _integral(cfg.get("seed", 0), "seed")
    _check_run(R, seed)  # too few histories or a bad seed is a config error before any solver
    return R, seed


def cmd_solve(args, cfg, grid):
    from .volterra import SolverConfig, march_solve, trajectory_to_csv

    nu = _nu_from(cfg)
    source = _source_from(cfg)
    traj = march_solve(source, SolverConfig(nu=nu, grid=grid))

    def summary():
        from .asymptotics import predict_limit
        from .dstoch import compression

        limit, _part = predict_limit(source, grid.t_max)
        dist = float(np.abs(traj.final - limit.entries).max())
        return (f"final c(Mbar) = {compression(traj.final):.6g}; "
                f"distance to predicted limit = {dist:.6g}")

    return trajectory_to_csv(traj), summary, EXIT_OK


def cmd_series(args, cfg, grid):
    from .dstoch import compression
    from .volterra import SolverConfig, neumann_series_trajectory, trajectory_to_csv

    nu = _nu_from(cfg)
    n_max = _n_max(cfg)
    source = _source_from(cfg)
    traj = neumann_series_trajectory(
        source, SolverConfig(nu=nu, grid=grid, n_max=n_max))
    return (trajectory_to_csv(traj),
            lambda: f"final c(Mbar) = {compression(traj.final):.6g}", EXIT_OK)


def cmd_simulate(args, cfg, grid):
    from .jump_mc import mc_estimate_to_csv, monte_carlo_average

    nu = _nu_from(cfg)
    R, seed = _histories_and_seed(args, cfg)
    source = _source_from(cfg)
    est = monte_carlo_average(source, nu, grid.t_max, R, seed)
    return (mc_estimate_to_csv(est, nu=nu, T=grid.t_max),
            lambda: f"mean max stderr = {est.stderr.max():.6g} over {est.n_samples} histories",
            EXIT_OK)


def cmd_compare(args, cfg, grid):
    from .jump_mc import monte_carlo_average
    from .volterra import SolverConfig, TimeGrid, march_solve, neumann_series_trajectory

    nu = _nu_from(cfg)
    R, seed = _histories_and_seed(args, cfg)
    source = _source_from(cfg)
    scfg = SolverConfig(nu=nu, grid=grid, n_max=_n_max(cfg))

    verdict = {"pairs": {}, "overall_pass": True}
    failure = False
    traj = march_solve(source, scfg)
    try:
        series = neumann_series_trajectory(source, scfg)
        gap = float(np.abs(series.values - traj.values).max())
        ok = gap <= TOL_SERIES
        verdict["pairs"]["march_vs_series"] = {
            "max_abs": gap, "tol": TOL_SERIES, "pass": ok}
        failure |= not ok
    except NumericalError as exc:
        verdict["pairs"]["march_vs_series"] = {
            "pass": False, "error": type(exc).__name__,
            "advice": f"{exc} -- refine grid.steps so that h * nu <= 0.5"}
        failure = True

    est = monte_carlo_average(source, nu, grid.t_max, R, seed)
    gap = np.abs(est.mean - traj.final)
    pair = verdict["pairs"]["march_vs_mc"] = {"max_abs": float(gap.max())}
    try:
        # the march's own error estimate |X_K(T) - X_{K/2}(T)| widens the band:
        # a stratified stderr can be about 0 where the march is off by O(h^2)
        half = SolverConfig(nu=nu, grid=TimeGrid(grid.t_max, max(1, grid.steps // 2)))
        march_err = np.abs(traj.final - march_solve(source, half).final)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        pair.update({"pass": False, "error": type(exc).__name__,
                     "advice": f"{exc} -- the march at half the steps, which gives the "
                               "error estimate, failed; refine grid.steps"})
    else:
        within = gap <= MC_SIGMAS * est.stderr + march_err + 1e-12
        pair.update({"band": f"{MC_SIGMAS:g} stderr + march_err",
                     "march_err": float(march_err.max()),
                     "entries_within": int(within.sum()),
                     "entries_total": int(within.size),
                     "pass": bool(within.all())})
    failure |= not pair["pass"]
    verdict["overall_pass"] = not failure
    text = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
    return text, text.rstrip, EXIT_NUMERICAL if failure else EXIT_OK


def cmd_asymptote(args, cfg, grid):
    from .asymptotics import convergence_report, convergence_report_to_csv
    from .volterra import SolverConfig

    nu = _nu_from(cfg)
    source = _source_from(cfg)
    report = convergence_report(source, nu, SolverConfig(nu=nu, grid=grid))

    def summary():
        return json.dumps({
            "verdict": report.verdict,
            "final_distance": report.final_distance,
            "final_compression": float(report.c_values[-1]),
            "max_compression": float(report.c_values.max()),
            "blocks": [list(b) for b in report.partition.blocks],
            "id_sector": list(report.partition.id_sector),
        }, indent=2, sort_keys=True)

    return convergence_report_to_csv(report), summary, EXIT_OK


def cmd_genericity(args, cfg, grid):
    from .channels import genericity_check

    model = _model_from(cfg)
    report = genericity_check(model, grid.nodes[1:])
    verdict = {"generic": report.generic, "witness_t": report.witness_t,
               "c_min": report.c_min}
    text = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
    return text, text.rstrip, EXIT_OK


def cmd_scalar(args, cfg, grid):
    from .scalar import (
        CosineInput,
        PiecewiseInput,
        piecewise_delay_solve,
        scalar_march,
        scalar_trajectory_to_csv,
        trig_ode_solve,
    )
    from .volterra import TOL_GRID

    nu = _nu_from(cfg)
    alpha = _scalar_input_from(cfg)
    traj = scalar_march(alpha, nu, grid)

    def summary():
        notes = []
        if isinstance(alpha, PiecewiseInput) and tuple(alpha.pattern) == (1.0, 0.0):
            k = int(round(grid.t_max / alpha.tau))
            # t_max lies on the k-th jump as closely as TimeGrid.index_of puts a jump on a node
            if abs(k * alpha.tau - grid.t_max) <= TOL_GRID * max(1.0, grid.t_max) \
                    and k >= 1 and grid.steps % k == 0:
                exact = piecewise_delay_solve(alpha.tau, nu, k,
                                              nodes_per_interval=grid.steps // k)
                gap = float(np.abs(exact.beta - traj.beta).max())
                notes.append(f"max |march - method of steps| = {gap:.3e}")
        if isinstance(alpha, CosineInput):
            ode = trig_ode_solve(alpha, nu, grid)
            gap = float(np.abs(ode.trajectory.beta - traj.beta).max())
            notes.append(f"max |march - ode route| = {gap:.3e}")
        return f"final beta = {traj.beta[-1]:.6g}" + ("; " + "; ".join(notes) if notes else "")

    return scalar_trajectory_to_csv(traj), summary, EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "series": cmd_series,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "asymptote": cmd_asymptote,
    "genericity": cmd_genericity,
    "scalar": cmd_scalar,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reduktor",
        description="Doubly stochastic evolution under Poisson-timed "
                    "stochastic reductions: solvers, simulation, and "
                    "asymptotic reports.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (overrides config)")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility and ignored, as is "
                             "REDUKTOR_WORKERS; Monte Carlo runs on one thread")
    parser.add_argument("--quiet", action="store_true", help="suppress summary lines")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args.config)
        text, summary, code = _COMMANDS[args.command](args, cfg, _grid_from(cfg))
        try:
            _write(args.out, text)
        except OSError as exc:
            where = args.out or "stdout"
            raise ConfigError(f"cannot write {where}: {exc.strerror or exc}") from exc
        if args.out and not args.quiet:  # without --out, stdout holds only the output
            print(summary())
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:  # a ValueError, but not an input error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
