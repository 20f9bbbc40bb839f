"""reduktor: doubly stochastic evolution under Poisson-timed reductions.

Builds evolution matrix families from system-bath generators, solves the
Volterra integral equation for the reduction-averaged evolution, verifies
the solvers against a direct jump-process Monte Carlo oracle, and exhibits
the long-time collapse onto blockwise-uniform projectors.

Public names are resolved on first use (PEP 562), so a process imports
only the submodules it touches: ``import reduktor`` loads nothing else,
and ``reduktor.march_solve`` loads ``reduktor.volterra`` and what it needs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("asymptotics", "channels", "dstoch", "errors", "jump_mc", "scalar",
               "volterra")

# public name -> submodule that defines it
_EXPORTS = {name: module for module, names in {
    "asymptotics": ("ConvergenceReport", "CyclicReport", "DeltaEstimate",
                    "convergence_report", "cyclic_example", "cyclic_order",
                    "cyclic_permutation", "delta_statistic", "predict_limit",
                    "rescaling_check"),
    "channels": ("BathModel", "GenericityReport", "KrausFamily", "basis_genericity",
                 "genericity_check", "kraus_at", "m_of_t", "second_order_matrix"),
    "dstoch": ("BlockPartition", "DStochMatrix", "compression", "compression_many",
               "decomposability_witness", "is_dstoch", "perm_matrix",
               "single_block_partition", "support_blocks", "theta", "theta_of",
               "validate_dstoch", "zero_sum_basis"),
    "jump_mc": ("McEstimate", "PoissonRealization", "evolve_realization",
                "monte_carlo_average", "sample_realization"),
    "scalar": ("ConstantInput", "CosineInput", "LiftedPath", "PiecewiseInput",
               "ScalarInput", "ScalarTrajectory", "TabulatedInput", "TrigSolution",
               "lift_scalar", "piecewise_delay_solve", "scalar_march", "trig_ode_solve"),
    "volterra": ("ConstantPath", "Kernel", "SeriesResult", "SolverConfig", "TimeGrid",
                 "Trajectory", "derivative_consistency", "kernel_normalization_residual",
                 "march_solve", "march_solve_general", "neumann_series",
                 "neumann_series_trajectory", "poisson_kernel", "trajectory_to_csv"),
}.items() for name in names}

__all__ = sorted(set(_EXPORTS) | set(_SUBMODULES))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
