"""The package's lazy export table (PEP 562): a stale entry fails only on first use.

Also pins the optional parameters of every public callable, and keeps
``print`` out of the library.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import reduktor


@pytest.mark.parametrize("name", reduktor.__all__)
def test_every_public_name_resolves(name):
    assert reduktor.__getattr__(name) is getattr(reduktor, name)


@pytest.mark.parametrize("name, module", sorted(reduktor._EXPORTS.items()))
def test_every_export_is_defined_in_its_submodule(name, module):
    obj = vars(importlib.import_module(f"reduktor.{module}"))[name]
    # an alias, such as scalar.ScalarInput = volterra._SmoothPath, counts where it is bound
    assert obj.__module__ == f"reduktor.{module}" or obj.__name__ != name


# Every optional parameter of a public callable, dataclass fields included,
# as name -> repr of its default ("<factory>" for a default factory).  A new
# option, or a changed default, must show up here as a deliberate edit.
OPTIONS = {
    "BathModel": {"basis": "None"},
    "BlockPartition": {"id_sector": "()"},
    "CosineInput": {"mean": "0.5", "amplitude": "0.5"},
    "DStochMatrix": {"tol_sum": "1e-09", "tol_entry": "1e-12"},
    "PiecewiseInput": {"pattern": "(1.0, 0.0)"},
    "SolverConfig": {"n_max": "None"},
    "Trajectory": {"left_values": "<factory>"},
    "kernel_normalization_residual": {"quad_steps": "1000"},
    "monte_carlo_average": {"workers": "1"},
    "neumann_series_trajectory": {"horizon": "None"},
    "piecewise_delay_solve": {"nodes_per_interval": "200"},
    "validate_dstoch": {"tol_sum": "1e-09", "tol_entry": "1e-12"},
}


@pytest.mark.parametrize("name", sorted(reduktor._EXPORTS))
def test_optional_parameters_are_pinned(name):
    params = inspect.signature(getattr(reduktor, name)).parameters.values()
    got = {p.name: repr(p.default) for p in params if p.default is not p.empty}
    assert got == OPTIONS.get(name, {})


PACKAGE = Path(reduktor.__file__).parent


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "cli.py"))
def test_library_does_not_print(module):
    # library code logs through logging; only the CLI writes to the terminal
    tree = ast.parse((PACKAGE / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert lines == [], f"print called at {module}:{lines}"
