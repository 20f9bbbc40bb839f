"""The package's lazy export table (PEP 562): a stale entry fails only on first use."""

import importlib

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
