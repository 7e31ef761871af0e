"""Every name a module exports in `__all__` resolves on that module."""

import importlib

import pytest

MODULES = ["expr", "dynamics", "jetgrid", "liealg", "invariants", "regress",
           "harness"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"liesindy.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
