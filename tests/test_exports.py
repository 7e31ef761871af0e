"""Every name a module exports in `__all__` resolves on that module, and
every entry point perfbench rebinds for its traced runs still exists."""

import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["expr", "dynamics", "jetgrid", "liealg", "invariants", "regress",
           "harness"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"liesindy.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_perfbench_spans_install():
    # install rebinds names such as cli.verify_set and
    # invariants.evaluate_array; a renamed one ends in an AttributeError
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
