"""Every name a module exports in `__all__` resolves on that module, and
every entry point perfbench rebinds for its traced runs still exists."""

import importlib
import os
import subprocess
import sys
import textwrap

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
    # invariants.evaluate_array; a renamed one ends in an AttributeError.
    # The counted evaluate_array must pass the pass's `out` row through
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = textwrap.dedent("""
        import numpy as np, spans
        from liesindy import jetgrid
        from liesindy.expr import DepVar, Mul
        tracer = spans.Tracer()
        spans.install(tracer)
        u, row = DepVar("u", ()), np.empty(3)
        got = jetgrid.evaluate_array(Mul((u, u)), {"u": np.arange(3.0)},
                                     out=row)
        ok = got is row and row.tolist() == [0.0, 1.0, 4.0]
        if not ok or tracer.counts["expr.evaluate_array"] != 1:
            raise SystemExit(f"out not passed through: {row}")
        """)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
