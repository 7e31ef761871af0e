"""Smoke test: every demo runs standalone and exits 0.

Each demo runs in its own interpreter with PYTHONPATH=src, as the README
shows.  Demo 06, four small experiments (16 runs), is the slowest: about
6 s on 2 CPUs.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_symbolic_jets.py", "02_prolongation.py", "03_invariants.py",
         "04_trajectories.py", "05_discovery.py", "06_baselines.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
