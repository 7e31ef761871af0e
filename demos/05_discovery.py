"""End-to-end discovery on one KdV trajectory, invariant library."""

import numpy as np

from liesindy.dynamics import default_config, sample_initial_condition, \
    solve_pde
from liesindy.expr import to_string
from liesindy.harness import ExperimentConfig
from liesindy.invariants import builtin_set
from liesindy.jetgrid import evaluate_features, finite_differences
from liesindy.regress import model_to_equation, stlsq

cfg = default_config("kdv")
ic = sample_initial_condition(cfg.nx, cfg.length, seed=2024)
[tr] = solve_pde(cfg, ic[None])

# library of symmetry-invariant features; target is the invariant that
# carries u_t
inv = builtin_set("kdv")
target, feats = inv.lhs, list(inv.rhs_features())
print("target  :", to_string(target))
print("features:", [to_string(f) for f in feats])

# jets are estimated to the highest order the target and features need,
# one window of rows at a time, and summed into the normal equations
fm = evaluate_features([tr], finite_differences, feats, target,
                       constants=cfg.params)
print("rows    :", fm.n_rows, f"({fm.dropped} dropped)")

model = stlsq(fm, threshold=0.5)
print("mask    :", model.mask.astype(int), "after",
      len(model.history), "rounds")
print("model   :", to_string(model_to_equation(model)), "= 0")

# ||Aw - y||^2 from the sums alone: y^T y - 2 w^T r + w^T G w
w = model.weights
sq = fm.yty - 2.0 * w @ fm.rhs + w @ fm.gram @ w
print("residual:", float(np.sqrt(max(sq, 0.0) / fm.n_rows)))

# the harness wraps the same pipeline: one pass over the jets of all of a
# run's training trajectories, plus seeds, metrics and reports
exp = ExperimentConfig(system="kdv", method="di-sindy", runs=10, seed=2024)
print("harness would regress", to_string(exp.target), "on",
      len(exp.features), "features over", exp.runs, "runs")
