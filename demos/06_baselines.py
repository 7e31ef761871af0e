"""Invariant library vs unrestricted baselines on noisy KS data.

Small version of the benchmark: 3 runs instead of 10 so it finishes in
a few seconds.  The plain poly2 baseline loses the Kuramoto-
Sivashinsky structure at 0.1% noise; the invariant library keeps it.
"""

from liesindy.harness import ExperimentConfig, run_experiment

for method in ("sindy", "di-sindy"):
    cfg = ExperimentConfig(system="ks", method=method, runs=3,
                           noise_sigma=1e-3, seed=2024, long_term=False)
    rep = run_experiment(cfg)
    rmse = rep.rmse_successful
    print(f"ks {cfg.method_label():22s} "
          f"success {rep.success_rate:.0%}  "
          f"rmse {'N/A' if rmse is None else format(rmse, '.2e')}")

# the symmetry-regularized baseline interpolates: soft penalty instead of
# a hard restriction, strength lam.  nu=0.3 keeps the fronts mild enough
# that the penalty is what decides.
from liesindy.dynamics import default_config

solver = default_config("burgers").to_dict()
solver["params"] = {"nu": 0.3}
for lam in (1e-3, 1e-1):
    cfg = ExperimentConfig(system="burgers", method="equiv-r", runs=5,
                           noise_sigma=1e-3, lam=lam, seed=2024,
                           solver=solver, long_term=False)
    rep = run_experiment(cfg)
    print(f"burgers {cfg.method_label():18s} success {rep.success_rate:.0%}")
