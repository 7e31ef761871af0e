"""Generate trajectories, check conservation, run the finite-difference jets."""

import numpy as np

from liesindy.dynamics import (
    add_noise, default_config, sample_initial_condition, solve_pde,
)
from liesindy.jetgrid import finite_differences

cfg = default_config("kdv")
print("kdv solver:", cfg.to_dict())

ic = sample_initial_condition(cfg.nx, cfg.length, seed=42)
# solve_pde takes a batch of ICs and returns one outcome per member
[tr] = solve_pde(cfg, ic[None])
print("trajectory:", tr.u.shape, "u range",
      float(tr.u.min()), float(tr.u.max()))

mass = tr.u.sum(axis=1) * tr.h   # integral of u is conserved for KdV
print("mass drift:", float(np.max(np.abs(mass - mass[0]))))

# the estimator returns the rows' binding: the jets by name, with t and x
# as views of the grid
jet = finite_differences(tr, n=4)
print("jet rows:", jet["u"].shape, "t", jet["t"].shape, "x", jet["x"].shape)
for name, arr in jet.items():
    if name not in ("t", "x"):
        print(f"  {name:8s} max |.| = {np.max(np.abs(arr)):.3f}")

# measurement noise is relative to the field's own std
noisy = add_noise(tr, sigma=1e-3, seed=5)
print("noise level:", float(np.std(noisy.u - tr.u) / np.std(tr.u)))

# the KS attractor needs a transient before the statistics settle
ks = default_config("ks")
[kt] = solve_pde(ks, sample_initial_condition(ks.nx, ks.length, seed=3)[None])
print("ks trajectory:", kt.u.shape, "std", float(kt.u.std()))
