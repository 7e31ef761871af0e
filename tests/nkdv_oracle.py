"""Naive cross-check oracle for the time-rescaled KdV solve."""

import math

import numpy as np

from liesindy.dynamics import (
    ConfigError, SolverConfig, TrajectoryGrid, _grid, _guard,
)


def solve_nkdv_direct(ic, cfg: SolverConfig, dt_inner=2e-5) -> TrajectoryGrid:
    """Fully explicit RK4 for the time-rescaled KdV in raw t.

    Deliberately naive (no substitution, no integrating factor) so it serves
    as an independent cross-check of the substitution route; needs a tiny
    inner step for stability and is only meant for short horizons.
    """
    if cfg.system != "nkdv":
        raise ConfigError("direct integration is the nkdv cross-check")
    ic = np.asarray(ic, dtype=float)
    t0 = cfg.params["t0"]
    x, t, k, mask = _grid(cfg)
    ik = 1j * k
    lin = -(ik ** 3)

    def rhs(time, v):
        u = np.fft.irfft(v, cfg.nx)
        return math.exp(time / t0) * mask * (
            lin * v - ik * np.fft.rfft(0.5 * u * u))

    u = np.empty((cfg.nt, cfg.nx))
    u[0] = ic
    state = np.fft.rfft(ic) * mask
    time = 0.0
    for j in range(1, cfg.nt):
        m = max(1, int(math.ceil(cfg.dt / dt_inner - 1e-12)))
        h = cfg.dt / m
        for _ in range(m):
            k1 = rhs(time, state)
            k2 = rhs(time + h / 2, state + h / 2 * k1)
            k3 = rhs(time + h / 2, state + h / 2 * k2)
            k4 = rhs(time + h, state + h * k3)
            state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            time += h
        u[j] = np.fft.irfft(state, cfg.nx)
        _guard(u[j], j, u[:j])
    return TrajectoryGrid(x, t, u, {"system": "nkdv-direct",
                                    "params": dict(cfg.params),
                                    "noise_sigma": 0.0})
