"""Jet estimates on trajectory grids, streamed into the normal equations.

Two estimators build the prolonged dataset.  `finite_differences` uses
second-order central stencils: periodic wraparound in x (the data is
periodic by construction), all four x-stencils reading slices of one copy
of the rows wrapped by two columns at each side, and one endpoint row
trimmed at each end in t.
`spectral_jets` is for noiseless data: x-derivatives by FFT, exact to
round-off on periodic band-limited fields, and u_t from the 7-point
sixth-order central stencil, trimming three rows at each end in t.  Its
x-derivatives amplify high-wavenumber noise as k^m, so noisy data keeps the
finite-difference estimator.  Either estimates any range of time rows from
the halo rows beside it, with the whole trajectory's dt and h, so a
window's jets are bit-equal to the same rows of the whole trajectory's.

`evaluate_features` passes over each trajectory of a fit one window of
WINDOW_POINTS grid points at a time: it estimates the window's jets to the
highest derivative order among the features and the target, and
`FeatureMatrix.add` evaluates them, and any extra expressions (the symmetry
action terms an equiv-r fit needs, see regress.action_terms), straight into
the rows of one reused buffer, drops the rows where a feature or the target
is not finite and adds the rest to the sums the fit reads.  The feature
matrix never exists whole; per row only the kept target value is held.
The pass draws the trajectories one at a time from any iterable and keeps
none of them past its last window, so a caller that hands its set over
(see harness._handover) has each trajectory freed as soon as it is summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Expr, IndepVar, LiesindyError, MissingSymbolError, evaluate_array,
    max_order, params_in, to_string, _walk,
)
from .dynamics import TrajectoryGrid

__all__ = [
    "JetGrid", "FeatureMatrix", "finite_differences",
    "spectral_jets", "evaluate_features", "GridTooSmallError",
]

# grid points per window of evaluate_features' pass; a window is
# WINDOW_POINTS // nx time rows, at least one
WINDOW_POINTS = 16384


class GridTooSmallError(LiesindyError):
    pass


# each x-stencil of finite_differences reads u at i-2, i-1, i, i+1, i+2
def _dx(m2, m1, u, p1, p2, h):
    return (p1 - m1) / (2.0 * h)


def _dxx(m2, m1, u, p1, p2, h):
    return (p1 - 2.0 * u + m1) / h ** 2


def _dxxx(m2, m1, u, p1, p2, h):
    return (-0.5 * m2 + m1 - p1 + 0.5 * p2) / h ** 3


def _dxxxx(m2, m1, u, p1, p2, h):
    return (m2 - 4.0 * m1 + 6.0 * u - 4.0 * p1 + p2) / h ** 4


_SPATIAL = (_dx, _dxx, _dxxx, _dxxxx)


@dataclass
class JetGrid:
    """Derivative estimates on a range of one trajectory's time rows.

    Every stored array (including u itself) covers time indices
    valid_t[0]..valid_t[1]-1 of the base grid, all x columns.
    """

    base: TrajectoryGrid
    derivs: dict = field(default_factory=dict)  # multi-index tuple -> array
    valid_t: tuple = (1, -1)


def _check_grid(traj: TrajectoryGrid, n: int, halo: int, rows):
    """The rows of `rows` (lo, hi) with the stencil's full halo inside the
    grid, as (lo, hi); every such row when `rows` is None."""
    if n < 1 or n > 4:
        raise GridTooSmallError("spatial order must be between 1 and 4")
    nt, nx = traj.u.shape
    if nx < 2 * n + 1:
        raise GridTooSmallError(f"need nx >= {2 * n + 1} for order {n}")
    if nt < 2 * halo + 1:
        raise GridTooSmallError(
            f"need at least {2 * halo + 1} time samples for u_t")
    lo, hi = (0, nt) if rows is None else rows
    lo, hi = max(lo, halo), min(hi, nt - halo)
    return lo, max(lo, hi)


def _jet_grid(traj: TrajectoryGrid, derivs: dict, valid_t) -> JetGrid:
    for j, arr in derivs.items():
        if not np.all(np.isfinite(arr)):
            raise GridTooSmallError(
                f"non-finite derivative estimate for index {j}")
    return JetGrid(base=traj, derivs=derivs, valid_t=valid_t)


def finite_differences(traj: TrajectoryGrid, n: int = 4,
                       rows=None) -> JetGrid:
    """Central-difference jets up to spatial order n plus u_t, on the time
    rows of `rows` (lo, hi) that have a full stencil (all by default)."""
    lo, hi = _check_grid(traj, n, 1, rows)
    h = float(traj.h)
    dt = float(traj.dt)
    u = traj.u
    mid = u[lo:hi]
    derivs = {(): mid}
    derivs[("t",)] = (u[lo + 1:hi + 1] - u[lo - 1:hi - 1]) / (2.0 * dt)
    # the periodic neighbours at offsets -2..2 as slices of one wrapped copy
    nx = mid.shape[1]
    wrapped = np.concatenate([mid[:, -2:], mid, mid[:, :2]], axis=1)
    shifts = [wrapped[:, s:s + nx] for s in range(5)]
    for m in range(1, n + 1):
        derivs[("x",) * m] = _SPATIAL[m - 1](*shifts, h)
    return _jet_grid(traj, derivs, (lo, hi))


# sixth-order central first-derivative weights for offsets +1, +2, +3
# (antisymmetric: offset -j takes the negated weight of +j)
_T6 = (3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0)


def spectral_jets(traj: TrajectoryGrid, n: int = 4, rows=None) -> JetGrid:
    """Spectral x-jets up to order n plus sixth-order central u_t, on the
    time rows of `rows` (lo, hi) that have a full stencil (all by default).

    Meant for noiseless data; see the module docstring.
    """
    lo, hi = _check_grid(traj, n, 3, rows)
    nx = traj.u.shape[1]
    dt = float(traj.dt)
    u = traj.u
    mid = u[lo:hi]
    derivs = {(): mid}
    u_t = np.zeros_like(mid)
    for j, w in enumerate(_T6, start=1):
        u_t += w * (u[lo + j:hi + j] - u[lo - j:hi - j])
    derivs[("t",)] = u_t / dt
    ik = 2j * np.pi * np.fft.rfftfreq(nx, d=float(traj.h))
    spec = np.fft.rfft(mid, axis=1)
    for m in range(1, n + 1):
        derivs[("x",) * m] = np.fft.irfft(ik ** m * spec, nx, axis=1)
    return _jet_grid(traj, derivs, (lo, hi))


class FeatureMatrix:
    """The sums one fit reads, added a block of rows at a time.

    Row i is one grid point: the features' values A[i], the target's y[i]
    and the `extra` expressions' values E[i].  `add` adds the rows where A
    and y are finite to `sums`, the Gram of [A | y | E], whose blocks
    `gram` (A^T A), `rhs` (A^T y) and `yty` are the plain fit's normal
    equations.
    """

    def __init__(self, columns, target_label: Expr, constants=None,
                 extra=()):
        self.columns = list(columns)          # Expr labels of A's columns
        self.target_label = target_label
        self.exprs = self.columns + [target_label] + list(extra)
        self.order = max(1, *map(max_order, self.exprs))
        self.constants = {name: float(val)
                          for name, val in (constants or {}).items()}
        self.sums = np.zeros((len(self.exprs), len(self.exprs)))
        p = len(self.columns)
        self.gram, self.rhs = self.sums[:p, :p], self.sums[:p, p]
        self.n_rows = self.dropped = 0
        self._targets = []
        self._buffer = np.empty((len(self.exprs), 0))

    @property
    def yty(self):
        p = len(self.columns)
        return float(self.sums[p, p])

    @property
    def target(self):
        """The kept target values, one per row, in the order of `add`."""
        return np.concatenate([np.empty(0), *self._targets])

    def add(self, binding):
        """Add the rows, if any, of `binding` (name -> 1-D array per row).

        The constants are bound here.  A row where the target or any
        feature is not finite is dropped and counted; the extra expressions
        do not decide.
        """
        n = max(np.size(val) for val in binding.values())
        binding = {**binding, **self.constants}
        if self._buffer.shape[1] < n:
            self._buffer = np.empty((len(self.exprs), n))
        # one contiguous row per expression
        block = self._buffer[:, :n]
        for j, e in enumerate(self.exprs):
            evaluate_array(e, binding, out=block[j])
        p = len(self.columns)
        keep = np.isfinite(block[:p + 1]).all(axis=0)
        kept = int(np.count_nonzero(keep))
        if kept < n:
            # compress, not block[:, keep]: numpy lays that result out
            # point-major
            block = block.compress(keep, axis=1)
        self.sums += block @ block.T
        self._targets.append(block[p].copy())
        self.n_rows += kept
        self.dropped += n - kept


def _binding(jet: JetGrid, coords):
    """name -> one 1-D array over the jet's rows, (t index, x index), for
    every jet coordinate and each of `coords`, the independent variables
    read."""
    lo, hi = jet.valid_t
    x = jet.base.x
    binding = {}
    if "t" in coords:
        binding["t"] = np.repeat(jet.base.t[lo:hi], x.size)
    if "x" in coords:
        binding["x"] = np.tile(x, hi - lo)
    for j, arr in jet.derivs.items():
        binding["u_" + "".join(j) if j else "u"] = arr.reshape(-1)
    return binding


def evaluate_features(trajs, estimate, feats, target: Expr, constants=None,
                      extra=()) -> FeatureMatrix:
    """The sums of `feats` against `target` over the trajectories' rows.

    `trajs` is any iterable of trajectories, consumed once, in order; no
    reference to a trajectory is kept past its last window, so one that
    the iterable does not hold elsewhere is freed before the next is
    drawn.  `estimate` (finite_differences, spectral_jets, ...) makes each
    window's jets (none in halo rows); an order its stencils lack raises
    GridTooSmallError, and so does an iterable with no trajectory.  Rows
    run in trajectory order, then (t index, x index).  Constants (t0, nu,
    ...) must all be supplied; a missing one raises with its name.  The
    `extra` expressions (equiv-r's action terms) are summed in the same
    pass.
    """
    trajs = iter(trajs)
    traj = next(trajs, None)
    if traj is None:
        raise GridTooSmallError("no trajectories to evaluate features on")
    fm = FeatureMatrix(feats, target, constants, extra)
    coords = set()
    for e in fm.exprs:
        for p in params_in(e):
            if p.name not in fm.constants:
                raise MissingSymbolError(
                    f"no value for constant '{p.name}' in {to_string(e)}")
        _walk(e, lambda n: coords.add(n.name)
              if isinstance(n, IndepVar) else None)
    while traj is not None:
        nt, nx = traj.u.shape
        step = max(1, WINDOW_POINTS // nx)
        for lo in range(0, nt, step):
            fm.add(_binding(estimate(traj, n=fm.order, rows=(lo, lo + step)),
                            coords))
        traj = next(trajs, None)
    return fm
