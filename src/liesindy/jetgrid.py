"""Jet estimates on trajectory grids and feature matrices.

Two estimators build the prolonged dataset.  `finite_differences` uses
second-order central stencils: periodic wraparound in x (the data is
periodic by construction), one endpoint row trimmed at each end in t.
`spectral_jets` is for noiseless data: x-derivatives by FFT, exact to
round-off on periodic band-limited fields, and u_t from the 7-point
sixth-order central stencil, trimming three rows at each end in t.  Its
x-derivatives amplify high-wavenumber noise as k^m, so noisy data keeps the
finite-difference estimator.

`evaluate_features` takes the trajectories of one fit (one run's training
set) and an estimator, and lays their rows end to end in one flat array per
coordinate.  The jet order is the highest derivative order among the
features and the target, so the expressions decide which jets are
estimated.  It estimates one trajectory's jets at a time, copies them into
their row block and releases them before the next is estimated, so at most
one trajectory's derivative arrays sit beside the flat arrays.  Each
feature and the target is then evaluated once over all the rows.  The
features fill a feature-major (features, rows) block, one contiguous row
per feature, and `FeatureMatrix.values` is its transposed (rows, features)
view.  Rows where any feature or the target fails to be finite are dropped
and counted rather than silently kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Expr, LiesindyError, MissingSymbolError, evaluate_array, max_order,
    params_in, to_string,
)
from .dynamics import TrajectoryGrid

__all__ = [
    "JetGrid", "FeatureMatrix", "finite_differences",
    "spectral_jets", "evaluate_features", "GridTooSmallError",
]


class GridTooSmallError(LiesindyError):
    pass


def _dx(u, h):
    return (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * h)


def _dxx(u, h):
    return (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / h ** 2


def _dxxx(u, h):
    return (-0.5 * np.roll(u, 2, axis=1) + np.roll(u, 1, axis=1)
            - np.roll(u, -1, axis=1) + 0.5 * np.roll(u, -2, axis=1)) / h ** 3


def _dxxxx(u, h):
    return (np.roll(u, 2, axis=1) - 4.0 * np.roll(u, 1, axis=1) + 6.0 * u
            - 4.0 * np.roll(u, -1, axis=1) + np.roll(u, -2, axis=1)) / h ** 4


_SPATIAL = (_dx, _dxx, _dxxx, _dxxxx)


@dataclass
class JetGrid:
    """Derivative estimates for one trajectory, trimmed to full-stencil rows.

    Every stored array (including u itself and the coordinate columns) covers
    time indices valid_t[0]..valid_t[1]-1 of the base grid, all x columns.
    """

    base: TrajectoryGrid
    derivs: dict = field(default_factory=dict)  # multi-index tuple -> array
    valid_t: tuple = (1, -1)


def _flat_binding(trajs, jets):
    """name -> one 1-D array over every jet's valid window, in jet order.

    `jets` yields one JetGrid per trajectory of `trajs`, all from one
    estimator at one order, and each jet's rows run in (t index, x index)
    order after the previous jet's.  The arrays are allocated when the
    first jet is in, sized from every trajectory's grid and that jet's
    trim.  Each jet is copied into its row block and dropped before the
    next is drawn, so a lazy `jets` never holds two.
    """
    # next(source), not zip: zip keeps the last jet in its result tuple
    # while it draws the next
    source = iter(jets)
    out, start = None, 0
    for traj in trajs:
        jet = next(source)
        if out is None:
            # names is a new dict: a view of jet.derivs would keep the
            # first jet's arrays alive to the end
            trim = jet.valid_t[0]
            names = {j: "u_" + "".join(j) if j else "u" for j in jet.derivs}
            rows = sum((tr.u.shape[0] - 2 * trim) * tr.u.shape[1]
                       for tr in trajs)
            out = {name: np.empty(rows)
                   for name in ["t", "x", *names.values()]}
        lo, hi = jet.valid_t
        size = (hi - lo) * traj.u.shape[1]

        def block(name):
            return out[name][start:start + size].reshape(hi - lo, -1)

        block("t")[:] = traj.t[lo:hi, None]
        block("x")[:] = traj.x
        for j, name in names.items():
            block(name)[:] = jet.derivs[j]
        start += size
        del jet             # so next(source) estimates beside no other jet
    return out


def _check_grid(traj: TrajectoryGrid, n: int, nt_min: int):
    if n < 1 or n > 4:
        raise GridTooSmallError("spatial order must be between 1 and 4")
    nt, nx = traj.u.shape
    if nx < 2 * n + 1:
        raise GridTooSmallError(f"need nx >= {2 * n + 1} for order {n}")
    if nt < nt_min:
        raise GridTooSmallError(
            f"need at least {nt_min} time samples for u_t")


def _jet_grid(traj: TrajectoryGrid, derivs: dict, trim: int) -> JetGrid:
    for j, arr in derivs.items():
        if not np.all(np.isfinite(arr)):
            raise GridTooSmallError(
                f"non-finite derivative estimate for index {j}")
    return JetGrid(base=traj, derivs=derivs,
                   valid_t=(trim, traj.u.shape[0] - trim))


def finite_differences(traj: TrajectoryGrid, n: int = 4) -> JetGrid:
    """Central-difference jets up to spatial order n plus u_t."""
    _check_grid(traj, n, 3)
    h = float(traj.h)
    dt = float(traj.dt)
    u = traj.u
    derivs = {(): u[1:-1]}
    derivs[("t",)] = (u[2:] - u[:-2]) / (2.0 * dt)
    for m in range(1, n + 1):
        derivs[("x",) * m] = _SPATIAL[m - 1](u, h)[1:-1]
    return _jet_grid(traj, derivs, 1)


# sixth-order central first-derivative weights for offsets +1, +2, +3
# (antisymmetric: offset -j takes the negated weight of +j)
_T6 = (3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0)


def spectral_jets(traj: TrajectoryGrid, n: int = 4) -> JetGrid:
    """Spectral x-jets up to order n plus sixth-order central u_t.

    Meant for noiseless data; see the module docstring.
    """
    _check_grid(traj, n, 7)
    nt, nx = traj.u.shape
    dt = float(traj.dt)
    u = traj.u
    mid = u[3:-3]
    derivs = {(): mid}
    u_t = np.zeros_like(mid)
    for j, w in enumerate(_T6, start=1):
        u_t += w * (u[3 + j:nt - 3 + j] - u[3 - j:nt - 3 - j])
    derivs[("t",)] = u_t / dt
    ik = 2j * np.pi * np.fft.rfftfreq(nx, d=float(traj.h))
    spec = np.fft.rfft(mid, axis=1)
    for m in range(1, n + 1):
        derivs[("x",) * m] = np.fft.irfft(ik ** m * spec, nx, axis=1)
    return _jet_grid(traj, derivs, 3)


@dataclass
class FeatureMatrix:
    """Features and target of one fit, one row per kept grid point.

    `evaluate_features` fills a feature-major (#features, #points) block,
    one contiguous row per feature, and `values` is its transposed view:
    `values.T` is C-contiguous, and readers see the (#points, #features)
    matrix either way.
    """

    columns: list           # Expr labels, one per value column
    values: np.ndarray      # (#points, #features)
    target: np.ndarray      # (#points,)
    target_label: Expr
    row_binding: dict        # name -> (#points,) arrays incl. constants
    dropped: int = 0

    def __post_init__(self):
        if self.values.shape[1] != len(self.columns):
            raise ValueError("one column per feature label")
        if self.values.shape[0] != self.target.size:
            raise ValueError("target length must match the row count")


def evaluate_features(trajs, estimate, feats, target: Expr,
                      constants=None) -> FeatureMatrix:
    """Evaluate symbolic features and target over the trajectories' jets.

    `estimate` (finite_differences, spectral_jets, ...) makes each
    trajectory's jets up to the highest derivative order among `feats` and
    `target`, one trajectory at a time; an order its stencils lack raises
    GridTooSmallError.  The rows of all trajectories form one matrix, in
    trajectory order, and each expression is evaluated once over all of
    them.  Constants (t0, nu, ...) must all be supplied; a missing one
    raises with its name.  Rows with any non-finite entry are dropped and
    counted.
    """
    trajs = list(trajs)
    if not trajs:
        raise GridTooSmallError("no trajectories to evaluate features on")
    feats = list(feats)
    exprs = feats + [target]
    constants = dict(constants or {})
    for e in exprs:
        for p in params_in(e):
            if p.name not in constants:
                raise MissingSymbolError(
                    f"no value for constant '{p.name}' in {to_string(e)}")
    order = max(1, *map(max_order, exprs))
    binding = _flat_binding(trajs, (estimate(tr, n=order) for tr in trajs))
    npts = binding["u"].size
    for name, val in constants.items():
        binding[name] = float(val)
    tvec = np.empty(npts)
    tvec[:] = evaluate_array(target, binding)
    keep = np.isfinite(tvec)
    block = np.empty((len(feats), npts))
    for c, e in enumerate(feats):
        block[c] = evaluate_array(e, binding)
        keep &= np.isfinite(block[c])
    dropped = int(npts - keep.sum())
    if dropped:
        # compress, not block[:, keep]: numpy lays that result out
        # point-major
        block, tvec = block.compress(keep, axis=1), tvec[keep]
        binding = {name: val[keep] if np.ndim(val) else val
                   for name, val in binding.items()}
    return FeatureMatrix(columns=feats, values=block.T, target=tvec,
                         target_label=target, row_binding=binding,
                         dropped=dropped)
