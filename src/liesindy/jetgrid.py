"""Jet estimates on trajectory grids and feature matrices.

Two estimators build the prolonged dataset.  `finite_differences` uses
second-order central stencils: periodic wraparound in x (the data is
periodic by construction), one endpoint row trimmed at each end in t.
`spectral_jets` is for noiseless data: x-derivatives by FFT, exact to
round-off on periodic band-limited fields, and u_t from the 7-point
sixth-order central stencil, trimming three rows at each end in t.  Its
x-derivatives amplify high-wavenumber noise as k^m, so noisy data keeps the
finite-difference estimator.  Features evaluate into plain dense matrices;
rows where any feature or the target fails to be finite are dropped and
counted rather than silently kept.
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
    "JetGrid", "FeatureMatrix", "finite_differences", "spectral_jets",
    "evaluate_features", "export_features_csv", "GridTooSmallError",
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
    order: int
    derivs: dict = field(default_factory=dict)  # multi-index tuple -> array
    valid_t: tuple = (1, -1)

    @property
    def t_indices(self):
        return np.arange(self.valid_t[0], self.valid_t[1])

    def binding(self, stride_t: int = 1, stride_x: int = 1):
        """Flattened name -> 1-D array map over the valid window."""
        lo, hi = self.valid_t
        tsel = np.arange(lo, hi)[::stride_t]
        xsel = np.arange(self.base.x.size)[::stride_x]
        rows = tsel - lo
        out = {
            "t": np.repeat(self.base.t[tsel], xsel.size),
            "x": np.tile(self.base.x[xsel], tsel.size),
        }
        for j, arr in self.derivs.items():
            name = "u" if not j else "u_" + "".join(j)
            out[name] = arr[np.ix_(rows, xsel)].ravel()
        index = np.empty((tsel.size * xsel.size, 2), dtype=int)
        index[:, 0] = np.repeat(tsel, xsel.size)
        index[:, 1] = np.tile(xsel, tsel.size)
        return out, index


def _check_grid(traj: TrajectoryGrid, n: int, nt_min: int):
    if n < 1 or n > 4:
        raise GridTooSmallError("spatial order must be between 1 and 4")
    nt, nx = traj.u.shape
    if nx < 2 * n + 1:
        raise GridTooSmallError(f"need nx >= {2 * n + 1} for order {n}")
    if nt < nt_min:
        raise GridTooSmallError(
            f"need at least {nt_min} time samples for u_t")


def _jet_grid(traj: TrajectoryGrid, n: int, derivs: dict,
              trim: int) -> JetGrid:
    for j, arr in derivs.items():
        if not np.all(np.isfinite(arr)):
            raise GridTooSmallError(
                f"non-finite derivative estimate for index {j}")
    return JetGrid(base=traj, order=n, derivs=derivs,
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
    return _jet_grid(traj, n, derivs, 1)


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
    return _jet_grid(traj, n, derivs, 3)


@dataclass
class FeatureMatrix:
    columns: list           # Expr labels, one per value column
    values: np.ndarray      # (#points, #features)
    target: np.ndarray      # (#points,)
    target_label: Expr
    point_index: np.ndarray  # (#points, 2) of (t index, x index)
    row_binding: dict        # name -> (#points,) arrays incl. constants
    dropped: int = 0

    def __post_init__(self):
        if self.values.shape[1] != len(self.columns):
            raise ValueError("one column per feature label")
        if self.values.shape[0] != self.target.size:
            raise ValueError("target length must match the row count")


def evaluate_features(jet: JetGrid, feats, target: Expr, constants=None,
                      stride_t: int = 1, stride_x: int = 1) -> FeatureMatrix:
    """Evaluate symbolic features and target over the valid grid window.

    Constants (t0, nu, ...) must all be supplied; a missing one raises with
    its name.  Rows with any non-finite entry are dropped and counted.
    """
    feats = list(feats)
    constants = dict(constants or {})
    for e in list(feats) + [target]:
        if max_order(e) > jet.order:
            raise GridTooSmallError(
                f"{to_string(e)} needs derivatives beyond order {jet.order}")
        for p in params_in(e):
            if p.name not in constants:
                raise MissingSymbolError(
                    f"no value for constant '{p.name}' in {to_string(e)}")
    binding, index = jet.binding(stride_t=stride_t, stride_x=stride_x)
    for name, val in constants.items():
        binding[name] = float(val)
    npts = index.shape[0]
    values = np.empty((npts, len(feats)))
    for c, e in enumerate(feats):
        values[:, c] = np.broadcast_to(evaluate_array(e, binding), (npts,))
    tvec = np.asarray(np.broadcast_to(evaluate_array(target, binding),
                                      (npts,)), dtype=float)
    keep = np.isfinite(values).all(axis=1) & np.isfinite(tvec)
    dropped = int(npts - keep.sum())
    row_binding = {}
    for name, val in binding.items():
        arr = np.asarray(val, dtype=float)
        row_binding[name] = arr[keep] if arr.ndim else arr
    return FeatureMatrix(columns=feats, values=values[keep],
                         target=tvec[keep], target_label=target,
                         point_index=index[keep], row_binding=row_binding,
                         dropped=dropped)


def export_features_csv(fm: FeatureMatrix, path):
    """features.csv layout: point-index columns, features, then target."""
    header = ["t_index", "x_index"] + [to_string(e) for e in fm.columns]
    header.append(to_string(fm.target_label))
    with open(path, "w") as f:
        f.write(",".join(f'"{h}"' for h in header) + "\n")
        for (ti, xi), row, y in zip(fm.point_index, fm.values, fm.target):
            cells = [str(int(ti)), str(int(xi))]
            cells += [repr(float(v)) for v in row]
            cells.append(repr(float(y)))
            f.write(",".join(cells) + "\n")
