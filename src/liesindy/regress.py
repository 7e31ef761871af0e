"""Sparse regression: STLSQ, its symmetry-regularized variant, libraries.

One least-squares engine serves every method, and it works on the normal
equations: G = A^T A and r = A^T y are accumulated once per fit and every
thresholding round solves the active p x p block of G (p is the library
size), never the tall data matrix.  Each round is an exact quadratic
subproblem with a ridge of 1e-10 scaled to the block's trace, so results
are deterministic and the mask can only shrink.  The regularized variant
adds lam * B^T B and lam * B^T b to the same G and r: the prolonged action
of each generator on the residual equation is affine in the coefficients,
so the symmetry penalty is exactly quadratic and needs no iterative
optimizer.  Its B blocks are evaluated a fixed number of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Const, Expr, JetSpace, LiesindyError, evaluate_array, is_zero, max_order,
    parse, simplify, to_string,
)
from .liealg import ProlongedVectorField, apply as lie_apply, prolong

__all__ = [
    "LibrarySpec", "SparseModel", "build_library", "stlsq",
    "stlsq_regularized", "model_to_equation", "model_to_dict",
    "model_from_dict", "RegressionError",
]


class RegressionError(LiesindyError):
    pass


@dataclass
class LibrarySpec:
    mode: str                 # "linear" or "poly2"
    inputs: list
    include_constant: bool = False

    def __post_init__(self):
        if self.mode not in ("linear", "poly2"):
            raise RegressionError(f"unknown library mode '{self.mode}'")
        if not self.inputs:
            raise RegressionError("library needs at least one input")
        canon = [simplify(e) for e in self.inputs]
        if len({to_string(e) for e in canon}) != len(canon):
            raise RegressionError("library inputs must be distinct")
        self.inputs = canon


def build_library(spec: LibrarySpec):
    """Deterministic feature list: constant, inputs, then pairwise products."""
    feats = []
    if spec.include_constant:
        feats.append(Const(1.0))
    feats.extend(spec.inputs)
    if spec.mode == "poly2":
        n = len(spec.inputs)
        for i in range(n):
            for j in range(i, n):
                feats.append(simplify(spec.inputs[i] * spec.inputs[j]))
    return feats


@dataclass
class SparseModel:
    """Equation skeleton target = W·features with W = C ⊙ M."""

    target: Expr
    features: list
    coef: np.ndarray          # C
    mask: np.ndarray          # M, boolean
    threshold: float
    history: list = field(default_factory=list)  # mask per iteration
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.coef.shape != (len(self.features),) or \
                self.mask.shape != self.coef.shape:
            raise RegressionError("one coefficient and mask entry per feature")

    @property
    def weights(self):
        w = np.where(self.mask, self.coef, 0.0)
        return w

    def active_features(self):
        return [f for f, m in zip(self.features, self.mask) if m]


# Rows of each symmetry block evaluated at a time; bounds the block's memory
# at _CHUNK_ROWS x (features + 1) floats whatever the number of data points.
_CHUNK_ROWS = 65536

def _solve_round(gram, rhs, active):
    """Ridge-stabilized normal equations on the active block of the Gram.

    The block is scaled by the square roots of its diagonal (the column
    norms of the tall matrix it came from) before the solve and the solution
    is rescaled afterwards, so the ridge acts relative to each column's own
    magnitude.  Without this a library whose feature scales span many
    decades (high-derivative products) sees the small columns crushed.
    """
    cols = np.flatnonzero(active)
    coef = np.zeros(gram.shape[0])
    if cols.size == 0:
        return coef, 0.0, np.inf
    norms = np.sqrt(np.diag(gram)[cols])
    norms[norms == 0.0] = 1.0
    sub = gram[np.ix_(cols, cols)] / np.outer(norms, norms)
    r = rhs[cols] / norms
    ridge = 1e-10 * np.trace(sub) / cols.size
    try:
        c = np.linalg.solve(sub + ridge * np.eye(cols.size), r)
    except np.linalg.LinAlgError:
        c, *_ = np.linalg.lstsq(sub, r, rcond=None)
    coef[cols] = c / norms
    sv = np.linalg.svd(sub, compute_uv=False)
    min_sv = float(np.sqrt(max(sv[-1], 0.0)))
    cond = float(np.sqrt(sv[0] / sv[-1])) if sv[-1] > 0 else np.inf
    return coef, min_sv, cond


def _stlsq_loop(gram, rhs, n_rows, features, target, threshold):
    n_feats = gram.shape[0]
    if n_rows <= n_feats:
        raise RegressionError(
            f"need more rows ({n_rows}) than features ({n_feats})")
    if threshold <= 0:
        raise RegressionError("threshold must be positive")
    active = np.ones(n_feats, dtype=bool)
    history = []
    coef = np.zeros(n_feats)
    min_sv = np.inf
    cond = 0.0
    iterations = 0
    for _ in range(20):
        iterations += 1
        coef, min_sv, cond = _solve_round(gram, rhs, active)
        history.append(tuple(bool(m) for m in active))
        small = active & (np.abs(coef) < threshold)
        if not small.any():
            break
        active = active & ~small
    diagnostics = {
        "iterations": iterations,
        "condition_number": cond,
        "min_singular_value": min_sv,
        "rank_warning": bool(min_sv < 1e-10 and active.any()),
    }
    coef = np.where(active, coef, 0.0)
    return SparseModel(target=target, features=list(features), coef=coef,
                       mask=active, threshold=threshold, history=history,
                       diagnostics=diagnostics)


def _normal_equations(fm):
    """(A^T A, A^T y) of the feature matrix."""
    a = fm.values
    return a.T @ a, a.T @ fm.target


def stlsq(fm, threshold: float) -> SparseModel:
    """Sequential thresholded least squares on a FeatureMatrix, at most 20
    thresholding rounds."""
    gram, rhs = _normal_equations(fm)
    return _stlsq_loop(gram, rhs, fm.target.size, fm.columns,
                       fm.target_label, threshold)


def _add_penalty(gram, rhs, fm, pv, lam):
    """Add lam * (B^T B, B^T b) of one generator to the normal equations.

    For the residual equation F = target - sum_j w_j feat_j the prolonged
    action is pr v[F] = pr v[target] - sum_j w_j pr v[feat_j], affine in w,
    so the generator's penalty ||b - B w||^2 has B[:, j] = pr v[feat_j] and
    b = pr v[target] on the data points.  B is evaluated _CHUNK_ROWS rows at
    a time; a generator that annihilates the target and every feature adds
    nothing and is skipped.
    """
    exprs = [lie_apply(pv, f) for f in fm.columns]
    exprs.append(lie_apply(pv, fm.target_label))
    if all(is_zero(e) for e in exprs):
        return
    npts = fm.target.size
    # transposed, so each expression fills one contiguous row
    block = np.empty((len(exprs), min(npts, _CHUNK_ROWS)))
    for lo in range(0, npts, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, npts)
        rows = {name: arr[lo:hi] if np.ndim(arr) else arr
                for name, arr in fm.row_binding.items()}
        bt = block[:, :hi - lo]
        for j, e in enumerate(exprs):
            bt[j] = evaluate_array(e, rows)
        b_cols, b_vec = bt[:-1], bt[-1]
        gram += lam * (b_cols @ b_cols.T)
        rhs += lam * (b_cols @ b_vec)


def stlsq_regularized(fm, generators, lam: float,
                      threshold: float) -> SparseModel:
    """STLSQ on the objective ||y - Aw||^2 + lam * sum_v ||b_v - B_v w||^2.

    `generators` may be plain or prolonged vector fields; plain ones are
    prolonged to the library's order.  The objective's normal equations are
    (A^T A + lam sum_v B_v^T B_v) w = A^T y + lam sum_v B_v^T b_v, a
    p x p system accumulated once, so each thresholding round is still one
    exact linear solve and no stacked (A; B_v) matrix is ever built.
    """
    if lam < 0:
        raise RegressionError("lam must be non-negative")
    if lam == 0.0:
        return stlsq(fm, threshold)
    need = max(1, max_order(fm.target_label),
               *(max_order(f) for f in fm.columns))
    pvs = [g if isinstance(g, ProlongedVectorField) else prolong(g, need)
           for g in generators]
    gram, rhs = _normal_equations(fm)
    for pv in pvs:
        _add_penalty(gram, rhs, fm, pv, lam)
    # rows of the equivalent stacked least-squares system
    n_rows = fm.target.size * (1 + len(pvs))
    model = _stlsq_loop(gram, rhs, n_rows, fm.columns, fm.target_label,
                        threshold)
    model.diagnostics["lambda"] = lam
    return model


def model_to_equation(m: SparseModel) -> Expr:
    """F = target - sum of retained coefficient*feature, simplified."""
    total = m.target
    for w, feat in zip(m.weights, m.features):
        if w != 0.0:
            total = total - Const(float(w)) * feat
    return simplify(total)


def _plain(v):
    """JSON-ready scalar; a non-finite float becomes None (JSON null)."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if np.isfinite(v) else None
    return v


def model_to_dict(m: SparseModel) -> dict:
    return {
        "target": to_string(m.target),
        "features": [to_string(f) for f in m.features],
        "C": [float(v) for v in m.coef],
        "M": [int(v) for v in m.mask],
        "threshold": m.threshold,
        "history": [[int(v) for v in h] for h in m.history],
        "diagnostics": {k: _plain(v) for k, v in m.diagnostics.items()},
    }


def model_from_dict(d: dict, space: JetSpace | None = None) -> SparseModel:
    """The model a model_to_dict blob holds; RegressionError if none."""
    if not isinstance(d, dict):
        raise RegressionError(
            f"a model must be an object, not {type(d).__name__}")
    space = space or JetSpace()
    try:
        return SparseModel(
            target=parse(d["target"], space),
            features=[parse(s, space) for s in d["features"]],
            coef=np.array(d["C"], dtype=float),
            mask=np.array(d["M"], dtype=bool),
            threshold=float(d["threshold"]),
            history=[tuple(bool(v) for v in h)
                     for h in d.get("history", [])],
            diagnostics=dict(d.get("diagnostics", {})),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise RegressionError(
            f"not a model: {type(err).__name__}: {err}") from None
