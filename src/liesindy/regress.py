"""Sparse regression: STLSQ, its symmetry-regularized variant, libraries.

One least-squares engine serves every method.  Each thresholding round
solves an exact quadratic subproblem through ridge-stabilized normal
equations (ridge 1e-10 scaled to the Gram trace), so results are
deterministic and the mask can only shrink.  The regularized variant adds
rows to the same least-squares system: the prolonged action of each
generator on the residual equation is affine in the coefficients, so the
symmetry penalty is exactly quadratic and needs no iterative optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Const, Expr, JetSpace, LiesindyError, evaluate_array, max_order, parse,
    simplify, to_string,
)
from .liealg import ProlongedVectorField, apply as lie_apply, prolong

__all__ = [
    "LibrarySpec", "SparseModel", "build_library", "stlsq",
    "stlsq_regularized", "least_squares_on_support", "model_to_equation",
    "model_to_dict", "model_from_dict", "RegressionError",
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


def _solve_round(a, y, active):
    """Ridge-stabilized normal equations on the active columns.

    Columns are scaled to unit norm before the solve and the solution is
    rescaled afterwards, so the ridge acts relative to each column's own
    magnitude.  Without this a library whose feature scales span many
    decades (high-derivative products) sees the small columns crushed.
    """
    cols = np.flatnonzero(active)
    coef = np.zeros(a.shape[1])
    if cols.size == 0:
        return coef, 0.0, np.inf
    sub = a[:, cols]
    norms = np.linalg.norm(sub, axis=0)
    norms[norms == 0.0] = 1.0
    sub = sub / norms
    gram = sub.T @ sub
    ridge = 1e-10 * np.trace(gram) / cols.size
    try:
        c = np.linalg.solve(gram + ridge * np.eye(cols.size), sub.T @ y)
    except np.linalg.LinAlgError:
        c, *_ = np.linalg.lstsq(sub, y, rcond=None)
    coef[cols] = c / norms
    sv = np.linalg.svd(gram, compute_uv=False)
    min_sv = float(np.sqrt(max(sv[-1], 0.0)))
    cond = float(np.sqrt(sv[0] / sv[-1])) if sv[-1] > 0 else np.inf
    return coef, min_sv, cond


def _stlsq_loop(a, y, features, target, threshold, max_iters):
    n_rows, n_feats = a.shape
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
    for _ in range(max_iters):
        iterations += 1
        coef, min_sv, cond = _solve_round(a, y, active)
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


def stlsq(fm, threshold: float, max_iters: int = 20) -> SparseModel:
    """Sequential thresholded least squares on a FeatureMatrix."""
    return _stlsq_loop(fm.values, fm.target, fm.columns, fm.target_label,
                       threshold, max_iters)


def _regularizer_rows(fm, pvs):
    """Stacked (B, b) with row blocks per generator.

    For the residual equation F = target - sum_j w_j feat_j the prolonged
    action is pr v[F] = pr v[target] - sum_j w_j pr v[feat_j], affine in w,
    so each generator contributes least-squares rows B w = b with
    B[:, j] = pr v[feat_j] and b = pr v[target] on the data points.
    """
    npts = fm.target.size
    blocks_b = []
    blocks_y = []
    for pv in pvs:
        bm = np.empty((npts, len(fm.columns)))
        for j, feat in enumerate(fm.columns):
            bm[:, j] = np.broadcast_to(
                evaluate_array(lie_apply(pv, feat), fm.row_binding), (npts,))
        tv = np.broadcast_to(
            evaluate_array(lie_apply(pv, fm.target_label), fm.row_binding),
            (npts,))
        blocks_b.append(bm)
        blocks_y.append(np.asarray(tv, dtype=float))
    return np.vstack(blocks_b), np.concatenate(blocks_y)


def stlsq_regularized(fm, generators, lam: float, threshold: float,
                      max_iters: int = 20) -> SparseModel:
    """STLSQ on the objective ||y - Aw||^2 + lam * sum_v ||b_v - B_v w||^2.

    `generators` may be plain or prolonged vector fields; plain ones are
    prolonged to the library's order.  Each generator's action on the
    equation skeleton becomes sqrt(lam)-scaled extra least-squares rows, so
    each thresholding round is still one exact linear solve.
    """
    if lam < 0:
        raise RegressionError("lam must be non-negative")
    if lam == 0.0:
        return stlsq(fm, threshold, max_iters)
    need = max(1, max_order(fm.target_label),
               *(max_order(f) for f in fm.columns))
    pvs = [g if isinstance(g, ProlongedVectorField) else prolong(g, need)
           for g in generators]
    bmat, bvec = _regularizer_rows(fm, pvs)
    root = np.sqrt(lam)
    a = np.vstack([fm.values, root * bmat])
    y = np.concatenate([fm.target, root * bvec])
    model = _stlsq_loop(a, y, fm.columns, fm.target_label, threshold,
                        max_iters)
    model.diagnostics["lambda"] = lam
    return model


def least_squares_on_support(fm, mask) -> np.ndarray:
    """Plain least-squares coefficients restricted to a given support."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(fm.columns),):
        raise RegressionError("mask length must match the feature count")
    return _solve_round(fm.values, fm.target, mask)[0]


def model_to_equation(m: SparseModel) -> Expr:
    """F = target - sum of retained coefficient*feature, simplified."""
    total = m.target
    for w, feat in zip(m.weights, m.features):
        if w != 0.0:
            total = total - Const(float(w)) * feat
    return simplify(total)


def _plain(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def model_to_dict(m: SparseModel) -> dict:
    return {
        "target": to_string(m.target),
        "features": [to_string(f) for f in m.features],
        "C": [float(v) for v in m.coef],
        "M": [int(v) for v in m.mask],
        "threshold": m.threshold,
        "diagnostics": {k: _plain(v) for k, v in m.diagnostics.items()},
    }


def model_from_dict(d: dict, space: JetSpace | None = None) -> SparseModel:
    space = space or JetSpace()
    return SparseModel(
        target=parse(d["target"], space),
        features=[parse(s, space) for s in d["features"]],
        coef=np.array(d["C"], dtype=float),
        mask=np.array(d["M"], dtype=bool),
        threshold=float(d["threshold"]),
        history=[],
        diagnostics=dict(d.get("diagnostics", {})),
    )
