"""Sparse regression: STLSQ, its symmetry-regularized variant, libraries.

One least-squares engine serves every method, and it works on the normal
equations: it reads G = A^T A and r = A^T y from the sums the feature pass
accumulated (jetgrid.FeatureMatrix) and every thresholding round solves the
active p x p block of G (p is the library size), never the tall data
matrix, which is never built.  Each round is an exact quadratic subproblem
with a ridge of 1e-10 scaled to the block's trace, so results are
deterministic and the mask can only shrink.  The regularized variant adds
lam * B^T B and lam * B^T b to the same G and r: the prolonged action of
each generator on the residual equation is affine in the coefficients, so
the symmetry penalty is exactly quadratic and needs no iterative optimizer.
A `SymmetryPenalty` sums its B^T B and B^T b in the feature pass, over the
same rows as G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Const, Expr, ExprError, JetSpace, LiesindyError, evaluate_array, is_zero,
    parse, simplify, to_string,
)
from .liealg import ProlongedVectorField, apply as lie_apply, prolong

__all__ = [
    "LibrarySpec", "SparseModel", "SymmetryPenalty", "build_library",
    "stlsq", "stlsq_regularized", "model_to_equation", "model_to_dict",
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
        return np.where(self.mask, self.coef, 0.0)

    def active_features(self):
        return [f for f, m in zip(self.features, self.mask) if m]


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


def _stlsq_loop(fm, sums, n_rows, threshold):
    """STLSQ rounds on the normal equations [G | r] in sums' first rows."""
    gram, rhs = sums[:-1, :-1], sums[:-1, -1]
    n_feats = gram.shape[0]
    if n_rows <= n_feats:
        raise RegressionError(
            f"need more rows ({n_rows}) than features ({n_feats})")
    if threshold <= 0:
        raise RegressionError("threshold must be positive")
    active = np.ones(n_feats, dtype=bool)
    history = []
    for iterations in range(1, 21):
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
    return SparseModel(target=fm.target_label, features=list(fm.columns),
                       coef=coef, mask=active, threshold=threshold,
                       history=history, diagnostics=diagnostics)


def stlsq(fm, threshold: float) -> SparseModel:
    """Sequential thresholded least squares on a FeatureMatrix's sums, at
    most 20 thresholding rounds."""
    return _stlsq_loop(fm, fm.sums, fm.n_rows, threshold)


class SymmetryPenalty:
    """One generator's penalty sums over the rows of a fit.

    For the residual equation F = target - sum_j w_j feat_j the prolonged
    action is pr v[F] = pr v[target] - sum_j w_j pr v[feat_j], affine in w,
    so the generator's penalty ||b - B w||^2 has B[:, j] = pr v[feat_j] and
    b = pr v[target] on the data points.  `add` adds the Gram of [B | b]
    over a block of rows to `sums`, so B^T B and B^T b are its blocks.  A
    generator that annihilates the target and every feature (`exprs`) is
    never evaluated; a plain one is prolonged to `order`.
    """

    def __init__(self, generator, exprs, order: int):
        pv = generator if isinstance(generator, ProlongedVectorField) \
            else prolong(generator, order)
        actions = [lie_apply(pv, e) for e in exprs]
        self.actions = None if all(is_zero(a) for a in actions) else actions
        self.sums = np.zeros((len(exprs), len(exprs)))

    def add(self, binding, block):
        """Add the rows of `binding`, evaluated into the buffer `block`."""
        if self.actions is None:
            return
        for j, a in enumerate(self.actions):
            block[j] = evaluate_array(a, binding)
        self.sums += block @ block.T


def stlsq_regularized(fm, generators, lam: float,
                      threshold: float) -> SparseModel:
    """STLSQ on the objective ||y - Aw||^2 + lam * sum_v ||b_v - B_v w||^2.

    The objective's normal equations are
    (A^T A + lam sum_v B_v^T B_v) w = A^T y + lam sum_v B_v^T b_v, a p x p
    system, so each thresholding round is still one exact linear solve and
    no stacked (A; B_v) matrix is ever built.  `generators` are those whose
    penalty sums the feature pass added to `fm` (see evaluate_features); a
    different number of them raises RegressionError.
    """
    if lam < 0:
        raise RegressionError("lam must be non-negative")
    if lam == 0.0:
        return stlsq(fm, threshold)
    if len(fm.penalties) != len(generators):
        raise RegressionError(f"the feature pass summed {len(fm.penalties)}"
                              f" penalties, not {len(generators)}")
    sums = fm.sums.copy()
    for penalty in fm.penalties:
        sums += lam * penalty.sums
    # rows of the equivalent stacked least-squares system
    n_rows = fm.n_rows * (1 + len(generators))
    model = _stlsq_loop(fm, sums, n_rows, threshold)
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
    except (KeyError, TypeError, ValueError, ExprError) as err:
        raise RegressionError(
            f"not a model: {type(err).__name__}: {err}") from None
