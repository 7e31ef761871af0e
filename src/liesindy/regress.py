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
The action on each feature and on the target is a constant combination of
the features, the target and the action terms outside their span
(`project`, `action_terms`), so [B | b] = [A | y | extra] M for a constant
matrix M, and the penalty sums are M^T S M, where S is the Gram of
[A | y | extra] the feature pass summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    SPACE, Add, Const, Expr, ExprError, JetSpace, LiesindyError, is_zero,
    max_order, parse, simplify, substitute, to_string,
)
# not called here: perfbench's traced runs rebind it on this module
from .expr import evaluate_array  # noqa: F401
from .liealg import ProlongedVectorField, apply as lie_apply, prolong

__all__ = [
    "LibrarySpec", "SparseModel", "build_library", "project", "action_terms",
    "symmetry_penalties", "stlsq", "stlsq_regularized", "model_to_equation",
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
    """Deterministic feature list: constant, inputs, then pairwise products.
    A repeated feature (an input that is a product of inputs) raises."""
    feats = []
    if spec.include_constant:
        feats.append(Const(1.0))
    feats.extend(spec.inputs)
    if spec.mode == "poly2":
        n = len(spec.inputs)
        for i in range(n):
            for j in range(i, n):
                feats.append(simplify(spec.inputs[i] * spec.inputs[j]))
    texts = [to_string(f) for f in feats]
    for i, text in enumerate(texts):
        if text in texts[:i]:
            raise RegressionError(f"the library holds {text} twice")
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


def _stlsq_loop(fm, gram, rhs, n_rows, threshold):
    """STLSQ rounds on the normal equations G w = r."""
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
    return _stlsq_loop(fm, fm.gram, fm.rhs, fm.n_rows, threshold)


def project(expr: Expr, basis):
    """(coefficients, rest) with expr = coefficients . basis + sum(rest).

    Each term of expr goes to the first basis entry it is a constant
    multiple of, by simplify(term / entry); `rest` holds the others.
    """
    expr = simplify(expr)
    coefs, rest = np.zeros(len(basis)), []
    if is_zero(expr):
        return coefs, rest
    for term in expr.terms if isinstance(expr, Add) else (expr,):
        for j, f in enumerate(basis):
            ratio = simplify(term / f)
            if isinstance(ratio, Const):
                coefs[j] += ratio.value
                break
        else:
            rest.append(term)
    return coefs, rest


# (generators, exprs, constants) -> action_terms, filled on first use: the
# runs of one cell project each action once
_bases: dict = {}


def action_terms(generators, exprs, constants=None):
    """(extra, M): the terms of the generators' actions on `exprs` outside
    their span, which the feature pass must sum beside `exprs`
    (FeatureMatrix's `extra`), and M with
    [pr v[e] for v in generators for e in exprs] = (exprs + extra) . M.

    With the constants substituted, each action is projected onto `exprs`
    and the terms found before it, and its other terms are appended to
    `extra`.  A plain generator is prolonged to the highest order of
    `exprs` (at least 1).
    """
    constants = constants or {}
    key = (tuple(generators), tuple(exprs), tuple(sorted(constants.items())))
    if key not in _bases:
        basis, cols = [substitute(e, constants) for e in exprs], []
        order = max(1, *map(max_order, exprs))
        for g in generators:
            pv = g if isinstance(g, ProlongedVectorField) else prolong(g, order)
            for e in exprs:
                coefs, rest = project(substitute(lie_apply(pv, e), constants),
                                      basis)
                basis += rest
                cols.append(np.append(coefs, np.ones(len(rest))))
        m = np.zeros((len(basis), len(cols)))
        for j, col in enumerate(cols):
            m[:col.size, j] = col
        _bases[key] = tuple(basis[len(exprs):]), m
    return _bases[key]


def symmetry_penalties(fm, generators):
    """Per generator, the Gram of [B | b] over fm's rows: M^T S M from fm's
    sums S.

    For the residual equation F = target - sum_j w_j feat_j the prolonged
    action is pr v[F] = pr v[target] - sum_j w_j pr v[feat_j], affine in w,
    so the generator's penalty ||b - B w||^2 has B[:, j] = pr v[feat_j] and
    b = pr v[target], each a column of `action_terms`' M.  An action term
    the pass did not sum raises RegressionError naming it.
    """
    n = len(fm.columns) + 1
    extra, m = action_terms(generators, fm.exprs[:n], fm.constants)
    for i, term in enumerate(extra):
        if term not in fm.exprs[n:]:
            # the first action the term is in brought it into `extra`
            k, j = divmod(int(np.flatnonzero(m[n + i])[0]), n)
            g = getattr(generators[k], "base", generators[k])
            raise RegressionError(
                f"the feature pass did not sum {to_string(term)}, a term of "
                f"the action of '{g.name}' on {to_string(fm.exprs[j])}")
    rows = list(range(n)) + [fm.exprs.index(t, n) for t in extra]
    s = fm.sums[np.ix_(rows, rows)]
    return [m[:, k:k + n].T @ s @ m[:, k:k + n]
            for k in range(0, m.shape[1], n)]


def stlsq_regularized(fm, generators, lam: float,
                      threshold: float) -> SparseModel:
    """STLSQ on the objective ||y - Aw||^2 + lam * sum_v ||b_v - B_v w||^2.

    The objective's normal equations are
    (A^T A + lam sum_v B_v^T B_v) w = A^T y + lam sum_v B_v^T b_v, a p x p
    system, so each thresholding round is still one exact linear solve and
    no stacked (A; B_v) matrix is ever built.  The sums come from
    `symmetry_penalties`, so `fm` must have summed the generators'
    `action_terms`.
    """
    if lam < 0:
        raise RegressionError("lam must be non-negative")
    if lam == 0.0:
        return stlsq(fm, threshold)
    p = len(fm.columns)
    sums = fm.sums[:p + 1, :p + 1].copy()
    for penalty in symmetry_penalties(fm, generators):
        sums += lam * penalty
    # rows of the equivalent stacked least-squares system
    n_rows = fm.n_rows * (1 + len(generators))
    model = _stlsq_loop(fm, sums[:p, :p], sums[:p, p], n_rows, threshold)
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
    space = space or SPACE
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
