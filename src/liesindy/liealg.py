"""Lie point symmetry generators, prolongation, and invariance checks.

A point generator acts on the base coordinates only; its prolongation extends
the action to derivative coordinates through the standard recursion built on
total derivatives: the coefficient attached to u_J is

    phi_J = D_J(phi - sum_i xi_i u_i) + sum_i xi_i u_{J,i}

All order-(|J|+1) variables introduced by D_J must cancel against the trailing
sum; a surviving out-of-chart variable is an error, not something to drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    Add, Const, DepVar, Expr, ExprError, IndepVar, JetSpace,
    dep_vars_in, evaluate_array, is_zero, max_order, partial_derivative,
    simplify, to_string, total_derivative, _key,
)

__all__ = [
    "VectorField", "ProlongedVectorField", "prolong", "apply",
    "apply_pieces", "check_symmetry_criterion", "CriterionReport",
    "ProlongationError", "OrderMismatchError", "SingularSampleError",
]


class ProlongationError(ExprError):
    """A prolongation coefficient left the configured jet space."""


class OrderMismatchError(ExprError):
    """An expression references derivatives above the prolongation order."""


class SingularSampleError(ExprError):
    """Could not draw enough non-singular sample points within the retry cap."""


@dataclass(frozen=True)
class VectorField:
    """Point generator sum_i xi_i d/dx_i + sum_a phi_a d/du_a."""

    space: JetSpace
    xi: tuple
    phi: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(simplify(e) for e in self.xi))
        object.__setattr__(self, "phi", tuple(simplify(e) for e in self.phi))
        if len(self.xi) != len(self.space.independent):
            raise ExprError("one xi component per independent variable")
        if len(self.phi) != len(self.space.dependent):
            raise ExprError("one phi component per dependent variable")
        for e in self.xi + self.phi:
            if max_order(e) > 0:
                raise ExprError(
                    f"point generator components may depend on base variables "
                    f"only, got {to_string(e)}")

    def is_translation(self):
        """Index of x_i if this is exactly d/dx_i, else None."""
        if any(not is_zero(p) for p in self.phi):
            return None
        hit = None
        for i, e in enumerate(self.xi):
            if is_zero(e):
                continue
            if e == Const(1.0) and hit is None:
                hit = i
            else:
                return None
        return hit


@dataclass(frozen=True)
class ProlongedVectorField:
    base: VectorField
    order: int
    coeffs: tuple  # ((dep_name, multi_index), Expr) pairs, deterministic order

    def coeff(self, dep: str, index: tuple) -> Expr:
        for (d, j), e in self.coeffs:
            if d == dep and j == tuple(sorted(index)):
                return e
        raise KeyError((dep, index))

    @property
    def space(self):
        return self.base.space


# (generator, order) -> prolonged field, filled on first use
_prolonged: dict = {}


def prolong(v: VectorField, n: int) -> ProlongedVectorField:
    """Prolong a point generator to jet order n.

    Raises ProlongationError if any resulting coefficient references a
    variable outside the configured jet space (this happens for generators
    whose prolongation genuinely needs mixed derivatives the evolution chart
    excludes).  Each (generator, order) is prolonged once per process.
    """
    key = (v, n)
    if key not in _prolonged:
        _prolonged[key] = _prolong(v, n)
    return _prolonged[key]


def _prolong(v, n):
    sp = v.space
    if n < 1 or n > sp.order:
        raise ExprError(f"prolongation order {n} outside space order {sp.order}")
    cap = n + 1
    allowed = {dv for dv in _chart_vars(sp, n)}
    coeffs = []
    for alpha, dep in enumerate(sp.dependent):
        q = v.phi[alpha]
        for i, iname in enumerate(sp.independent):
            q = q - v.xi[i] * DepVar(dep, (iname,))
        q = simplify(q)
        dq = {(): q}  # D_J(q) cache, built along sorted-prefix chains
        for J in sp.multi_indices():
            if not J or len(J) > n:
                continue
            parent, last = J[:-1], J[-1]
            dq[J] = total_derivative(dq[parent], last, cap=cap)
            term = dq[J]
            for i, iname in enumerate(sp.independent):
                term = term + v.xi[i] * DepVar(dep, J + (iname,))
            term = simplify(term)
            for dv in sorted(dep_vars_in(term), key=_key):
                if dv not in allowed:
                    raise ProlongationError(
                        f"coefficient for {DepVar(dep, J).display()} references "
                        f"{dv.display()}, outside the order-{n} jet chart")
            coeffs.append(((dep, J), term))
    return ProlongedVectorField(base=v, order=n, coeffs=tuple(coeffs))


def _chart_vars(sp, n):
    out = set()
    for dep in sp.dependent:
        for J in sp.multi_indices():
            if len(J) <= n:
                out.add(DepVar(dep, J))
    return out


def apply_pieces(pv: ProlongedVectorField, e: Expr):
    """The summands of the prolonged action on e, each simplified separately.

    Summing their simplified forms symbolically gives apply(); evaluating
    them separately and summing in floating point probes the same identity
    numerically without benefiting from symbolic cancellation.
    """
    sp = pv.space
    limit = pv.order
    for dv in dep_vars_in(e):
        if dv.order > limit or not sp.contains(dv):
            raise OrderMismatchError(
                f"{dv.display()} exceeds prolongation order {limit}")
    pieces = []
    for i, iname in enumerate(sp.independent):
        p = simplify(pv.base.xi[i] * partial_derivative(e, IndepVar(iname)))
        if not is_zero(p):
            pieces.append(p)
    for alpha, dep in enumerate(sp.dependent):
        p = simplify(pv.base.phi[alpha] * partial_derivative(e, DepVar(dep, ())))
        if not is_zero(p):
            pieces.append(p)
    for (dep, J), coeff in pv.coeffs:
        p = simplify(coeff * partial_derivative(e, DepVar(dep, J)))
        if not is_zero(p):
            pieces.append(p)
    return pieces


# (prolonged field, expression) -> (pieces of the action, their simplified
# sum), filled on first use
_actions: dict = {}


def _action(pv, e):
    key = (pv, e)
    if key not in _actions:
        pieces = tuple(apply_pieces(pv, e))
        _actions[key] = (pieces,
                         simplify(Add(pieces)) if pieces else Const(0.0))
    return _actions[key]


def apply(pv: ProlongedVectorField, e: Expr) -> Expr:
    """Directional derivative of e along the prolonged generator.

    Each (field, expression) is applied once per process.
    """
    return _action(pv, e)[1]


@dataclass(frozen=True)
class CriterionReport:
    symbolic_zero: bool
    residual: Expr


def _sample_points(names, dens, samples, seed, den_tol, max_resample, params):
    """Uniform draws on [-2, 2] from one default_rng(seed), redrawn while any
    guard denominator is within den_tol of zero.

    Every point's first draw comes from one (samples, k) call and the guards
    test them all together; each flagged point then redraws from the same
    generator, in index order.
    """
    seed = int(seed)
    if seed < 0:
        raise ExprError("seed must be non-negative")
    params = params or {}
    rng = np.random.default_rng(seed)
    k = len(names)

    def flagged(binding, size):
        bad = np.zeros(size, dtype=bool)
        for d in dens:
            bad |= np.abs(evaluate_array(d, binding)) < den_tol
        return bad

    cols = dict(zip(names, rng.uniform(-2.0, 2.0, (samples, k)).T.copy()))
    resampled = 0
    for idx in np.flatnonzero(flagged({**cols, **params}, samples)):
        for _ in range(max_resample):
            resampled += 1
            point = rng.uniform(-2.0, 2.0, k)
            if not flagged({**dict(zip(names, point)), **params}, 1)[0]:
                break
        else:
            raise SingularSampleError(
                f"point {idx}: {max_resample} redraws all hit a singular "
                f"denominator")
        for n, val in zip(names, point):
            cols[n][idx] = val
    for n, v in params.items():
        cols[n] = float(v)
    return cols, resampled


def check_symmetry_criterion(pv: ProlongedVectorField,
                             f: Expr) -> CriterionReport:
    """Infinitesimal symmetry criterion for a candidate equation F = 0:
    whether the prolonged action annihilates F symbolically."""
    residual = _action(pv, f)[1]
    return CriterionReport(symbolic_zero=is_zero(residual), residual=residual)
