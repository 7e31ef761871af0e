"""Immutable symbolic expressions over jet-space coordinates.

Expressions are trees built from constants, jet variables (independent
coordinates, derivative coordinates of the dependent fields), named constants,
sums, products, integer powers, exponentials, and quotients.  simplify()
rewrites a tree into a canonical expanded form so that structurally different
spellings of the same polynomial-exponential expression compare equal.  The
canonical form is what makes symbolic cancellation checks (zero residuals of
invariance and symmetry criteria) exact rather than approximate.

Quotients with a non-monomial denominator are kept as opaque fraction nodes;
no polynomial GCD cancellation is attempted.  Correctness of anything fancier
is established by evaluation, not by normal form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "Expr", "Const", "IndepVar", "DepVar", "Param", "Add", "Mul", "Pow",
    "Exp", "Div", "JetSpace", "SPACE", "simplify", "is_zero",
    "partial_derivative", "total_derivative", "evaluate_array",
    "compile_array", "substitute", "parse", "to_string", "dep_vars_in",
    "params_in", "denominators_in", "max_order",
    "LiesindyError", "ExprError", "MissingSymbolError", "OrderCapError",
    "ParseError",
]


class LiesindyError(Exception):
    """Root of every error the package raises on purpose."""


class ExprError(LiesindyError):
    pass


class MissingSymbolError(ExprError):
    """A symbol required during evaluation has no binding."""


class OrderCapError(ExprError):
    """A total derivative would introduce a jet variable above the cap."""


class ParseError(ExprError):
    pass


# ---------------------------------------------------------------------------
# node types


class Expr:
    """Base class; nodes are frozen dataclasses and therefore hashable."""

    __slots__ = ()

    def __add__(self, other):
        return Add((self, _coerce(other)))

    def __radd__(self, other):
        return Add((_coerce(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Const(-1.0), _coerce(other)))))

    def __rsub__(self, other):
        return Add((_coerce(other), Mul((Const(-1.0), self))))

    def __mul__(self, other):
        return Mul((self, _coerce(other)))

    def __rmul__(self, other):
        return Mul((_coerce(other), self))

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponents must be Python ints")
        return Pow(self, k)

    def __neg__(self):
        return Mul((Const(-1.0), self))

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value) + 0.0)


@dataclass(frozen=True)
class IndepVar(Expr):
    name: str


@dataclass(frozen=True)
class DepVar(Expr):
    """Derivative coordinate u^alpha_J; index is the sorted multi-index."""

    name: str
    index: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(sorted(self.index)))

    @property
    def order(self):
        return len(self.index)

    def display(self):
        if not self.index:
            return self.name
        return self.name + "_" + "".join(self.index)


@dataclass(frozen=True)
class Param(Expr):
    """Named constant (t0, nu, ...) resolved at evaluation time."""

    name: str


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# deterministic ordering


def _key(e):
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Param):
        return (1, e.name)
    if isinstance(e, Exp):
        return (2, _key(e.arg))
    if isinstance(e, Div):
        return (3, _key(e.num), _key(e.den))
    if isinstance(e, IndepVar):
        return (4, e.name)
    if isinstance(e, DepVar):
        return (5, e.name, len(e.index), e.index)
    if isinstance(e, Pow):
        return (6, _key(e.base), e.exponent)
    if isinstance(e, Mul):
        return (7, tuple(_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (8, tuple(_key(t) for t in e.terms))
    raise TypeError(type(e))


def _term_sort_key(mono):
    # Terms are ordered by their largest factor first, which prints evolution
    # equations in the conventional u_t-leading order.
    return tuple(sorted(((_key(b), k) for b, k in mono), reverse=True))


# ---------------------------------------------------------------------------
# canonicalization
#
# A terms-dict maps a monomial (tuple of (base, int exponent) pairs, sorted by
# base key) to a float coefficient.  Bases are leaves, Exp nodes, or opaque
# Div nodes; never Add/Mul/Pow.

_MAX_EXPANDED_POWER = 16


def _terms(e):
    if isinstance(e, Const):
        return {(): e.value} if e.value != 0.0 else {}
    if isinstance(e, (IndepVar, DepVar, Param)):
        return {((e, 1),): 1.0}
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            _merge_into(out, _terms(t))
        return _combine_fractions(out)
    if isinstance(e, Mul):
        out = {(): 1.0}
        for f in e.factors:
            out = _mul_terms(out, _terms(f))
        return out
    if isinstance(e, Pow):
        return _pow_terms(_terms(e.base), e.exponent)
    if isinstance(e, Exp):
        return _exp_terms(_terms(e.arg))
    if isinstance(e, Div):
        return _div_terms(_terms(e.num), _terms(e.den))
    raise TypeError(f"not an expression: {type(e).__name__}")


def _merge_into(acc, extra):
    for mono, c in extra.items():
        c2 = acc.get(mono, 0.0) + c
        if c2 == 0.0:
            acc.pop(mono, None)
        else:
            acc[mono] = c2


def _mul_terms(t1, t2):
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            _merge_into(out, _norm_monomial(list(m1) + list(m2), c1 * c2))
    return out


def _pow_terms(bt, k):
    if k == 0:
        return {(): 1.0}
    if k == 1:
        return dict(bt)
    if not bt:
        if k > 0:
            return {}
        raise ExprError("0 raised to a negative power")
    if len(bt) == 1:
        (mono, c), = bt.items()
        scaled = [(b, e * k) for b, e in mono]
        return _norm_monomial(scaled, c ** k)
    if k < 0:
        return _div_terms({(): 1.0}, _pow_terms(bt, -k))
    if k > _MAX_EXPANDED_POWER:
        raise ExprError(f"refusing to expand a sum to power {k}")
    out = dict(bt)
    for _ in range(k - 1):
        out = _mul_terms(out, bt)
    return out


def _exp_terms(arg_terms):
    if not arg_terms:
        return {(): 1.0}
    if set(arg_terms) == {()}:
        try:
            return {(): math.exp(arg_terms[()])}
        except OverflowError:
            pass  # keep symbolic
    return {((Exp(_from_terms(arg_terms)), 1),): 1.0}


def _norm_monomial(bases, coef):
    """Normalize one monomial; returns a terms-dict (usually one entry)."""
    if coef == 0.0:
        return {}
    merged = {}
    for b, k in bases:
        if isinstance(b, Const):
            coef *= b.value ** k
            continue
        merged[b] = merged.get(b, 0) + k
    exp_arg = {}
    divs = []
    plain = []
    for b, k in merged.items():
        if k == 0:
            continue
        if isinstance(b, Exp):
            _merge_into(exp_arg, {m: c * k for m, c in _terms(b.arg).items()})
        elif isinstance(b, Div):
            divs.append((b, k))
        else:
            plain.append((b, k))
    if exp_arg:
        if set(exp_arg) == {()}:
            try:
                coef *= math.exp(exp_arg[()])
            except OverflowError:
                plain.append((Exp(Const(exp_arg[()])), 1))
        else:
            plain.append((Exp(_from_terms(exp_arg)), 1))
    if coef == 0.0:
        return {}
    if not divs:
        return {tuple(sorted(plain, key=lambda bk: _key(bk[0]))): coef}
    num = {tuple(sorted(plain, key=lambda bk: _key(bk[0]))): coef}
    den = {(): 1.0}
    for d, k in divs:
        upper, lower = (d.num, d.den) if k > 0 else (d.den, d.num)
        p = _pow_terms(_terms(upper), abs(k))
        q = _pow_terms(_terms(lower), abs(k))
        num = _mul_terms(num, p)
        den = _mul_terms(den, q)
    return _div_terms(num, den)


def _div_terms(nt, dt):
    if not dt:
        raise ExprError("division by symbolic zero")
    if not nt:
        return {}
    if len(dt) == 1:
        (mono, c), = dt.items()
        inv = [(b, -k) for b, k in mono]
        out = {}
        for m, cn in nt.items():
            _merge_into(out, _norm_monomial(list(m) + inv, cn / c))
        return out
    # multi-term denominator: normalize its leading coefficient to 1
    lead = min(dt, key=_term_sort_key)
    c0 = dt[lead]
    dt = {m: c / c0 for m, c in dt.items()}
    nt = {m: c / c0 for m, c in nt.items()}
    # fold the numerator into a single fraction, grouping identical
    # denominators so same-denominator sums cancel exactly
    groups = {}
    for mono, c in nt.items():
        plain, dplus = [], {(): 1.0}
        num_part = {(): c}
        for b, k in mono:
            if isinstance(b, Div):
                upper, lower = (b.num, b.den) if k > 0 else (b.den, b.num)
                num_part = _mul_terms(num_part, _pow_terms(_terms(upper), abs(k)))
                dplus = _mul_terms(dplus, _pow_terms(_terms(lower), abs(k)))
            else:
                plain.append((b, k))
        if plain:
            num_part = _mul_terms(num_part, {tuple(plain): 1.0})
        dkey = _from_terms(dplus)
        if dkey in groups:
            _merge_into(groups[dkey], num_part)
        else:
            groups[dkey] = num_part
    items = sorted(groups.items(), key=lambda kv: _key(kv[0]))
    p_acc, q_acc = {}, {(): 1.0}
    for dexpr, p in items:
        q = _terms(dexpr)
        p_acc = _merge2(_mul_terms(p_acc, q), _mul_terms(p, q_acc))
        q_acc = _mul_terms(q_acc, q)
    total_den = _mul_terms(q_acc, dt)
    if not p_acc:
        return {}
    if len(total_den) == 1:
        return _div_terms(p_acc, total_den)
    lead = min(total_den, key=_term_sort_key)
    c0 = total_den[lead]
    den_expr = _from_terms({m: c / c0 for m, c in total_den.items()})
    num_expr = _from_terms({m: c / c0 for m, c in p_acc.items()})
    if num_expr == den_expr:
        return {(): 1.0}
    if isinstance(num_expr, Const) and num_expr.value == 0.0:
        return {}
    return {((Div(num_expr, den_expr), 1),): 1.0}


def _merge2(a, b):
    out = dict(a)
    _merge_into(out, b)
    return out


def _combine_fractions(t):
    """Merge quotient atoms over an identical denominator.

    Sums of fractions produced independently (e.g. by the quotient rule)
    only cancel if their numerators are added over the shared denominator;
    this pass also folds stray coefficients into numerators so canonical
    quotient atoms always carry coefficient 1.
    """
    groups, keep = {}, {}
    for mono, c in t.items():
        if len(mono) == 1 and isinstance(mono[0][0], Div) and mono[0][1] == 1:
            groups.setdefault(mono[0][0].den, []).append((mono[0][0].num, c))
        else:
            keep[mono] = c
    for den, nums in groups.items():
        if len(nums) == 1 and nums[0][1] == 1.0:
            _merge_into(keep, {((Div(nums[0][0], den), 1),): 1.0})
            continue
        acc = {}
        for n, c in nums:
            _merge_into(acc, {m: cv * c for m, cv in _terms(n).items()})
        if acc:
            _merge_into(keep, _div_terms(acc, _terms(den)))
    return keep


def _from_terms(t):
    if not t:
        return ZERO
    parts = []
    for mono in sorted(t, key=_term_sort_key):
        c = t[mono]
        factors = []
        for b, k in mono:
            factors.append(b if k == 1 else Pow(b, k))
        if not factors:
            parts.append(Const(c))
        elif c == 1.0:
            parts.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
        else:
            parts.append(Mul(tuple([Const(c)] + factors)))
    return parts[0] if len(parts) == 1 else Add(tuple(parts))


def _canonical_terms(e):
    return _combine_fractions(_terms(_coerce(e)))


def simplify(e: Expr) -> Expr:
    """Canonical expanded form; idempotent and deterministic."""
    return _from_terms(_canonical_terms(e))


def is_zero(e: Expr) -> bool:
    e = simplify(e)
    return isinstance(e, Const) and e.value == 0.0


# ---------------------------------------------------------------------------
# derivatives


def _raw_partial(e, v):
    if e == v:
        return ONE
    if isinstance(e, (Const, IndepVar, DepVar, Param)):
        return ZERO
    if isinstance(e, Add):
        return Add(tuple(_raw_partial(t, v) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i in range(len(fs)):
            parts.append(Mul(tuple(list(fs[:i]) + [_raw_partial(fs[i], v)]
                                   + list(fs[i + 1:]))))
        return Add(tuple(parts))
    if isinstance(e, Pow):
        return Mul((Const(float(e.exponent)), Pow(e.base, e.exponent - 1),
                    _raw_partial(e.base, v)))
    if isinstance(e, Exp):
        return Mul((_raw_partial(e.arg, v), e))
    if isinstance(e, Div):
        num = Add((Mul((_raw_partial(e.num, v), e.den)),
                   Mul((Const(-1.0), e.num, _raw_partial(e.den, v)))))
        return Div(num, Pow(e.den, 2))
    raise TypeError(type(e))


def partial_derivative(e: Expr, v: Expr) -> Expr:
    """d e / d v for a single jet variable or named constant v."""
    if not isinstance(v, (IndepVar, DepVar, Param)):
        raise TypeError("differentiation target must be a variable leaf")
    return simplify(_raw_partial(e, v))


def dep_vars_in(e):
    out = set()
    _walk(e, lambda n: out.add(n) if isinstance(n, DepVar) else None)
    return out


def params_in(e):
    out = set()
    _walk(e, lambda n: out.add(n) if isinstance(n, Param) else None)
    return out


def _walk(e, fn):
    fn(e)
    if isinstance(e, Add):
        for t in e.terms:
            _walk(t, fn)
    elif isinstance(e, Mul):
        for f in e.factors:
            _walk(f, fn)
    elif isinstance(e, Pow):
        _walk(e.base, fn)
    elif isinstance(e, Exp):
        _walk(e.arg, fn)
    elif isinstance(e, Div):
        _walk(e.num, fn)
        _walk(e.den, fn)


def max_order(e) -> int:
    dvs = dep_vars_in(e)
    return max((dv.order for dv in dvs), default=0)


def denominators_in(e):
    """Sub-expressions whose vanishing makes evaluation singular."""
    dens = []

    def visit(n):
        if isinstance(n, Div):
            dens.append(n.den)
        elif isinstance(n, Pow) and n.exponent < 0:
            dens.append(n.base)

    _walk(e, visit)
    return dens


def total_derivative(e: Expr, i: str, cap: int | None = None) -> Expr:
    """Total derivative D_i: d/dx_i plus chain terms through every u_J in e.

    cap bounds the order of jet variables the result may contain; a chain
    term that would introduce a higher-order variable with a non-zero
    coefficient raises OrderCapError.
    """
    res = _raw_partial(e, IndepVar(i))
    out = [res]
    for dv in sorted(dep_vars_in(e), key=_key):
        p = simplify(_raw_partial(e, dv))
        if is_zero(p):
            continue
        bumped = DepVar(dv.name, dv.index + (i,))
        if cap is not None and bumped.order > cap:
            raise OrderCapError(
                f"D_{i} would introduce {bumped.display()} above order {cap}")
        out.append(Mul((bumped, p)))
    return simplify(Add(tuple(out)))


def _map_leaves(e: Expr, fn) -> Expr:
    """e rebuilt node by node, unsimplified, with each leaf n replaced by
    fn(n); fn sees the leaves depth first, left to right."""
    if isinstance(e, Add):
        return Add(tuple(_map_leaves(t, fn) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_map_leaves(f, fn) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_map_leaves(e.base, fn), e.exponent)
    if isinstance(e, Exp):
        return Exp(_map_leaves(e.arg, fn))
    if isinstance(e, Div):
        return Div(_map_leaves(e.num, fn), _map_leaves(e.den, fn))
    return fn(e)


def substitute(e: Expr, binding) -> Expr:
    """Replace named constants (and optionally variables) by expressions."""

    def sub(n):
        if isinstance(n, (Param, IndepVar)) and n.name in binding:
            return _coerce(binding[n.name])
        if isinstance(n, DepVar) and n.display() in binding:
            return _coerce(binding[n.display()])
        return n

    return simplify(_map_leaves(e, sub))


# ---------------------------------------------------------------------------
# evaluation


def _leaf_name(e):
    if isinstance(e, IndepVar):
        return e.name
    if isinstance(e, DepVar):
        return e.display()
    if isinstance(e, Param):
        return e.name
    raise TypeError(type(e))


def evaluate_array(e: Expr, binding, out=None):
    """Vectorized evaluation over numpy arrays.

    Non-finite entries are allowed to propagate (the caller filters); unbound
    symbols still raise.  With `out`, the value is written into out,
    broadcast to its shape, with the same bits, and out is returned; a
    product's last multiply writes there directly.
    """
    with np.errstate(all="ignore"):
        if out is None:
            return compile_array(e)(binding)
        if isinstance(e, Mul) and len(e.factors) > 1:
            *head, last = e.factors
            np.multiply(compile_array(Mul(tuple(head)))(binding),
                        compile_array(last)(binding), out=out)
        else:
            out[...] = compile_array(e)(binding)
        return out


def compile_array(e: Expr):
    """e -> a function of a binding that evaluates e over numpy arrays.

    The tree is walked once, here; each call then runs only the numpy
    operations, depth first and left to right: a sum starts from 0, a
    product from its first factor (one multiply fewer than a walk from
    1.0, with the same bits, since 1.0 * v is v), a constant stays a
    Python float, and every bound value passes through
    np.asarray(..., dtype=float).  An unbound symbol raises
    MissingSymbolError when the function is called.  Unlike
    evaluate_array, the function leaves numpy's error state to the caller.
    """
    if isinstance(e, Const):
        value = e.value
        return lambda binding: value
    if isinstance(e, (IndepVar, DepVar, Param)):
        name = _leaf_name(e)

        def leaf(binding):
            try:
                return np.asarray(binding[name], dtype=float)
            except KeyError:
                raise MissingSymbolError(
                    f"no binding for symbol '{name}'") from None

        return leaf
    if isinstance(e, Add):
        terms = tuple(compile_array(t) for t in e.terms)
        return lambda binding: sum(t(binding) for t in terms)
    if isinstance(e, Mul):
        first, *rest = (compile_array(f) for f in e.factors)

        def product(binding):
            v = first(binding)
            for f in rest:
                v = v * f(binding)
            return v

        return product
    if isinstance(e, Pow):
        base, exponent = compile_array(e.base), float(e.exponent)
        return lambda binding: np.power(base(binding), exponent)
    if isinstance(e, Exp):
        arg = compile_array(e.arg)
        return lambda binding: np.exp(arg(binding))
    if isinstance(e, Div):
        num, den = compile_array(e.num), compile_array(e.den)
        return lambda binding: num(binding) / den(binding)
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# jet space


@dataclass(frozen=True)
class JetSpace:
    """Coordinate chart for derivatives up to a fixed order.

    With evolution=True (the default used for time-evolution systems) the
    dependent coordinates are u, a single first-order time derivative, and
    pure spatial derivatives up to `order`; the first independent name is
    time.  With evolution=False every mixed multi-index up to `order` is a
    coordinate.
    """

    independent: tuple = ("t", "x")
    dependent: tuple = ("u",)
    order: int = 4
    evolution: bool = True

    def __post_init__(self):
        if self.evolution and len(self.independent) < 2:
            raise ValueError("evolution spaces need a time and a space name")
        if self.order < 1:
            raise ValueError("order must be at least 1")

    @property
    def time(self):
        return self.independent[0] if self.evolution else None

    def multi_indices(self):
        if self.evolution:
            t, spatial = self.independent[0], self.independent[1:]
            out = [(), (t,)]
            for k in range(1, self.order + 1):
                out.extend(combinations_with_replacement(sorted(spatial), k))
        else:
            out = [()]
            for k in range(1, self.order + 1):
                out.extend(combinations_with_replacement(sorted(self.independent), k))
        return sorted(set(tuple(sorted(j)) for j in out), key=lambda j: (len(j), j))

    def coordinates(self):
        coords = [IndepVar(n) for n in self.independent]
        for dep in self.dependent:
            coords.extend(DepVar(dep, j) for j in self.multi_indices())
        return coords

    def coordinate_names(self):
        return [_leaf_name(c) for c in self.coordinates()]

    def contains(self, dv: DepVar) -> bool:
        return dv.name in self.dependent and dv.index in set(self.multi_indices())

    def resolve(self, name: str):
        """Name -> leaf for this space, or None if it is not a coordinate."""
        if name in self.independent:
            return IndepVar(name)
        if name in self.dependent:
            return DepVar(name, ())
        if "_" in name:
            head, _, sub = name.partition("_")
            if head in self.dependent and sub and all(c in self.independent for c in sub):
                dv = DepVar(head, tuple(sorted(sub)))
                if self.contains(dv):
                    return dv
        return None


# the chart of every evolution system in the catalog: t, x and u, u_t, u_x
# up to u_xxxx
SPACE = JetSpace()


# ---------------------------------------------------------------------------
# serialization


def _fmt_const(c):
    if c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def _factor_str(b, k):
    if isinstance(b, (IndepVar, DepVar, Param)):
        s = _leaf_name(b)
    elif isinstance(b, Exp):
        s = "exp(" + to_string(b.arg) + ")"
    elif isinstance(b, Div):
        s = _div_str(b)
    else:
        s = "(" + to_string(b) + ")"
    if k != 1:
        s += "^" + str(k)
    return s


def _div_str(d):
    num = to_string(d.num)
    if isinstance(d.num, (Add, Mul)):
        num = "(" + num + ")"
    den = to_string(d.den)
    if not isinstance(d.den, (Const, IndepVar, DepVar, Param, Exp)):
        den = "(" + den + ")"
    return num + "/" + den


def _term_str(mono, coef):
    """Render |coef| * monomial; returns (sign, text)."""
    sign = "-" if coef < 0 else "+"
    c = abs(coef)
    up, down = [], []
    for b, k in mono:
        (up if k > 0 else down).append((b, abs(k)))
    if isinstance(mono[0][0] if mono else None, Div) and len(mono) == 1 and mono[0][1] == 1 and c == 1.0:
        return sign, _div_str(mono[0][0])
    parts = [_factor_str(b, k) for b, k in up]
    if c != 1.0 or not parts:
        parts.insert(0, _fmt_const(c))
    s = "*".join(parts)
    if down:
        dparts = [_factor_str(b, k) for b, k in down]
        if len(dparts) == 1:
            s += "/" + dparts[0]
        else:
            s += "/(" + "*".join(dparts) + ")"
    return sign, s


def to_string(e: Expr) -> str:
    """Deterministic infix text for a canonical expression.

    Non-canonical trees are canonicalized first, so the output re-parses to
    an equal expression.
    """
    t = _canonical_terms(e)
    if not t:
        return "0"
    pieces = []
    for mono in sorted(t, key=_term_sort_key):
        sign, body = _term_str(mono, t[mono])
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>\*\*|[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(s):
    pos, toks = 0, []
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ParseError(f"bad character {s[pos]!r} at position {pos}")
        pos = m.end()
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group()))
    toks.append(("end", ""))
    return toks


class _Parser:
    def __init__(self, s, space):
        self.toks = _tokenize(s)
        self.i = 0
        self.space = space
        self.text = s

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val):
        kind, v = self.take()
        if v != val:
            raise ParseError(f"expected {val!r}, found {v!r} in {self.text!r}")

    def parse(self):
        e = self.sum_()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input {self.peek()[1]!r} in {self.text!r}")
        return e

    def sum_(self):
        e = self.product()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.product()
            e = e + rhs if op == "+" else e - rhs
        return e

    def product(self):
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            e = e * rhs if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return -self.unary()
        if self.peek()[1] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] in ("^", "**"):
            self.take()
            neg = False
            if self.peek()[1] == "-":
                self.take()
                neg = True
            kind, v = self.take()
            if kind != "num" or any(c in v for c in ".eE"):
                raise ParseError(f"exponent must be an integer, found {v!r}")
            k = -int(v) if neg else int(v)
            return Pow(base, k)
        return base

    def atom(self):
        kind, v = self.take()
        if v == "(":
            e = self.sum_()
            self.expect(")")
            return e
        if kind == "num":
            return Const(float(v))
        if kind == "name":
            if v == "exp":
                self.expect("(")
                arg = self.sum_()
                self.expect(")")
                return Exp(arg)
            leaf = self.space.resolve(v) if self.space is not None else None
            if leaf is not None:
                return leaf
            # u_<subscripts> that fails to resolve is a malformed or
            # out-of-chart derivative, not a named constant
            head = v.partition("_")[0]
            if self.space is not None and head in self.space.dependent:
                raise ParseError(
                    f"{v!r} is not a derivative coordinate of this jet space")
            return Param(v)
        raise ParseError(f"unexpected token {v!r} in {self.text!r}")


def parse(s: str, space: JetSpace | None = None) -> Expr:
    """Parse infix text back into a canonical expression.

    Identifiers resolve to jet variables of `space` when they match one
    (t, x, u, u_x, u_tx, ...); anything else becomes a named constant.
    """
    return simplify(_Parser(s, space).parse())
