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
    denominators_in, dep_vars_in, evaluate_array, is_zero,
    partial_derivative, simplify, to_string, total_derivative, _key,
)

__all__ = [
    "VectorField", "ProlongedVectorField", "prolong", "apply",
    "apply_pieces", "check_invariant", "check_symmetry_criterion",
    "InvarianceReport", "CriterionReport", "ProlongationError",
    "OrderMismatchError", "SingularSampleError",
]


class ProlongationError(ExprError):
    """A prolongation coefficient left the configured jet space."""


class OrderMismatchError(ExprError):
    """An expression references derivatives above the prolongation order."""


class SingularSampleError(ExprError):
    """Could not draw enough non-singular sample points within the retry cap."""


def _base_vars_only(e):
    for dv in dep_vars_in(e):
        if dv.order > 0:
            return False
    return True


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
            if not _base_vars_only(e):
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


def apply(pv: ProlongedVectorField, e: Expr) -> Expr:
    """Directional derivative of e along the prolonged generator."""
    pieces = apply_pieces(pv, e)
    if not pieces:
        return Const(0.0)
    return simplify(Add(tuple(pieces)))


@dataclass(frozen=True)
class InvarianceReport:
    symbolic_zero: bool
    max_abs: float
    samples: int
    resampled: int
    residual: Expr

    @property
    def passed(self):
        return self.symbolic_zero


@dataclass(frozen=True)
class CriterionReport:
    symbolic_zero: bool
    residual: Expr
    max_abs_on_data: float | None
    points: int


# numpy's SeedSequence (pool size 4) and PCG64 constants; PCG64's 128-bit
# multiplier as its high and low 64-bit words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hasher(init, mult):
    """SeedSequence's hashmix on uint32 arrays; the running constant lives
    in the closure, as numpy's lives in its hash_const."""
    hc = init

    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * mult & _M32
        v = v * np.uint32(hc)
        return v ^ (v >> np.uint32(16))
    return hashmix


def _mix(x, y):
    """SeedSequence's mix on uint32 arrays."""
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _mul_hi64(a, b):
    """High 64 bits of a * b for a uint64 array and a 64-bit constant."""
    m, s = np.uint64(_M32), np.uint64(32)
    a0, a1 = a & m, a >> s
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s) + (p01 & m) + (p10 & m)
    return a1 * b1 + (p01 >> s) + (p10 >> s) + (mid >> s)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * mult + inc mod 2**128, on (hi, lo) words."""
    m_hi, m_lo = np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO)
    hi = _mul_hi64(lo, _PCG_MULT_LO) + lo * m_hi + hi * m_lo
    lo = lo * m_lo
    return _add128(hi, lo, inc_hi, inc_lo)


def _add128(hi, lo, b_hi, b_lo):
    """(hi, lo) + (b_hi, b_lo) mod 2**128."""
    s = lo + b_lo
    return hi + b_hi + (s < lo).astype(np.uint64), s


def _first_draws(seed, samples, k):
    """Row idx is default_rng((seed, idx)).uniform(-2, 2, k), bit for bit,
    for all samples points at once.

    numpy seeds each point's PCG64 (O'Neill 2014) from
    SeedSequence((seed, idx)), whose entropy is seed's little-endian uint32
    words followed by idx.  Both stages are fixed-width integer arithmetic,
    so they run here on uint32 and uint64 arrays with one element per point.
    """
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    idx = np.arange(samples, dtype=np.uint32)
    entropy = [np.full(samples, w, dtype=np.uint32) for w in words] + [idx]
    # SeedSequence.mix_entropy
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(idx))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64): little-endian word pairs
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    w = [state[2 * j] | (state[2 * j + 1] << np.uint64(32)) for j in range(4)]
    # PCG64 seeding: state 0, inc = (w2:w3 << 1) | 1, step, add w0:w1, step
    one = np.uint64(1)
    inc_hi = (w[2] << one) | (w[3] >> np.uint64(63))
    inc_lo = (w[3] << one) | one
    hi, lo = _add128(inc_hi, inc_lo, w[0], w[1])
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((samples, k))
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then next_double and uniform's low + range * u
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        u = (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        out[:, j] = -2.0 + 4.0 * u
    return out


def _sample_points(names, dens, samples, seed, den_tol, max_resample, params):
    """Per-point seeded uniform draws on [-2, 2], redrawn while any guard
    denominator is within den_tol of zero.

    Point idx's draws are default_rng((seed, idx))'s stream, whatever the
    number of points.  Every point's first draw is computed at once; the
    guards test them all together, and a flagged point re-creates its
    generator, skips that draw and redraws alone, in index order.
    """
    seed = int(seed)
    if seed < 0:
        raise ExprError("seed must be non-negative")
    params = params or {}

    def flagged(binding, size):
        bad = np.zeros(size, dtype=bool)
        for d in dens:
            bad |= np.abs(evaluate_array(d, binding)) < den_tol
        return bad

    def draw(rng):
        return rng.uniform(-2.0, 2.0, len(names))

    first = _first_draws(seed, samples, len(names))
    cols = dict(zip(names, first.T.copy()))
    resampled = 0
    for idx in np.flatnonzero(flagged({**cols, **params}, samples)):
        rng = np.random.default_rng((seed, int(idx)))
        draw(rng)
        for _ in range(max_resample):
            resampled += 1
            point = draw(rng)
            if not flagged({**dict(zip(names, point)), **params}, 1)[0]:
                break
        else:
            raise SingularSampleError(
                f"point {idx}: {max_resample} redraws all hit a singular "
                f"denominator")
        for n, val in zip(names, point):
            cols[n][idx] = val
    for k, v in params.items():
        cols[k] = float(v)
    return cols, resampled


def check_invariant(pv: ProlongedVectorField, eta: Expr, samples: int = 1000,
                    seed: int = 0, den_tol: float = 1e-3,
                    max_resample: int = 50, params=None) -> InvarianceReport:
    """Symbolic and numeric test that eta is annihilated by the generator.

    The numeric path evaluates each summand of the prolonged action
    separately and adds them in floating point, so it measures true residual
    cancellation at random jet points instead of evaluating a pre-cancelled
    zero.
    """
    pieces = apply_pieces(pv, eta)
    residual = simplify(Add(tuple(pieces))) if pieces else Const(0.0)
    names = pv.space.coordinate_names()
    dens = []
    for p in [eta] + pieces:
        dens.extend(denominators_in(p))
    cols, resampled = _sample_points(names, dens, samples, seed, den_tol,
                                     max_resample, params)
    total = np.zeros(samples)
    for p in pieces:
        total = total + evaluate_array(p, cols)
    max_abs = float(np.max(np.abs(total))) if samples else 0.0
    return InvarianceReport(symbolic_zero=is_zero(residual), max_abs=max_abs,
                            samples=samples, resampled=resampled,
                            residual=residual)


def check_symmetry_criterion(pv: ProlongedVectorField, f: Expr, data=None,
                             params=None) -> CriterionReport:
    """Infinitesimal symmetry criterion for a candidate equation F = 0.

    Reports whether the prolonged action annihilates F symbolically; when
    `data` provides jet-coordinate arrays (a JetGrid binding or a plain dict)
    the max |residual| over those on-manifold points is reported as well.
    """
    pieces = apply_pieces(pv, f)
    residual = simplify(Add(tuple(pieces))) if pieces else Const(0.0)
    max_abs = None
    points = 0
    if data is not None:
        binding = data.binding() if hasattr(data, "binding") else dict(data)
        if params:
            binding = {**binding, **params}
        sizes = [np.asarray(v).size for v in binding.values()
                 if np.asarray(v).ndim > 0]
        points = max(sizes) if sizes else 1
        total = np.zeros(points)
        for p in pieces:
            total = total + evaluate_array(p, binding)
        max_abs = float(np.max(np.abs(total))) if points else 0.0
    return CriterionReport(symbolic_zero=is_zero(residual), residual=residual,
                           max_abs_on_data=max_abs, points=points)
