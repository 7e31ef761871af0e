"""Joint differential-invariant catalogs for the built-in systems.

Catalog entries ship as data and are verified, not derived: at first load
every invariant is checked against every generator (symbolic annihilation
plus a numeric residual) and the invariant set is checked for functional
independence through the rank of its Jacobian in the jet coordinates.  Both
numeric checks read one set of sampled jet points, drawn once per
verification at a fixed size and seed.  A catalog that fails verification
is a startup error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    SPACE, Const, DepVar, Expr, ExprError, IndepVar, JetSpace,
    denominators_in, dep_vars_in, evaluate_array, is_zero, parse,
    partial_derivative, simplify, to_string,
)
from .dynamics import _STANDARD, default_config
from .liealg import VectorField, prolong, _action, _sample_points

__all__ = [
    "InvariantSet", "VerificationReport", "builtin_set", "truth_equation",
    "eliminate_translations", "verify_set", "CatalogError",
]

SYSTEMS = ("kdv", "ks", "burgers", "nkdv", "so2-demo")


class CatalogError(ExprError):
    pass


@dataclass
class InvariantSet:
    """Generators plus a functionally independent set of joint invariants.

    For evolution systems exactly one invariant carries the time derivative;
    it is the designated left-hand side of the discovered equation.  The
    demo set on the plane has no time coordinate and no LHS.
    """

    system: str
    space: JetSpace
    generators: list
    etas: list
    lhs_index: int | None
    params: dict
    den_guard: float = 1e-3

    def __post_init__(self):
        self.etas = [simplify(e) for e in self.etas]
        tname = self.space.time
        if tname is None:
            if self.lhs_index is not None:
                raise CatalogError("no time coordinate, so no LHS to designate")
            return
        carrying = [i for i, e in enumerate(self.etas)
                    if any(tname in dv.index for dv in dep_vars_in(e))]
        if len(carrying) != 1:
            raise CatalogError(
                f"exactly one invariant may contain a time derivative, "
                f"found {len(carrying)}")
        if self.lhs_index != carrying[0]:
            raise CatalogError("lhs_index must point at the u_t-bearing invariant")

    @property
    def lhs(self) -> Expr:
        if self.lhs_index is None:
            raise CatalogError(f"{self.system} has no designated LHS")
        return self.etas[self.lhs_index]

    def rhs_features(self):
        return [e for i, e in enumerate(self.etas) if i != self.lhs_index]

    def prolonged(self):
        return [prolong(v, self.space.order) for v in self.generators]


def _build(system):
    zero, one = Const(0.0), Const(1.0)
    sp = SPACE
    x_shift = VectorField(sp, xi=(zero, one), phi=(zero,), name="x-shift")
    if system in ("kdv", "ks", "burgers"):
        t = IndepVar("t")
        gens = [x_shift,
                VectorField(sp, xi=(one, zero), phi=(zero,), name="t-shift"),
                VectorField(sp, xi=(zero, t), phi=(one,), name="galilean")]
        etas = [parse(s, sp) for s in
                ("u_t + u*u_x", "u_x", "u_xx", "u_xxx", "u_xxxx")]
        return InvariantSet(system, sp, gens, etas, lhs_index=0, params={})
    if system == "nkdv":
        gens = [
            x_shift,
            VectorField(sp, xi=(parse("exp(-t/t0)", sp), zero), phi=(zero,),
                        name="decaying-t-shift"),
            VectorField(sp, xi=(zero, parse("t0*exp(t/t0) - t0", sp)),
                        phi=(one,), name="galilean"),
        ]
        etas = [parse(s, sp) for s in
                ("exp(-t/t0)*u_t + u*u_x", "u_x", "u_xx", "u_xxx", "u_xxxx")]
        return InvariantSet("nkdv", sp, gens, etas, lhs_index=0,
                            params=default_config("nkdv").params)
    if system == "so2-demo":
        sp = JetSpace(independent=("x",), dependent=("u",), order=1,
                      evolution=False)
        x, u = IndepVar("x"), DepVar("u")
        gens = [VectorField(sp, xi=(-u,), phi=(x,), name="rotation")]
        # the radius invariant is stored squared to stay inside the
        # polynomial-exponential-quotient grammar
        etas = [parse("x^2 + u^2", sp), parse("(x*u_x - u)/(u*u_x + x)", sp)]
        return InvariantSet("so2-demo", sp, gens, etas, lhs_index=None,
                            params={}, den_guard=0.1)
    raise CatalogError(f"unknown system '{system}', expected one of {SYSTEMS}")


def _system_key(system):
    """The catalog key a system name stands for: case and padding dropped."""
    return system.strip().lower()


def truth_equation(system: str) -> Expr:
    """Governing equation F with F = 0, in jet coordinates: the one its
    system's data are solved from (dynamics._STANDARD)."""
    try:
        equation = _STANDARD[_system_key(system)][0]
    except KeyError:
        raise CatalogError(f"no governing equation on file for '{system}'") from None
    return parse(equation, SPACE)


_cache: dict = {}


def builtin_set(system: str) -> InvariantSet:
    """Catalog entry for a built-in system, verified at first load."""
    key = _system_key(system)
    if key not in _cache:
        s = _build(key)
        report = verify_set(s)
        if not report.passed:
            raise CatalogError(
                f"catalog verification failed for '{key}': {report.failures}")
        _cache[key] = s
    return _cache[key]


def eliminate_translations(generators, n: int):
    """Drop base coordinates consumed by pure translation generators.

    A generator whose order-n prolongation is exactly d/dx_i lets x_i be
    removed from the working coordinate list without losing any invariant
    information.  Returns (remaining coordinate names, leftover generators).
    """
    space = generators[0].space if generators else SPACE
    removed = set()
    leftover = []
    for v in generators:
        idx = v.is_translation()
        if idx is not None:
            pv = prolong(v, n)
            if all(is_zero(c) for _, c in pv.coeffs):
                removed.add(space.independent[idx])
                continue
        leftover.append(v)
    coords = [c for c in space.coordinate_names() if c not in removed]
    return coords, leftover


# the one sample set every verification reads: its size and seed
_SAMPLES = 1000
_SEED = 20240501


@dataclass
class VerificationReport:
    # (generator, eta) indices -> (symbolic residual, sampled max |residual|)
    pairs: dict
    jacobian_ok_fraction: float
    jacobian_min_sv: float
    numeric_max: float
    passed: bool
    failures: list


def verify_set(s: InvariantSet) -> VerificationReport:
    """Full catalog verification; checks every pair and never short-circuits.

    Invariance: each eta must be annihilated symbolically by each prolonged
    generator, with the piecewise-evaluated numeric residual below 1e-9 at
    sampled jet points.  Independence: the Jacobian of the etas with respect
    to the jet coordinates must have smallest singular value above 1e-8 on
    at least 99% of samples.  Both checks read one set of points, guarded
    against every denominator of the etas, the action pieces and the
    Jacobian entries.
    """
    pvs = s.prolonged()
    actions = {(gi, ei): _action(pv, eta)
               for gi, pv in enumerate(pvs) for ei, eta in enumerate(s.etas)}
    coords = s.space.coordinates()
    grads = [[partial_derivative(eta, c) for c in coords] for eta in s.etas]
    guarded = [*s.etas, *(p for pieces, _ in actions.values() for p in pieces),
               *(g for row in grads for g in row)]
    dens = list(dict.fromkeys(d for e in guarded for d in denominators_in(e)))
    cols, _ = _sample_points(s.space.coordinate_names(), dens, _SAMPLES,
                             _SEED, s.den_guard, 50, s.params)
    failures = []
    pairs = {}
    for (gi, ei), (pieces, residual) in actions.items():
        # the simplified pieces add in floating point, so the residual
        # measures true cancellation and not a pre-cancelled zero
        total = np.zeros(_SAMPLES)
        for p in pieces:
            total = total + evaluate_array(p, cols)
        max_abs = float(np.max(np.abs(total)))
        pairs[(gi, ei)] = (residual, max_abs)
        gname = pvs[gi].base.name or f"generator {gi}"
        if not is_zero(residual):
            failures.append(
                f"{gname} does not annihilate eta[{ei}] symbolically: "
                f"{to_string(residual)}")
        if max_abs >= 1e-9:
            failures.append(
                f"{gname} on eta[{ei}]: numeric residual {max_abs:.3e}")
    # functional independence via Jacobian rank at the same points
    jac = np.empty((_SAMPLES, len(s.etas), len(coords)))
    for i, row in enumerate(grads):
        for j, g in enumerate(row):
            jac[:, i, j] = evaluate_array(g, cols)
    min_sv = np.linalg.svd(jac, compute_uv=False)[:, -1]
    ok_fraction = float(np.mean(min_sv > 1e-8))
    if ok_fraction < 0.99:
        failures.append(
            f"Jacobian min singular value > 1e-08 at only "
            f"{100 * ok_fraction:.1f}% of samples")
    return VerificationReport(
        pairs=pairs, jacobian_ok_fraction=ok_fraction,
        jacobian_min_sv=float(min_sv.min()),
        numeric_max=max((m for _, m in pairs.values()), default=0.0),
        passed=not failures, failures=failures)
