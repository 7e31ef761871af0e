"""Invariant catalogs: content, verification, translation elimination."""

import pytest

from liesindy import invariants, liealg
from liesindy.expr import ExprError, is_zero, parse, simplify, to_string
from liesindy.invariants import (
    SYSTEMS, CatalogError, InvariantSet, builtin_set, eliminate_translations,
    truth_equation, verify_set,
)
from liesindy.liealg import check_symmetry_criterion, prolong

EVOLUTION = ("kdv", "ks", "burgers", "nkdv")


def test_catalog_contents():
    for system in ("kdv", "ks", "burgers"):
        s = builtin_set(system)
        assert [to_string(e) for e in s.etas] == [
            "u_t + u*u_x", "u_x", "u_xx", "u_xxx", "u_xxxx"]
        assert len(s.generators) == 3
    nk = builtin_set("nkdv")
    assert to_string(nk.lhs) == "exp(-t/t0)*u_t + u*u_x"
    assert nk.params == {"t0": 1.0}
    so2 = builtin_set("so2-demo")
    assert [to_string(e) for e in so2.etas] == [
        "x^2 + u^2", "(-u + x*u_x)/(x + u*u_x)"]
    assert so2.lhs_index is None


def test_builtin_sets_are_cached():
    assert builtin_set("kdv") is builtin_set("KdV ")
    assert set(EVOLUTION) < set(SYSTEMS)


def test_unknown_system_is_an_error():
    with pytest.raises(CatalogError, match="unknown system"):
        builtin_set("heat")
    with pytest.raises(CatalogError, match="no governing equation"):
        truth_equation("so2-demo")


def test_lhs_designation():
    s = builtin_set("kdv")
    assert to_string(s.lhs) == "u_t + u*u_x"
    assert [to_string(e) for e in s.rhs_features()] == [
        "u_x", "u_xx", "u_xxx", "u_xxxx"]
    with pytest.raises(CatalogError, match="no designated LHS"):
        builtin_set("so2-demo").lhs


def test_lhs_validation_rejects_bad_sets():
    base = builtin_set("kdv")
    sp = base.space
    with pytest.raises(CatalogError, match="exactly one"):
        InvariantSet("kdv", sp, base.generators,
                     [parse("u_t", sp), parse("u_t + u*u_x", sp)],
                     lhs_index=0, params={})
    with pytest.raises(CatalogError, match="lhs_index"):
        InvariantSet("kdv", sp, base.generators, list(base.etas),
                     lhs_index=1, params={})
    so2 = builtin_set("so2-demo")
    with pytest.raises(CatalogError, match="no time coordinate"):
        InvariantSet("so2-demo", so2.space, so2.generators, list(so2.etas),
                     lhs_index=0, params={})


@pytest.mark.parametrize("system", SYSTEMS)
def test_catalog_verifies(system):
    s = builtin_set(system)
    rep = verify_set(s)
    assert rep.passed, rep.failures
    assert rep.numeric_max < 1e-9
    assert rep.jacobian_ok_fraction >= 0.99
    assert rep.jacobian_min_sv > 1e-8
    n_pairs = len(s.generators) * len(s.etas)
    assert len(rep.pairs) == n_pairs
    assert all(is_zero(res) and m < 1e-9 for res, m in rep.pairs.values())


def test_verification_catches_a_broken_invariant():
    base = builtin_set("kdv")
    sp = base.space
    etas = list(base.etas)
    etas[2] = parse("u_xx + t", sp)  # no longer time-translation invariant
    bad = InvariantSet("kdv", sp, base.generators, etas, lhs_index=0,
                       params={})
    rep = verify_set(bad)
    assert not rep.passed
    # t-shift, generator 1, leaves the residual 1 at every point
    residual, max_abs = rep.pairs[(1, 2)]
    assert to_string(residual) == "1" and max_abs == 1.0
    assert rep.failures == [
        "t-shift does not annihilate eta[2] symbolically: 1",
        "t-shift on eta[2]: numeric residual 1.000e+00"]
    # the run still reports every pair, it does not stop at the first failure
    assert len(rep.pairs) == len(base.generators) * len(etas)
    assert all(is_zero(res) and m == 0.0
               for key, (res, m) in rep.pairs.items() if key != (1, 2))


def test_negative_seed_is_an_expr_error():
    names = builtin_set("kdv").space.coordinate_names()
    with pytest.raises(ExprError, match="^seed must be non-negative$"):
        liealg._sample_points(names, [], 10, -3, 1e-3, 50, None)


def _recorded_draws(monkeypatch):
    """Every sample set drawn through either module's name, in order."""
    drawn = []
    sample = liealg._sample_points

    def recorded(*args):
        cols, resampled = sample(*args)
        drawn.append(cols)
        return cols, resampled

    for module in (invariants, liealg):
        monkeypatch.setattr(module, "_sample_points", recorded)
    return drawn


@pytest.mark.parametrize("system", SYSTEMS)
def test_verify_set_draws_one_sample_set(system, monkeypatch):
    s = builtin_set(system)
    drawn = _recorded_draws(monkeypatch)
    verify_set(s)
    assert len(drawn) == 1
    assert all(drawn[0][n].shape == (1000,)
               for n in s.space.coordinate_names())


def test_verify_set_draws_the_same_points_each_call(monkeypatch):
    # so2-demo's guard redraws points, so the redraws repeat too
    s = builtin_set("so2-demo")
    drawn = _recorded_draws(monkeypatch)
    a, b = verify_set(s), verify_set(s)
    assert a == b
    for name in s.space.coordinate_names():
        assert drawn[0][name].tobytes() == drawn[1][name].tobytes()


def test_verification_catches_functional_dependence():
    base = builtin_set("kdv")
    sp = base.space
    etas = [parse(s, sp) for s in ("u_t + u*u_x", "u_x", "2*u_x")]
    dep = InvariantSet("kdv", sp, base.generators, etas, lhs_index=0,
                       params={})
    rep = verify_set(dep)
    assert not rep.passed
    assert any("singular value" in f for f in rep.failures)


def test_translation_elimination_per_system():
    kdv = builtin_set("kdv")
    coords, left = eliminate_translations(kdv.generators, 4)
    assert coords == ["u", "u_t", "u_x", "u_xx", "u_xxx", "u_xxxx"]
    assert [v.name for v in left] == ["galilean"]

    nk = builtin_set("nkdv")
    coords, left = eliminate_translations(nk.generators, 4)
    assert coords == ["t", "u", "u_t", "u_x", "u_xx", "u_xxx", "u_xxxx"]
    assert [v.name for v in left] == ["decaying-t-shift", "galilean"]

    so2 = builtin_set("so2-demo")
    coords, left = eliminate_translations(so2.generators, 1)
    assert coords == ["x", "u", "u_x"]
    assert len(left) == 1


def test_truth_equations_satisfy_the_symmetry_criterion():
    expected = {
        "kdv": "u_t + u*u_x + u_xxx",
        "ks": "u_t + u*u_x + u_xx + u_xxxx",
        "burgers": "u_t + u*u_x - nu*u_xx",
        "nkdv": "exp(-t/t0)*u_t + u*u_x + u_xxx",
    }
    for system in EVOLUTION:
        f = truth_equation(system)
        assert to_string(f) == expected[system]
        s = builtin_set(system)
        for v in s.generators:
            rep = check_symmetry_criterion(prolong(v, 4), f)
            assert rep.symbolic_zero, (system, v.name)


def test_truth_equations_are_invariant_combinations():
    # each governing equation is a linear combination of catalog invariants,
    # which is what lets the discovery step regress inside the invariant span
    from liesindy.expr import Param, is_zero
    combos = {
        "kdv": lambda s: s.lhs + s.etas[3],
        "ks": lambda s: s.lhs + s.etas[2] + s.etas[4],
        "burgers": lambda s: s.lhs - Param("nu") * s.etas[2],
        "nkdv": lambda s: s.lhs + s.etas[3],
    }
    for system in EVOLUTION:
        s = builtin_set(system)
        f = truth_equation(system)
        assert is_zero(simplify(f - combos[system](s))), system


def test_prolonged_cache_matches_space_order():
    s = builtin_set("so2-demo")
    pvs = s.prolonged()
    assert all(pv.order == 1 for pv in pvs)
    kdv = builtin_set("kdv")
    assert all(pv.order == 4 for pv in kdv.prolonged())
