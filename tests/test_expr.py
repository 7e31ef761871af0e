"""Symbolic core: canonical forms, calculus, evaluation, serialization."""

import math

import numpy as np
import pytest

from liesindy.expr import (
    Add, Const, DepVar, Div, Exp, ExprError, IndepVar, JetSpace,
    MissingSymbolError, Mul, OrderCapError, Param, ParseError, Pow,
    compile_array, dep_vars_in, evaluate_array, is_zero, max_order,
    params_in, parse, partial_derivative, simplify, substitute, to_string,
    total_derivative, _walk,
)

SP = JetSpace()


def P(s):
    return parse(s, SP)


# --- canonical form -------------------------------------------------------

CANONICAL = [
    ("u_t + u*u_x + u_xxx", "u_t + u*u_x + u_xxx"),
    ("(x*u_x - u)/(u*u_x + x)", "(-u + x*u_x)/(x + u*u_x)"),
    ("exp(-t/t0)*u_t + u*u_x", "exp(-t/t0)*u_t + u*u_x"),
    ("(u + x)^2", "x^2 + 2*x*u + u^2"),
    ("1/(u + 1)", "1/(1 + u)"),
    ("(u^2 - x^2)/(u + x)", "(-x^2 + u^2)/(x + u)"),
    ("u/u", "1"),
    ("exp(t)*exp(-t)", "1"),
    ("-u_x", "-u_x"),
    ("2*u - u - u", "0"),
    ("u_t - u_t", "0"),
    ("3*u*u_x*u", "3*u^2*u_x"),
    ("u^2/u^3", "1/u"),
    ("exp(2*t)/exp(t)", "exp(t)"),
    ("(u + 1)/(2*u + 2)", "(0.5 + 0.5*u)/(1 + u)"),
    ("0.1*u + 1e-3", "0.001 + 0.1*u"),
]


@pytest.mark.parametrize("src,expected", CANONICAL)
def test_canonical_string(src, expected):
    assert to_string(simplify(P(src))) == expected


EQUAL_SPELLINGS = [
    ("u*(u_x + u_xx)", "u*u_x + u*u_xx"),
    ("(u + x)*(u - x)", "u^2 - x^2"),
    ("exp(t)*exp(-t)*u", "u"),
    ("(u + 1)^3", "u^3 + 3*u^2 + 3*u + 1"),
    ("u/(u + x) + x/(u + x)", "1"),
    ("u_x/(u*u_x + x) - u_x/(u*u_x + x)", "0"),
    ("exp(u + t)", "exp(u)*exp(t)"),
    ("(2*u)/(4*x)", "u/(2*x)"),
]


@pytest.mark.parametrize("a,b", EQUAL_SPELLINGS)
def test_equal_spellings_share_canonical_form(a, b):
    assert simplify(P(a)) == simplify(P(b))


def test_same_denominator_fractions_combine_across_a_sum():
    e = P("(x*u_x)/(u*u_x + x) - u/(u*u_x + x) + (u - x*u_x)/(u*u_x + x)")
    assert is_zero(simplify(e))


def test_no_polynomial_gcd_is_attempted():
    e = simplify(P("(u^2 - x^2)/(u + x)"))
    assert isinstance(e, Div) or "/" in to_string(e)


def test_exponent_must_be_python_int():
    with pytest.raises(TypeError):
        P("u") ** 1.5


def test_const_values_fold_and_zero_terms_drop():
    assert simplify(P("2*3*u + 0*u_x")) == simplify(P("6*u"))
    assert is_zero(simplify(Const(0.0)))
    assert not is_zero(simplify(Const(1e-300)))


def test_operator_overloads_match_parser():
    u, ux = DepVar("u"), DepVar("u", ("x",))
    t = IndepVar("t")
    built = simplify(u * ux + 2 * t - u ** 2 / 2)
    assert built == simplify(P("u*u_x + 2*t - 0.5*u^2"))


# --- derivatives ----------------------------------------------------------


def test_partial_derivative_fixtures():
    e = P("exp(-t/t0)*u_t")
    assert to_string(partial_derivative(e, IndepVar("t"))) == "-exp(-t/t0)*u_t/t0"
    assert partial_derivative(e, DepVar("u", ("t",))) == simplify(P("exp(-t/t0)"))
    assert partial_derivative(P("x^2 + u^2"), DepVar("u")) == simplify(P("2*u"))
    assert is_zero(partial_derivative(P("x^2"), DepVar("u")))


def test_partial_derivative_of_quotient():
    e = P("(x*u_x - u)/(u*u_x + x)")
    g = partial_derivative(e, DepVar("u", ("x",)))
    assert to_string(g) == "(x^2 + u^2)/(x^2 + 2*x*u*u_x + u^2*u_x^2)"


def test_total_derivative_fixtures():
    assert to_string(total_derivative(P("u*u_x"), "x")) == "u_x^2 + u*u_xx"
    assert total_derivative(P("u"), "t") == DepVar("u", ("t",))
    assert total_derivative(P("exp(u)"), "x") == simplify(P("exp(u)*u_x"))
    assert total_derivative(P("t*x"), "x") == IndepVar("t")


def test_total_derivatives_commute():
    corpus = ["u", "u*u_x", "exp(u)", "x*u^2", "u_x^3", "u/(1 + u)",
              "exp(-t/t0)*u_t"]
    for s in corpus:
        e = P(s)
        xt = total_derivative(total_derivative(e, "x"), "t")
        tx = total_derivative(total_derivative(e, "t"), "x")
        assert is_zero(simplify(xt - tx)), s


def test_order_cap_raises_only_for_live_coefficients():
    with pytest.raises(OrderCapError):
        total_derivative(P("u_xxxx"), "x", cap=4)
    with pytest.raises(OrderCapError):
        total_derivative(P("u_xx"), "x", cap=2)
    total_derivative(P("u_xx"), "x", cap=3)
    # the offending variable only appears with an exactly-zero coefficient
    total_derivative(simplify(P("0*u_xxxx + u")), "x", cap=4)


# --- substitution and introspection ----------------------------------------


def test_substitute_params_and_variables():
    e = P("u_t + u*u_x - nu*u_xx")
    assert substitute(e, {"nu": 0.1}) == simplify(P("u_t + u*u_x - 0.1*u_xx"))
    assert substitute(P("x^2 + u^2"), {"x": P("u")}) == simplify(P("2*u^2"))


def test_introspection_helpers():
    e = P("exp(-t/t0)*u_t + nu*u_xx")
    assert {d.display() for d in dep_vars_in(e)} == {"u_t", "u_xx"}
    assert {p.name for p in params_in(e)} == {"t0", "nu"}
    assert max_order(e) == 2
    assert max_order(P("x + 1")) == 0


# --- evaluation -------------------------------------------------------------

DYADIC = {"t": 0.5, "x": -1.25, "u": 2.0, "u_t": 0.375, "u_x": -0.75,
          "u_xx": 1.5, "u_xxx": -0.0625, "u_xxxx": 4.0, "t0": 2.0, "nu": 0.25}


@pytest.mark.parametrize("src,expected", [
    ("u_t + u*u_x", 0.375 + 2.0 * -0.75),
    ("u^2/u^3", 0.5),
    ("exp(-t/t0)*u_t", math.exp(-0.25) * 0.375),
    ("(x*u_x - u)/(u*u_x + x)",
     (-1.25 * -0.75 - 2.0) / (2.0 * -0.75 + -1.25)),
])
def test_evaluate_against_hand_computation(src, expected):
    got = float(evaluate_array(simplify(P(src)), DYADIC))
    assert got == pytest.approx(expected, rel=1e-12)


def test_missing_symbol_is_named():
    with pytest.raises(MissingSymbolError, match="u_xx"):
        evaluate_array(P("u_xx + 1"), {"u": 1.0})
    with pytest.raises(MissingSymbolError, match="nu"):
        evaluate_array(P("nu*u"), {"u": np.ones(3)})


def test_array_evaluation_lets_non_finite_propagate():
    out = evaluate_array(P("1/u"), {"u": np.array([1.0, 0.0, 2.0])})
    assert np.isinf(out[1]) and np.isfinite(out[[0, 2]]).all()


def _eval_arr(e, binding):
    """The tree walk evaluate_array ran before expressions were compiled."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (IndepVar, DepVar, Param)):
        name = e.display() if isinstance(e, DepVar) else e.name
        try:
            return np.asarray(binding[name], dtype=float)
        except KeyError:
            raise MissingSymbolError(f"no binding for symbol '{name}'") from None
    if isinstance(e, Add):
        return sum(_eval_arr(t, binding) for t in e.terms)
    if isinstance(e, Mul):
        v = 1.0
        for f in e.factors:
            v = v * _eval_arr(f, binding)
        return v
    if isinstance(e, Pow):
        base = _eval_arr(e.base, binding)
        return np.power(base, float(e.exponent))
    if isinstance(e, Exp):
        return np.exp(_eval_arr(e.arg, binding))
    if isinstance(e, Div):
        return _eval_arr(e.num, binding) / _eval_arr(e.den, binding)
    raise TypeError(type(e))


def _pinned_expressions():
    """Every catalog invariant, every built-in library's features and
    target, and the prolonged actions of each system's generators on them.
    """
    from liesindy.harness import METHODS, ExperimentConfig
    from liesindy.invariants import SYSTEMS, builtin_set
    from liesindy.liealg import apply, prolong
    out = []
    for system in SYSTEMS:
        s = builtin_set(system)
        out += [eta for eta in s.etas]
        out += [apply(pv, eta) for pv in s.prolonged() for eta in s.etas]
    for system in ("kdv", "ks", "burgers", "nkdv"):
        gens = builtin_set(system).generators
        for method in METHODS:
            cfg = ExperimentConfig(system=system, method=method)
            exprs = [cfg.target] + list(cfg.features)
            need = max(1, *(max_order(e) for e in exprs))
            out += exprs
            out += [apply(prolong(g, need), e) for g in gens for e in exprs]
    return list(dict.fromkeys(out))


def _bindings():
    """One binding of arrays and one of Python floats over every name the
    pinned expressions use, with signed zeros, infinities and NaN mixed in.
    """
    names = SP.coordinate_names() + ["t0", "nu"]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(20240501)
    arrays = {}
    for name in names:
        col = np.concatenate((special * 4, rng.uniform(-2.0, 2.0, 44)))
        arrays[name] = rng.permutation(col)
    floats = {name: float(rng.choice(special + [0.5, -1.25, 3.0]))
              for name in names}
    return [arrays, floats]


def test_compiled_evaluation_matches_the_tree_walk():
    exprs = _pinned_expressions()
    nodes = set()
    for e in exprs:
        _walk(e, lambda n: nodes.add(type(n)))
    assert nodes == {Const, IndepVar, DepVar, Param, Add, Mul, Pow, Exp, Div}
    kinds = set()
    for binding in _bindings():
        for e in exprs:
            with np.errstate(all="ignore"):
                want = _eval_arr(e, binding)
            got = evaluate_array(e, binding)
            assert type(got) is type(want), to_string(e)
            assert np.shape(got) == np.shape(want), to_string(e)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), \
                to_string(e)
            kinds.add(type(got))
    # Python floats (constants), numpy scalars and arrays all occur
    assert {float, np.float64, np.ndarray} <= kinds


@pytest.mark.parametrize("bound", [(), ("u",), ("u", "nu"), ("u", "u_xx")])
def test_compiled_function_raises_for_an_unbound_name_when_called(bound):
    e = P("u_xx*exp(nu*u) + 1/(1 + u^2)")
    fn = compile_array(e)
    binding = {name: np.ones(3) for name in bound}
    with pytest.raises(MissingSymbolError) as walked:
        _eval_arr(e, binding)
    with pytest.raises(MissingSymbolError) as compiled:
        fn(binding)
    assert str(compiled.value) == str(walked.value)


def test_compiled_function_evaluates_each_binding_it_is_given():
    fn = compile_array(P("u_xx*exp(nu*u) + 1/(1 + u^2)"))
    assert fn({"u": np.zeros(2), "u_xx": np.zeros(2), "nu": 1.0}).tolist() \
        == [1.0, 1.0]
    assert fn({"u": 1.0, "u_xx": 2.0, "nu": 0.0}) == 2.5


# --- serialization ----------------------------------------------------------


@pytest.mark.parametrize("src,_", CANONICAL)
def test_round_trip_parse_of_canonical_string(src, _):
    e = simplify(P(src))
    assert parse(to_string(e), SP) == e


def test_round_trip_preserves_float_coefficients_exactly():
    e = simplify(P("0.1234567890123456789*u + 1/3*u_x"))
    assert parse(to_string(e), SP) == e


def test_unknown_identifier_parses_as_named_constant():
    e = parse("alpha*u", SP)
    assert Param("alpha") in params_in(e)


@pytest.mark.parametrize("bad", [
    "", "u +", "(u", "u ^ x", "u ** 1.5", "2 2", "exp()", "u_y", "*u",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad, SP)


@pytest.mark.parametrize("src, needle", [
    ("u/0", "division by symbolic zero"),
    ("(u-u)^-1", "0 raised to a negative power"),
    ("0^-2", "0 raised to a negative power"),
])
def test_symbolic_division_by_zero_is_an_expr_error(src, needle):
    with pytest.raises(ExprError, match=needle):
        parse(src, SP)


def test_double_star_power_is_accepted():
    assert parse("u**3", SP) == parse("u^3", SP)


# --- jet space ---------------------------------------------------------------


def test_evolution_chart_coordinate_order():
    assert SP.coordinate_names() == [
        "t", "x", "u", "u_t", "u_x", "u_xx", "u_xxx", "u_xxxx"]
    assert SP.time == "t"


def test_full_chart_includes_mixed_derivatives():
    full = JetSpace(independent=("t", "x"), dependent=("u",), order=2,
                    evolution=False)
    assert full.coordinate_names() == [
        "t", "x", "u", "u_t", "u_x", "u_tt", "u_tx", "u_xx"]
    assert full.time is None


def test_contains_and_resolve():
    assert SP.contains(DepVar("u", ("x", "x")))
    assert not SP.contains(DepVar("u", ("t", "x")))
    assert not SP.contains(DepVar("u", ("t", "t")))
    assert SP.resolve("u_xt") is None
    assert SP.resolve("u_xx") == DepVar("u", ("x", "x"))
    assert SP.resolve("v") is None


def test_subscripts_are_order_insensitive_at_construction():
    assert DepVar("u", ("x", "t")) == DepVar("u", ("t", "x"))
