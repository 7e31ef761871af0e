"""Prolongation and invariance machinery."""

import numpy as np
import pytest

from liesindy.expr import (
    Const, DepVar, ExprError, IndepVar, JetSpace, denominators_in,
    evaluate_array, is_zero, parse, simplify, to_string,
)
from liesindy import liealg
from liesindy.invariants import InvariantSet, builtin_set, verify_set
from liesindy.liealg import (
    OrderMismatchError, ProlongationError, SingularSampleError, VectorField,
    apply, apply_pieces, check_symmetry_criterion, prolong,
)

SP = JetSpace()
ZERO, ONE = Const(0.0), Const(1.0)


def P(s):
    return parse(s, SP)


def x_shift():
    return VectorField(SP, xi=(ZERO, ONE), phi=(ZERO,), name="x-shift")


def t_shift():
    return VectorField(SP, xi=(ONE, ZERO), phi=(ZERO,), name="t-shift")


def galilean():
    return VectorField(SP, xi=(ZERO, IndepVar("t")), phi=(ONE,))


# --- construction -----------------------------------------------------------


def test_component_counts_are_checked():
    with pytest.raises(ExprError):
        VectorField(SP, xi=(ONE,), phi=(ZERO,))
    with pytest.raises(ExprError):
        VectorField(SP, xi=(ZERO, ONE), phi=())


def test_components_must_be_point_functions():
    with pytest.raises(ExprError, match="base variables"):
        VectorField(SP, xi=(ZERO, P("u_x")), phi=(ZERO,))
    VectorField(SP, xi=(ZERO, P("u")), phi=(ZERO,))  # order 0 is fine


def test_is_translation():
    assert x_shift().is_translation() == 1
    assert t_shift().is_translation() == 0
    assert galilean().is_translation() is None
    two = VectorField(SP, xi=(ZERO, Const(2.0)), phi=(ZERO,))
    assert two.is_translation() is None


# --- prolongation fixtures ---------------------------------------------------


@pytest.mark.parametrize("v", [x_shift(), t_shift()])
def test_translations_prolong_to_themselves(v):
    pv = prolong(v, 4)
    assert all(is_zero(c) for _, c in pv.coeffs)


def test_galilean_prolongation_coefficients():
    pv = prolong(galilean(), 4)
    assert to_string(pv.coeff("u", ("t",))) == "-u_x"
    for j in [("x",), ("x", "x"), ("x", "x", "x"), ("x", "x", "x", "x")]:
        assert is_zero(pv.coeff("u", j))


def test_exponential_time_shift_prolongation():
    v = VectorField(SP, xi=(P("exp(-t/t0)"), ZERO), phi=(ZERO,))
    pv = prolong(v, 4)
    assert to_string(pv.coeff("u", ("t",))) == "exp(-t/t0)*u_t/t0"
    assert is_zero(pv.coeff("u", ("x",)))


def test_exponential_galilean_prolongation():
    v = VectorField(SP, xi=(ZERO, P("t0*exp(t/t0) - t0")), phi=(ONE,))
    pv = prolong(v, 4)
    assert to_string(pv.coeff("u", ("t",))) == "-exp(t/t0)*u_x"
    assert is_zero(pv.coeff("u", ("x", "x")))


def test_rotation_prolongation_on_the_plane():
    sp = JetSpace(independent=("x",), dependent=("u",), order=2,
                  evolution=False)
    v = VectorField(sp, xi=(-DepVar("u"),), phi=(IndepVar("x"),))
    pv = prolong(v, 2)
    assert to_string(pv.coeff("u", ("x",))) == "1 + u_x^2"
    assert to_string(pv.coeff("u", ("x", "x"))) == "3*u_x*u_xx"


def test_prolongation_order_bounds():
    with pytest.raises(ExprError):
        prolong(x_shift(), 0)
    with pytest.raises(ExprError):
        prolong(x_shift(), 5)


def test_truncation_consistency():
    full = prolong(galilean(), 4)
    for n in (1, 2, 3):
        part = prolong(galilean(), n)
        for (dep, j), c in part.coeffs:
            assert c == full.coeff(dep, j)


def test_evolution_chart_rejects_generators_needing_mixed_derivatives():
    # a space-dependent time shift leaves u_tx in the second-order
    # coefficient, which the u_t-plus-spatials chart cannot represent
    v = VectorField(SP, xi=(IndepVar("x"), ZERO), phi=(ZERO,))
    with pytest.raises(ProlongationError, match="u_tx"):
        prolong(v, 2)


# --- applying the prolonged action -------------------------------------------


def test_apply_annihilates_kdv_for_all_three_generators():
    f = P("u_t + u*u_x + u_xxx")
    for v in (x_shift(), t_shift(), galilean()):
        assert is_zero(apply(prolong(v, 4), f))


def test_apply_picks_up_explicit_coordinate_dependence():
    pv = prolong(t_shift(), 4)
    assert apply(pv, P("t*u")) == simplify(P("u"))
    pv = prolong(x_shift(), 4)
    assert apply(pv, P("x^2")) == simplify(P("2*x"))


def test_apply_is_linear():
    pv = prolong(galilean(), 4)
    f, g = P("u*u_x"), P("u_xx + t")
    lhs = apply(pv, simplify(f + 3 * g))
    rhs = simplify(apply(pv, f) + 3 * apply(pv, g))
    assert lhs == rhs


def test_apply_satisfies_the_product_rule():
    pv = prolong(galilean(), 4)
    for fs, gs in [("u", "u_x"), ("u_t", "u*u_x"), ("x", "u_xx")]:
        f, g = P(fs), P(gs)
        lhs = apply(pv, simplify(f * g))
        rhs = simplify(apply(pv, f) * g + f * apply(pv, g))
        assert lhs == rhs, (fs, gs)


def test_apply_rejects_out_of_order_expressions():
    pv = prolong(galilean(), 2)
    with pytest.raises(OrderMismatchError):
        apply(pv, P("u_xxx"))
    with pytest.raises(OrderMismatchError):
        apply_pieces(pv, P("u_xxxx"))


# --- numeric checks -----------------------------------------------------------


def test_singular_sampling_gives_up_loudly():
    # a guard of 10 flags every point of [-2, 2] for x + u*u_x, so the first
    # point's 50 redraws all fail inside verify_set's one draw
    so2 = builtin_set("so2-demo")
    every = InvariantSet("so2-demo", so2.space, so2.generators,
                         list(so2.etas), lhs_index=None, params={},
                         den_guard=10.0)
    with pytest.raises(SingularSampleError,
                       match="^point 0: 50 redraws all hit a singular "
                             "denominator$"):
        verify_set(every)


def _sample_points_loop(names, dens, samples, seed, den_tol, max_resample,
                        params):
    """_sample_points one point at a time, each guard on its own draw: the
    first draws from one (samples, k) call, then each singular point
    redraws from the same generator, in index order."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-2.0, 2.0, (samples, len(names)))

    def singular(row):
        point = {**dict(zip(names, row)), **params}
        return any(abs(float(evaluate_array(d, point))) < den_tol
                   for d in dens)

    resampled = 0
    for idx in range(samples):
        if not singular(rows[idx]):
            continue
        for _ in range(max_resample):
            resampled += 1
            rows[idx] = rng.uniform(-2.0, 2.0, len(names))
            if not singular(rows[idx]):
                break
        else:
            raise SingularSampleError(
                f"point {idx}: {max_resample} redraws all hit a singular "
                f"denominator")
    return rows, resampled


# den_tol 1e-3 redraws none of 400 points; 0.5, 0.8 and 1.0 redraw 501,
# 1150 and 1952 times; the last two give up at points 1 and 28
@pytest.mark.parametrize("seed, den_tol, max_resample", [
    (0, 1e-3, 50), (3, 0.5, 50), (7, 0.8, 50), (2, 1.0, 50), (3, 0.5, 6),
    (11, 1.2, 50),
])
def test_sample_points_match_the_per_point_loop(seed, den_tol, max_resample):
    sp = JetSpace(order=2)
    eta = parse("u_t/(u*u_x + x) + u_xx/(exp(a*t) - u^2) + 1/(a + u_x)", sp)
    names = sp.coordinate_names()
    dens = denominators_in(eta)
    assert len(dens) == 3
    params = {"a": 0.5}
    args = (names, dens, 400, seed, den_tol, max_resample, params)
    try:
        want, redraws = _sample_points_loop(*args)
    except SingularSampleError as err:
        with pytest.raises(SingularSampleError) as got:
            liealg._sample_points(*args)
        assert str(got.value) == str(err)
        return
    cols, resampled = liealg._sample_points(*args)
    assert resampled == redraws
    assert cols.keys() == {*names, *params}
    got = np.column_stack([cols[n] for n in names])
    assert got.tobytes() == want.tobytes()
    # rows no guard flags are the generator's first (samples, k) draw
    first = np.random.default_rng(seed).uniform(-2.0, 2.0, got.shape)
    flagged = np.zeros(len(first), dtype=bool)
    for d in dens:
        binding = {**dict(zip(names, first.T)), **params}
        flagged |= np.abs(evaluate_array(d, binding)) < den_tol
    assert got[~flagged].tobytes() == first[~flagged].tobytes()
    assert not np.any(np.all(got[flagged] == first[flagged], axis=1))
    assert resampled >= np.count_nonzero(flagged)
    # and every returned point clears every guard
    for d in dens:
        assert np.all(np.abs(evaluate_array(d, cols)) >= den_tol)


# seeds of one, two, three and four uint32 words of SeedSequence entropy
@pytest.mark.parametrize("seed", [0, 11, 160284527422, 2 ** 64 + 3,
                                  2 ** 100 + 7])
@pytest.mark.parametrize("samples", [0, 1, 1000])
@pytest.mark.parametrize("k", [1, 6, 9])
def test_first_draws_are_one_generators_stream(seed, samples, k):
    names = [f"c{j}" for j in range(k)]
    cols, resampled = liealg._sample_points(names, [], samples, seed, 1e-3,
                                            50, None)
    want = np.random.default_rng(seed).uniform(-2.0, 2.0, (samples, k))
    got = np.column_stack([cols[n] for n in names])
    assert resampled == 0 and got.shape == (samples, k)
    assert got.tobytes() == want.tobytes()



def test_symmetry_criterion_evaluates_on_supplied_data():
    f = P("u_t + u*u_x + u_xxx")
    rng = np.random.default_rng(0)
    data = {n: rng.normal(size=40) for n in SP.coordinate_names()}
    good = check_symmetry_criterion(prolong(galilean(), 4), f)
    assert np.all(np.broadcast_to(evaluate_array(good.residual, data),
                                  (40,)) == 0.0)
    # off the symmetry, the residual is an expression of the jet
    bad = check_symmetry_criterion(prolong(galilean(), 4), P("u_t + u_xx"))
    on_data = evaluate_array(bad.residual, data)
    assert on_data.shape == (40,)
    assert on_data.tobytes() == (-data["u_x"]).tobytes()

def test_apply_check_and_criterion_share_one_action(monkeypatch):
    calls = []
    pieces = liealg.apply_pieces

    def counted(pv, e):
        calls.append(e)
        return pieces(pv, e)

    monkeypatch.setattr(liealg, "apply_pieces", counted)
    monkeypatch.setattr(liealg, "_actions", {})
    pv = prolong(galilean(), 4)
    f = P("u_t + u*u_x + u_xxx")
    assert is_zero(apply(pv, f))
    one = InvariantSet("kdv", SP, [galilean()], [f], lhs_index=0, params={})
    assert verify_set(one).passed
    assert check_symmetry_criterion(pv, f).symbolic_zero
    assert check_symmetry_criterion(prolong(galilean(), 4), f).symbolic_zero
    assert calls == [f]


def test_symmetry_criterion_on_and_off_manifold():
    f = P("u_t + u*u_x + u_xxx")
    rep = check_symmetry_criterion(prolong(galilean(), 4), f)
    assert rep.symbolic_zero
    bad = check_symmetry_criterion(prolong(galilean(), 4), P("u_t + u_xx"))
    assert not bad.symbolic_zero
