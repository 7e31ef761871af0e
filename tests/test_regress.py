"""Sparse regression: STLSQ rounds, the symmetry penalty, serialization."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from liesindy import jetgrid, liealg, regress
from liesindy.dynamics import SolverConfig, sample_initial_condition, solve_pde
from liesindy.expr import Const, JetSpace, parse, to_string
from liesindy.invariants import builtin_set
from liesindy.jetgrid import WINDOW_POINTS, FeatureMatrix, \
    evaluate_features, finite_differences
from liesindy.liealg import VectorField, prolong
from liesindy.regress import (
    LibrarySpec, RegressionError, SparseModel, action_terms, build_library,
    model_from_dict, model_to_dict, model_to_equation, project, stlsq,
    stlsq_regularized, symmetry_penalties,
)

SPACE = JetSpace(("t", "x"), ("u",), 4)


def P(s):
    return parse(s, SPACE)


def make_fm(values, target, labels, target_label="u_t", binding=None,
            generators=()):
    """The sums of rows whose feature columns are `values`, added at once,
    with the action terms of `generators` that the penalties need.

    Each label and the target label is a jet name, bound to its column.
    """
    values = np.asarray(values, dtype=float)
    rows = dict(binding or {})
    rows.update({s: values[:, j] for j, s in enumerate(labels)})
    rows[target_label] = np.asarray(target, dtype=float)
    feats = [P(s) for s in labels]
    fm = FeatureMatrix(feats, P(target_label), extra=action_terms(
        generators, feats + [P(target_label)])[0])
    fm.add(rows)
    return fm


@pytest.fixture(scope="module")
def kdv_fm():
    cfg = SolverConfig("kdv", nx=256, length=20.0, dt=0.01, nt=200)
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=7)
    [tr] = solve_pde(cfg, ic[None])
    inv = builtin_set("kdv")
    feats = list(inv.rhs_features())
    # the KdV generators annihilate every invariant: no action terms
    assert action_terms(inv.generators, feats + [inv.lhs])[0] == ()
    return evaluate_features([tr], finite_differences, feats, inv.lhs), inv


# ---------------------------------------------------------------------------
# libraries


def test_poly2_library_order_and_count():
    inputs = tuple(P(s) for s in ("u", "u_x", "u_xx", "u_xxx", "u_xxxx"))
    feats = build_library(LibrarySpec("poly2", inputs))
    assert len(feats) == 20
    names = [to_string(f) for f in feats]
    assert names[:5] == ["u", "u_x", "u_xx", "u_xxx", "u_xxxx"]
    assert names[5:8] == ["u^2", "u*u_x", "u*u_xx"]
    assert names[-1] == "u_xxxx^2"
    assert len(set(names)) == 20


def test_poly2_small_case_with_constant():
    feats = build_library(
        LibrarySpec("poly2", (P("u"), P("u_x")), include_constant=True))
    assert [to_string(f) for f in feats] == \
        ["1", "u", "u_x", "u^2", "u*u_x", "u_x^2"]


def test_linear_library_is_inputs_only():
    feats = build_library(LibrarySpec("linear", (P("u_x"), P("u_xx"))))
    assert [to_string(f) for f in feats] == ["u_x", "u_xx"]


def test_library_spec_validation():
    with pytest.raises(RegressionError):
        LibrarySpec("cubic", (P("u"),))
    with pytest.raises(RegressionError):
        LibrarySpec("poly2", ())
    # canonicalization catches disguised duplicates
    with pytest.raises(RegressionError):
        LibrarySpec("poly2", (P("u"), P("u*1")))


@pytest.mark.parametrize("spec, twice", [
    (LibrarySpec("poly2", (P("u"), P("u_x"), P("u*u_x"))), "u*u_x"),
    (LibrarySpec("poly2", (P("u"), P("u^2"))), "u^2"),
    (LibrarySpec("linear", (P("u"), P("1")), include_constant=True), "1"),
], ids=["product-input", "square-input", "constant-input"])
def test_repeated_library_feature_is_refused(spec, twice):
    # a repeated column splits one coefficient between two features, so
    # the projection onto the library is ambiguous
    with pytest.raises(RegressionError,
                       match=re.escape(f"holds {twice} twice")):
        build_library(spec)


def test_project_places_each_term_on_the_basis():
    basis = [P("u"), P("u*u_x"), P("exp(-t/t0)*u_t")]
    coefs, rest = project(P("2*u - 3*u*u_x + x + exp(-t/t0)*u_t"), basis)
    assert coefs.tolist() == [2.0, -3.0, 1.0]
    assert [to_string(t) for t in rest] == ["x"]
    coefs, rest = project(Const(0.0), basis)
    assert not coefs.any() and rest == []


# ---------------------------------------------------------------------------
# plain STLSQ


def test_recovers_exact_sparse_combination():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(500, 4))
    y = 2.0 * a[:, 0] - 3.0 * a[:, 2]
    fm = make_fm(a, y, ["u", "u_x", "u_xx", "u_xxx"])
    m = stlsq(fm, threshold=0.5)
    assert np.array_equal(m.mask, [True, False, True, False])
    assert np.allclose(m.weights, [2.0, 0.0, -3.0, 0.0], atol=1e-8)
    assert not m.diagnostics["rank_warning"]


def test_zero_target_empties_the_mask():
    rng = np.random.default_rng(1)
    fm = make_fm(rng.normal(size=(100, 3)), np.zeros(100),
                 ["u", "u_x", "u_xx"])
    m = stlsq(fm, threshold=0.1)
    assert not m.mask.any()
    assert np.all(m.weights == 0.0)


def test_mask_shrinks_monotonically():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(300, 5))
    y = a[:, 0] + 0.4 * a[:, 1] + 0.05 * a[:, 2]
    fm = make_fm(a, y, ["u", "u_x", "u_xx", "u_xxx", "u_xxxx"])
    m = stlsq(fm, threshold=0.2)
    assert len(m.history) == m.diagnostics["iterations"]
    for prev, nxt in zip(m.history, m.history[1:]):
        assert all(n <= p for n, p in zip(nxt, prev))
    assert np.array_equal(m.mask, m.history[-1])


def test_kdv_invariant_features_select_third_derivative(kdv_fm):
    fm, _ = kdv_fm
    m = stlsq(fm, threshold=0.5)
    assert [to_string(f) for f in m.active_features()] == ["u_xxx"]
    w = m.weights[[to_string(f) for f in m.features].index("u_xxx")]
    assert abs(w + 1.0) < 0.02
    eq = to_string(model_to_equation(m))
    assert eq.startswith("u_t + u*u_x + ")
    assert "u_xxx" in eq


def test_refit_on_final_support_is_idempotent(kdv_fm):
    fm, _ = kdv_fm
    m = stlsq(fm, threshold=0.5)
    again = regress._solve_round(fm.gram, fm.rhs, m.mask)[0]
    assert np.array_equal(again, np.where(m.mask, m.coef, 0.0))


def test_stlsq_input_validation():
    rng = np.random.default_rng(0)
    fm = make_fm(rng.normal(size=(3, 4)), np.zeros(3),
                 ["u", "u_x", "u_xx", "u_xxx"])
    with pytest.raises(RegressionError, match="rows"):
        stlsq(fm, threshold=0.5)
    ok = make_fm(rng.normal(size=(10, 2)), np.zeros(10), ["u", "u_x"])
    with pytest.raises(RegressionError, match="threshold"):
        stlsq(ok, threshold=0.0)


# ---------------------------------------------------------------------------
# symmetry-penalized STLSQ


def galilean():
    return VectorField(SPACE, xi=(Const(0.0), P("t")), phi=(Const(1.0),),
                       name="galilean")


def shift_u():
    return VectorField(SPACE, xi=(Const(0.0), Const(0.0)),
                       phi=(Const(1.0),), name="u-shift")


def toy_binding(n, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    ux = rng.normal(size=n)
    ut = u + 2.0 * ux
    return {"t": rng.uniform(0.5, 1.5, size=n), "x": rng.normal(size=n),
            "u": u, "u_x": ux, "u_t": ut}


def test_zero_lambda_is_plain_stlsq(kdv_fm):
    fm, inv = kdv_fm
    plain = stlsq(fm, threshold=0.5)
    reg = stlsq_regularized(fm, inv.generators, lam=0.0, threshold=0.5)
    assert np.array_equal(reg.mask, plain.mask)
    assert np.array_equal(reg.coef, plain.coef)


def test_invariant_features_make_the_penalty_inert(kdv_fm):
    # every feature and the target are annihilated by the generators, so
    # the extra rows are zero and any lambda reproduces the plain model
    fm, inv = kdv_fm
    plain = stlsq(fm, threshold=0.5)
    reg = stlsq_regularized(fm, inv.generators, lam=10.0, threshold=0.5)
    assert np.array_equal(reg.mask, plain.mask)
    assert np.allclose(reg.coef, plain.coef, rtol=1e-12, atol=1e-14)
    assert reg.diagnostics["lambda"] == 10.0


def test_penalty_rows_match_hand_assembly():
    # galilean action: pr v[u] = 1, pr v[u_x] = 0, pr v[u_t] = -u_x,
    # so the penalty block is B = [1, 0] per row against b = -u_x
    binding = toy_binding(400, seed=5)
    a = np.column_stack([binding["u"], binding["u_x"]])
    fm = make_fm(a, binding["u_t"], ["u", "u_x"], binding=binding,
                 generators=[galilean()])
    lam = 0.7
    m = stlsq_regularized(fm, [galilean()], lam=lam, threshold=1e-12)

    bmat = np.column_stack([np.ones(400), np.zeros(400)])
    bvec = -binding["u_x"]
    stacked_a = np.vstack([a, np.sqrt(lam) * bmat])
    stacked_y = np.concatenate([binding["u_t"], np.sqrt(lam) * bvec])
    expect, *_ = np.linalg.lstsq(stacked_a, stacked_y, rcond=None)
    assert np.allclose(m.coef, expect, rtol=1e-8)


def test_prolonged_and_plain_generators_agree():
    binding = toy_binding(300, seed=8)
    a = np.column_stack([binding["u"], binding["u_x"]])
    m1, m2 = [stlsq_regularized(
        make_fm(a, binding["u_t"], ["u", "u_x"], binding=binding,
                generators=[g]), [g], lam=0.3, threshold=1e-12)
        for g in (galilean(), prolong(galilean(), 4))]
    assert np.allclose(m1.coef, m2.coef, rtol=1e-12)


def test_large_lambda_steers_to_the_symmetric_model():
    # y sits exactly on the u column, but pr[shift_u] penalizes it; u_x is
    # an almost-copy, so a huge lambda moves the weight across
    rng = np.random.default_rng(11)
    u = rng.normal(size=500)
    ux = u + 1e-6 * rng.normal(size=500)
    binding = {"t": np.ones(500), "x": np.zeros(500), "u": u, "u_x": ux,
               "u_t": u.copy()}
    a = np.column_stack([u, ux])
    fm = make_fm(a, u, ["u", "u_x"], binding=binding,
                 generators=[shift_u()])
    free = stlsq_regularized(fm, [shift_u()], lam=1e-12, threshold=1e-9)
    pinned = stlsq_regularized(fm, [shift_u()], lam=1e8, threshold=1e-9)
    assert abs(free.coef[0]) > 0.5
    assert abs(pinned.coef[0]) < 1e-3
    assert abs(pinned.coef[1] - 1.0) < 1e-2


def test_an_overflowing_penalty_is_a_regression_error():
    # lam*penalty overflows at lam 1e308: the fit refuses its non-finite
    # normal equations, with no RuntimeWarning, and lam 1e200 still fits
    binding = toy_binding(200, seed=13)
    a = np.column_stack([binding["u"], binding["u_x"]])
    fm = make_fm(a, binding["u_t"], ["u", "u_x"], binding=binding,
                 generators=[galilean()])
    with pytest.raises(RegressionError,
                       match="the normal equations are not finite"):
        stlsq_regularized(fm, [galilean()], lam=1e308, threshold=1e-12)
    m = stlsq_regularized(fm, [galilean()], lam=1e200, threshold=1e-12)
    assert np.isfinite(m.coef).all()


def test_closed_form_matches_gradient_descent():
    binding = toy_binding(200, seed=13)
    a = np.column_stack([binding["u"], binding["u_x"]])
    fm = make_fm(a, binding["u_t"], ["u", "u_x"], binding=binding,
                 generators=[galilean()])
    lam = 0.5
    m = stlsq_regularized(fm, [galilean()], lam=lam, threshold=1e-12)

    bmat = np.column_stack([np.ones(200), np.zeros(200)])
    bvec = -binding["u_x"]
    gram = a.T @ a + lam * bmat.T @ bmat
    rhs = a.T @ binding["u_t"] + lam * bmat.T @ bvec
    step = 1.0 / np.linalg.eigvalsh(gram)[-1]
    w = np.zeros(2)
    for _ in range(20000):
        w -= step * (gram @ w - rhs)
    assert np.allclose(m.coef, w, atol=1e-6)


def x_scaling():
    return VectorField(SPACE, xi=(Const(0.0), P("x")), phi=(Const(0.0),),
                       name="x-scaling")


def poly2_rows(n, seed):
    """The 20-term poly2 library and an n-row binding of random jets."""
    rng = np.random.default_rng(seed)
    names = ("u", "u_x", "u_xx", "u_xxx", "u_xxxx")
    binding = {name: rng.normal(size=n) for name in names}
    binding["t"] = rng.uniform(0.5, 1.5, size=n)
    binding["x"] = rng.normal(size=n)
    binding["u_t"] = -binding["u_xxx"] - binding["u"] * binding["u_x"] \
        + 1e-3 * rng.normal(size=n)
    feats = build_library(LibrarySpec("poly2", tuple(P(s) for s in names)))
    return feats, binding


def summed(feats, binding, generators=(), window=WINDOW_POINTS):
    """The sums of the binding's rows, added `window` rows at a time, with
    the action terms of `generators`."""
    fm = FeatureMatrix(feats, P("u_t"), extra=action_terms(
        generators, list(feats) + [P("u_t")])[0])
    n = binding["u"].size
    for lo in range(0, n, window):
        fm.add({name: arr[lo:lo + window] for name, arr in binding.items()})
    return fm


def test_chunked_penalty_matches_one_chunk():
    # rows added one window at a time, the last window short, against the
    # same rows added at once
    n = 2 * WINDOW_POINTS + 5000
    feats, binding = poly2_rows(n, seed=21)
    gens = [prolong(g, 4) for g in (galilean(), shift_u(), x_scaling())]
    one = stlsq_regularized(summed(feats, binding, gens, window=n), gens,
                            lam=0.1, threshold=0.05)
    many = stlsq_regularized(summed(feats, binding, gens), gens, lam=0.1,
                             threshold=0.05)
    assert np.array_equal(many.mask, one.mask)
    assert many.history == one.history
    assert np.allclose(many.coef, one.coef, rtol=1e-12, atol=0.0)


def test_regularized_fit_never_stacks_the_system():
    # the pass and the fit hold one 8-byte target value per row and
    # window-sized buffers; A alone would be 20 values per row, and the
    # stacked (A; B_1; B_2; B_3) system 4x that
    n = 150_000
    feats, binding = poly2_rows(n, seed=22)
    gens = [prolong(g, 4) for g in (galilean(), shift_u(), x_scaling())]
    summed(*poly2_rows(100, seed=22), gens)      # fill the action cache
    tracemalloc.start()
    try:
        fm = summed(feats, binding, gens)
        stlsq_regularized(fm, gens, lam=0.1, threshold=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffer = 8 * (len(feats) + 1) * WINDOW_POINTS
    limit = 8 * n + 3 * buffer
    assert peak < limit, (peak, limit)


def test_second_fit_reuses_prolonged_actions(monkeypatch):
    calls = []

    def counted(pv, e):
        calls.append(e)
        return apply_pieces(pv, e)

    apply_pieces = liealg.apply_pieces
    monkeypatch.setattr(liealg, "apply_pieces", counted)
    monkeypatch.setattr(liealg, "_actions", {})
    monkeypatch.setattr(regress, "_bases", {})
    feats, binding = poly2_rows(500, seed=23)
    first = summed(feats, binding, [galilean(), x_scaling()])
    assert len(calls) == 2 * (len(feats) + 1)
    # equal fields share the projected actions: a second pass and the fits
    # apply nothing again
    again = summed(feats, binding, [galilean(), x_scaling()])
    assert len(calls) == 2 * (len(feats) + 1)
    fits = [stlsq_regularized(fm, [galilean(), x_scaling()], lam=0.1,
                              threshold=0.05) for fm in (first, again)]
    assert len(calls) == 2 * (len(feats) + 1)
    assert np.array_equal(fits[1].coef, fits[0].coef)


def test_annihilating_generator_is_never_evaluated(monkeypatch):
    # no feature or target of this library depends on t or x, so both
    # translations act as zero: the pass sums no action term for them and
    # they add nothing to the normal equations
    evaluated = []

    def counted(e, binding, out=None):
        evaluated.append(to_string(e))
        return evaluate_array(e, binding, out=out)

    evaluate_array = jetgrid.evaluate_array
    feats, binding = poly2_rows(500, seed=24)
    shifts = [VectorField(SPACE, xi=xi, phi=(Const(0.0),), name=name)
              for xi, name in (((Const(0.0), Const(1.0)), "x-shift"),
                               ((Const(1.0), Const(0.0)), "t-shift"))]
    monkeypatch.setattr(jetgrid, "evaluate_array", counted)
    fm = summed(feats, binding, shifts)
    reg = stlsq_regularized(fm, shifts, lam=10.0, threshold=0.05)
    assert evaluated == [to_string(e) for e in feats] + ["u_t"]
    assert all(not p.any() for p in symmetry_penalties(fm, shifts))
    plain = stlsq(fm, threshold=0.05)
    assert np.array_equal(reg.mask, plain.mask)
    assert np.array_equal(reg.coef, plain.coef)


def test_generator_the_pass_did_not_sum_is_refused(kdv_fm):
    # the pass summed the KdV invariants, which the KdV generators
    # annihilate; x-scaling takes the target u_t + u*u_x to -u*u_x, which
    # is not among them
    fm, inv = kdv_fm
    with pytest.raises(RegressionError, match=(
            r"did not sum -u\*u_x, a term of the action of 'x-scaling' on "
            r"u_t \+ u\*u_x")):
        stlsq_regularized(fm, inv.generators + [x_scaling()], lam=1.0,
                          threshold=0.5)
    # nor 1, galilean's action on u, when the pass summed no action term
    binding = toy_binding(50, seed=4)
    a = np.column_stack([binding["u"], binding["u_x"]])
    bare = make_fm(a, binding["u_t"], ["u", "u_x"], binding=binding)
    with pytest.raises(RegressionError, match="did not sum 1, a term of "
                       "the action of 'galilean' on u$"):
        stlsq_regularized(bare, [galilean()], lam=1.0, threshold=0.5)


def test_negative_lambda_rejected(kdv_fm):
    fm, inv = kdv_fm
    with pytest.raises(RegressionError):
        stlsq_regularized(fm, inv.generators, lam=-1.0, threshold=0.5)


# ---------------------------------------------------------------------------
# model objects


def test_model_weights_and_equation():
    m = SparseModel(target=P("u_t + u*u_x"),
                    features=[P("u_xx"), P("u_xxx")],
                    coef=np.array([0.5, -1.0]),
                    mask=np.array([False, True]),
                    threshold=0.5)
    assert np.array_equal(m.weights, [0.0, -1.0])
    assert [to_string(f) for f in m.active_features()] == ["u_xxx"]
    assert to_string(model_to_equation(m)) == "u_t + u*u_x + u_xxx"


def test_model_shape_validation():
    with pytest.raises(RegressionError):
        SparseModel(target=P("u_t"), features=[P("u_x")],
                    coef=np.array([1.0, 2.0]), mask=np.array([True, False]),
                    threshold=0.1)


def test_model_serialization_round_trip(kdv_fm):
    fm, _ = kdv_fm
    m = stlsq(fm, threshold=0.5)
    d = json.loads(json.dumps(model_to_dict(m)))
    assert isinstance(d["diagnostics"]["iterations"], int)
    assert isinstance(d["diagnostics"]["rank_warning"], bool)
    back = model_from_dict(d, space=SPACE)
    assert to_string(back.target) == to_string(m.target)
    assert [to_string(f) for f in back.features] == \
        [to_string(f) for f in m.features]
    assert np.array_equal(back.mask, m.mask)
    assert np.array_equal(back.coef, m.coef)
    assert back.threshold == m.threshold


def test_history_round_trips():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(300, 5))
    y = a[:, 0] + 0.4 * a[:, 1] + 0.05 * a[:, 2]
    m = stlsq(make_fm(a, y, ["u", "u_x", "u_xx", "u_xxx", "u_xxxx"]),
              threshold=0.2)
    d = json.loads(json.dumps(model_to_dict(m)))
    assert len(d["history"]) == m.diagnostics["iterations"] > 1
    assert model_from_dict(d, space=SPACE).history == m.history


def test_empty_support_diagnostics_serialize_as_null():
    rng = np.random.default_rng(1)
    m = stlsq(make_fm(rng.normal(size=(100, 3)), np.zeros(100),
                      ["u", "u_x", "u_xx"]), threshold=0.1)
    assert m.diagnostics["condition_number"] == np.inf
    d = model_to_dict(m)
    assert d["diagnostics"]["condition_number"] is None
    text = json.dumps(d, allow_nan=False)     # raises on inf or nan
    assert model_from_dict(json.loads(text), space=SPACE).diagnostics[
        "condition_number"] is None
