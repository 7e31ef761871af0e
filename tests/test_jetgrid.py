"""Jet estimators and the windowed pass into the normal equations."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from liesindy import harness as hz
from liesindy import jetgrid
from liesindy.dynamics import (
    SolverConfig, TrajectoryGrid, default_config, sample_initial_condition,
    solve_pde,
)
from liesindy.expr import (
    JetSpace, MissingSymbolError, evaluate_array, parse, to_string,
)
from liesindy.invariants import builtin_set
from liesindy.jetgrid import (
    WINDOW_POINTS, GridTooSmallError, evaluate_features,
    finite_differences, spectral_jets,
)
from liesindy.liealg import (
    VectorField, apply, check_symmetry_criterion, prolong,
)
from liesindy.regress import symmetry_penalties

SPACE = JetSpace(("t", "x"), ("u",), 4)


def P(s):
    return parse(s, SPACE)


def manufactured(nx, nt):
    """u = sin(x) e^{cos t} on [0, 2pi) x [0, 1]; all jets in closed form."""
    length = 2.0 * math.pi
    x = np.arange(nx) * (length / nx)
    t = np.linspace(0.0, 1.0, nt)
    u = np.sin(x)[None, :] * np.exp(np.cos(t))[:, None]
    return TrajectoryGrid(x, t, u), x, t


def jet_errors(nx, nt, jets=finite_differences):
    tr, x, _ = manufactured(nx, nt)
    jet = jets(tr, n=4)
    tt = jet["t"]                       # the window's times, a column
    sx, cx = np.sin(x)[None, :], np.cos(x)[None, :]
    et = np.exp(np.cos(tt))
    truth = {
        "u_x": cx * et,
        "u_xx": -sx * et,
        "u_xxx": -cx * et,
        "u_xxxx": sx * et,
        "u_t": -np.sin(tt) * sx * et,
    }
    return {k: float(np.max(np.abs(jet[k] - truth[k]))) for k in truth}


@pytest.fixture(scope="module")
def kdv_jet():
    cfg = SolverConfig("kdv", nx=256, length=20.0, dt=0.01, nt=200)
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=7)
    [tr] = solve_pde(cfg, ic[None])
    return tr, finite_differences(tr, n=4)


# ---------------------------------------------------------------------------
# stencils


def test_second_order_convergence_everywhere():
    e_coarse = jet_errors(64, 201)
    e_fine = jet_errors(128, 401)
    for key in e_coarse:
        ratio = e_coarse[key] / e_fine[key]
        assert 3.7 < ratio < 4.3, (key, ratio)


def test_spectral_x_at_round_off_and_sixth_order_t():
    # coarse grids: at nt=201/401 round-off flattens the u_t ratio
    e_coarse = jet_errors(64, 21, spectral_jets)
    e_fine = jet_errors(64, 41, spectral_jets)
    eps = np.finfo(float).eps
    for m in range(1, 5):
        # round-off of the m-th FFT derivative: eps * k_max^m * max|u|
        bound = 10 * eps * 32.0 ** m * math.e
        name = "u_" + "x" * m
        for errs in (e_coarse, e_fine):
            assert errs[name] < bound, (m, errs[name])
    ratio = e_coarse["u_t"] / e_fine["u_t"]
    assert 56.0 < ratio < 72.0, ratio


def test_constant_field_has_zero_jets():
    x = np.arange(32) * 0.5
    t = np.arange(12) * 0.1
    tr = TrajectoryGrid(x, t, np.full((12, 32), 3.25))
    jet = finite_differences(tr, n=4)
    assert np.all(jet["u"] == 3.25)
    for name in ("u_t", "u_x", "u_xx", "u_xxx", "u_xxxx"):
        assert np.all(jet[name] == 0.0), name


def _rolled_dx(u, h):
    return (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * h)


def _rolled_dxx(u, h):
    return (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / h ** 2


def _rolled_dxxx(u, h):
    return (-0.5 * np.roll(u, 2, axis=1) + np.roll(u, 1, axis=1)
            - np.roll(u, -1, axis=1) + 0.5 * np.roll(u, -2, axis=1)) / h ** 3


def _rolled_dxxxx(u, h):
    return (np.roll(u, 2, axis=1) - 4.0 * np.roll(u, 1, axis=1) + 6.0 * u
            - 4.0 * np.roll(u, -1, axis=1) + np.roll(u, -2, axis=1)) / h ** 4


# the x-stencils written with np.roll: the reference for the padded copy
_ROLLED = (_rolled_dx, _rolled_dxx, _rolled_dxxx, _rolled_dxxxx)


def x_jets(u, h):
    """finite_differences' x-jets of orders 1-4 on every row of u."""
    halo = np.vstack([u[:1], u, u[-1:]])
    tr = TrajectoryGrid(np.arange(u.shape[1]) * h, np.arange(len(halo)),
                        halo)
    jet = finite_differences(tr)
    return [jet["u_" + "x" * m] for m in range(1, 5)]


@pytest.mark.parametrize("rows", [(5, 6), (1, 65)], ids=["one-row",
                                                          "64-rows"])
@pytest.mark.parametrize("nx", [16, 256])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_padded_stencils_match_the_rolled_ones(n, nx, rows):
    rng = np.random.default_rng(100 * n + nx)
    h = 0.37
    tr = TrajectoryGrid(np.arange(nx) * h, np.arange(70) * 0.1,
                        rng.normal(size=(70, nx)))
    jet = finite_differences(tr, n=n, rows=rows)
    assert np.array_equal(jet["t"][:, 0], tr.t[rows[0]:rows[1]])
    mid = tr.u[rows[0]:rows[1]]
    assert set(jet) == {"t", "x", "u", "u_t"} | {"u_" + "x" * m
                                                 for m in range(1, n + 1)}
    for m in range(1, n + 1):
        assert jet["u_" + "x" * m].tobytes() == \
            _ROLLED[m - 1](mid, h).tobytes()


def test_high_stencils_compose_from_low_ones():
    # the wide third/fourth stencils are exactly D_c(D_2) and D_2(D_2)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(6, 64))
    h = 0.37
    _, uxx, uxxx, uxxxx = x_jets(u, h)
    ux_of_uxx, uxx_of_uxx = x_jets(uxx, h)[:2]
    assert np.allclose(uxxx, ux_of_uxx, atol=1e-10)
    assert np.allclose(uxxxx, uxx_of_uxx, atol=1e-10)


def test_valid_window_trims_one_row_each_side():
    tr, _, _ = manufactured(32, 10)
    jet = finite_differences(tr, n=4)
    assert np.array_equal(jet["t"][:, 0], tr.t[1:9])
    assert jet["u"].shape == (8, 32)


def test_spectral_window_trims_three_rows_each_side():
    tr, _, _ = manufactured(32, 10)
    jet = spectral_jets(tr, n=4)
    assert np.array_equal(jet["t"][:, 0], tr.t[3:7])
    assert jet["u"].shape == (4, 32)


def test_spatial_order_bounds():
    tr, _, _ = manufactured(32, 10)
    for jets in (finite_differences, spectral_jets):
        with pytest.raises(GridTooSmallError):
            jets(tr, n=0)
        with pytest.raises(GridTooSmallError):
            jets(tr, n=5)


def test_lower_order_jets_omit_high_derivatives():
    tr, _, _ = manufactured(32, 10)
    jet = finite_differences(tr, n=2)
    assert "u_xx" in jet
    assert "u_xxx" not in jet


@pytest.mark.parametrize("estimate", [finite_differences, spectral_jets])
def test_a_non_finite_estimate_is_refused_by_name(estimate):
    # a finite field whose fourth x-derivative overflows: the estimate is
    # refused by its coordinate's name, and no overflow warning escapes
    # (RuntimeWarning is an error under the suite's filter)
    x = np.arange(32) * 0.05
    u = np.zeros((12, 32))
    u[:, ::2] = 1e303
    tr = TrajectoryGrid(x, np.arange(12) * 0.1, u)
    with pytest.raises(GridTooSmallError,
                       match="^non-finite derivative estimate for u_xxxx$"):
        estimate(tr, n=4)


# ---------------------------------------------------------------------------
# equation residuals on solver data


def test_kdv_residual_is_small_and_second_order(kdv_jet):
    tr, _ = kdv_jet
    resid = P("u_t + u*u_x + u_xxx")
    fm = evaluate_features([tr], finite_differences, [P("u")], resid)
    rms = float(np.sqrt(np.mean(fm.target ** 2)))
    assert rms < 2e-2

    fine_cfg = SolverConfig("kdv", nx=512, length=20.0, dt=0.005, nt=400)
    fine_ic = sample_initial_condition(512, 20.0, seed=7)
    [fine_tr] = solve_pde(fine_cfg, fine_ic[None])
    fine = evaluate_features([fine_tr], finite_differences, [P("u")], resid)
    fine_rms = float(np.sqrt(np.mean(fine.target ** 2)))
    assert 3.0 < rms / fine_rms < 5.0


# ---------------------------------------------------------------------------
# feature matrices


def test_feature_matrix_shape_and_bookkeeping(kdv_jet):
    tr, _ = kdv_jet
    feats = [P(s) for s in ("u_x", "u_xx", "u_xxx", "u_xxxx")]
    fm = evaluate_features([tr], finite_differences, feats, P("u_t + u*u_x"))
    npts = (tr.t.size - 2) * tr.x.size
    assert fm.n_rows == npts and fm.target.shape == (npts,)
    assert fm.dropped == 0
    assert fm.columns == feats
    assert fm.gram.shape == (4, 4) and fm.rhs.shape == (4,)
    assert fm.yty == pytest.approx(float(fm.target @ fm.target), rel=1e-12)


def test_row_binding_matches_point_index(kdv_jet):
    tr, _ = kdv_jet
    # rows run over the valid window in (t index, x index) order
    ti = np.repeat(np.arange(1, tr.t.size - 1), tr.x.size)
    xi = np.tile(np.arange(tr.x.size), tr.t.size - 2)
    for name, want in (("t", tr.t[ti]), ("x", tr.x[xi]),
                       ("u", tr.u[ti, xi])):
        fm = evaluate_features([tr], finite_differences, [P("u_x")], P(name))
        assert np.array_equal(fm.target, want), name


def test_constants_are_bound_and_checked(kdv_jet):
    tr, jet = kdv_jet
    target = P("exp(-t/t0)*u_t")
    fm = evaluate_features([tr], finite_differences, [P("u*u_x")], target,
                           constants={"t0": 1.0})
    cols = jet_columns(jet)
    assert np.allclose(fm.target, np.exp(-cols["t"]) * cols["u_t"],
                       rtol=1e-12)
    with pytest.raises(MissingSymbolError, match="t0"):
        evaluate_features([tr], finite_differences, [P("u*u_x")], target)


def test_order_beyond_jet_raises(kdv_jet):
    # the estimators stop at order 4; their own grid check rejects order 5
    tr, _ = kdv_jet
    fifth = parse("u_xxxxx", JetSpace(("t", "x"), ("u",), 5))
    for estimate in (finite_differences, spectral_jets):
        with pytest.raises(GridTooSmallError, match="between 1 and 4"):
            evaluate_features([tr], estimate, [fifth], P("u_t"))
        fm = evaluate_features([tr], estimate, [P("u_xxxx")], P("u_t"))
        assert fm.order == 4 and fm.gram.shape == (1, 1)


def test_non_finite_rows_are_dropped():
    x = np.arange(32) * 0.5
    t = np.arange(10) * 0.1
    u = np.ones((10, 32)) + 0.1 * np.sin(x)[None, :]
    u[4, 7] = 0.0                      # exact zero poisons 1/u at one point
    tr = TrajectoryGrid(x, t, u)
    fm = evaluate_features([tr], finite_differences, [P("1/u")], P("u"))
    assert fm.dropped == 1
    assert fm.n_rows == fm.target.size == 8 * 32 - 1
    assert np.all(np.isfinite(fm.sums))
    # the row of (4, 7) is the one gone
    assert np.array_equal(fm.target, np.delete(u[1:-1].ravel(), 3 * 32 + 7))


def test_jets_evaluate_as_one_matrix_with_a_dropped_row():
    x = np.arange(32) * 0.5
    t = np.arange(10) * 0.1
    u = np.ones((10, 32)) + 0.1 * np.sin(x)[None, :]
    poisoned = u.copy()
    poisoned[4, 7] = 0.0              # 1/u is infinite in the second jet only
    trajs = [TrajectoryGrid(x, t, v) for v in (u, poisoned)]
    fm = evaluate_features(trajs, finite_differences, [P("1/u")], P("u"))
    n = 8 * 32
    assert fm.dropped == 1
    assert fm.n_rows == 2 * n - 1
    # 1/u and u need order 1: the jets stop at u_x
    assert fm.order == 1
    # jet order: the first jet's rows, then the second's less (4, 7)
    rows = np.concatenate([u[1:-1].ravel(), poisoned[1:-1].ravel()])
    kept = np.delete(rows, n + 3 * 32 + 7)
    assert np.array_equal(fm.target, kept)
    assert fm.gram[0, 0] == pytest.approx(float(np.sum(kept ** -2.0)),
                                          rel=1e-13)
    assert fm.rhs[0] == pytest.approx(float(kept.size), rel=1e-13)
    first = evaluate_features(trajs[:1], finite_differences, [P("1/u")],
                              P("u"))
    assert np.array_equal(fm.target[:n], first.target)


def three_trajectories(poison=False):
    x = np.arange(32) * (2.0 * math.pi / 32)
    t = np.linspace(0.0, 1.0, 12)
    grids = []
    for k in range(3):
        u = 3.0 + np.sin(x + k)[None, :] * np.exp(np.cos(t))[:, None]
        if poison and k == 1:
            u[5, 9] = 0.0               # 1/u is infinite at one point
        grids.append(TrajectoryGrid(x, t, u))
    return grids


def jet_columns(jet):
    """name -> the binding broadcast whole, raveled in (t index, x index)
    order."""
    return {name: arr.ravel()
            for name, arr in zip(jet, np.broadcast_arrays(*jet.values()))}


def column_reference(jets, feats, target):
    """(values, target) assembled one strided column at a time."""
    parts = [jet_columns(jet) for jet in jets]
    binding = {name: np.concatenate([b[name] for b in parts])
               for name in parts[0]}
    values = np.empty((binding["u"].size, len(feats)))
    for c, e in enumerate(feats):
        values[:, c] = evaluate_array(e, binding)
    tvec = evaluate_array(target, binding)
    keep = np.isfinite(tvec) & np.all(np.isfinite(values), axis=1)
    return values[keep], tvec[keep]


@pytest.mark.parametrize("poison", [False, True], ids=["kept", "dropped"])
@pytest.mark.parametrize("estimate", [finite_differences, spectral_jets])
def test_feature_major_values_match_a_column_reference(estimate, poison):
    trajs = three_trajectories(poison)
    feats = [P(s) for s in ("u", "u*u_x", "u_xx", "1/u", "u*u_xxx",
                            "u_xxxx")]
    target = P("u_t")
    values, tvec = column_reference([estimate(tr, n=4) for tr in trajs],
                                    feats, target)
    fm = evaluate_features(trajs, estimate, feats, target)
    assert fm.dropped == int(poison)
    assert fm.n_rows == tvec.size
    assert np.array_equal(fm.target, tvec)
    # each entry within 1e-14 of the Cauchy-Schwarz bound on its size
    gram, rhs, yty = values.T @ values, values.T @ tvec, tvec @ tvec
    norms = np.sqrt(np.diag(gram))
    assert np.all(np.abs(fm.gram - gram) <= 1e-14 * np.outer(norms, norms))
    assert np.all(np.abs(fm.rhs - rhs) <= 1e-14 * norms * np.sqrt(yty))
    assert abs(fm.yty - yty) <= 1e-14 * yty


def test_lazy_jets_of_no_trajectories_are_a_grid_error():
    with pytest.raises(GridTooSmallError):
        evaluate_features([], finite_differences, [P("u")], P("u_t"))


def test_an_empty_iterator_is_the_same_grid_error():
    errors = []
    for empty in ([], iter(())):
        with pytest.raises(GridTooSmallError) as err:
            evaluate_features(empty, finite_differences, [P("u")], P("u_t"))
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "no trajectories to evaluate features on"


@pytest.mark.parametrize("estimate", [finite_differences, spectral_jets])
def test_a_window_binds_t_and_x_as_views_of_the_grid(kdv_jet, monkeypatch,
                                                      estimate):
    # nothing is allocated for t and x: each window's are views of the
    # trajectory's own, a (rows, 1) column and a (1, nx) row
    tr, _ = kdv_jet
    bound = []
    add = jetgrid.FeatureMatrix.add

    def spy(self, binding):
        bound.append(binding)
        return add(self, binding)

    monkeypatch.setattr(jetgrid.FeatureMatrix, "add", spy)
    evaluate_features([tr], estimate, [P("u*u_x")], P("exp(-t/t0)*u_t + x"),
                      constants={"t0": 1.0})
    assert len(bound) > 1
    for binding in bound:
        assert binding["t"].shape == (binding["u"].shape[0], 1)
        assert binding["x"].shape == (1, tr.x.size)
        assert np.shares_memory(binding["t"], tr.t)
        assert np.shares_memory(binding["x"], tr.x)
    times = np.concatenate([b["t"][:, 0] for b in bound])
    halo = 1 if estimate is finite_differences else 3
    assert np.array_equal(times, tr.t[halo:-halo])


KDV = builtin_set("kdv")


@pytest.mark.parametrize("feats, target, order", [
    ([P("u")], P("u_t"), 1),
    ([P("u"), P("u*u_x"), P("u_xx")], P("u_t"), 2),
    ([P("u_x")], P("u_t + u_xxx"), 3),
    (KDV.rhs_features(), KDV.lhs, 4),
], ids=["u", "to-u_xx", "target-u_xxx", "kdv-invariants"])
def test_jet_order_is_the_expressions_highest(feats, target, order):
    orders = []

    def estimate(traj, n, rows):
        orders.append(n)
        return finite_differences(traj, n=n, rows=rows)

    trajs = three_trajectories()
    evaluate_features(trajs, estimate, feats, target)
    assert orders == [order] * len(trajs)


@pytest.mark.parametrize("poison", [False, True], ids=["kept", "dropped"])
@pytest.mark.parametrize("estimate", [finite_differences, spectral_jets])
def test_derived_order_matches_order_4_jets(estimate, poison):
    # each x-derivative is computed independently of n, so the bits agree
    trajs = three_trajectories(poison)
    feats = [P(s) for s in ("u", "u*u_x", "1/u", "u_xx")]
    target = P("u_t")
    fm = evaluate_features(trajs, estimate, feats, target)
    ref = evaluate_features(
        trajs, lambda tr, n, rows: estimate(tr, n=4, rows=rows), feats,
        target)
    assert fm.order == 2
    assert fm.dropped == ref.dropped == int(poison)
    assert np.array_equal(fm.target, ref.target)
    assert np.array_equal(fm.sums, ref.sums)


@pytest.mark.parametrize("estimator", [finite_differences, spectral_jets])
def test_lazy_jets_are_released_before_the_next_estimate(estimator,
                                                         monkeypatch):
    refs = []

    def estimate(traj, n, rows):
        # every earlier window's arrays are already gone
        assert all(r() is None for r in refs)
        jet = estimator(traj, n=n, rows=rows)
        refs.extend(weakref.ref(a) for a in jet.values())
        return jet

    # three windows of four time rows on each 12-row trajectory
    monkeypatch.setattr(jetgrid, "WINDOW_POINTS", 4 * 32)
    trajs = three_trajectories()
    fm = evaluate_features(trajs, estimate, [P("u*u_x")], P("u_t"))
    # order 1: t, x, u, u_t and u_x per window
    assert len(refs) == 3 * 5 * len(trajs) and fm.dropped == 0
    assert all(r() is None for r in refs)


@pytest.mark.parametrize("sigma", [0.0, 1e-3], ids=["spectral", "fd2"])
def test_feature_matrix_holds_the_jets_of_one_trajectory_at_a_time(sigma):
    # at most one window's jets, in fact
    solver = default_config("ks").to_dict()
    solver["nt"] = 200
    cfg = hz.ExperimentConfig(system="ks", method="sindy", runs=1, seed=3,
                              solver=solver, long_term=False,
                              noise_sigma=sigma)
    trains = hz._trajectories(hz._solve_sets(cfg, (0,))[0])
    tracemalloc.start()
    try:
        fm = hz.build_feature_matrix(cfg, trains)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = 8 * fm.target.size            # bytes of one float per row
    one_jet = 5 * row / len(trains)     # u_t and four x-derivatives
    window = 8 * (len(fm.columns) + 1) * WINDOW_POINTS
    # the target and window-sized buffers, less than the jets of all four
    # trajectories
    assert len(trains) == 4 and fm.dropped == 0
    assert peak < row + 3 * window
    assert peak < 4 * one_jet


# ---------------------------------------------------------------------------
# the windowed pass


@pytest.mark.parametrize("estimate", [finite_differences, spectral_jets])
def test_windowed_jets_are_bit_equal_to_whole_trajectory_jets(estimate):
    # windows of 7 time rows over 45, the last one short; dt and h come
    # from the whole trajectory, and the stencils and FFTs act row by row
    rng = np.random.default_rng(5)
    x = np.arange(64) * (20.0 / 64)
    t = np.arange(45) * 0.01
    tr = TrajectoryGrid(x, t, rng.normal(size=(45, 64)))
    whole = estimate(tr, n=4)
    windows = [estimate(tr, n=4, rows=(lo, lo + 7)) for lo in range(0, 45, 7)]
    # the windows' t columns join, without gap or overlap, into the whole's
    for name, arr in whole.items():
        if name == "x":
            assert all(w["x"].tobytes() == arr.tobytes() for w in windows)
            continue
        joined = np.concatenate([w[name] for w in windows])
        assert joined.tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("estimate", [finite_differences, spectral_jets])
def test_windows_of_halo_rows_add_nothing(estimate, monkeypatch):
    # windows of one time row over 12: the first and last halo (one row for
    # fd2, three for spectral) have no full stencil, so their windows are
    # empty, and the constant nu must not make them one row long
    trajs = three_trajectories()
    feats, target = [P("u*u_x")], P("u_t + nu*u_xx")
    whole = evaluate_features(trajs, estimate, feats, target,
                              constants={"nu": 0.1})
    monkeypatch.setattr(jetgrid, "WINDOW_POINTS", 32)
    fm = evaluate_features(trajs, estimate, feats, target,
                           constants={"nu": 0.1})
    assert fm.n_rows == whole.n_rows and fm.dropped == 0
    assert fm.target.tobytes() == whole.target.tobytes()
    norms = np.sqrt(np.diag(whole.sums))
    assert np.all(np.abs(fm.sums - whole.sums)
                  <= 1e-13 * np.outer(norms, norms))


@pytest.mark.parametrize("system, nt, sigma", [
    ("burgers", 385, 1e-3),     # fd2, halo 1: the last window is 1 row
    ("nkdv", 67, 0.0),          # spectral, halo 3: the last window is 3 rows
], ids=["burgers-fd2", "nkdv-spectral"])
def test_a_last_window_of_halo_rows_leaves_the_fit_whole(system, nt, sigma):
    # at nx 256 a window is 64 time rows; nu and t0 are solver constants
    solver = {**default_config(system).to_dict(), "nx": 256, "nt": nt}
    cfg = hz.ExperimentConfig(system=system, method="sindy", runs=1, seed=3,
                              solver=solver, long_term=False,
                              noise_sigma=sigma)
    halo = 1 if sigma else 3
    assert 0 < nt % (WINDOW_POINTS // 256) <= halo
    trains = hz._solve_sets(cfg, (0,))[0]
    truth = hz.ground_truth(system, cfg.target, cfg.features,
                            cfg.solver.params)
    row, _ = hz._fit_run(cfg, 0, trains, truth)
    assert row["status"] == "ok", row["message"]
    assert row["n_rows"] + row["dropped"] == \
        len(trains) * (nt - 2 * halo) * 256


@pytest.fixture(scope="module")
def ks_equivr_run():
    """One run of the KS equiv-r benchmark config (sigma 1e-3, lam 1e-2):
    four trajectories, about 1 M rows."""
    cfg = hz.ExperimentConfig(system="ks", method="equiv-r", runs=1, seed=7,
                              lam=1e-2, noise_sigma=1e-3, long_term=False)
    return cfg, hz._trajectories(hz._solve_sets(cfg, (0,))[0])


def test_one_ks_run_is_bounded_by_the_window(ks_equivr_run):
    cfg, trains = ks_equivr_run
    hz.build_feature_matrix(cfg, trains[:1])     # fill the action cache
    tracemalloc.start()
    try:
        fm = hz.build_feature_matrix(cfg, trains)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 8-byte target value per row and window-sized buffers
    window = 8 * len(fm.exprs) * WINDOW_POINTS
    assert peak < 8 * fm.target.size + 3 * window, peak
    # the library, the target and galilean's one action term, 1
    assert fm.target.size > 1_000_000
    assert len(fm.exprs) == len(fm.columns) + 2


def test_a_handed_over_set_sums_like_a_list(ks_equivr_run):
    # every run of this config fits an empty support, so its report cannot
    # show a change to the sums; compare them here
    cfg, trains = ks_equivr_run
    listed = hz.build_feature_matrix(cfg, trains)
    handed = list(trains)
    streamed = hz.build_feature_matrix(cfg, hz._handover(handed))
    assert handed == [] and len(trains) == 4
    assert streamed.sums.tobytes() == listed.sums.tobytes()
    assert (streamed.n_rows, streamed.dropped) == \
        (listed.n_rows, listed.dropped)


def check_penalties(cfg, trains):
    """The pass's sums, and each generator's penalty sums M^T S M, against
    the formulas on whole per-trajectory matrices, summed over
    trajectories."""
    fm = hz.build_feature_matrix(cfg, trains)
    exprs = list(cfg.features) + [cfg.target]
    pvs = [prolong(g, 4) for g in cfg.generators]
    sums = np.zeros((len(fm.exprs),) * 2)
    penalties = np.zeros((len(pvs),) + (len(exprs),) * 2)
    for tr in trains:
        binding = jet_columns(finite_differences(tr, n=4))
        ones = np.ones(binding["u"].size)
        block = np.array([evaluate_array(e, binding) * ones
                          for e in fm.exprs])
        sums += block @ block.T
        for k, pv in enumerate(pvs):
            block = np.array([evaluate_array(apply(pv, e), binding) * ones
                              for e in exprs])
            penalties[k] += block @ block.T
    assert fm.dropped == 0
    got = [fm.sums] + symmetry_penalties(fm, cfg.generators)
    for got, want in zip(got, [sums, *penalties]):
        norms = np.sqrt(np.diag(want))
        assert np.all(np.abs(got - want) <= 1e-12 * np.outer(norms, norms))
    return fm


def test_streamed_sums_match_the_whole_matrix(ks_equivr_run):
    fm = check_penalties(*ks_equivr_run)
    assert [to_string(e) for e in fm.exprs[len(fm.columns) + 1:]] == ["1"]


def test_penalties_of_a_library_the_actions_leave(ks_equivr_run, tmp_path):
    # galilean takes x*u to t*u + x, so the pass sums 14 action terms
    # outside the library and the target
    cfg, trains = ks_equivr_run
    lib = {"inputs": ["u", "u_x", "u_xx", "u_xxx", "u_xxxx", "x*u"]}
    wide = hz.ExperimentConfig(**{**cfg.to_dict(), "library": lib})
    fm = check_penalties(wide, trains[:1])
    extra = [to_string(e) for e in fm.exprs[len(fm.columns) + 1:]]
    assert len(extra) == 14 and extra[:3] == ["1", "x", "t*u"]
    report = hz.run_experiment(wide, out_dir=tmp_path)
    assert report.rows[0]["status"] == "ok", report.rows[0]["message"]


def test_binding_feeds_the_symmetry_criterion(kdv_jet):
    # the estimator's binding, t and x broadcast against the jets
    tr, binding = kdv_jet
    assert binding["u"].shape == (tr.t.size - 2, tr.x.size)
    f = P("u_t + u*u_x + u_xxx")
    scaling = VectorField(SPACE, xi=(P("3*t"), P("x")), phi=(P("-2*u"),))
    rep = check_symmetry_criterion(prolong(scaling, 4), f)
    assert not rep.symbolic_zero
    on_jet = evaluate_array(rep.residual, binding)
    assert on_jet.shape == binding["u"].shape
    # the residual is -5 F, which a KdV solution's jets zero up to their
    # truncation error: about 1% of the size of its 5 u_t term
    assert np.allclose(on_jet, -5.0 * evaluate_array(f, binding),
                       rtol=1e-12, atol=1e-12)
    assert np.abs(on_jet).max() < 0.05 * np.abs(5.0 * binding["u_t"]).max()
