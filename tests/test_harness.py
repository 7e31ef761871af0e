"""Experiment orchestration: configs, ground truth, metrics, reports."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from liesindy import harness as hz
from liesindy import LiesindyError, jetgrid
from liesindy.dynamics import (
    BlowUpError, ConfigError, DynamicsError, SolverConfig, TrajectoryGrid,
    default_config, sample_initial_condition,
)
from liesindy.expr import ExprError, parse, to_string
from liesindy.harness import (
    DiscoveryReport, ExperimentConfig, HarnessError, ground_truth,
    long_term_mse, run_experiment, success,
    generate_dataset, load_runs_csv, summarize_rows,
)
from liesindy.invariants import CatalogError
from liesindy.jetgrid import WINDOW_POINTS, GridTooSmallError
from liesindy.regress import (
    RegressionError, SparseModel, model_from_dict, symmetry_penalties,
)

P = lambda s: parse(s, hz.SPACE)

# coarse grid, short horizon: every experiment-level test stays subsecond
SMALL_KDV = dict(system="kdv", nx=64, length=20.0, dt=0.01, nt=60,
                 transient=0.0, params={})


def small_cfg(**over):
    kw = dict(system="kdv", method="di-sindy", runs=2, seed=11,
              solver=dict(SMALL_KDV), long_term=False)
    kw.update(over)
    return ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_resolve():
    cfg = ExperimentConfig(system="kdv", method="di-sindy")
    assert cfg.threshold == 0.5
    assert cfg.solver.to_dict() == default_config("kdv").to_dict()
    assert cfg.library == {"mode": "poly2",
                           "inputs": list(hz._BASELINE_INPUTS),
                           "include_constant": False}
    assert [to_string(f) for f in cfg.features] == \
        ["u_x", "u_xx", "u_xxx", "u_xxxx"]
    assert to_string(cfg.target) == "u_t + u*u_x"
    assert len(cfg.generators) == 3


def test_burgers_threshold_default():
    assert ExperimentConfig(system="burgers", method="sindy").threshold \
        == 5e-3
    cfg = ExperimentConfig(system="burgers", method="sindy", threshold=0.1)
    assert cfg.threshold == 0.1


def test_baseline_problem_shapes():
    cfg = ExperimentConfig(system="kdv", method="sindy")
    assert len(cfg.features) == 20
    assert to_string(cfg.target) == "u_t"
    assert cfg.generators is None
    reg = ExperimentConfig(system="nkdv", method="equiv-r", lam=1e-2)
    assert to_string(reg.target) == "exp(-t/t0)*u_t"
    assert len(reg.generators) == 3


@pytest.mark.parametrize("system, target", [
    ("kdv", "u_t"), ("ks", "u_t"), ("burgers", "u_t"),
    ("nkdv", "exp(-t/t0)*u_t"),
])
def test_baseline_target_is_the_truth_equations_u_t_term(system, target):
    # for sindy and equiv-r alike, and equal to the target parsed from text
    for method in ("sindy", "equiv-r"):
        cfg = ExperimentConfig(system=system, method=method)
        assert to_string(cfg.target) == target
        assert cfg.target == P(target)


@pytest.mark.parametrize("over,msg", [
    (dict(method="lasso"), "unknown method"),
    (dict(runs=0), "runs"),
    (dict(noise_sigma=-1e-3), "noise_sigma"),
    (dict(lam=-0.1), "lam"),
    (dict(threshold=0.0), "threshold"),
    (dict(noise_sigma=float("nan")), "noise_sigma must be finite"),
    (dict(threshold=float("nan")), "threshold must be finite"),
    (dict(lam=float("nan")), "lam must be finite"),
    (dict(noise_sigma=float("inf")), "noise_sigma must be finite"),
    (dict(seed=-1), "seed must be non-negative"),
])
def test_config_validation(over, msg):
    kw = dict(system="kdv", method="di-sindy")
    kw.update(over)
    with pytest.raises(HarnessError, match=msg):
        ExperimentConfig(**kw)


@pytest.mark.parametrize("system, inputs", [
    ("burgers", ["u", "u_x", "nu*u_xx"]),
    ("nkdv", ["u", "u_x", "u_xxx", "t0*u"]),
])
def test_a_library_input_may_read_its_systems_params(system, inputs):
    # only a constant the solver's params lack is refused
    cfg = ExperimentConfig(system=system, method="sindy",
                           library={"inputs": inputs})
    assert to_string(P(inputs[-1])) in [to_string(f) for f in cfg.features]


def test_solver_system_mismatch():
    with pytest.raises(ConfigError, match="solver is for"):
        ExperimentConfig(system="kdv", method="di-sindy",
                         solver=default_config("ks").to_dict())


def test_unknown_system_rejected():
    with pytest.raises(ConfigError, match="euler"):
        ExperimentConfig(system="euler", method="di-sindy",
                         solver=dict(SMALL_KDV, system="euler"))
    # known to the solver but absent from the truth catalog
    with pytest.raises(CatalogError):
        hz.truth_equation("so2-demo")


def test_config_round_trip(tmp_path):
    cfg = small_cfg(noise_sigma=1e-3, lam=0.25, method="equiv-r")
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.digest() == cfg.digest()
    path = tmp_path / "config.json"
    cfg.save(path)
    blob = json.loads(path.read_text())
    assert blob["digest"] == cfg.digest()   # stamped on save, ignored on load
    assert ExperimentConfig.load(path).to_dict() == cfg.to_dict()


def test_unknown_config_keys_rejected():
    d = small_cfg().to_dict()
    with pytest.raises(HarnessError, match="runz"):
        ExperimentConfig.from_dict({**d, "runz": 3})
    with pytest.raises(ConfigError, match="nxx"):
        ExperimentConfig.from_dict({**d, "solver": {**d["solver"], "nxx": 1}})


@pytest.mark.parametrize("edit, msg", [
    (lambda d: [1, 2], "JSON object"),
    (lambda d: {k: v for k, v in d.items() if k != "system"}, "system"),
    (lambda d: {k: v for k, v in d.items() if k != "method"}, "method"),
    (lambda d: {**d, "runs": "ten"}, "'runs' must be an integer"),
    (lambda d: {**d, "runs": True}, "'runs' must be an integer"),
    (lambda d: {**d, "lam": "0.1"}, "'lam' must be a number"),
    (lambda d: {**d, "solver": [64]}, "'solver' must be an object"),
    (lambda d: {**d, "long_term": 1}, "'long_term' must be true or false"),
    (lambda d: {**d, "library": {"inputz": ["u"]}}, "inputz"),
    (lambda d: {**d, "library": {"inputs": "u_x"}}, "'inputs' must be a list"),
    (lambda d: {**d, "library": {"inputs": [1]}}, "inputs must be strings"),
    (lambda d: {**d, "threshold": float("nan")}, "'threshold' must be finite"),
    (lambda d: {**d, "lam": float("inf")}, "'lam' must be finite"),
])
def test_config_values_are_type_checked(edit, msg):
    with pytest.raises(HarnessError, match=msg):
        ExperimentConfig.from_dict(edit(small_cfg().to_dict()))


def test_config_nulls_take_defaults():
    d = {**small_cfg().to_dict(), "threshold": None, "solver": None}
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.threshold == 0.5
    assert cfg.solver.to_dict() == default_config("kdv").to_dict()


def test_digest_separates_configs():
    base = small_cfg()
    assert small_cfg(seed=12).digest() != base.digest()
    # data digest ignores the method: both read the same trajectories
    assert small_cfg(method="sindy").data_digest() == base.data_digest()
    assert small_cfg(noise_sigma=1e-3).data_digest() != base.data_digest()


def test_method_label():
    assert small_cfg().method_label() == "di-sindy"
    lab = small_cfg(method="equiv-r", lam=0.01).method_label()
    assert lab == "equiv-r(lambda=0.01)"


# ---------------------------------------------------------------------------
# ground truth projection


def test_ground_truth_kdv_di():
    cfg = small_cfg()
    truth = ground_truth("kdv", cfg.target, cfg.features, {})
    assert truth.weights.tolist() == [0.0, 0.0, -1.0, 0.0]
    assert truth.mask.tolist() == [False, False, True, False]


@pytest.mark.parametrize("system,params,expected", [
    ("kdv", {}, {"u*u_x": -1.0, "u_xxx": -1.0}),
    ("ks", {}, {"u*u_x": -1.0, "u_xx": -1.0, "u_xxxx": -1.0}),
    ("burgers", {"nu": 0.1}, {"u*u_x": -1.0, "u_xx": 0.1}),
])
def test_ground_truth_poly2(system, params, expected):
    cfg = ExperimentConfig(system=system, method="sindy")
    truth = ground_truth(system, cfg.target, cfg.features, params)
    got = {to_string(f): w for f, w in zip(truth.features, truth.weights)
           if w != 0.0}
    assert got == pytest.approx(expected)


def test_ground_truth_nkdv_di():
    cfg = ExperimentConfig(system="nkdv", method="di-sindy")
    truth = ground_truth("nkdv", cfg.target, cfg.features,
                         cfg.solver.params)
    got = {to_string(f): w for f, w in zip(truth.features, truth.weights)
           if w != 0.0}
    assert got == {"u_xxx": -1.0}


def test_ground_truth_outside_library():
    with pytest.raises(HarnessError, match="outside the library"):
        ground_truth("kdv", P("u_t"), [P("u_x"), P("u_xx")], {})


# ---------------------------------------------------------------------------
# metrics


def _model(truth, mask):
    return SparseModel(target=truth.target, features=truth.features,
                       coef=truth.coef.copy(), mask=np.array(mask),
                       threshold=0.5)


def test_success_requires_aligned_features():
    cfg = small_cfg()
    truth = ground_truth("kdv", cfg.target, cfg.features, {})
    assert success(_model(truth, [False, False, True, False]), truth)
    assert not success(_model(truth, [True, False, True, False]), truth)
    assert not success(_model(truth, [False, False, False, False]), truth)
    shuffled = SparseModel(target=truth.target,
                           features=list(reversed(truth.features)),
                           coef=truth.coef, mask=truth.mask, threshold=0.5)
    with pytest.raises(HarnessError, match="do not align"):
        success(shuffled, truth)


def test_rmse_aggregates():
    cfg = small_cfg()
    truth = ground_truth("kdv", cfg.target, cfg.features, {})
    good = _model(truth, [False, False, True, False])
    good.coef = np.array([0.0, 0.0, -1.0 + 3e-3, 0.0])
    bad = _model(truth, [True, False, True, False])
    bad.coef = np.array([0.4, 0.0, -1.0, 0.0])

    def row(m, status="ok"):
        # a runs.csv row as the harness writes it for a fitted model
        return {"status": status, "success": int(success(m, truth)),
                "err_norm": repr(float(np.linalg.norm(m.weights -
                                                      truth.weights)))}

    rate, ok, allv = summarize_rows([row(good), row(bad)])
    assert rate == 0.5
    assert ok == pytest.approx(3e-3)
    assert allv == pytest.approx(np.sqrt((9e-6 + 0.16) / 2))
    rate, ok, allv = summarize_rows([row(bad)])
    assert (rate, ok) == (0.0, None)
    assert allv == pytest.approx(0.4)
    # a fitted model whose rollout raised counts toward the success rate,
    # not toward the RMSE
    assert summarize_rows([row(good, "error")]) == (1.0, None, None)
    assert summarize_rows([row(good, "error"), row(bad)])[1:] == \
        (None, pytest.approx(0.4))


# ---------------------------------------------------------------------------
# seed plumbing and data sets


def test_run_seeds_deterministic():
    a = hz._run_seeds(11, 0)
    assert a == hz._run_seeds(11, 0)
    assert a != hz._run_seeds(11, 1)
    assert a != hz._run_seeds(12, 0)
    assert len(a["train_ic"]) == len(a["test_ic"]) == len(a["noise"]) == 4


def test_holdout_seeds_shared_by_all_runs():
    cfg = small_cfg()
    held = hz.holdout_initial_seeds(cfg)
    for run in range(3):
        assert hz._run_seeds(cfg.seed, run)["train_ic"] != held


def train_set(cfg):
    """Run 0's training trajectories, as run_experiment solves them."""
    return hz._trajectories(hz._solve_sets(cfg, (0,))[0])


def held_out_set(cfg):
    """The four clean test trajectories shared by every run."""
    return hz._trajectories(hz._solve_sets(cfg, (), test=True)[0])


def test_train_and_test_sets():
    cfg = small_cfg(noise_sigma=1e-3)
    tests = held_out_set(cfg)
    trains = train_set(cfg)
    assert len(tests) == len(trains) == 4
    assert all(tr.meta["role"] == "test" for tr in tests)
    assert all(tr.meta["role"] == "train" for tr in trains)
    clean = train_set(small_cfg())
    # same ICs and solver, so only the injected noise separates them
    diff = np.abs(trains[0].u - clean[0].u)
    assert 0 < diff.max() < 1e-2


def test_stack_matches_concatenation():
    cfg = small_cfg(method="equiv-r", lam=0.1)
    trains = train_set(cfg)
    fm_a = hz.build_feature_matrix(cfg, trains[:1])
    fm_b = hz.build_feature_matrix(cfg, trains[1:2])
    fm_ab = hz.build_feature_matrix(cfg, trains[:2])
    # the second trajectory's rows follow the first's
    assert np.array_equal(fm_ab.target,
                          np.concatenate([fm_a.target, fm_b.target]))
    assert fm_ab.n_rows == fm_a.n_rows + fm_b.n_rows
    assert fm_ab.dropped == fm_a.dropped + fm_b.dropped
    # the pass summed the galilean generator's action term 1 beside the
    # library and the target
    assert [to_string(e) for e in fm_ab.exprs[len(cfg.features) + 1:]] \
        == ["1"]
    pairs = [(fm_ab.sums, fm_a.sums + fm_b.sums)]
    penalties = [symmetry_penalties(fm, cfg.generators)
                 for fm in (fm_ab, fm_a, fm_b)]
    pairs += [(ab, a + b) for ab, a, b in zip(*penalties)]
    for got, want in pairs:
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_feature_matrix_is_built_without_a_stacked_copy():
    # room for one 8-byte target value per row and window-sized buffers,
    # not for the 20 feature values of every row
    solver = default_config("ks").to_dict()
    solver["nt"] = 200
    cfg = ExperimentConfig(system="ks", method="sindy", runs=1, seed=3,
                           solver=solver, long_term=False)
    trains = train_set(cfg)
    tracemalloc.start()
    try:
        fm = hz.build_feature_matrix(cfg, trains)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trains) == 4 and len(fm.columns) == 20
    window = 8 * (len(fm.columns) + 1) * WINDOW_POINTS
    assert peak < 8 * fm.n_rows + 3 * window


def test_no_trajectories_is_a_grid_error():
    with pytest.raises(GridTooSmallError):
        hz.build_feature_matrix(small_cfg(), [])


@pytest.mark.parametrize("from_disk", [False, True],
                         ids=["in-memory", "data-dir"])
def test_each_training_trajectory_is_freed_once_summed(from_disk, tmp_path,
                                                       monkeypatch):
    cfg = small_cfg()
    data = None
    if from_disk:
        data = tmp_path / "data"
        generate_dataset(cfg, data)
    # three windows of 20 time rows on each 60-row trajectory
    monkeypatch.setattr(jetgrid, "WINDOW_POINTS", 20 * 64)
    clean = run_experiment(cfg, data_dir=data)
    seen = []           # a weakref to each trajectory the pass meets
    estimate = hz.spectral_jets

    def spy(traj, n, rows):
        if not seen or seen[-1]() is not traj:
            seen.append(weakref.ref(traj))
        # every earlier trajectory, of this run or an earlier one, is gone
        assert all(r() is None for r in seen[:-1])
        return estimate(traj, n=n, rows=rows)

    monkeypatch.setattr(hz, "spectral_jets", spy)
    rep = run_experiment(cfg, data_dir=data)
    assert len(seen) == cfg.runs * 4
    assert rep.rows == clean.rows


# ---------------------------------------------------------------------------
# long-term prediction


@pytest.fixture(scope="module")
def kdv_longterm():
    cfg = small_cfg()
    truth = ground_truth("kdv", cfg.target, cfg.features, {})
    tests = held_out_set(cfg)
    return cfg, truth, tests


def test_longterm_truth_floor(kdv_longterm):
    cfg, truth, tests = kdv_longterm
    [(mean, per_ic, blown)] = long_term_mse([truth], tests, cfg.solver)
    assert not blown
    assert len(mean) == cfg.solver.nt
    assert len(per_ic) == 4
    assert mean[0] == 0.0                       # the IC itself
    assert mean[-1] < 1e-12                     # round-off growth only


def test_longterm_wrong_model_grows(kdv_longterm):
    cfg, truth, tests = kdv_longterm
    wrong = SparseModel(target=truth.target, features=truth.features,
                        coef=np.array([0.0, 0.0, 1.0, 0.0]),
                        mask=np.array([False, False, True, False]),
                        threshold=0.5)
    (mean, _, blown), (tmean, _, _) = long_term_mse([wrong, truth], tests,
                                                    cfg.solver)
    assert not blown
    assert np.isfinite(mean).all()
    assert mean[10] > 1e6 * tmean[10]


def test_blown_rollout_keeps_its_finite_rows(monkeypatch):
    # backward heat, as in test_integrate_detects_blow_up: each IC blows up
    # within the 16-step horizon, and all are integrated in one batch
    solver = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.01,
                          nt=16)
    model = SparseModel(target=P("u_t"), features=[P("u_xx")],
                        coef=np.array([-1.0]), mask=np.array([True]),
                        threshold=0.5)
    x = np.arange(solver.nx) * (solver.length / solver.nx)
    t = np.arange(solver.nt) * solver.dt
    tests = []
    for seed in (2, 3):
        ic = sample_initial_condition(solver.nx, solver.length, seed=seed)
        tests.append(TrajectoryGrid(x, t, np.tile(ic, (solver.nt, 1))))
    calls, steps = [], []
    integrate = hz.integrate_model

    def spy(model, ics, cfg):
        calls.append((cfg.nt, ics.shape))
        out = integrate(model, ics, cfg)
        steps.extend(o.step for o in out if isinstance(o, BlowUpError))
        return out

    monkeypatch.setattr(hz, "integrate_model", spy)
    [(mean, per_ic, blown)] = long_term_mse([model], tests, solver)
    assert blown
    assert calls == [(solver.nt, (len(tests), solver.nx))]
    assert len(steps) == len(tests)
    assert [s.size for s in per_ic] == steps
    assert mean.size == min(steps)
    assert mean[0] == 0.0                       # the IC row itself
    assert all(np.isfinite(s).all() for s in per_ic)


# ---------------------------------------------------------------------------
# experiments end to end


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(small_cfg())


def test_small_experiment_aggregates(small_report):
    rep = small_report
    assert rep.success_rate == 1.0
    # noiseless, so spectral_jets: the value is the sixth-order u_t bias
    assert rep.rmse_successful == pytest.approx(5.806039558352048e-08,
                                                rel=1e-6)
    assert rep.rmse_all == rep.rmse_successful
    assert [r["status"] for r in rep.rows] == ["ok", "ok"]
    assert rep.longterm_mean is None
    assert rep.config.digest() == small_cfg().digest()
    for blob in rep.models:
        m = model_from_dict(blob, space=hz.SPACE)
        assert to_string(m.features[2]) == "u_xxx"


def test_report_files_and_determinism(tmp_path, small_report):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(small_cfg(), out_dir=out_a)
    run_experiment(small_cfg(), out_dir=out_b)
    for name in ("runs.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert sorted(os.listdir(out_a / "models")) == \
        ["run_0.json", "run_1.json"]
    assert (out_a / "config.json").exists()
    rows = load_runs_csv(out_a / "runs.csv")
    assert [r["run"] for r in rows] == ["0", "1"]
    assert float(rows[0]["err_norm"]) < 0.1


def test_runs_csv_records_jets_and_diagnostics(tmp_path, small_report):
    out = tmp_path / "rep"
    run_experiment(small_cfg(), out_dir=out)
    for row, blob in zip(load_runs_csv(out / "runs.csv"),
                         small_report.models):
        assert row["jets"] == "spectral"
        diag = blob["diagnostics"]
        assert float(row["condition_number"]) == diag["condition_number"]
        assert float(row["min_singular_value"]) == \
            diag["min_singular_value"]
        assert 1.0 <= diag["condition_number"] < np.inf
        # one mask per round, the last one the final support
        assert len(blob["history"]) == diag["iterations"]
        assert blob["history"][-1] == blob["M"]
    noisy = run_experiment(small_cfg(runs=1, noise_sigma=1e-3))
    assert noisy.rows[0]["jets"] == "fd2"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_empty_support_model_is_strict_json(tmp_path):
    # a threshold above every coefficient empties the support, whose
    # condition number is infinite
    out = tmp_path / "rep"
    rep = run_experiment(small_cfg(runs=1, threshold=1e6), out_dir=out)
    assert rep.rows[0]["active"] == ""
    text = (out / "models" / "run_0.json").read_text()
    blob = json.loads(text, parse_constant=_reject_constant)
    assert blob["model"]["M"] == [0, 0, 0, 0]
    assert blob["model"]["diagnostics"]["condition_number"] is None
    assert load_runs_csv(out / "runs.csv")[0]["condition_number"] == "inf"


def test_summary_matches_recomputed_aggregates(tmp_path, small_report):
    out = tmp_path / "rep"
    run_experiment(small_cfg(), out_dir=out)
    rate, ok, allv = summarize_rows(load_runs_csv(out / "runs.csv"))
    assert rate == small_report.success_rate
    assert ok == pytest.approx(small_report.rmse_successful, rel=1e-15)
    assert allv == pytest.approx(small_report.rmse_all, rel=1e-15)


def test_generate_then_discover_matches_in_memory(tmp_path, small_report):
    data = tmp_path / "data"
    out = tmp_path / "out"
    cfg = small_cfg()
    generate_dataset(cfg, data)
    assert (data / "dataset.json").exists()
    assert (data / "test" / "manifest").exists()
    rep = run_experiment(cfg, data_dir=data, out_dir=out)
    assert rep.rows == small_report.rows


# one cell per regression path: di-sindy with rollout (its discovered
# models step through the advection kernel), equiv-r with noise, sindy with
# noise
_PREFIX_CELLS = {
    "kdv-di-sindy": dict(system="kdv", method="di-sindy", long_term=True,
                         solver=SMALL_KDV),
    "ks-equiv-r": dict(system="ks", method="equiv-r", lam=1e-2,
                       noise_sigma=1e-3, long_term=False,
                       solver=dict(system="ks", nx=64,
                                   length=32.0 * math.pi, dt=0.05, nt=40)),
    "burgers-sindy": dict(system="burgers", method="sindy",
                          noise_sigma=1e-3, long_term=False,
                          solver=dict(system="burgers", nx=64,
                                      length=2.0 * math.pi, dt=0.005, nt=40,
                                      params={"nu": 0.1})),
}


@pytest.mark.parametrize("cell", sorted(_PREFIX_CELLS))
def test_a_run_does_not_depend_on_the_run_count(cell):
    # run r's row, model and long-term score are those of run r in a cell
    # with more runs, bit for bit: the runs are solved, fitted and rolled
    # out in batches whose members keep their own bits.  Both cells run on
    # this machine, so no digest is pinned across BLAS kernels
    two, three = (run_experiment(ExperimentConfig(
        runs=runs, seed=7, **_PREFIX_CELLS[cell])) for runs in (2, 3))
    assert [r["status"] for r in three.rows] == ["ok"] * 3
    assert two.rows == three.rows[:2]
    assert [json.dumps(m) for m in two.models] == \
        [json.dumps(m) for m in three.models[:2]]
    assert len(two.scores) == 2
    for got, want in zip(two.scores, three.scores):
        if got is None:
            assert want is None and not two.config.long_term
            continue
        (mean, per_ic, blown), (want_mean, want_per_ic, want_blown) = \
            got, want
        assert mean.tobytes() == want_mean.tobytes()
        assert [s.tobytes() for s in per_ic] == \
            [s.tobytes() for s in want_per_ic]
        assert blown == want_blown


_REPORTS_SCRIPT = """
import json, os, sys
from liesindy.harness import ExperimentConfig, run_experiment
for name, cell in json.loads(sys.argv[1]).items():
    run_experiment(ExperimentConfig(runs=2, seed=7, **cell),
                   out_dir=os.path.join(sys.argv[2], name))
"""


def _tree_bytes(root):
    """{path relative to root: bytes} of every file under root."""
    files = {}
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the Gram is one BLAS product per window, whose partitioning OpenBLAS
    # fixes from OPENBLAS_NUM_THREADS when it loads, so each count runs the
    # run-prefix cells in a process of its own; both run on this machine,
    # so no digest is pinned across BLAS kernels
    src = os.path.dirname(os.path.dirname(hz.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    trees = []
    for threads in (1, 2):
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", _REPORTS_SCRIPT,
             json.dumps(_PREFIX_CELLS), str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        trees.append(_tree_bytes(out))
    one, two = trees
    assert sorted(one) == sorted(two)
    assert {f"{cell}/runs.csv" for cell in _PREFIX_CELLS} <= set(one)
    for path in one:
        assert one[path] == two[path], path


def test_package_errors_share_one_root():
    for cls in (ExprError, DynamicsError, RegressionError, HarnessError,
                GridTooSmallError):
        assert issubclass(cls, LiesindyError)


def test_run_error_becomes_error_row(monkeypatch):
    def too_small(cfg, trains):
        raise GridTooSmallError("need nx >= 9 for order 4")

    monkeypatch.setattr(hz, "build_feature_matrix", too_small)
    rep = run_experiment(small_cfg(runs=1))
    assert rep.rows[0]["status"] == "error"
    assert rep.rows[0]["message"].startswith("GridTooSmallError: need nx")


def test_discover_without_long_term_skips_the_test_set(tmp_path,
                                                     monkeypatch):
    data = tmp_path / "data"
    cfg = small_cfg(runs=1)
    generate_dataset(cfg, data)
    loaded = []
    load = hz.load_trajectories

    def spy(path):
        loaded.append(os.path.basename(os.fspath(path)))
        return load(path)

    monkeypatch.setattr(hz, "load_trajectories", spy)
    rep = run_experiment(cfg, data_dir=data)
    assert rep.rows[0]["status"] == "ok"
    assert loaded == ["run_0"]


def test_dataset_digest_mismatch(tmp_path):
    data = tmp_path / "data"
    generate_dataset(small_cfg(), data)
    with pytest.raises(HarnessError, match="digest"):
        run_experiment(small_cfg(seed=12), data_dir=data)


def _count_calls(monkeypatch, *names):
    """Count the calls the harness makes to each of `names`."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in names:
        monkeypatch.setattr(hz, name, counted(name, getattr(hz, name)))
    return calls


def test_experiment_solves_once_and_rolls_out_once(tmp_path, monkeypatch):
    cfg = small_cfg(runs=3, long_term=True)
    calls = _count_calls(monkeypatch, "solve_pde", "integrate_model")
    rep = run_experiment(cfg, out_dir=tmp_path / "rep")
    assert calls == {"solve_pde": 1, "integrate_model": 1}
    assert [r["status"] for r in rep.rows] == ["ok"] * 3
    assert rep.longterm_counts == [3] * cfg.solver.nt
    # each run's series is its model's own rollout over the test set
    tests = held_out_set(cfg)
    for r, blob in enumerate(rep.models):
        saved = json.loads(
            (tmp_path / "rep" / "models" / f"run_{r}.json").read_text())
        [(mean, _, _)] = long_term_mse(
            [model_from_dict(blob, space=hz.SPACE)], tests, cfg.solver)
        assert saved["longterm"]["mean"] == [repr(float(v)) for v in mean]
    calls.update(solve_pde=0)
    generate_dataset(cfg, tmp_path / "data")
    assert calls["solve_pde"] == 1


def _spike(monkeypatch, seed):
    """Scale the IC drawn from `seed` past the blow-up guard."""
    sample = hz.sample_initial_condition

    def spiked(nx, length, s):
        ic = sample(nx, length, s)
        return 1e7 * ic if s == seed else ic

    monkeypatch.setattr(hz, "sample_initial_condition", spiked)


def test_blown_training_member_fails_only_its_run(monkeypatch):
    cfg = small_cfg(runs=3)
    clean = run_experiment(cfg)
    _spike(monkeypatch, hz._run_seeds(cfg.seed, 1)["train_ic"][2])
    rep = run_experiment(cfg)
    assert [r["status"] for r in rep.rows] == ["ok", "error", "ok"]
    assert rep.rows[1]["message"] == \
        "BlowUpError: member 2: solution blew up at step 0"
    assert rep.models[1] is None
    for r in (0, 2):
        assert rep.rows[r] == clean.rows[r]
        assert rep.models[r] == clean.models[r]


def test_blown_test_member_ends_the_experiment(monkeypatch):
    cfg = small_cfg(runs=2, long_term=True)
    _spike(monkeypatch, hz.holdout_initial_seeds(cfg)[1])
    with pytest.raises(BlowUpError,
                       match="^member 1: solution blew up at step 0$"):
        run_experiment(cfg)


def test_longterm_report_outputs(tmp_path):
    out = tmp_path / "lt"
    cfg = small_cfg(runs=1, long_term=True)
    rep = run_experiment(cfg, out_dir=out)
    assert len(rep.longterm_mean) == cfg.solver.nt
    assert rep.longterm_counts == [1] * cfg.solver.nt
    assert (out / "longterm.csv").exists()
    svg = (out / "longterm.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    blob = json.loads((out / "models" / "run_0.json").read_text())
    assert len(blob["longterm"]["mean"]) == cfg.solver.nt
    assert blob["longterm"]["blown"] is False
