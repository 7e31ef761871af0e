"""Solver and model-integration checks: conservation, refinement, round trips.

The convergence bounds here were measured on this implementation and then
frozen with headroom; the physical invariants (mass, dissipation) sit near
machine precision because the spectral zero mode is exactly stationary.
"""

import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from liesindy.dynamics import (
    BlowUpError, ConfigError, DynamicsError, SolverConfig, TrajectoryGrid,
    UnsupportedModelError, add_noise, builtin_configs, default_config,
    integrate_model, load_trajectories, sample_initial_condition,
    save_trajectories, solve_pde,
)
from liesindy import LiesindyError
from liesindy.expr import JetSpace, MissingSymbolError, parse
from nkdv_oracle import solve_nkdv_direct

SPACE = JetSpace(("t", "x"), ("u",), 4)


def P(s):
    return parse(s, SPACE)


def truth_model(target, features, weights):
    return SimpleNamespace(target=P(target),
                           features=[P(f) for f in features],
                           weights=np.asarray(weights, dtype=float))


@pytest.fixture(scope="module")
def kdv_run():
    cfg = default_config("kdv")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=7)
    return cfg, ic, solve_pde("kdv", ic, cfg)


# ---------------------------------------------------------------------------
# configuration


def test_default_configs_cover_all_systems():
    cfgs = builtin_configs()
    assert set(cfgs) == {"kdv", "ks", "burgers", "nkdv"}
    assert cfgs["kdv"].nx == 256 and cfgs["kdv"].horizon == pytest.approx(5.0)
    assert cfgs["ks"].length == pytest.approx(32.0 * math.pi)
    assert cfgs["ks"].transient == pytest.approx(25.0)
    assert cfgs["burgers"].scheme == "rk4-spectral"
    assert cfgs["burgers"].params["nu"] == pytest.approx(0.1)
    assert cfgs["nkdv"].params["t0"] == pytest.approx(1.0)


@pytest.mark.parametrize("kwargs", [
    {"system": "heat"},
    {"system": "kdv", "nx": 100},          # not a power of two
    {"system": "kdv", "nx": 8},
    {"system": "kdv", "nt": 4},
    {"system": "kdv", "dt": 0.0},
    {"system": "kdv", "length": -1.0},
    {"system": "kdv", "scheme": "euler"},
    {"system": "kdv", "transient": -1.0},
    {"system": "kdv", "transient": 0.0105},  # not a whole step count
    {"system": "burgers"},                   # nu missing
    {"system": "nkdv"},                      # t0 missing
    {"system": "nkdv", "params": {"t0": 1.0}, "transient": 1.0},
    {"system": "kdv", "dt": float("nan")},
    {"system": "kdv", "transient": float("nan")},
    {"system": "kdv", "length": float("nan")},
    {"system": "kdv", "length": float("inf")},
    {"system": "burgers", "params": {"nu": float("nan")}},
    {"system": "nkdv", "params": {"t0": float("nan")}},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs)


def test_config_round_trip():
    cfg = default_config("nkdv")
    again = SolverConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.params is not cfg.params


@pytest.mark.parametrize("edit, msg", [
    (lambda d: {k: v for k, v in d.items() if k != "system"}, "system"),
    (lambda d: {**d, "nx": "256"}, "'nx' must be an integer"),
    (lambda d: {**d, "dt": None}, "'dt' must be a number"),
    (lambda d: {**d, "dealias": 1}, "'dealias' must be true or false"),
    (lambda d: {**d, "params": [1.0]}, "'params' must be an object"),
    (lambda d: {**d, "params": {"t0": "1"}}, "'t0' must be a number"),
    (lambda d: {**d, "dt": float("nan")}, "'dt' must be finite"),
    (lambda d: {**d, "length": float("inf")}, "'length' must be finite"),
    (lambda d: {**d, "params": {"t0": float("-inf")}}, "'t0' must be finite"),
])
def test_config_values_are_type_checked(edit, msg):
    with pytest.raises(ConfigError, match=msg):
        SolverConfig.from_dict(edit(default_config("nkdv").to_dict()))


def test_solve_rejects_mismatched_config():
    cfg = default_config("kdv")
    with pytest.raises(ConfigError):
        solve_pde("ks", sample_initial_condition(cfg.nx, cfg.length, 0), cfg)


def test_solve_rejects_wrong_ic_length():
    cfg = default_config("kdv")
    with pytest.raises(ConfigError):
        solve_pde("kdv", np.zeros(64), cfg)


def test_trajectory_grid_validation():
    x = np.arange(32) * 0.5
    t = np.arange(10) * 0.1
    with pytest.raises(ConfigError):
        TrajectoryGrid(x, t, np.zeros((32, 10)))   # transposed
    bad = np.zeros((10, 32))
    bad[3, 4] = np.nan
    with pytest.raises(ConfigError):
        TrajectoryGrid(x, t, bad)
    tr = TrajectoryGrid(x, t, np.zeros((10, 32)))
    assert tr.h == pytest.approx(0.5)
    assert tr.dt == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# initial conditions and noise


def test_initial_condition_is_zero_mean_and_deterministic():
    a = sample_initial_condition(256, 20.0, seed=3)
    b = sample_initial_condition(256, 20.0, seed=3)
    c = sample_initial_condition(256, 20.0, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(a.mean()) < 1e-12


def test_initial_condition_forced_modes():
    nx, length = 128, 2.0 * math.pi
    u0 = sample_initial_condition(nx, length, seed=0,
                                  modes=[(1.0, 1, 0.0)])
    x = np.arange(nx) * (length / nx)
    assert np.allclose(u0, np.sin(x), atol=1e-12)


def test_initial_condition_refines_consistently():
    # the mode draw depends only on the seed, so the coarse grid samples
    # the same smooth function at every other point of the fine grid
    coarse = sample_initial_condition(256, 20.0, seed=9)
    fine = sample_initial_condition(512, 20.0, seed=9)
    assert np.allclose(coarse, fine[::2], atol=1e-12)


def test_add_noise_scale_and_determinism(kdv_run):
    _, _, tr = kdv_run
    noisy = add_noise(tr, 1e-3, seed=21)
    again = add_noise(tr, 1e-3, seed=21)
    other = add_noise(tr, 1e-3, seed=22)
    assert np.array_equal(noisy.u, again.u)
    assert not np.array_equal(noisy.u, other.u)
    ratio = np.std(noisy.u - tr.u) / np.std(tr.u)
    assert ratio == pytest.approx(1e-3, rel=0.05)
    assert noisy.meta["noise_sigma"] == pytest.approx(1e-3)


def test_add_noise_zero_sigma_copies(kdv_run):
    _, _, tr = kdv_run
    clean = add_noise(tr, 0.0, seed=5)
    assert np.array_equal(clean.u, tr.u)
    assert clean.u is not tr.u
    assert clean.meta["noise_sigma"] == 0.0


# ---------------------------------------------------------------------------
# ground-truth solves


def test_kdv_conserves_mass(kdv_run):
    _, _, tr = kdv_run
    mass = tr.u.sum(axis=1) * tr.h
    assert np.max(np.abs(mass - mass[0])) < 1e-12


def test_kdv_conserves_shifted_mass():
    # nonzero mean: the zero mode is stationary for the spectral stepper
    cfg = default_config("kdv")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=11) + 2.0
    tr = solve_pde("kdv", ic, cfg)
    mass = tr.u.sum(axis=1) * tr.h
    assert np.max(np.abs(mass - mass[0])) / max(1.0, abs(mass[0])) < 1e-12


def test_kdv_time_refinement(kdv_run):
    cfg, ic, tr = kdv_run
    half = SolverConfig("kdv", nx=cfg.nx, length=cfg.length, dt=cfg.dt / 2,
                        nt=2 * cfg.nt)
    tr_half = solve_pde("kdv", ic, half)
    # t = 4.99 is the last row of tr and the second-to-last of tr_half
    assert tr_half.t[-2] == pytest.approx(tr.t[-1])
    assert np.max(np.abs(tr_half.u[-2] - tr.u[-1])) < 1e-6


def test_kdv_space_refinement(kdv_run):
    cfg, _, tr = kdv_run
    big = SolverConfig("kdv", nx=2 * cfg.nx, length=cfg.length, dt=cfg.dt,
                       nt=cfg.nt)
    ic_big = sample_initial_condition(big.nx, big.length, seed=7)
    tr_big = solve_pde("kdv", ic_big, big)
    assert np.max(np.abs(tr_big.u[-1][::2] - tr.u[-1])) < 1e-8


def test_solve_is_bit_deterministic(kdv_run):
    cfg, ic, tr = kdv_run
    again = solve_pde("kdv", ic, cfg)
    assert np.array_equal(again.u, tr.u)


def test_solve_meta_merging(kdv_run):
    cfg, ic, _ = kdv_run
    tr = solve_pde("kdv", ic, cfg, meta={"run": 3})
    assert tr.meta["run"] == 3
    assert tr.meta["system"] == "kdv"
    assert tr.meta["noise_sigma"] == 0.0


def test_burgers_dissipates():
    cfg = default_config("burgers")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    tr = solve_pde("burgers", ic, cfg)
    l2 = np.sqrt((tr.u ** 2).sum(axis=1) * tr.h)
    assert np.all(np.diff(l2) <= 0.0)
    assert l2[0] - l2[-1] > 1.0


def test_burgers_space_refinement():
    cfg = default_config("burgers")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    tr = solve_pde("burgers", ic, cfg)
    big = SolverConfig("burgers", nx=2 * cfg.nx, length=cfg.length,
                       dt=cfg.dt, nt=cfg.nt, scheme=cfg.scheme,
                       params=dict(cfg.params))
    tr_big = solve_pde("burgers", sample_initial_condition(
        big.nx, big.length, seed=5), big)
    assert np.max(np.abs(tr_big.u[-1][::2] - tr.u[-1])) < 1e-5


def test_ks_reaches_steady_turbulence():
    cfg = default_config("ks")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=13)
    tr = solve_pde("ks", ic, cfg)
    assert tr.u.shape == (cfg.nt, cfg.nx)
    assert np.all(np.isfinite(tr.u))
    assert tr.meta["transient"] == pytest.approx(25.0)
    assert tr.t[0] == 0.0
    # attractor amplitude, not the small initial data
    assert 0.5 < np.std(tr.u) < 1.5
    assert np.max(np.abs(tr.u)) < 10.0


def test_nkdv_substitution_matches_direct_integration():
    cfg = SolverConfig("nkdv", nx=256, length=20.0, dt=0.01, nt=50,
                       params={"t0": 1.0})
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=17)
    fast = solve_pde("nkdv", ic, cfg)
    slow = solve_nkdv_direct(ic, cfg)
    assert np.max(np.abs(fast.u - slow.u)) < 1e-6


def test_nkdv_honours_the_scheme():
    cfg = SolverConfig("nkdv", nx=256, length=20.0, dt=0.01, nt=50,
                       params={"t0": 1.0})
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=17)
    etd = solve_pde("nkdv", ic, cfg)
    cfg.scheme = "rk4-spectral"
    rk4 = solve_pde("nkdv", ic, cfg)
    assert not np.array_equal(rk4.u, etd.u)
    assert np.max(np.abs(rk4.u - etd.u)) < 1e-6


def test_blow_up_in_the_transient_has_a_negative_step():
    # ten discarded steps; the nonlinear term outruns rk4 at this dt
    cfg = SolverConfig("burgers", nx=64, length=2.0 * math.pi, dt=0.1, nt=8,
                       scheme="rk4-spectral", transient=1.0,
                       params={"nu": 0.01})
    ic = 10.0 * sample_initial_condition(cfg.nx, cfg.length, seed=3)
    with pytest.raises(BlowUpError) as err:
        solve_pde("burgers", ic, cfg)
    # transient step j (from 0) is guarded as step j - 10: the fourth blew up
    assert err.value.step == -7
    assert err.value.rows.shape == (0, cfg.nx)


def test_nkdv_direct_requires_nkdv_config():
    with pytest.raises(ConfigError):
        solve_nkdv_direct(np.zeros(256), default_config("kdv"))


# ---------------------------------------------------------------------------
# model integration


def test_integrate_kdv_truth_matches_solver(kdv_run):
    cfg, ic, tr = kdv_run
    model = truth_model("u_t + u*u_x", ["u_xxx"], [-1.0])
    mtr = integrate_model(model, ic, cfg)
    assert np.array_equal(mtr.u[0], ic)
    assert float(np.mean((mtr.u[-1] - tr.u[-1]) ** 2)) < 1e-10


def test_integrate_burgers_truth_matches_solver():
    cfg = default_config("burgers")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    tr = solve_pde("burgers", ic, cfg)
    model = truth_model("u_t + u*u_x", ["u_xx"], [0.1])
    mtr = integrate_model(model, ic, cfg)
    assert float(np.mean((mtr.u[-1] - tr.u[-1]) ** 2)) < 1e-12


def test_integrate_nkdv_truth_matches_solver():
    cfg = SolverConfig("nkdv", nx=256, length=20.0, dt=0.01, nt=100,
                       params={"t0": 1.0})
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=17)
    tr = solve_pde("nkdv", ic, cfg)
    model = truth_model("exp(-t/t0)*u_t + u*u_x", ["u_xxx"], [-1.0])
    mtr = integrate_model(model, ic, cfg)
    assert float(np.mean((mtr.u[-1] - tr.u[-1]) ** 2)) < 1e-12


def test_integrate_pure_transport_runs_to_horizon():
    # every retained weight zero: u_t + u*u_x = 0 must still integrate
    model = truth_model("u_t + u*u_x", ["u_xx", "u_xxx"], [0.0, 0.0])
    cfg = SolverConfig("kdv", nx=128, length=20.0, dt=0.01, nt=100)
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=3)
    tr = integrate_model(model, ic, cfg)
    assert tr.u.shape == (100, 128)
    assert np.max(np.abs(tr.u)) < 10.0


def test_integrate_detects_blow_up():
    # backward heat doubles the highest retained mode every few steps
    model = truth_model("u_t", ["u_xx"], [-1.0])
    cfg = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.01, nt=16)
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=2)
    with pytest.raises(BlowUpError) as err:
        integrate_model(model, ic, cfg)
    assert 0 < err.value.step < 16


@pytest.mark.parametrize("target,msg", [
    ("u_t^2", "affine"),
    ("t*u_t", "exp"),
    ("u*u_t + u*u_x", "affine"),
])
def test_integrate_rejects_bad_time_terms(target, msg):
    model = truth_model(target, ["u_x"], [0.0])
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    with pytest.raises(UnsupportedModelError, match=msg):
        integrate_model(model, np.zeros(64), cfg)


def test_integrate_rejects_explicit_coordinates():
    model = truth_model("u_t", ["x*u_x"], [1.0])
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    with pytest.raises(UnsupportedModelError):
        integrate_model(model, np.zeros(64), cfg)


def test_integrate_names_unbound_constants():
    model = truth_model("u_t", ["alpha*u_xx"], [1.0])
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    with pytest.raises(MissingSymbolError, match="alpha"):
        integrate_model(model, np.zeros(64), cfg)


# ---------------------------------------------------------------------------
# batches


def _short(system):
    """system's default grid cut to 40 samples; KS keeps 20 transient steps."""
    d = default_config(system).to_dict()
    d.update(nt=40, transient=1.0 if system == "ks" else 0.0)
    return SolverConfig.from_dict(d)


_TRUTH = {
    "kdv": ("u_t + u*u_x", ["u_xxx"], [-1.0]),
    "nkdv": ("exp(-t/t0)*u_t + u*u_x", ["u_xxx"], [-1.0]),
    "ks": ("u_t + u*u_x", ["u_xx", "u_xxxx"], [-1.0, -1.0]),
    "burgers": ("u_t + u*u_x", ["u_xx"], [0.1]),
}


@pytest.mark.parametrize("n", [1, 4, 11])
@pytest.mark.parametrize("system", ["kdv", "nkdv", "ks", "burgers"])
def test_batch_matches_one_at_a_time(system, n):
    cfg = _short(system)
    ics = np.array([sample_initial_condition(cfg.nx, cfg.length, seed=s)
                    for s in range(n)])
    metas = [{"ic_seed": s} for s in range(n)]
    model = truth_model(*_TRUTH[system])
    solved = solve_pde(system, ics, cfg, meta=metas)
    rolled = integrate_model(model, ics, cfg)
    assert len(solved) == len(rolled) == n
    for ic, meta, tr, mtr in zip(ics, metas, solved, rolled):
        solo = solve_pde(system, ic, cfg, meta=meta)
        assert np.array_equal(tr.u, solo.u)
        assert tr.meta == solo.meta
        assert np.array_equal(mtr.u, integrate_model(model, ic, cfg).u)


def test_one_member_blow_up_leaves_the_others():
    # u_t = u^2 blows up in finite time ~ 1/max(u0): only the scaled member
    # leaves the horizon
    model = truth_model("u_t", ["u^2"], [1.0])
    cfg = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.1, nt=16)
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for scale, s in ((0.2, 1), (0.2, 2), (3.0, 3), (0.2, 4))])
    out = integrate_model(model, ics, cfg)
    with pytest.raises(BlowUpError) as solo:
        integrate_model(model, ics[2], cfg)
    assert 0 < solo.value.step < cfg.nt
    assert isinstance(out[2], BlowUpError)
    assert out[2].step == solo.value.step
    assert np.array_equal(out[2].rows, solo.value.rows)
    for b in (0, 1, 3):
        assert np.array_equal(out[b].u, integrate_model(model, ics[b], cfg).u)


def test_solve_names_the_blown_member():
    cfg = SolverConfig("burgers", nx=64, length=2.0 * math.pi, dt=0.1, nt=16,
                       scheme="rk4-spectral", params={"nu": 0.01})
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for scale, s in ((0.5, 1), (10.0, 3), (0.5, 4))])
    with pytest.raises(BlowUpError) as solo:
        solve_pde("burgers", ics[1], cfg)
    with pytest.raises(BlowUpError, match="member 1") as err:
        solve_pde("burgers", ics, cfg)
    assert err.value.step == solo.value.step > 0
    assert np.array_equal(err.value.rows, solo.value.rows)


@pytest.mark.parametrize("ic, meta", [
    (np.zeros((2, 3, 64)), None),
    (np.zeros((2, 32)), None),
    (np.zeros((2, 64)), [{}]),
])
def test_batch_shapes_are_checked(ic, meta):
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    with pytest.raises(ConfigError):
        solve_pde("kdv", ic, cfg, meta=meta)


def test_etdrk4_coefficients_are_computed_once_per_grid(monkeypatch):
    from liesindy import dynamics
    calls = []
    coeffs = dynamics._etdrk4_coeffs

    def counted(lin, h):
        calls.append(h)
        return coeffs(lin, h)

    monkeypatch.setattr(dynamics, "_COEFFS", {})
    monkeypatch.setattr(dynamics, "_etdrk4_coeffs", counted)
    cfg = SolverConfig("nkdv", nx=64, length=20.0, dt=0.01, nt=20,
                       params={"t0": 1.0})
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    first = solve_pde("nkdv", ic, cfg)
    # one step size per output span (each shorter than KdV's dt of 0.01)
    assert len(calls) == len(set(calls)) == cfg.nt - 1
    again = solve_pde("nkdv", np.array([ic, ic]), cfg)
    assert len(calls) == cfg.nt - 1
    assert all(np.array_equal(tr.u, first.u) for tr in again)


# ---------------------------------------------------------------------------
# trajectory files


def test_save_load_round_trip(tmp_path, kdv_run):
    cfg, ic, tr = kdv_run
    noisy = add_noise(tr, 1e-3, seed=21)
    save_trajectories(tmp_path / "set", [tr, noisy], config=cfg)
    back, cfg_back = load_trajectories(tmp_path / "set")
    assert cfg_back == cfg
    assert len(back) == 2
    for orig, loaded in zip((tr, noisy), back):
        assert np.array_equal(loaded.u, orig.u)
        assert np.array_equal(loaded.t, orig.t)
        assert np.array_equal(loaded.x, orig.x)
        assert loaded.meta["noise_sigma"] == orig.meta["noise_sigma"]


def test_save_load_without_config(tmp_path, kdv_run):
    _, _, tr = kdv_run
    save_trajectories(tmp_path / "bare", [tr])
    back, cfg_back = load_trajectories(tmp_path / "bare")
    assert cfg_back is None
    assert np.array_equal(back[0].u, tr.u)


def test_save_rejects_empty_and_mismatched(tmp_path, kdv_run):
    cfg, _, tr = kdv_run
    with pytest.raises(DynamicsError):
        save_trajectories(tmp_path / "none", [])
    other = solve_pde("burgers",
                      sample_initial_condition(128, 2 * math.pi, seed=1),
                      default_config("burgers"))
    with pytest.raises(DynamicsError):
        save_trajectories(tmp_path / "mixed", [tr, other])


def test_save_layout(tmp_path, kdv_run):
    cfg, _, tr = kdv_run
    save_trajectories(tmp_path / "one", [tr], config=cfg)
    save_trajectories(tmp_path / "two", [tr], config=cfg)
    assert sorted(os.listdir(tmp_path / "one")) == ["manifest", "trajs.npz"]
    with np.load(tmp_path / "one" / "trajs.npz") as data:
        assert sorted(data.files) == ["t_0", "u_0", "x"]
    for name in ("manifest", "trajs.npz"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_save_load_members_of_different_length(tmp_path, kdv_run):
    _, _, tr = kdv_run
    short = TrajectoryGrid(tr.x, tr.t[:20], tr.u[:20], {"role": "short"})
    save_trajectories(tmp_path / "mixed", [tr, short])
    back, _ = load_trajectories(tmp_path / "mixed")
    assert [b.u.shape[0] for b in back] == [tr.t.size, 20]
    assert np.array_equal(back[1].u, short.u)
    assert back[1].meta == {"role": "short"}


def test_csv_layout_is_rejected(tmp_path, kdv_run):
    cfg, _, tr = kdv_run
    old = tmp_path / "old"
    old.mkdir()
    (old / "manifest").write_text(json.dumps(
        {"config": cfg.to_dict(), "x": [repr(float(v)) for v in tr.x],
         "count": 1, "trajs": [{"file": "traj_0.csv", "meta": {}}]}))
    (old / "traj_0.csv").write_text("t,x0\n0.0,0.0\n")
    with pytest.raises(LiesindyError, match="liesindy generate"):
        load_trajectories(old)


def test_manifest_listing_absent_member_is_rejected(tmp_path, kdv_run):
    _, _, tr = kdv_run
    save_trajectories(tmp_path / "set", [tr])
    manifest = tmp_path / "set" / "manifest"
    blob = json.loads(manifest.read_text())
    blob["trajs"].append({"meta": {}})
    manifest.write_text(json.dumps(blob))
    with pytest.raises(DynamicsError, match="t_1"):
        load_trajectories(tmp_path / "set")


@pytest.mark.parametrize("key, value, msg", [
    ("trajs", [1], "meta object"),
    ("trajs", [{"meta": 1}], "meta object"),
    ("trajs", [{}], "meta object"),
    ("trajs", 5, "meta object"),
    ("config", 1, "solver must be an object"),
])
def test_manifest_with_bad_entries_is_rejected(tmp_path, kdv_run, key, value,
                                               msg):
    _, _, tr = kdv_run
    save_trajectories(tmp_path / "set", [tr], config=default_config("kdv"))
    manifest = tmp_path / "set" / "manifest"
    blob = json.loads(manifest.read_text())
    blob[key] = value
    manifest.write_text(json.dumps(blob))
    with pytest.raises(DynamicsError, match=msg):
        load_trajectories(tmp_path / "set")
