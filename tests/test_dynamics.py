"""Solver and model-integration checks: conservation, refinement, round trips.

The convergence bounds here were measured on this implementation and then
frozen with headroom; the physical invariants (mass, dissipation) sit near
machine precision because the spectral zero mode is exactly stationary.
"""

import dataclasses
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from liesindy.dynamics import (
    BLOWUP_LIMIT, SYSTEMS, BlowUpError, ConfigError, DynamicsError,
    SolverConfig, TrajectoryGrid, UnsupportedModelError, add_noise,
    default_config, integrate_model, load_trajectories,
    sample_initial_condition, save_trajectories, solve_pde,
)
from liesindy import LiesindyError
from liesindy.expr import (
    JetSpace, MissingSymbolError, dep_vars_in, parse,
)
from nkdv_oracle import solve_nkdv_direct
from test_expr import _eval_arr

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
    return cfg, ic, solve_pde(cfg, ic[None])[0]


# ---------------------------------------------------------------------------
# configuration


def test_default_configs_cover_all_systems():
    cfgs = {s: default_config(s) for s in SYSTEMS}
    assert set(cfgs) == {"kdv", "ks", "burgers", "nkdv"}
    assert cfgs["kdv"].nx == 256
    assert cfgs["kdv"].dt * cfgs["kdv"].nt == pytest.approx(5.0)
    assert cfgs["ks"].length == pytest.approx(32.0 * math.pi)
    assert cfgs["ks"].transient == pytest.approx(25.0)
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
    {"system": "burgers", "params": {}},     # nu missing
    {"system": "nkdv", "params": {}},        # t0 missing
    {"system": "nkdv", "params": {"t0": 1.0}, "transient": 1.0},
    {"system": "kdv", "dt": float("nan")},
    {"system": "kdv", "transient": float("nan")},
    {"system": "kdv", "length": float("nan")},
    {"system": "kdv", "length": float("inf")},
    {"system": "burgers", "params": {"nu": float("nan")}},
    {"system": "nkdv", "params": {"t0": float("nan")}},
    # 2**62 x 256 float64s, refused before numpy is asked for them
    {"system": "kdv", "nt": 2 ** 62},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig.from_dict(kwargs)


def test_a_partial_solver_object_takes_its_systems_grid():
    cfg = SolverConfig.from_dict({"system": "burgers", "nx": 64})
    want = dataclasses.replace(default_config("burgers"), nx=64)
    assert cfg == want
    ics = np.array([sample_initial_condition(cfg.nx, cfg.length, seed=s)
                    for s in (1, 2)])
    for got, ref in zip(solve_pde(cfg, ics), solve_pde(want, ics)):
        assert got.u.tobytes() == ref.u.tobytes()
    ks = SolverConfig.from_dict({"system": "ks", "nt": 200})
    assert ks.length == 32.0 * math.pi and ks.transient == 25.0
    assert ks == dataclasses.replace(default_config("ks"), nt=200)
    # given params replace the system's whole
    assert SolverConfig.from_dict(
        {"system": "burgers", "params": {"nu": 0.5}}).params == {"nu": 0.5}


def _counted(calls, name, made):
    """made, appending name to calls on each call."""
    def counted(*args):
        calls.append(name)
        return made(*args)

    return counted


@pytest.mark.parametrize("system", SYSTEMS)
def test_each_system_steps_by_its_own_scheme(monkeypatch, system):
    # ETDRK4 for the stiff dispersive systems, IF-RK4 for Burgers
    from liesindy import dynamics
    calls = []
    for name in ("_make_ifrk4", "_etdrk4_steps"):
        monkeypatch.setattr(dynamics, name,
                            _counted(calls, name, getattr(dynamics, name)))
    cfg = _short(system)
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=1)
    assert not isinstance(solve_pde(cfg, ic[None])[0], Exception)
    assert set(calls) == {"_make_ifrk4" if system == "burgers"
                          else "_etdrk4_steps"}


@pytest.mark.parametrize("system", SYSTEMS)
def test_an_older_configs_scheme_and_dealias_keys_are_dropped(system):
    scheme = "rk4-spectral" if system == "burgers" else "etdrk4"
    d = default_config(system).to_dict()
    assert SolverConfig.from_dict(
        {**d, "scheme": scheme, "dealias": True}) == default_config(system)
    other = "etdrk4" if system == "burgers" else "rk4-spectral"
    with pytest.raises(ConfigError, match=f"solver key 'scheme' is fixed at "
                                          f'"{scheme}" for {system}, not '
                                          f'"{other}"'):
        SolverConfig.from_dict({**d, "scheme": other})
    with pytest.raises(ConfigError, match="solver key 'dealias' is fixed at "
                                          "true for .*, not false"):
        SolverConfig.from_dict({**d, "dealias": False})


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


def test_solve_rejects_wrong_ic_length():
    cfg = default_config("kdv")
    with pytest.raises(ConfigError):
        solve_pde(cfg, np.zeros((1, 64)))


def test_trajectory_grid_validation():
    x = np.arange(32) * 0.5
    t = np.arange(10) * 0.1
    with pytest.raises(ConfigError):
        TrajectoryGrid(x, t, np.zeros((32, 10)))   # transposed
    with pytest.raises(ConfigError, match="1-D"):
        TrajectoryGrid(x.reshape(2, 16), t, np.zeros((10, 32)))
    with pytest.raises(ConfigError, match="1-D"):
        TrajectoryGrid(x, t.reshape(10, 1), np.zeros((10, 32)))
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
    # the same bits as u + n, and the clean field is left as it was
    before = tr.u.tobytes()
    scale = 1e-3 * float(np.std(tr.u))
    draw = np.random.default_rng(21).normal(0.0, scale, tr.u.shape)
    assert add_noise(tr, 1e-3, seed=21).u.tobytes() == (tr.u + draw).tobytes()
    assert tr.u.tobytes() == before


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
    tr = solve_pde(cfg, ic[None])[0]
    mass = tr.u.sum(axis=1) * tr.h
    assert np.max(np.abs(mass - mass[0])) / max(1.0, abs(mass[0])) < 1e-12


def test_kdv_time_refinement(kdv_run):
    cfg, ic, tr = kdv_run
    half = SolverConfig("kdv", nx=cfg.nx, length=cfg.length, dt=cfg.dt / 2,
                        nt=2 * cfg.nt)
    tr_half = solve_pde(half, ic[None])[0]
    # t = 4.99 is the last row of tr and the second-to-last of tr_half
    assert tr_half.t[-2] == pytest.approx(tr.t[-1])
    assert np.max(np.abs(tr_half.u[-2] - tr.u[-1])) < 1e-6


def test_kdv_space_refinement(kdv_run):
    cfg, _, tr = kdv_run
    big = SolverConfig("kdv", nx=2 * cfg.nx, length=cfg.length, dt=cfg.dt,
                       nt=cfg.nt)
    ic_big = sample_initial_condition(big.nx, big.length, seed=7)
    tr_big = solve_pde(big, ic_big[None])[0]
    assert np.max(np.abs(tr_big.u[-1][::2] - tr.u[-1])) < 1e-8


def test_solve_is_bit_deterministic(kdv_run):
    cfg, ic, tr = kdv_run
    again = solve_pde(cfg, ic[None])[0]
    assert np.array_equal(again.u, tr.u)


def test_solve_meta_merging(kdv_run):
    cfg, ic, _ = kdv_run
    [tr] = solve_pde(cfg, ic[None], [{"run": 3}])
    assert tr.meta["run"] == 3
    assert tr.meta["system"] == "kdv"
    assert tr.meta["noise_sigma"] == 0.0


def test_burgers_dissipates():
    cfg = default_config("burgers")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    tr = solve_pde(cfg, ic[None])[0]
    l2 = np.sqrt((tr.u ** 2).sum(axis=1) * tr.h)
    assert np.all(np.diff(l2) <= 0.0)
    assert l2[0] - l2[-1] > 1.0


def test_burgers_space_refinement():
    cfg = default_config("burgers")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    tr = solve_pde(cfg, ic[None])[0]
    big = SolverConfig("burgers", nx=2 * cfg.nx, length=cfg.length,
                       dt=cfg.dt, nt=cfg.nt, params=dict(cfg.params))
    [tr_big] = solve_pde(
        big, sample_initial_condition(big.nx, big.length, seed=5)[None])
    assert np.max(np.abs(tr_big.u[-1][::2] - tr.u[-1])) < 1e-5


def test_ks_reaches_steady_turbulence():
    cfg = default_config("ks")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=13)
    tr = solve_pde(cfg, ic[None])[0]
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
    fast = solve_pde(cfg, ic[None])[0]
    slow = solve_nkdv_direct(ic, cfg)
    assert np.max(np.abs(fast.u - slow.u)) < 1e-6


def test_blow_up_in_the_transient_has_a_negative_step():
    # ten discarded steps; the nonlinear term outruns rk4 at this dt
    cfg = SolverConfig("burgers", nx=64, length=2.0 * math.pi, dt=0.1, nt=8,
                       transient=1.0, params={"nu": 0.01})
    ic = 10.0 * sample_initial_condition(cfg.nx, cfg.length, seed=3)
    [err] = solve_pde(cfg, ic[None])
    assert isinstance(err, BlowUpError)
    # transient step j (from 0) is guarded as step j - 10: the fourth blew up
    assert err.step == -7
    assert err.rows.shape == (0, cfg.nx)


def test_nkdv_direct_requires_nkdv_config():
    with pytest.raises(ConfigError):
        solve_nkdv_direct(np.zeros(256), default_config("kdv"))


# ---------------------------------------------------------------------------
# model integration


def test_integrate_kdv_truth_matches_solver(kdv_run):
    cfg, ic, tr = kdv_run
    model = truth_model("u_t + u*u_x", ["u_xxx"], [-1.0])
    [mtr] = integrate_model([model], ic[None], cfg)
    assert np.array_equal(mtr.u[0], ic)
    assert float(np.mean((mtr.u[-1] - tr.u[-1]) ** 2)) < 1e-10


def test_integrate_burgers_truth_matches_solver():
    cfg = default_config("burgers")
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    tr = solve_pde(cfg, ic[None])[0]
    model = truth_model("u_t + u*u_x", ["u_xx"], [0.1])
    [mtr] = integrate_model([model], ic[None], cfg)
    assert float(np.mean((mtr.u[-1] - tr.u[-1]) ** 2)) < 1e-12


def test_integrate_nkdv_truth_matches_solver():
    cfg = SolverConfig("nkdv", nx=256, length=20.0, dt=0.01, nt=100,
                       params={"t0": 1.0})
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=17)
    tr = solve_pde(cfg, ic[None])[0]
    model = truth_model("exp(-t/t0)*u_t + u*u_x", ["u_xxx"], [-1.0])
    [mtr] = integrate_model([model], ic[None], cfg)
    assert float(np.mean((mtr.u[-1] - tr.u[-1]) ** 2)) < 1e-12


def test_integrate_pure_transport_runs_to_horizon():
    # every retained weight zero: u_t + u*u_x = 0 must still integrate
    model = truth_model("u_t + u*u_x", ["u_xx", "u_xxx"], [0.0, 0.0])
    cfg = SolverConfig("kdv", nx=128, length=20.0, dt=0.01, nt=100)
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=3)
    [tr] = integrate_model([model], ic[None], cfg)
    assert tr.u.shape == (100, 128)
    assert np.max(np.abs(tr.u)) < 10.0


def test_integrate_detects_blow_up():
    # backward heat doubles the highest retained mode every few steps
    model = truth_model("u_t", ["u_xx"], [-1.0])
    cfg = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.01, nt=16)
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=2)
    [err] = integrate_model([model], ic[None], cfg)
    assert isinstance(err, BlowUpError)
    assert 0 < err.step < 16


@pytest.mark.parametrize("target,msg", [
    ("u_t^2", "affine"),
    ("t*u_t", "exp"),
    ("u*u_t + u*u_x", "affine"),
])
def test_integrate_rejects_bad_time_terms(target, msg):
    model = truth_model(target, ["u_x"], [0.0])
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    [err] = integrate_model([model], np.zeros((1, 64)), cfg)
    assert isinstance(err, UnsupportedModelError) and msg in str(err)


def test_integrate_rejects_explicit_coordinates():
    model = truth_model("u_t", ["x*u_x"], [1.0])
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    [err] = integrate_model([model], np.zeros((1, 64)), cfg)
    assert isinstance(err, UnsupportedModelError)


def test_integrate_names_unbound_constants():
    model = truth_model("u_t", ["alpha*u_xx"], [1.0])
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    [err] = integrate_model([model], np.zeros((1, 64)), cfg)
    assert isinstance(err, MissingSymbolError) and "alpha" in str(err)


def test_integrate_names_an_unbound_time_coefficient():
    model = truth_model("beta*u_t", ["u_xx"], [1.0])
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    [err] = integrate_model([model], np.zeros((1, 64)), cfg)
    assert isinstance(err, MissingSymbolError) and "beta" in str(err)


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
    solved = solve_pde(cfg, ics, metas)
    rolled = integrate_model([model] * n, ics, cfg)
    assert len(solved) == len(rolled) == n
    for ic, meta, tr, mtr in zip(ics, metas, solved, rolled):
        [solo] = solve_pde(cfg, ic[None], [meta])
        assert np.array_equal(tr.u, solo.u)
        assert tr.meta == solo.meta
        [mine] = integrate_model([model], ic[None], cfg)
        assert np.array_equal(mtr.u, mine.u)


def test_one_member_blow_up_leaves_the_others():
    # u_t = u^2 blows up in finite time ~ 1/max(u0): only the scaled member
    # leaves the horizon
    model = truth_model("u_t", ["u^2"], [1.0])
    cfg = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.1, nt=16)
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for scale, s in ((0.2, 1), (0.2, 2), (3.0, 3), (0.2, 4))])
    out = integrate_model([model] * 4, ics, cfg)
    [solo] = integrate_model([model], ics[2:3], cfg)
    assert isinstance(solo, BlowUpError)
    assert 0 < solo.step < cfg.nt
    assert isinstance(out[2], BlowUpError)
    assert out[2].step == solo.step
    assert np.array_equal(out[2].rows, solo.rows)
    for b in (0, 1, 3):
        [mine] = integrate_model([model], ics[b:b + 1], cfg)
        assert np.array_equal(out[b].u, mine.u)


def test_solve_names_the_blown_member():
    cfg = SolverConfig("burgers", nx=64, length=2.0 * math.pi, dt=0.1, nt=16,
                       params={"nu": 0.01})
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for scale, s in ((0.5, 1), (10.0, 3), (0.5, 4))])
    [solo] = solve_pde(cfg, ics[1:2])
    assert isinstance(solo, BlowUpError)
    out = solve_pde(cfg, ics)
    assert isinstance(out[1], BlowUpError)
    assert out[1].step == solo.step > 0
    assert np.array_equal(out[1].rows, solo.rows)
    for b in (0, 2):
        assert np.array_equal(out[b].u, solve_pde(cfg, ics[b:b + 1])[0].u)


def _rollout(*model):
    """batch -> the outcomes of one model's rollout from every member."""
    model = truth_model(*model)
    return lambda cfg, ics: integrate_model([model] * len(ics), ics, cfg)


_COARSE_BURGERS = SolverConfig("burgers", nx=64, length=2.0 * math.pi,
                               dt=0.1, nt=16, params={"nu": 0.01})
_COARSE_KDV = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.01,
                           nt=16)


@pytest.mark.parametrize("cfg, run, scales, blown, when", [
    # 20 discarded steps; KS at 100x blows up among them
    (_short("ks"), solve_pde, (1.0, 100.0, 1.0), [1], "transient"),
    (_short("kdv"), solve_pde, (1.0, 2 * BLOWUP_LIMIT, 1.0), [1], "ic"),
    (_short("kdv"), _rollout(*_TRUTH["kdv"]), (1.0, 2 * BLOWUP_LIMIT, 1.0),
     [1], "ic"),
    (_COARSE_BURGERS, solve_pde, (10.0, 10.0, 10.0), [0, 1, 2], "horizon"),
    # backward heat, as in test_integrate_detects_blow_up
    (_COARSE_KDV, _rollout("u_t", ["u_xx"], [-1.0]), (1.0, 1.0, 1.0),
     [0, 1, 2], "horizon"),
], ids=["ks-in-the-transient", "ic-past-the-limit",
        "rollout-ic-past-the-limit", "every-member", "every-rollout"])
def test_blown_members_match_each_alone(cfg, run, scales, blown, when):
    # a blown member stays in the state unsampled; every outcome, blown or
    # not, is that of a batch of its member alone, bit for bit
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for s, scale in enumerate(scales, 1)])
    out = run(cfg, ics)
    assert [b for b, o in enumerate(out) if isinstance(o, BlowUpError)] \
        == blown
    for b, o in enumerate(out):
        [alone] = run(cfg, ics[b:b + 1])
        assert type(o) is type(alone)
        if b not in blown:
            assert o.u.tobytes() == alone.u.tobytes()
            continue
        assert o.step == alone.step
        assert o.rows.tobytes() == alone.rows.tobytes()
        assert o.rows.shape == (max(o.step, 0), cfg.nx)
        assert {"transient": o.step < 0, "ic": o.step == 0,
                "horizon": 0 < o.step < cfg.nt}[when]


def test_blown_rows_at_the_edges():
    from liesindy.dynamics import _blown
    above = np.nextafter(BLOWUP_LIMIT, math.inf)
    rows = np.zeros((9, 16))
    rows[1, 3] = math.nan
    rows[2, 0] = math.inf
    rows[3, 15] = -math.inf
    rows[4, 7] = BLOWUP_LIMIT
    rows[5, 7] = -BLOWUP_LIMIT
    rows[6, 2] = above
    rows[7, 2] = -above
    rows[8, [1, 5]] = math.inf, math.nan
    want = [False, True, True, True, False, False, True, True, True]
    assert _blown(rows).tolist() == want
    # one bad row among good ones: only it is blown
    for row, bad in zip(rows, want):
        batch = np.ones((5, 16))
        batch[3] = row
        assert _blown(batch).tolist() == [False] * 3 + [bad, False]


@pytest.mark.parametrize("shape", [(1, 16), (8, 16), (12, 16), (1, 256),
                                   (8, 256), (12, 256), (3, 8, 256)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("blown", [False, True], ids=["finite", "nan-inf"])
def test_transform_helpers_match_numpy_fft(shape, blown):
    # the (3, 8, 256) batch is _leftover_term's stacked [v, (ik)^o v ...];
    # a blown member stays in the state, so a NaN row and an inf row must
    # pass through as np.fft passes them
    from liesindy import dynamics
    rng = np.random.default_rng(sum(shape))
    u = rng.standard_normal(shape)
    if blown:
        u[..., 0, 3] = math.nan
        u[..., -1, 5] = math.inf
    nx, nk = shape[-1], shape[-1] // 2 + 1
    with np.errstate(all="ignore"):
        v = np.fft.rfft(u, axis=-1)
        want_u = np.fft.irfft(v, nx, axis=-1)
        got_v = dynamics._rfft(u, np.empty(shape[:-1] + (nk,), complex))
        got_u = dynamics._irfft(v, np.empty(shape))
    assert got_v.tobytes() == v.tobytes()
    assert got_u.tobytes() == want_u.tobytes()


def test_numpy_2_transforms_write_into_the_given_buffer():
    # numpy >= 2 takes pocketfft's gufuncs, which write into `out`; a
    # release that moves the private module would fall back to np.fft and
    # fail here instead of losing the gain unseen
    from liesindy import dynamics
    numpy_2 = int(np.__version__.split(".")[0]) >= 2
    u = np.ones((2, 16))
    spec, field = np.empty((2, 9), complex), np.empty((2, 16))
    assert (dynamics._rfft(u, spec) is spec) == numpy_2
    assert (dynamics._irfft(spec, field) is field) == numpy_2
    assert bool(dynamics._pocketfft()) == numpy_2


def _kernels(cfg, n):
    """Each nonlinear kernel, and a step of each scheme, on cfg's grid for
    a batch of n members."""
    from liesindy import dynamics
    _, _, k, mask = dynamics._grid(cfg)
    column = np.linspace(0.5, 1.5, n)[:, None]
    kernels = {
        "advection": dynamics._advection(k, mask, n, cfg.nx),
        "weighted": dynamics._advection(k, mask, n, cfg.nx, column),
        "leftover": dynamics._leftover_term(
            P("u*u_xx + u_x^2"), {}, -column, k, mask, cfg.nx),
    }
    lin = dynamics._linear_symbol("kdv", k, {})
    for scheme in ("etdrk4", "rk4-spectral"):
        make_steps = dynamics._make_stepper(scheme, lin, kernels["advection"])
        kernels[scheme] = next(make_steps([cfg.dt]))
    return kernels


@pytest.mark.parametrize("kernel", ["advection", "weighted", "leftover",
                                    "etdrk4", "rk4-spectral"])
def test_a_kernel_result_survives_its_next_call(kernel):
    # a returned stage value (nv, a, ...) or step is read after the
    # kernel's next call, so it must not be one of the kernel's buffers
    cfg = _short("kdv")
    ics = np.array([sample_initial_condition(cfg.nx, cfg.length, seed=s)
                    for s in (1, 2, 3)])
    v = np.fft.rfft(ics, axis=-1)
    run = _kernels(cfg, len(ics))[kernel]
    for u in (None, ics):
        given = v.tobytes(), ics.tobytes()
        first = run(v, u)
        # nor may a step write its stages into its input or the handed u
        assert (v.tobytes(), ics.tobytes()) == given
        kept = first.tobytes()
        second = run(2.0 * v)
        third = run(v, u)
        assert first.tobytes() == kept == third.tobytes()
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, v)


def _fresh_stepper(made, handed):
    """_make_stepper whose steps drop the u = irfft(v) the march hands
    them, so every step transforms its state afresh; `handed` records, per
    step, whether a u was handed."""
    def make_stepper(scheme, lin, nonlinear):
        make_steps = made(scheme, lin, nonlinear)

        def fresh(step):
            def stepped(v, u=None):
                handed.append(u is not None)
                return step(v)

            return stepped

        return lambda sizes: map(fresh, make_steps(sizes))

    return make_stepper


@pytest.mark.parametrize("case", ["ks-transient", "nkdv-sub-steps",
                                  "rollout"])
def test_handed_field_matches_a_fresh_transform(monkeypatch, case):
    # KS with 20 transient steps, one member blowing up among them; nKdV,
    # whose spans take up to two KdV sub-steps; and a rollout batch with a
    # poly2 leftover, a constant-only leftover, a purely linear model and
    # u_t = u^2, which blows up on the scaled IC only
    from liesindy import dynamics
    if case == "rollout":
        cfg = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.1,
                           nt=16)
        models = [truth_model("u_t + u*u_x", ["u*u_xxx", "u_xx", "u_xxx"],
                              [0.05, 0.1, -1.0]),
                  truth_model("u_t", ["1", "u_xx"], [0.3, 0.1]),
                  truth_model("u_t", ["u_xx"], [0.1]),
                  truth_model("u_t", ["u^2"], [1.0])]
        models.append(models[-1])
        scales = (0.2, 0.2, 0.2, 3.0, 0.2)
        run = lambda ics: integrate_model(models, ics, cfg)  # noqa: E731
        blown, steps = [3], (cfg.nt - 1) * 4
    else:
        cfg = _short("ks" if case == "ks-transient" else "nkdv")
        scales = (1.0, 100.0, 1.0) if case == "ks-transient" else (1.0,) * 3
        run = lambda ics: solve_pde(cfg, ics)  # noqa: E731
        blown = [1] if case == "ks-transient" else []
        steps = None
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for s, scale in enumerate(scales, 1)])
    got = run(ics)
    handed = []
    monkeypatch.setattr(dynamics, "_make_stepper",
                        _fresh_stepper(dynamics._make_stepper, handed))
    want = run(ics)
    assert [b for b, o in enumerate(want) if isinstance(o, BlowUpError)] \
        == blown
    if case == "ks-transient":
        assert want[1].step < 0 and want[1].rows.shape == (0, cfg.nx)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, BlowUpError):
            assert g.step == w.step
            assert g.rows.tobytes() == w.rows.tobytes()
        else:
            assert g.u.tobytes() == w.u.tobytes()
    # every span but the first starts from the field its sample took
    spans = round(cfg.transient / cfg.dt) + cfg.nt - 1
    groups = 4 if case == "rollout" else 1
    assert handed.count(True) == groups * (spans - 1)
    if steps is not None:
        assert len(handed) == groups * steps
    elif case == "nkdv-sub-steps":
        assert len(handed) > spans


def test_grouped_rollout_matches_each_model_alone():
    # two models of one structure with different coefficients, one with
    # another linear order, one with an explicit-x term, u_t = u^2, which
    # blows up on the scaled IC only, and two advected models (leftover
    # a*u*u_x) of one structure with different coefficients
    from liesindy import dynamics
    cfg = SolverConfig("kdv", nx=64, length=2.0 * math.pi, dt=0.1, nt=16)
    kdv_a = truth_model("u_t + u*u_x", ["u_xxx", "u^2"], [-1.0, 0.1])
    kdv_b = truth_model("u_t + u*u_x", ["u_xxx", "u^2"], [-0.7, -0.3])
    heat = truth_model("u_t + u*u_x", ["u_xx", "u^2"], [0.1, 0.2])
    explicit = truth_model("u_t", ["x*u_x"], [1.0])
    blowup = truth_model("u_t", ["u^2"], [1.0])
    adv_a = truth_model("u_t", ["u*u_x", "u_xxx"], [-1.0, -1.0])
    adv_b = truth_model("u_t", ["u*u_x", "u_xxx"], [-0.6, -1.3])
    assert {dynamics._rollout_form(m, cfg)[0][2] for m in (adv_a, adv_b)} \
        == {"advection"}
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for scale, s in ((0.2, 1), (0.2, 2), (3.0, 3), (0.2, 4))])
    models = [kdv_a, kdv_b, heat, explicit, blowup, blowup, kdv_b, kdv_a,
              adv_a, adv_b, adv_b, adv_a]
    members = ics[[0, 1, 2, 3, 2, 0, 3, 1, 0, 1, 3, 2]]
    out = integrate_model(models, members, cfg)
    assert len(out) == len(models)
    alone = [integrate_model([m], ic[None], cfg)[0]
             for m, ic in zip(models, members)]
    assert isinstance(out[3], UnsupportedModelError)
    assert str(out[3]) == str(alone[3])
    assert isinstance(out[4], BlowUpError)
    assert 0 < out[4].step == alone[4].step < cfg.nt
    assert np.array_equal(out[4].rows, alone[4].rows)
    for b in (0, 1, 2, 5, 6, 7, 8, 9, 10, 11):
        assert out[b].u.tobytes() == alone[b].u.tobytes()
    # the advected members' coefficients differ, and so do their rollouts
    assert not np.array_equal(out[8].u, integrate_model(
        [adv_b], members[8:9], cfg)[0].u)
    with pytest.raises(ConfigError, match="2 models for 12 ics"):
        integrate_model(models[:2], members, cfg)


@pytest.mark.parametrize("ic, meta", [
    (np.zeros((2, 3, 64)), None),
    (np.zeros((2, 32)), None),
    (np.zeros((2, 64)), [{}]),
    (np.zeros(64), None),                  # one IC, not a batch of one
])
def test_batch_shapes_are_checked(ic, meta):
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=8)
    with pytest.raises(ConfigError):
        solve_pde(cfg, ic, meta)


def _recorded_coeffs(monkeypatch):
    """(calls, the module's _etdrk4_coeffs); each call of the patched
    function appends its (lin, list of step sizes) to calls."""
    from liesindy import dynamics
    calls = []
    coeffs = dynamics._etdrk4_coeffs

    def recorded(lin, hs):
        calls.append((lin, list(hs)))
        return coeffs(lin, hs)

    monkeypatch.setattr(dynamics, "_etdrk4_coeffs", recorded)
    return calls, coeffs


def test_etdrk4_coefficients_are_computed_once_per_step_size(monkeypatch):
    calls, _ = _recorded_coeffs(monkeypatch)
    sizes = lambda: [h for _, hs in calls for h in hs]  # noqa: E731
    cfg = SolverConfig("nkdv", nx=64, length=20.0, dt=0.01, nt=20,
                       params={"t0": 1.0})
    ic = sample_initial_condition(cfg.nx, cfg.length, seed=5)
    first = solve_pde(cfg, ic[None])[0]
    # one step size per output span (each shorter than KdV's dt of 0.01),
    # all of them in one block
    assert len(calls) == 1
    assert len(sizes()) == len(set(sizes())) == cfg.nt - 1
    once = sizes()
    again = solve_pde(cfg, np.array([ic, ic]))
    assert sizes() == once + once
    assert all(np.array_equal(tr.u, first.u) for tr in again)
    del calls[:]
    solve_pde(SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=20),
              np.array([ic, ic]))
    assert sizes() == [0.01]


def _etdrk4_closed_form(z, h):
    """(q, f1, f2, f3) at z from Cox & Matthews' closed forms, written out
    in full."""
    e = np.exp(z)
    q = h * (np.exp(z / 2) - 1.0) / z
    f1 = h * (-4.0 - z + e * (4.0 - 3.0 * z + z ** 2)) / z ** 3
    f2 = h * (2.0 + z + e * (-2.0 + z)) / z ** 3
    f3 = h * (-4.0 - 3.0 * z - z ** 2 + e * (4.0 - z)) / z ** 3
    return q, f1, f2, f3


def _phi_series(z, h, terms=40):
    """(q, f1, f2, f3) at z from their Taylor series about z = 0."""
    q = f1 = f2 = f3 = 0.0
    zn = np.ones_like(z)
    for n in range(terms):
        q = q + zn / (2.0 ** (n + 1) * math.factorial(n + 1))
        f1 = f1 + (n + 1) ** 2 * zn / math.factorial(n + 3)
        f2 = f2 + (n + 1) * zn / math.factorial(n + 3)
        f3 = f3 + (1 - n) * zn / math.factorial(n + 3)
        zn = zn * z
    return h * q, h * f1, h * f2, h * f3


def _solved_coeffs(monkeypatch):
    """(calls, _etdrk4_coeffs) over the default nKdV solve and the kdv and
    ks steps."""
    calls, coeffs = _recorded_coeffs(monkeypatch)
    solve_pde(default_config("nkdv"), np.zeros((1, 256)))
    assert sum(len(hs) for _, hs in calls) == default_config("nkdv").nt - 1
    for system in ("kdv", "ks"):
        d = default_config(system).to_dict()
        d.update(nt=8, transient=0.0)
        solve_pde(SolverConfig.from_dict(d), np.zeros((1, 256)))
        assert calls[-1][1] == [d["dt"]]
    return calls, coeffs


def test_etdrk4_coefficients_match_the_series_and_the_closed_form(
        monkeypatch):
    # every coefficient set of the default nKdV solve and of the kdv and ks
    # steps.  Against the test's own series, on 0.02 <= |z| <= 2 where it
    # converges in double precision: every row within 2e-14 relative.
    # Independent of that oracle, the module's series rows agree with the
    # closed form, accurate to 3e-14 from |z| = 0.75 up, on
    # 0.75 <= |z| < 1
    calls, coeffs = _solved_coeffs(monkeypatch)
    sides = set()
    seen = 0
    for lin, hs in calls:
        got = coeffs(lin, hs)
        for j, h in enumerate(hs):
            z = h * lin.astype(complex)
            band = (np.abs(z) >= 0.02) & (np.abs(z) <= 2.0)
            for g, w in zip(got[2:], _phi_series(z[band], h)):
                assert (np.abs(g[j][band] - w) <= 2e-14 * np.abs(w)).all()
            sides.update((np.abs(z[band]) < 1.0).tolist())
            below = (np.abs(z) >= 0.75) & (np.abs(z) < 1.0)
            seen += below.sum()
            for g, w in zip(got[2:], _etdrk4_closed_form(z[below], h)):
                assert (np.abs(g[j][below] - w) <= 3e-14 * np.abs(w)).all()
    assert sides == {True, False}
    assert seen > 100


def test_a_block_of_etdrk4_coefficients_is_bit_equal_to_each_size_alone(
        monkeypatch):
    calls, coeffs = _solved_coeffs(monkeypatch)
    assert max(len(hs) for _, hs in calls) > 16
    for lin, hs in calls:
        block = coeffs(lin, hs)
        for j, h in enumerate(hs):
            for b, one in zip(block, coeffs(lin, [h])):
                assert b[j].tobytes() == one[0].tobytes()


def test_a_rollout_builds_one_step_per_size(monkeypatch):
    # a kdv rollout steps exactly dt/4, one size; the nKdV truth's rescaled
    # time makes every span a size of its own
    from liesindy import dynamics
    built = []
    make = dynamics._make_ifrk4

    def counted(lin, h, nonlinear):
        built.append(h)
        return make(lin, h, nonlinear)

    monkeypatch.setattr(dynamics, "_make_ifrk4", counted)
    cfg = SolverConfig("kdv", nx=64, length=20.0, dt=0.01, nt=60)
    ics = np.array([sample_initial_condition(cfg.nx, cfg.length, seed=s)
                    for s in (1, 2)])
    outs = integrate_model([truth_model(*_TRUTH["kdv"])] * 2, ics, cfg)
    assert not any(isinstance(o, Exception) for o in outs)
    assert built == [cfg.dt / 4.0]
    del built[:]
    cfg = SolverConfig("nkdv", nx=64, length=20.0, dt=0.01, nt=60,
                       params={"t0": 1.0})
    integrate_model([truth_model(*_TRUTH["nkdv"])], ics[:1], cfg)
    assert len(built) == len(set(built)) == cfg.nt - 1


@pytest.mark.parametrize("model, kernel, a", [
    (_TRUTH["kdv"], "advection", 1.0),
    (_TRUTH["nkdv"], "advection", 1.0),
    # a sindy-style fit: u_t against u*u_x among the features
    (("u_t", ["u*u_x", "u_xxx"], [-0.97, -1.03]), "advection", 0.97),
    # found symbolically, not from the printed text; a is the equation's
    # u*u_x coefficient, before dividing by u_t's
    (("2*u_t", ["u_x*u", "u_xx"], [-0.5, 0.1]), "advection", 0.5),
    (("u_t", ["u^2*u_x/u", "u*u_x"], [-0.25, -0.5]), "advection", 0.75),
    # u*u_x beside any other nonlinear term stays in the compiled leftover
    (("u_t + u*u_x", ["u*u_xx", "u_xxx"], [0.1, -1.0]), "compiled", None),
    (("u_t + u*u_x", ["u_x^2"], [0.1]), "compiled", None),
    (("u_t", ["u^2"], [1.0]), "compiled", None),
    (("u_t + u*u_x", ["u*u_x", "u_xx"], [1.0, 0.1]), "compiled", None),
], ids=["kdv", "nkdv", "sindy", "reordered", "summed", "beside-u-u_xx",
        "beside-u_x^2", "u^2", "cancelled"])
def test_only_a_lone_u_u_x_takes_the_advection_kernel(model, kernel, a):
    from liesindy import dynamics
    cfg = SolverConfig("nkdv", nx=64, length=20.0, dt=0.01, nt=8,
                       params={"t0": 1.0})
    (_, _, got, shape), _, _, consts = dynamics._rollout_form(
        truth_model(*model), cfg)
    assert got == kernel
    if kernel == "advection":
        assert shape is None and consts == [pytest.approx(a, abs=1e-15)]


def _leftover_term_per_order(shape, consts, scale, k, mask, nx):
    """The rollout's leftover term with one inverse transform per order,
    each stage walking the leftover's tree (under _march's error state).
    A u handed over by the march is dropped: every stage transforms v.
    """
    if shape is None:
        return lambda v, u=None: np.zeros_like(v)
    needed = sorted({dv.order for dv in dep_vars_in(shape)} - {0})
    ikp = {order: (1j * k) ** order for order in needed}

    def nonlinear(v, u=None):
        u = np.fft.irfft(v, nx, axis=-1)
        binding = {"u": u, **consts}
        for order in needed:
            binding["u_" + "x" * order] = np.fft.irfft(
                ikp[order] * v, nx, axis=-1)
        vals = np.broadcast_to(
            np.asarray(_eval_arr(shape, binding), dtype=float), u.shape)
        return scale * mask * np.fft.rfft(vals, axis=-1)

    return nonlinear


def _advection_scaled_written_out(weights):
    """The rollout's advection term: _advection_written_out scaled by each
    member's coefficient, the (n, 1) column `weight`, which is appended to
    `weights`.  A u handed over by the march is dropped."""
    def advection(k, mask, n, nx, weight):
        weights.append(weight)
        nonlinear = _advection_written_out(k, mask, nx, weight)
        return lambda v, u=None: nonlinear(v)

    return advection


def test_rollout_matches_the_per_order_transforms(monkeypatch):
    # a poly2 leftover in u, u_x and u_xxx; two constant-only leftovers of
    # one structure; u_t = u^2, which blows up on the scaled IC; the nKdV
    # truth, with its e^{-t/t0} time coefficient; a leftover with Exp, Div
    # and Pow whose third member blows up while the other two march on; a
    # sindy-style model with fitted u*u_x and u_xxx coefficients; and
    # u*u_x beside u*u_xx.  The advected members (a lone a*u*u_x leftover)
    # take the advection oracle, scaled by each member's a/c, and every
    # other member the per-order oracle
    from liesindy import dynamics
    cfg = SolverConfig("nkdv", nx=64, length=2.0 * math.pi, dt=0.05, nt=24,
                       params={"t0": 1.0})
    poly2 = truth_model("u_t + u*u_x", ["u*u_xxx", "u_xx", "u_xxx"],
                        [0.05, 0.1, -1.0])
    const_a = truth_model("u_t", ["1", "u_xx"], [0.3, 0.1])
    const_b = truth_model("u_t", ["1", "u_xx"], [-0.7, 0.2])
    blowup = truth_model("u_t", ["u^2"], [1.0])
    nkdv = truth_model(*_TRUTH["nkdv"])
    odd = ["exp(-u^2)", "u_x/(1 + u^2)", "u^3", "u_xx"]
    odd_a = truth_model("u_t", odd, [0.05, 0.3, 0.2, 0.1])
    odd_b = truth_model("u_t", odd, [-0.1, 0.2, 0.3, 0.05])
    sindy = truth_model("exp(-t/t0)*u_t", ["u*u_x", "u_xxx"], [-0.97, -1.03])
    mixed = truth_model("u_t + u*u_x", ["u*u_xx", "u_xxx"], [0.1, -1.0])
    ics = np.array([scale * sample_initial_condition(cfg.nx, cfg.length, s)
                    for scale, s in ((0.3, 1), (0.3, 2), (3.0, 3))])
    models = [poly2, const_a, const_b, poly2, blowup, blowup, nkdv, odd_a,
              odd_b, odd_b, nkdv, sindy, mixed, sindy]
    members = ics[[0, 1, 2, 1, 2, 0, 0, 1, 0, 2, 1, 1, 0, 0]]
    got = integrate_model(models, members, cfg)
    weights = []
    monkeypatch.setattr(dynamics, "_leftover_term", _leftover_term_per_order)
    monkeypatch.setattr(dynamics, "_advection",
                        _advection_scaled_written_out(weights))
    want = integrate_model(models, members, cfg)
    # one advected group: nKdV's truth and the sindy model share a
    # structure, and u*u_x beside u*u_xx stays on the per-order path
    [weight] = weights
    assert weight.ravel().tolist() == [1.0, 1.0, 0.97, 0.97]
    blown = [isinstance(out, BlowUpError) for out in want]
    assert [b for b, is_blown in enumerate(blown) if is_blown] == [4, 9]
    assert 0 < want[9].step < cfg.nt - 1
    for g, w in zip(got, want):
        if isinstance(w, BlowUpError):
            assert isinstance(g, BlowUpError) and g.step == w.step
            assert g.rows.tobytes() == w.rows.tobytes()
        else:
            assert g.u.tobytes() == w.u.tobytes()


def _advection_written_out(k, mask, nx, weight=None):
    """The dealiased advection term, times the (n, 1) column `weight` of
    one factor per member when it is given."""
    symbol = -(1j * k) if weight is None else -(1j * k) * weight

    def nonlinear(v):
        u = np.fft.irfft(v, nx, axis=-1)
        return symbol * mask * np.fft.rfft(0.5 * u * u, axis=-1)

    return nonlinear


def _fold_check_setup(system):
    """(h, lin, v, the advection written out, system's own step of size h)
    on system's short grid, for a batch of three ICs.
    """
    from liesindy import dynamics
    cfg = _short(system)
    _, _, k, mask = dynamics._grid(cfg)
    lin = dynamics._linear_symbol(system, k, cfg.params)
    ics = np.array([sample_initial_condition(cfg.nx, cfg.length, seed=s)
                    for s in (1, 2, 3)])
    v = np.fft.rfft(ics, axis=-1)
    made = dynamics._make_stepper(
        dynamics._STANDARD[system][0], lin,
        dynamics._advection(k, mask, len(ics), cfg.nx))
    return (cfg.dt, lin, v, _advection_written_out(k, mask, cfg.nx),
            next(made([cfg.dt])))


def test_folded_etdrk4_step_matches_the_step_written_out():
    from liesindy import dynamics
    h, lin, v, nonlinear, step = _fold_check_setup("kdv")
    e1, e2, q, f1, f2, f3 = (c[0] for c in dynamics._etdrk4_coeffs(lin, [h]))
    nv = nonlinear(v)
    a = e2 * v + q * nv
    na = nonlinear(a)
    b = e2 * v + q * na
    nb = nonlinear(b)
    c = e2 * a + q * (2.0 * nb - nv)
    nc = nonlinear(c)
    want = e1 * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
    assert step(v).tobytes() == want.tobytes()


def _ifrk4_setup(case, h_type=float):
    """(h, lin, v, the advection written out, the IF-RK4 step of size h) for
    a batch of three ICs: burgers' short grid and kdv's at a rollout's
    dt/4, both with one (nk,) symbol, or kdv's with an (n, nk) symbol and
    an advection weight per member, as integrate_model builds them.
    """
    from liesindy import dynamics
    cfg = _short("burgers" if case == "burgers" else "kdv")
    h = h_type(cfg.dt if case == "burgers" else cfg.dt / 4)
    _, _, k, mask = dynamics._grid(cfg)
    lin = dynamics._linear_symbol(cfg.system, k, cfg.params)
    weight = None
    if case == "per-member":
        column = np.array([[0.9], [1.0], [1.1]])
        lin, weight = column * lin * mask, column[::-1]
    ics = np.array([sample_initial_condition(cfg.nx, cfg.length, seed=s)
                    for s in (1, 2, 3)])
    v = np.fft.rfft(ics, axis=-1)
    made = dynamics._make_stepper(
        "rk4-spectral", lin,
        dynamics._advection(k, mask, len(ics), cfg.nx, weight))
    return (h, lin, v, _advection_written_out(k, mask, cfg.nx, weight),
            next(made([h])))


def test_folded_ifrk4_step_matches_the_step_written_out():
    # h is a Python float in solves and kdv rollouts and a numpy float64
    # from np.diff in rescaled-time rollouts
    for case, h_type in (("burgers", float), ("per-member", np.float64)):
        h, lin, v, nonlinear, step = _ifrk4_setup(case, h_type)
        e = np.exp(h * lin.astype(complex) / 2)
        e2 = e * e
        n1 = nonlinear(v)
        ev = e * v
        n2 = nonlinear(ev + (e * (h / 2)) * n1)
        n3 = nonlinear(ev + (h / 2) * n2)
        e2v = e2 * v
        n4 = nonlinear(e2v + (e * h) * n3)
        want = (e2v + (e2 * (h / 6)) * n1 + (e * (h / 3)) * (n2 + n3)
                + (h / 6) * n4)
        assert step(v).tobytes() == want.tobytes(), case


@pytest.mark.parametrize("case", ["burgers", "kdv", "per-member"])
def test_ifrk4_step_is_the_textbook_step_to_round_off(case):
    # Kassam & Trefethen's integrating-factor RK4, a = h*N(v) and so on
    h, lin, v, nonlinear, step = _ifrk4_setup(case)
    e = np.exp(h * lin.astype(complex) / 2)
    e2 = e * e
    a = h * nonlinear(v)
    b = h * nonlinear(e * (v + a / 2))
    c = h * nonlinear(e * v + b / 2)
    d = h * nonlinear(e2 * v + e * c)
    want = e2 * v + (e2 * a + 2.0 * e * (b + c) + d) / 6.0
    assert np.abs(step(v) - want).max() <= 1e-13 * np.abs(want).max()


def test_ifrk4_rollout_is_fourth_order_in_time():
    # KdV's truth rolled out to t = 1 at dt 0.05 and 0.025 (sub-steps
    # dt/4), against dt 0.00625: the error at the last sample falls 16-fold
    # per halving (16.0, 16.6 and 17.0 when measured)
    nx, length = 32, 20.0
    x = np.arange(nx) * (length / nx)
    ics = np.array([a * (np.cos(2 * math.pi * x / length)
                         + 0.5 * np.sin(4 * math.pi * x / length + 1.0))
                    for a in (1.0, 2.0, 3.0)])
    model = truth_model(*_TRUTH["kdv"])

    def last(dt):
        cfg = SolverConfig("kdv", nx=nx, length=length, dt=dt,
                           nt=round(1.0 / dt) + 1)
        return np.array([tr.u[-1] for tr in
                         integrate_model([model] * len(ics), ics, cfg)])

    ref = last(0.00625)
    coarse, fine = (np.abs(last(dt) - ref).max(axis=1)
                    for dt in (0.05, 0.025))
    assert np.all(fine > 1e-11)
    ratio = coarse / fine
    assert np.all((12.0 <= ratio) & (ratio <= 20.0)), ratio


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
    [other] = solve_pde(default_config("burgers"), sample_initial_condition(
        128, 2 * math.pi, seed=1)[None])
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
