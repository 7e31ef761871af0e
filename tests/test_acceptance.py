"""End-to-end acceptance run, one test per criterion.

Each test prints a single PASS/FAIL verdict line (shown with -s, or in the
captured output of a failing test); the pytest result is the authoritative
record.  Trajectory generation and model integration share the Fourier
grid and the 2/3 rule but not the time stepping: generation takes ETDRK4
at dt and integrate_model IF-RK4 at dt/4, and the two stay different
discretizations.  So integrating the exact governing equation reproduces
the test data only up to the two schemes' time error (at SEED its MSE grows
from 3.6e-18 at step 1 to 1.2e-14 at step 50).  The noiseless criterion 7
fixture therefore gets `spectral_jets` (spectral x, sixth-order t), chosen
by the harness from noise_sigma == 0; coefficients from second-order finite
differences would carry an O(h^2) bias whose rollout error is orders of
magnitude above that floor.  Criterion 10's bound is asserted as stated;
its largest ratio is 1.27 at SEED but 1.21-6.73 across seeds 2024, 7, 11,
12345 and 1, so the bound holds at SEED and not at every seed.
"""

import itertools
import math
import time

import numpy as np
import pytest

from liesindy.dynamics import (
    SolverConfig, TrajectoryGrid, default_config, sample_initial_condition,
    solve_pde,
)
from liesindy.expr import DepVar, IndepVar, JetSpace, is_zero, parse, simplify
from liesindy.harness import (
    SPACE, ExperimentConfig, _solve_sets, _trajectories, ground_truth,
    long_term_mse, run_experiment,
)
from liesindy.invariants import (
    builtin_set, eliminate_translations, truth_equation, verify_set,
)
from liesindy.jetgrid import FeatureMatrix, finite_differences
from liesindy.liealg import VectorField, check_symmetry_criterion, prolong
from liesindy.regress import model_from_dict, model_to_equation, stlsq
from nkdv_oracle import solve_nkdv_direct

P = lambda s: parse(s, SPACE)
SYSTEMS = ("kdv", "ks", "burgers", "nkdv")
SEED = 2024


def _verdict(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    print(f"{line} {detail}".rstrip())
    return ok


def _same(expr, text, space=SPACE):
    return is_zero(simplify(expr - parse(text, space)))


# ---------------------------------------------------------------------------
# shared experiment batches


@pytest.fixture(scope="module")
def crit7():
    """Noiseless DI-SINDy, 10 runs per system; KdV also keeps rollouts."""
    t0 = time.monotonic()
    reports = {}
    for system in SYSTEMS:
        solver = None
        if system in ("ks", "burgers"):
            solver = default_config(system).to_dict()
            solver["nx"] = 512
        cfg = ExperimentConfig(system=system, method="di-sindy", runs=10,
                               seed=SEED, solver=solver,
                               long_term=(system == "kdv"))
        reports[system] = (cfg, run_experiment(cfg))
    return reports, time.monotonic() - t0


@pytest.fixture(scope="module")
def crit8():
    """sigma=1e-3 contrast batches."""
    t0 = time.monotonic()
    out = {}
    for method in ("sindy", "di-sindy"):
        cfg = ExperimentConfig(system="ks", method=method, runs=10,
                               noise_sigma=1e-3, seed=SEED, long_term=False)
        out[f"ks_{method}"] = run_experiment(cfg).success_rate
    solver = default_config("burgers").to_dict()
    solver["params"] = {"nu": 0.3}   # slower fronts; truth picks up +0.3 u_xx
    sweep = []
    for lam in (1e-3, 1e-2, 1e-1):
        cfg = ExperimentConfig(system="burgers", method="equiv-r", runs=10,
                               noise_sigma=1e-3, lam=lam, seed=SEED,
                               solver=solver, long_term=False)
        sweep.append(run_experiment(cfg).success_rate)
    out["burgers_sweep"] = sweep
    return out, time.monotonic() - t0


# ---------------------------------------------------------------------------
# 1. symbolic prolongation fixtures


def test_criterion_01_prolongation_fixtures():
    t0 = time.monotonic()
    plane = JetSpace(independent=("x",), dependent=("u",), order=2,
                     evolution=False)
    rot = prolong(VectorField(plane, xi=(-DepVar("u"),),
                              phi=(IndepVar("x"),)), 2)
    checks = [_same(rot.coeff("u", ("x",)), "1 + u_x^2", plane)]

    kdv = builtin_set("kdv")
    shift = prolong(kdv.generators[0], 4)      # pr^4 of d/dx is d/dx
    checks.append(all(is_zero(c) for _, c in shift.coeffs))
    gal = prolong(kdv.generators[2], 4)
    checks.append(_same(gal.coeff("u", ("t",)), "-u_x"))
    checks.extend(is_zero(gal.coeff("u", ("x",) * m)) for m in range(1, 5))

    nk = builtin_set("nkdv")
    decay = prolong(nk.generators[1], 4)
    checks.append(_same(decay.coeff("u", ("t",)), "exp(-t/t0)*u_t/t0"))
    ngal = prolong(nk.generators[2], 4)
    checks.append(_same(ngal.coeff("u", ("t",)), "-exp(t/t0)*u_x"))

    elapsed = time.monotonic() - t0
    ok = all(checks) and elapsed < 1.0
    assert _verdict(1, "prolongation fixtures", ok,
                    f"({elapsed:.2f}s)"), checks


# 2. infinitesimal symmetry criterion on the governing equations


def test_criterion_02_infinitesimal_criterion():
    t0 = time.monotonic()
    bad = []
    for system in SYSTEMS:
        f = truth_equation(system)
        for v in builtin_set(system).generators:
            rep = check_symmetry_criterion(prolong(v, 4), f)
            if not rep.symbolic_zero:
                bad.append((system, v.name))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 1.0
    assert _verdict(2, "infinitesimal criterion", ok,
                    f"({elapsed:.2f}s)"), bad


# 3. invariant catalog verification


def test_criterion_03_catalog_verification():
    t0 = time.monotonic()
    rows = []
    for system in SYSTEMS:
        rep = verify_set(builtin_set(system))
        rows.append((system, rep.passed, rep.numeric_max,
                     rep.jacobian_min_sv, rep.jacobian_ok_fraction))
    elapsed = time.monotonic() - t0
    ok = all(p and nmax < 1e-9 and frac >= 0.99
             for _, p, nmax, _, frac in rows) and elapsed < 10.0
    assert _verdict(3, "catalog verification", ok,
                    f"({elapsed:.1f}s)"), rows


# 4. translation elimination table


def test_criterion_04_translation_elimination():
    kdv = builtin_set("kdv")
    full = ["t", "x", "u", "u_t", "u_x", "u_xx", "u_xxx", "u_xxxx"]
    rows = {
        "none": eliminate_translations([], 4)[0],
        "x": eliminate_translations(kdv.generators[:1], 4)[0],
        "xt": eliminate_translations(kdv.generators[:2], 4)[0],
    }
    expect = {
        "none": full,
        "x": [c for c in full if c != "x"],
        "xt": [c for c in full if c not in ("t", "x")],
    }
    ok = rows == expect
    assert _verdict(4, "translation elimination", ok), rows


# 5. finite-difference convergence


def _jet_errors(nx, nt):
    length = 2.0 * math.pi
    x = np.arange(nx) * (length / nx)
    t = np.linspace(0.0, 1.0, nt)
    u = np.sin(x)[None, :] * np.exp(np.cos(t))[:, None]
    jet = finite_differences(TrajectoryGrid(x, t, u), n=4)
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
    return {k: float(np.max(np.abs(jet[k] - v))) for k, v in truth.items()}


def test_criterion_05_fd_convergence():
    t0 = time.monotonic()
    coarse = _jet_errors(64, 201)
    fine = _jet_errors(128, 401)
    ratios = {k: coarse[k] / fine[k] for k in coarse}
    elapsed = time.monotonic() - t0
    ok = all(3.7 <= r <= 4.3 for r in ratios.values()) and elapsed < 5.0
    assert _verdict(5, "fd convergence", ok,
                    f"({elapsed:.2f}s)"), ratios


# 6. solver sanity


def test_criterion_06_solver_sanity():
    t0 = time.monotonic()
    details = {}

    cfg = default_config("kdv")
    [tr] = solve_pde(
        cfg, sample_initial_condition(cfg.nx, cfg.length, 3)[None])
    mass = tr.u.sum(axis=1) * tr.h
    details["kdv_mass_rel"] = float(np.max(np.abs(mass - mass[0]))
                                    / max(abs(mass[0]), tr.h))
    mass_ok = details["kdv_mass_rel"] < 1e-8

    ncfg = SolverConfig("nkdv", nx=256, length=20.0, dt=0.01, nt=50,
                        params={"t0": 1.0})
    ic = sample_initial_condition(ncfg.nx, ncfg.length, 5)
    [sub] = solve_pde(ncfg, ic[None])
    direct = solve_nkdv_direct(ic, ncfg)
    details["nkdv_linf"] = float(np.max(np.abs(sub.u - direct.u)))
    nkdv_ok = details["nkdv_linf"] < 1e-6

    bcfg = default_config("burgers")
    [btr] = solve_pde(
        bcfg, sample_initial_condition(bcfg.nx, bcfg.length, 9)[None])
    l2 = np.sqrt((btr.u ** 2).sum(axis=1) * btr.h)
    details["burgers_l2_max_rise"] = float(np.max(np.diff(l2)))
    burgers_ok = details["burgers_l2_max_rise"] <= 1e-12

    elapsed = time.monotonic() - t0
    ok = mass_ok and nkdv_ok and burgers_ok and elapsed < 60.0
    assert _verdict(6, "solver sanity", ok, f"({elapsed:.1f}s)"), details


# 7. noiseless DI-SINDy reproduction


def test_criterion_07_noiseless_discovery(crit7):
    reports, elapsed = crit7
    bounds = {"kdv": 5e-2, "ks": 5e-2, "burgers": 1e-3, "nkdv": 5e-2}
    rows = {s: (rep.success_rate, rep.rmse_successful)
            for s, (_, rep) in reports.items()}
    ok = all(rate == 1.0 and err <= bounds[s]
             for s, (rate, err) in rows.items()) and elapsed < 600.0
    assert _verdict(7, "noiseless discovery", ok,
                    f"({elapsed:.0f}s) " + " ".join(
                        f"{s}:{r:.0%}/{e:.2e}"
                        for s, (r, e) in rows.items())), rows


# 8. noisy baseline contrast


def test_criterion_08_baseline_contrast(crit8):
    out, elapsed = crit8
    sweep = out["burgers_sweep"]
    ks_ok = out["ks_sindy"] == 0.0 and out["ks_di-sindy"] >= 0.8
    trend_ok = all(a <= b for a, b in zip(sweep, sweep[1:])) and sweep[-1] > 0
    ok = ks_ok and trend_ok and elapsed < 900.0
    assert _verdict(
        8, "baseline contrast", ok,
        f"({elapsed:.0f}s) ks {out['ks_sindy']:.0%} vs "
        f"{out['ks_di-sindy']:.0%}; burgers sweep "
        + "/".join(f"{r:.0%}" for r in sweep)), out


# 9. every discovered DI model is symbolically symmetric


def test_criterion_09_symmetry_guarantee(crit7):
    reports, _ = crit7
    bad = []
    for system, (_, rep) in reports.items():
        pvs = [prolong(v, 4) for v in builtin_set(system).generators]
        for r, blob in enumerate(rep.models):
            eq = model_to_equation(model_from_dict(blob, space=SPACE))
            for pv in pvs:
                if not check_symmetry_criterion(pv, eq).symbolic_zero:
                    bad.append((system, r, pv.base.name))
    ok = not bad
    assert _verdict(9, "symmetry guarantee", ok,
                    "(120 generator checks)"), bad


# 10. long-term prediction vs the exact-equation rollout


def test_criterion_10_longterm_prediction(crit7):
    reports, _ = crit7
    t0 = time.monotonic()
    cfg, rep = reports["kdv"]
    truth = ground_truth("kdv", cfg.target, cfg.features, cfg.solver.params)
    tests = _trajectories(_solve_sets(cfg, (), test=True)[0])
    [(ref, _, _)] = long_term_mse([truth], tests, cfg.solver)
    disc = np.array(rep.longterm_mean[1:51])
    ref = np.array(ref[1:51])
    ratio = float(np.max(disc / np.maximum(ref, 1e-300)))
    elapsed = time.monotonic() - t0
    ok = bool(np.all(disc <= 2.0 * ref)) and elapsed < 300.0
    assert _verdict(
        10, "long-term prediction", ok,
        f"({elapsed:.0f}s) max discovered/truth MSE ratio {ratio:.1e} "
        f"(truth floor {ref[-1]:.1e}, discovered {disc[-1]:.1e})"), ratio


# 11. STLSQ against exhaustive best-subset search


def _fm(values, target):
    """The sums of synthetic rows: column j is the symbol c<j>."""
    names = [f"c{j}" for j in range(values.shape[1])]
    fm = FeatureMatrix([P(s) for s in names], P("u_t"))
    fm.add({**dict(zip(names, values.T)), "u_t": target})
    return fm


def _best_subset(a, y, threshold):
    n = a.shape[1]
    best = (np.inf, n + 1, ())          # residual, support size, indices
    for size in range(n + 1):
        for sub in itertools.combinations(range(n), size):
            cols = list(sub)
            if cols:
                c, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
                if np.any(np.abs(c) < threshold):
                    continue
                resid = float(np.sum((y - a[:, cols] @ c) ** 2))
            else:
                c = np.zeros(0)
                resid = float(np.sum(y ** 2))
            key = (resid, size, sub)
            if key < best:
                best = key
                coef = np.zeros(n)
                coef[cols] = c
    return np.array(best[2], dtype=int), coef


def test_criterion_11_regression_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240812)
    threshold = 0.5
    matches = 0
    worst = 0.0
    for _ in range(50):
        n_feats = int(rng.integers(4, 9))
        n_active = int(rng.integers(1, min(3, n_feats) + 1))
        while True:
            a = rng.normal(size=(200, n_feats))
            if np.linalg.cond(a) < 100.0:
                break
        support = rng.choice(n_feats, size=n_active, replace=False)
        w = np.zeros(n_feats)
        w[support] = rng.uniform(0.8, 2.0, size=n_active) * \
            rng.choice([-1.0, 1.0], size=n_active)
        y = a @ w
        model = stlsq(_fm(a, y), threshold=threshold)
        oracle_support, oracle_coef = _best_subset(a, y, threshold)
        if np.array_equal(np.flatnonzero(model.mask), oracle_support):
            matches += 1
            worst = max(worst,
                        float(np.max(np.abs(model.weights - oracle_coef))))
    elapsed = time.monotonic() - t0
    ok = matches >= 48 and worst < 1e-8 and elapsed < 30.0
    assert _verdict(11, "regression oracle", ok,
                    f"({elapsed:.1f}s) {matches}/50 supports, "
                    f"max coef gap {worst:.1e}"), (matches, worst)
