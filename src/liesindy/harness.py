"""Experiment orchestration: configs, metrics, reports, reproducible batches.

An experiment is one (system, method) cell: `runs` repetitions, each with
fresh training data, one regression, and a scored model.  Everything derives
from the master seed through named SeedSequence children, so a config file
pins the entire batch bit-for-bit, including the CSV bytes.  Workers only
change wall-clock time, never content; the pool size comes from the
LIESINDY_WORKERS environment variable and nowhere else.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dynamics import (
    NUMBER, BlowUpError, ConfigError, SolverConfig, add_noise,
    check_config_dict, default_config, integrate_model, load_trajectories,
    sample_initial_condition, save_trajectories, solve_pde,
)
from .expr import (
    Add, Const, JetSpace, LiesindyError, is_zero, parse, simplify,
    substitute, to_string,
)
from .invariants import builtin_set, truth_equation
from .jetgrid import evaluate_features, finite_differences, spectral_jets
from .regress import (
    LibrarySpec, SparseModel, build_library, model_from_dict, model_to_dict,
    stlsq, stlsq_regularized,
)

__all__ = [
    "ExperimentConfig", "DiscoveryReport", "HarnessError", "ground_truth",
    "success", "rmse", "long_term_mse", "run_experiment", "generate_dataset",
    "write_report", "load_runs_csv", "load_longterm_csv", "summarize_rows",
    "write_summary_csv", "render_longterm_svg", "METHODS",
]

METHODS = ("sindy", "equiv-r", "di-sindy")

# reserved run tag for the shared test initial conditions
_TEST_TAG = 0xFFFFFFFF

SPACE = JetSpace(("t", "x"), ("u",), 4)

_BASELINE_INPUTS = ("u", "u_x", "u_xx", "u_xxx", "u_xxxx")

# config key -> (accepted JSON value types, their name in error messages)
_CONFIG_TYPES = {
    "system": ((str,), "a string"),
    "method": ((str,), "a string"),
    "runs": ((int,), "an integer"),
    "solver": ((dict, type(None)), "an object or null"),
    "noise_sigma": NUMBER,
    "threshold": ((int, float, type(None)), "a number or null"),
    "lam": NUMBER,
    "library": ((dict,), "an object"),
    "seed": ((int,), "an integer"),
    "output_dir": ((str,), "a string"),
    "long_term": ((bool,), "true or false"),
}
_LIBRARY_TYPES = {
    "mode": ((str,), "a string"),
    "inputs": ((list,), "a list"),
    "include_constant": ((bool,), "true or false"),
}


class HarnessError(LiesindyError):
    pass


@dataclass
class ExperimentConfig:
    """One experiment cell.  Round-trips losslessly through JSON.

    `library` configures the baseline feature library (mode, inputs,
    include_constant); di-sindy takes its inputs from the invariant catalog
    and honors only include_constant.  `lam` matters only for equiv-r.
    `long_term` switches the per-run prediction-error series on or off.
    """

    system: str
    method: str
    runs: int = 10
    solver: SolverConfig | None = None
    noise_sigma: float = 0.0
    threshold: float | None = None     # per-system default when omitted
    lam: float = 0.0
    library: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "results"
    long_term: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise HarnessError(f"unknown method '{self.method}'")
        if self.runs < 1:
            raise HarnessError("runs must be at least 1")
        if self.noise_sigma < 0:
            raise HarnessError("noise_sigma must be non-negative")
        if self.threshold is None:
            self.threshold = 5e-3 if self.system == "burgers" else 0.5
        if self.threshold <= 0:
            raise HarnessError("threshold must be positive")
        if self.lam < 0:
            raise HarnessError("lam must be non-negative")
        if self.solver is None:
            self.solver = default_config(self.system)
        elif isinstance(self.solver, dict):
            self.solver = SolverConfig.from_dict(self.solver)
        if self.solver.system != self.system:
            raise ConfigError(
                f"solver is for '{self.solver.system}', not '{self.system}'")
        builtin_set(self.system)          # catalog entry must exist
        truth_equation(self.system)       # and carry a ground-truth equation
        lib = dict(self.library)
        lib.setdefault("mode", "poly2")
        lib.setdefault("inputs", list(_BASELINE_INPUTS))
        lib.setdefault("include_constant", False)
        self.library = lib
        self.features, self.target, self.generators = _problem(self)

    def to_dict(self):
        return {"system": self.system, "method": self.method,
                "runs": self.runs, "solver": self.solver.to_dict(),
                "noise_sigma": self.noise_sigma,
                "threshold": self.threshold, "lam": self.lam,
                "library": dict(self.library), "seed": self.seed,
                "output_dir": self.output_dir, "long_term": self.long_term}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise HarnessError(
                f"config must be a JSON object, not {type(d).__name__}")
        d = dict(d)
        d.pop("digest", None)
        check_config_dict(d, _CONFIG_TYPES, "config", HarnessError)
        missing = [k for k in ("system", "method") if k not in d]
        if missing:
            raise HarnessError(f"config lacks required keys {missing}")
        lib = d.get("library", {})
        check_config_dict(lib, _LIBRARY_TYPES, "library", HarnessError)
        if not all(isinstance(s, str) for s in lib.get("inputs", [])):
            raise HarnessError("library inputs must be strings")
        return cls(**d)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def save(self, path):
        d = self.to_dict()
        d["digest"] = self.digest()
        with open(path, "w") as f:
            json.dump(d, f, indent=1, sort_keys=True)
            f.write("\n")

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def data_digest(self):
        """Hash of only the data-defining fields, shared across methods."""
        blob = json.dumps({"system": self.system,
                           "solver": self.solver.to_dict(),
                           "runs": self.runs,
                           "noise_sigma": self.noise_sigma,
                           "seed": self.seed}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def method_label(self):
        if self.method == "equiv-r":
            return f"equiv-r(lambda={self.lam!r})"
        return self.method


def _problem(cfg: ExperimentConfig):
    """Resolve (features, target, generators) for the config's method."""
    inv = builtin_set(cfg.system)
    if cfg.method == "di-sindy":
        feats = list(inv.rhs_features())
        if cfg.library.get("include_constant"):
            feats = [Const(1.0)] + feats
        return feats, inv.lhs, list(inv.generators)
    inputs = tuple(parse(s, SPACE) for s in cfg.library["inputs"])
    feats = build_library(LibrarySpec(
        cfg.library["mode"], inputs,
        include_constant=bool(cfg.library["include_constant"])))
    if cfg.system == "nkdv":
        target = parse("exp(-t/t0)*u_t", SPACE)
    else:
        target = parse("u_t", SPACE)
    gens = list(inv.generators) if cfg.method == "equiv-r" else None
    return feats, target, gens


# ---------------------------------------------------------------------------
# ground truth and metrics


def ground_truth(system, target, features, params) -> SparseModel:
    """Project the catalog's governing equation onto a feature ordering.

    The equation is target - sum_j w_j feat_j = 0; every residual term must
    be a constant multiple of exactly one library feature once the physical
    parameters are substituted, otherwise the library cannot represent the
    truth and the experiment is ill-posed.
    """
    resid = simplify(substitute(truth_equation(system) - target,
                                dict(params)))
    w = np.zeros(len(features))
    if not is_zero(resid):
        terms = resid.terms if isinstance(resid, Add) else (resid,)
        for term in terms:
            for j, f in enumerate(features):
                ratio = simplify(term / f)
                if isinstance(ratio, Const):
                    w[j] -= ratio.value
                    break
            else:
                raise HarnessError(
                    f"truth term {to_string(term)} is outside the library")
    return SparseModel(target=target, features=list(features), coef=w,
                       mask=w != 0.0, threshold=0.0 if not w.any()
                       else float(np.min(np.abs(w[w != 0.0]))))


def success(m: SparseModel, truth: SparseModel) -> bool:
    """Recovered support identical to the ground-truth support."""
    if [to_string(f) for f in m.features] != \
            [to_string(f) for f in truth.features]:
        raise HarnessError("feature orderings do not align")
    return bool(np.array_equal(m.mask, truth.mask))


def rmse(models, truth: SparseModel):
    """(rmse over successful runs or None, rmse over all runs or None)."""
    if not models:
        return None, None
    errs = np.array([float(np.linalg.norm(m.weights - truth.weights))
                     for m in models])
    ok = np.array([success(m, truth) for m in models])
    rmse_all = float(np.sqrt(np.mean(errs ** 2)))
    if ok.any():
        return float(np.sqrt(np.mean(errs[ok] ** 2))), rmse_all
    return None, rmse_all


def long_term_mse(model, test_trajs, solver: SolverConfig):
    """Per-step spatial MSE vs ground truth, averaged over the test ICs.

    The model is rolled out from every test IC in one batched call.  Each
    test trajectory contributes mean_x (u_model - u_truth)^2 per step; a
    blow-up truncates that IC's series to the finite rows before it and
    flags the result.  The averaged series stops at the shortest surviving
    length.
    """
    rollouts = integrate_model(model, np.array([tr.u[0] for tr in test_trajs]),
                               solver)
    per_ic = []
    blown = False
    for tr, out in zip(test_trajs, rollouts):
        if isinstance(out, BlowUpError):
            u_model = out.rows
            blown = True
        else:
            u_model = out.u
        n = u_model.shape[0]
        per_ic.append(np.mean((u_model - tr.u[:n]) ** 2, axis=1))
    n_common = min(s.size for s in per_ic)
    mean = np.mean([s[:n_common] for s in per_ic], axis=0)
    return mean, per_ic, blown


# ---------------------------------------------------------------------------
# batch execution


def _run_seeds(master, run):
    state = np.random.SeedSequence((master, run)).generate_state(12)
    return {"train_ic": [int(v) for v in state[0:4]],
            "test_ic": [int(v) for v in state[4:8]],
            "noise": [int(v) for v in state[8:12]]}


def holdout_initial_seeds(cfg: ExperimentConfig):
    return _run_seeds(cfg.seed, _TEST_TAG)["test_ic"]


def make_test_set(cfg: ExperimentConfig):
    """The four clean test trajectories shared by every run, in one solve."""
    seeds = holdout_initial_seeds(cfg)
    ics = np.array([sample_initial_condition(cfg.solver.nx, cfg.solver.length,
                                             s) for s in seeds])
    return solve_pde(cfg.system, ics, cfg.solver,
                     meta=[{"role": "test", "ic_seed": s} for s in seeds])


def make_train_set(cfg: ExperimentConfig, run):
    """Run `run`'s four training trajectories, in one solve.

    Noise is added per trajectory, each from its own seed.
    """
    seeds = _run_seeds(cfg.seed, run)
    ics = np.array([sample_initial_condition(cfg.solver.nx, cfg.solver.length,
                                             s) for s in seeds["train_ic"]])
    trajs = solve_pde(cfg.system, ics, cfg.solver,
                      meta=[{"role": "train", "run": run, "ic_seed": s}
                            for s in seeds["train_ic"]])
    return [add_noise(tr, cfg.noise_sigma, noise_seed)
            for tr, noise_seed in zip(trajs, seeds["noise"])]


def _jet_estimator(cfg: ExperimentConfig):
    """(name, estimator) for the config's data, as runs.csv records it.

    Noiseless data (noise_sigma == 0) gets `spectral_jets`, whose bias is
    far below the finite-difference estimator's O(h^2); noisy data gets
    `finite_differences`, which does not amplify high-wavenumber noise.
    """
    if cfg.noise_sigma == 0:
        return "spectral", spectral_jets
    return "fd2", finite_differences


def build_feature_matrix(cfg: ExperimentConfig, trains):
    """One feature matrix over all the training trajectories, in order.

    Jets come from the estimator `_jet_estimator` picks; the features are
    evaluated once over the rows of every trajectory.
    """
    _, jets = _jet_estimator(cfg)
    return evaluate_features([jets(tr, n=4) for tr in trains], cfg.features,
                             cfg.target, constants=cfg.solver.params)


def _fit(cfg: ExperimentConfig, fm):
    if cfg.method == "equiv-r":
        return stlsq_regularized(fm, cfg.generators, lam=cfg.lam,
                                 threshold=cfg.threshold)
    return stlsq(fm, threshold=cfg.threshold)


def _run_one(cfg_dict, run, data_dir, test_trajs):
    """One run: data, regression, scoring.  Returns a plain-data dict."""
    cfg = ExperimentConfig.from_dict(cfg_dict)
    truth = ground_truth(cfg.system, cfg.target, cfg.features,
                         cfg.solver.params)
    seeds = _run_seeds(cfg.seed, run)
    row = {"run": run, "status": "ok", "success": 0, "err_norm": "",
           "n_rows": 0, "dropped": 0, "jets": _jet_estimator(cfg)[0],
           "iterations": 0, "rank_warning": 0, "condition_number": "",
           "min_singular_value": "", "active": "", "message": "",
           "train_seeds": "|".join(map(str, seeds["train_ic"])),
           "noise_seeds": "|".join(map(str, seeds["noise"]))}
    out = {"row": row, "model": None, "longterm": None}
    # an unreadable dataset ends the experiment instead of one run
    trains = (None if data_dir is None else
              load_trajectories(os.path.join(data_dir, f"run_{run}"))[0])
    try:
        if trains is None:
            trains = make_train_set(cfg, run)
        fm = build_feature_matrix(cfg, trains)
        model = _fit(cfg, fm)
        row["n_rows"] = int(fm.target.size)
        row["dropped"] = int(fm.dropped)
        row["iterations"] = int(model.diagnostics["iterations"])
        row["rank_warning"] = int(model.diagnostics["rank_warning"])
        for key in ("condition_number", "min_singular_value"):
            row[key] = repr(float(model.diagnostics[key]))
        row["success"] = int(success(model, truth))
        row["err_norm"] = repr(
            float(np.linalg.norm(model.weights - truth.weights)))
        row["active"] = "|".join(to_string(f)
                                 for f in model.active_features())
        out["model"] = model_to_dict(model)
        if cfg.long_term and test_trajs is not None:
            mean, per_ic, blown = long_term_mse(model, test_trajs,
                                                cfg.solver)
            out["longterm"] = {"mean": [repr(float(v)) for v in mean],
                               "per_ic": [[repr(float(v)) for v in s]
                                          for s in per_ic],
                               "blown": bool(blown)}
    except LiesindyError as err:
        row["status"] = "error"
        row["message"] = f"{type(err).__name__}: {err}"
    return out


@dataclass
class DiscoveryReport:
    config: dict
    rows: list
    models: list                 # model dict or None per run
    success_rate: float
    rmse_successful: float | None
    rmse_all: float | None
    longterm_mean: list | None   # averaged over runs and test ICs
    longterm_std: list | None
    longterm_counts: list | None
    blown_runs: int
    provenance: dict


def _aggregate_longterm(series):
    """Mean/std/count per step over float series of any lengths."""
    if not series:
        return None, None, None
    n_max = max(len(s) for s in series)
    mean, std, count = [], [], []
    for j in range(n_max):
        vals = np.array([s[j] for s in series if len(s) > j])
        mean.append(float(np.mean(vals)))
        std.append(float(np.std(vals)))
        count.append(int(vals.size))
    return mean, std, count


def run_experiment(cfg: ExperimentConfig, data_dir=None,
                   out_dir=None) -> DiscoveryReport:
    """Execute every run, aggregate, and (optionally) write the report.

    With `data_dir`, trajectories come from a generated dataset (its
    data_digest must match the config); otherwise they are solved in
    memory from the same seeds, which yields byte-identical reports.
    """
    if data_dir is not None:
        with open(os.path.join(data_dir, "dataset.json")) as f:
            blob = json.load(f)
        if not isinstance(blob, dict) or "data_digest" not in blob:
            raise HarnessError(f"{data_dir}/dataset.json has no data_digest")
        tag = blob["data_digest"]
        if tag != cfg.data_digest():
            raise HarnessError(
                f"dataset digest {tag} does not match the config's "
                f"{cfg.data_digest()}")
    if not cfg.long_term:
        test_trajs = None
    elif data_dir is not None and os.path.isdir(
            os.path.join(data_dir, "test")):
        test_trajs, _ = load_trajectories(os.path.join(data_dir, "test"))
    else:
        test_trajs = make_test_set(cfg)

    workers = int(os.environ.get("LIESINDY_WORKERS", "1"))
    cfg_dict = cfg.to_dict()
    results = [None] * cfg.runs
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = {pool.submit(_run_one, cfg_dict, r, data_dir,
                                test_trajs): r for r in range(cfg.runs)}
            for fut, r in futs.items():
                results[r] = fut.result()
    else:
        for r in range(cfg.runs):
            results[r] = _run_one(cfg_dict, r, data_dir, test_trajs)

    rows = [res["row"] for res in results]
    models = [res["model"] for res in results]
    truth = ground_truth(cfg.system, cfg.target, cfg.features,
                         cfg.solver.params)
    fitted = [model_from_dict(m, space=SPACE)
              for m in models if m is not None]
    rate = float(np.mean([r["success"] for r in rows])) if rows else 0.0
    rmse_ok, rmse_all = rmse(fitted, truth) if fitted else (None, None)
    lt_mean, lt_std, lt_count = _aggregate_longterm(
        [[float(v) for v in res["longterm"]["mean"]]
         for res in results if res["longterm"] is not None])
    report = DiscoveryReport(
        config=cfg.to_dict(),
        rows=rows,
        models=models,
        success_rate=rate,
        rmse_successful=rmse_ok,
        rmse_all=rmse_all,
        longterm_mean=lt_mean,
        longterm_std=lt_std,
        longterm_counts=lt_count,
        blown_runs=sum(1 for res in results
                       if res["longterm"] and res["longterm"]["blown"]),
        provenance={"digest": cfg.digest(),
                    "data_digest": cfg.data_digest(),
                    "package": __version__,
                    "numpy": np.__version__,
                    "python": sys.version.split()[0]})
    if out_dir is not None:
        write_report(report, out_dir, results)
    return report


def generate_dataset(cfg: ExperimentConfig, out_dir):
    """Write the test set and each run's training set under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    save_trajectories(os.path.join(out_dir, "test"), make_test_set(cfg),
                      config=cfg.solver)
    for r in range(cfg.runs):
        save_trajectories(os.path.join(out_dir, f"run_{r}"),
                          make_train_set(cfg, r), config=cfg.solver)
    with open(os.path.join(out_dir, "dataset.json"), "w") as f:
        json.dump({"data_digest": cfg.data_digest(),
                   "system": cfg.system, "runs": cfg.runs,
                   "noise_sigma": cfg.noise_sigma, "seed": cfg.seed},
                  f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# report files


RUN_COLUMNS = ["run", "status", "success", "err_norm", "n_rows", "dropped",
               "jets", "iterations", "rank_warning", "condition_number",
               "min_singular_value", "active", "message", "train_seeds",
               "noise_seeds"]


def write_report(report: DiscoveryReport, out_dir, results=None):
    os.makedirs(out_dir, exist_ok=True)
    cfg = ExperimentConfig.from_dict(report.config)
    cfg.save(os.path.join(out_dir, "config.json"))
    with open(os.path.join(out_dir, "runs.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=RUN_COLUMNS)
        w.writeheader()
        for row in report.rows:
            w.writerow(row)
    write_summary_csv(os.path.join(out_dir, "summary.csv"),
                      [(cfg.system, cfg.method_label(), report.success_rate,
                        report.rmse_successful, report.rmse_all)])
    mdir = os.path.join(out_dir, "models")
    os.makedirs(mdir, exist_ok=True)
    for r, model in enumerate(report.models):
        blob = {"run": r, "model": model}
        if results is not None and results[r]["longterm"] is not None:
            blob["longterm"] = results[r]["longterm"]
        with open(os.path.join(mdir, f"run_{r}.json"), "w") as f:
            json.dump(blob, f, indent=1, sort_keys=True)
            f.write("\n")
    if report.longterm_mean is not None:
        _write_longterm_csv(os.path.join(out_dir, "longterm.csv"),
                            report.longterm_mean, report.longterm_std,
                            report.longterm_counts)
        render_longterm_svg(
            os.path.join(out_dir, "longterm.svg"),
            report.longterm_mean, report.longterm_std,
            title=f"{cfg.system} {cfg.method_label()} long-term MSE")


def _write_longterm_csv(path, mean, std, counts):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "mean_mse", "std_mse", "n_series"])
        for j, (m, s, n) in enumerate(zip(mean, std, counts)):
            w.writerow([j, repr(m), repr(s), n])


def load_longterm_csv(path):
    """(mean, std) series back from a longterm.csv."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return ([float(r["mean_mse"]) for r in rows],
            [float(r["std_mse"]) for r in rows])


def write_summary_csv(path, entries):
    """entries: (system, method, success_rate, rmse_ok or None, rmse_all)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["system", "method", "success_rate", "rmse_successful",
                    "rmse_all"])
        for system, method, rate, ok, allv in entries:
            w.writerow([system, method, repr(float(rate)),
                        "N/A" if ok is None else repr(float(ok)),
                        "N/A" if allv is None else repr(float(allv))])


def load_runs_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def summarize_rows(rows):
    """Recompute the summary aggregates from per-run CSV rows."""
    rate = float(np.mean([int(r["success"]) for r in rows])) if rows else 0.0
    errs = [(int(r["success"]), float(r["err_norm"]))
            for r in rows if r["status"] == "ok" and r["err_norm"]]
    if not errs:
        return rate, None, None
    all_sq = np.array([e * e for _, e in errs])
    ok_sq = np.array([e * e for s, e in errs if s])
    rmse_all = float(np.sqrt(np.mean(all_sq)))
    rmse_ok = float(np.sqrt(np.mean(ok_sq))) if ok_sq.size else None
    return rate, rmse_ok, rmse_all


# ---------------------------------------------------------------------------
# SVG rendering (no plotting dependency)


_SVG_FLOOR = 1e-18


def render_longterm_svg(path, mean, std=None, title="long-term MSE",
                        width=640, height=420):
    """Log-scale MSE-vs-step line with an optional shaded std band.

    Step 0 is exactly zero by construction (identical initial conditions)
    and is omitted from the log plot.
    """
    mean = [float(v) for v in mean]
    std = [float(v) for v in std] if std is not None else [0.0] * len(mean)
    steps = list(range(1, len(mean)))
    if not steps:
        steps = [1]
        mean = mean + [_SVG_FLOOR]
        std = std + [0.0]
    ys = [max(mean[j], _SVG_FLOOR) for j in steps]
    lo = [max(mean[j] - std[j], _SVG_FLOOR) for j in steps]
    hi = [max(mean[j] + std[j], _SVG_FLOOR) for j in steps]
    ymin = math.floor(math.log10(min(lo)))
    ymax = math.ceil(math.log10(max(hi)))
    if ymax == ymin:
        ymax += 1
    x0, x1, y0, y1 = 70, width - 20, height - 50, 30

    def px(step):
        return x0 + (x1 - x0) * (step - steps[0]) / max(
            1, steps[-1] - steps[0])

    def py(v):
        lv = math.log10(max(v, _SVG_FLOOR))
        return y0 + (y1 - y0) * (lv - ymin) / (ymax - ymin)

    band = " ".join(f"{px(s):.1f},{py(h):.1f}"
                    for s, h in zip(steps, hi))
    band += " " + " ".join(f"{px(s):.1f},{py(l):.1f}"
                           for s, l in zip(reversed(steps), reversed(lo)))
    line = " ".join(f"{px(s):.1f},{py(v):.1f}" for s, v in zip(steps, ys))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="18" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{title}</text>',
    ]
    for d in range(ymin, ymax + 1):
        y = py(10.0 ** d)
        parts.append(f'<line x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 6}" y="{y + 4:.1f}" font-size="10" '
                     f'text-anchor="end" font-family="sans-serif">'
                     f'1e{d}</text>')
    n_ticks = min(8, len(steps))
    for i in range(n_ticks):
        s = steps[0] + round(i * (steps[-1] - steps[0]) /
                             max(1, n_ticks - 1))
        x = px(s)
        parts.append(f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" '
                     f'y2="{y0 + 4}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.1f}" y="{y0 + 16}" font-size="10" '
                     f'text-anchor="middle" font-family="sans-serif">'
                     f'{s}</text>')
    parts.append(f'<polygon points="{band}" fill="#4477aa" '
                 f'fill-opacity="0.2" stroke="none"/>')
    parts.append(f'<polyline points="{line}" fill="none" stroke="#4477aa" '
                 f'stroke-width="1.6"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 f'stroke="#333333"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 f'stroke="#333333"/>')
    parts.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{height - 12}" '
                 f'font-size="11" text-anchor="middle" '
                 f'font-family="sans-serif">time step</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.0f}" font-size="11" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">'
                 f'spatial MSE</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
