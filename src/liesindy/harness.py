"""Experiment orchestration: configs, metrics, reports, reproducible batches.

An experiment is one (system, method) cell: `runs` repetitions, each with
fresh training data, one regression, and a scored model.  Everything derives
from the master seed through named SeedSequence children, so a config file
pins the entire batch bit-for-bit, including the CSV bytes.  The test set
and every run's training set are solved in one batched call, each run is
then fitted in order, each training trajectory freed once the fit's pass
has summed it, and all runs' models are rolled out from every test IC in
one more call; each member gets the bits of its own solve or rollout.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    GENERATOR_VERSION, NUMBER, BlowUpError, ConfigError, SolverConfig,
    add_noise, check_config_dict, integrate_model, load_trajectories,
    read_json, sample_initial_condition, save_trajectories, solve_pde, _grid,
)
from .expr import (
    SPACE, Const, LiesindyError, parse, substitute, to_string,
)
from .invariants import builtin_set, truth_equation
from .jetgrid import evaluate_features, finite_differences, spectral_jets
from .regress import (
    LibrarySpec, SparseModel, action_terms, build_library, model_to_dict,
    project, stlsq, stlsq_regularized,
)

__all__ = [
    "ExperimentConfig", "DiscoveryReport", "HarnessError", "ground_truth",
    "success", "long_term_mse", "run_experiment", "generate_dataset",
    "write_report", "write_longterm", "aggregate_longterm", "load_runs_csv",
    "load_longterm_csv", "summarize_rows", "write_summary_csv",
    "render_longterm_svg", "METHODS",
]

METHODS = ("sindy", "equiv-r", "di-sindy")

# reserved run tag for the shared test initial conditions
_TEST_TAG = 0xFFFFFFFF

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
    long_term: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise HarnessError(f"unknown method '{self.method}'")
        if self.runs < 1:
            raise HarnessError("runs must be at least 1")
        if self.seed < 0:
            raise HarnessError("seed must be non-negative")
        if self.threshold is None:
            self.threshold = 5e-3 if self.system == "burgers" else 0.5
        # NaN passes the range checks below (a NaN threshold switches
        # thresholding off)
        for name, val in (("noise_sigma", self.noise_sigma),
                          ("threshold", self.threshold), ("lam", self.lam)):
            if not math.isfinite(val):
                raise HarnessError(f"{name} must be finite, not {val!r}")
        if self.noise_sigma < 0:
            raise HarnessError("noise_sigma must be non-negative")
        if self.threshold <= 0:
            raise HarnessError("threshold must be positive")
        if self.lam < 0:
            raise HarnessError("lam must be non-negative")
        if self.solver is None:
            self.solver = {"system": self.system}
        if isinstance(self.solver, dict):
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
                "long_term": self.long_term}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise HarnessError(
                f"config must be a JSON object, not {type(d).__name__}")
        d = dict(d)
        # save's stamp, and the unread output_dir of older config files
        for key in ("digest", "output_dir"):
            d.pop(key, None)
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
        """The config in the JSON file at `path`; every error names it."""
        d = read_json(path, HarnessError)
        try:
            return cls.from_dict(d)
        except LiesindyError as err:
            raise HarnessError(f"{path}: {err}") from None

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
        """Hash of only the data-defining fields, shared across methods,
        and of the generator version that wrote the data."""
        blob = json.dumps({"generator": GENERATOR_VERSION,
                           "system": self.system,
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
    # checked for every method, so no config is saved with a bad library,
    # though di-sindy honours only include_constant
    inputs = []
    for i, text in enumerate(cfg.library["inputs"]):
        try:
            inputs.append(parse(text, SPACE))
        except LiesindyError as err:
            raise HarnessError(f"library.inputs[{i}]: {err}") from None
    spec = LibrarySpec(cfg.library["mode"], tuple(inputs),
                       include_constant=bool(cfg.library["include_constant"]))
    if cfg.method == "di-sindy":
        feats = list(inv.rhs_features())
        if spec.include_constant:
            feats = [Const(1.0)] + feats
        return feats, inv.lhs, list(inv.generators)
    feats = build_library(spec)
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

    The equation is target - sum_j w_j feat_j = 0; every term of
    target - equation must be a constant multiple of a library feature once
    the physical parameters are substituted (regress.project), otherwise
    the library cannot represent the truth and the experiment is ill-posed.
    """
    w, rest = project(substitute(target - truth_equation(system), params),
                      features)
    if rest:
        raise HarnessError(
            f"truth term {to_string(rest[0])} is outside the library")
    return SparseModel(target=target, features=list(features), coef=w,
                       mask=w != 0.0, threshold=0.0 if not w.any()
                       else float(np.min(np.abs(w[w != 0.0]))))


def success(m: SparseModel, truth: SparseModel) -> bool:
    """Recovered support identical to the ground-truth support."""
    if [to_string(f) for f in m.features] != \
            [to_string(f) for f in truth.features]:
        raise HarnessError("feature orderings do not align")
    return bool(np.array_equal(m.mask, truth.mask))


def long_term_mse(models, test_trajs, solver: SolverConfig):
    """Per-step spatial MSE vs ground truth, averaged over the test ICs.

    Every model is rolled out from every test IC in one batched call.  Each
    test trajectory contributes mean_x (u_model - u_truth)^2 per step; a
    blow-up truncates that IC's series to the finite rows before it and
    flags the result.  The averaged series stops at the shortest surviving
    length.

    Returns, per model, (mean, per_ic, blown) or the error that stops its
    rollout (UnsupportedModelError, MissingSymbolError).  A test trajectory
    whose x or t is not exactly the solver's grid raises HarnessError.
    """
    x, t = _grid(solver)[:2]
    for i, tr in enumerate(test_trajs):
        for name, got, want in (("x", tr.x, x), ("t", tr.t, t)):
            if not np.array_equal(got, want):
                raise HarnessError(
                    f"test trajectory {i} is off the solver grid: its {name} "
                    f"has {got.size} samples spaced {got[1] - got[0]:.6g}, "
                    f"the solver's {want.size} spaced {want[1] - want[0]:.6g}")
    n = len(test_trajs)
    ics = np.array([tr.u[0] for tr in test_trajs])
    rollouts = integrate_model([m for m in models for _ in range(n)],
                               np.tile(ics, (len(models), 1)), solver)
    results = []
    for i in range(len(models)):
        outs = rollouts[i * n:(i + 1) * n]
        if isinstance(outs[0], LiesindyError) and not isinstance(
                outs[0], BlowUpError):
            results.append(outs[0])
            continue
        per_ic = []
        blown = False
        for tr, out in zip(test_trajs, outs):
            if isinstance(out, BlowUpError):
                u_model = out.rows
                blown = True
            else:
                u_model = out.u
            per_ic.append(np.mean((u_model - tr.u[:u_model.shape[0]]) ** 2,
                                  axis=1))
        n_common = min(s.size for s in per_ic)
        mean = np.mean([s[:n_common] for s in per_ic], axis=0)
        results.append((mean, per_ic, blown))
    return results


# ---------------------------------------------------------------------------
# batch execution


def _run_seeds(master, run):
    state = np.random.SeedSequence((master, run)).generate_state(12)
    return {"train_ic": [int(v) for v in state[0:4]],
            "test_ic": [int(v) for v in state[4:8]],
            "noise": [int(v) for v in state[8:12]]}


def holdout_initial_seeds(cfg: ExperimentConfig):
    return _run_seeds(cfg.seed, _TEST_TAG)["test_ic"]


def _solve_sets(cfg: ExperimentConfig, runs, test=False):
    """The test set (with `test`) and each of `runs`' training sets.

    Every set's ICs are solved in one call.  Returns one list per set, the
    test set first, holding each member's TrajectoryGrid or BlowUpError.
    When noise_sigma > 0, noise is added to each training trajectory right
    after the solve, from its own seed; the test set stays clean.
    """
    sets = []                 # per set: (ic seed, meta, noise seed or None)
    if test:
        sets.append([(s, {"role": "test", "ic_seed": s}, None)
                     for s in holdout_initial_seeds(cfg)])
    for run in runs:
        seeds = _run_seeds(cfg.seed, run)
        sets.append([(s, {"role": "train", "run": run, "ic_seed": s}, n)
                     for s, n in zip(seeds["train_ic"], seeds["noise"])])
    flat = [member for members in sets for member in members]
    ics = np.array([sample_initial_condition(cfg.solver.nx, cfg.solver.length,
                                             s) for s, _, _ in flat])
    outs = solve_pde(cfg.solver, ics, [meta for _, meta, _ in flat])
    if cfg.noise_sigma > 0:
        # in place, so one clean trajectory at a time is alive beside the
        # noisy ones
        for i, (_, _, noise) in enumerate(flat):
            if noise is not None and not isinstance(outs[i], BlowUpError):
                outs[i] = add_noise(outs[i], cfg.noise_sigma, noise)
    outs = iter(outs)
    return [[next(outs) for _ in members] for members in sets]


def _trajectories(outcomes):
    """A solved set's trajectories, or its first blown member's error.

    The error names the member by its place in the set.
    """
    for b, tr in enumerate(outcomes):
        if isinstance(tr, BlowUpError):
            raise BlowUpError(f"member {b}: {tr}", step=tr.step, rows=tr.rows)
    return outcomes


def _handover(outcomes):
    """The trajectories of a solved or loaded set that its owner gives up.

    Nothing is yielded if a member blew up: the set's first blown member
    raises as in `_trajectories`.  Each member leaves `outcomes` as it is
    yielded, so once the consumer drops it, it is freed.
    """
    _trajectories(outcomes)
    while outcomes:
        yield outcomes.pop(0)


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
    """The sums of one run's fit over its training trajectories, drawn
    once from the iterable `trains`, in one windowed pass with the
    estimator `_jet_estimator` picks; for equiv-r the pass also sums the
    generators' action terms outside the library, which the symmetry
    penalties read."""
    _, estimate = _jet_estimator(cfg)
    extra = action_terms(cfg.generators, cfg.features + [cfg.target],
                         cfg.solver.params)[0] if cfg.method == "equiv-r" \
        else ()
    return evaluate_features(trains, estimate, cfg.features, cfg.target,
                             constants=cfg.solver.params, extra=extra)


def _fit(cfg: ExperimentConfig, fm):
    if cfg.method == "equiv-r":
        return stlsq_regularized(fm, cfg.generators, lam=cfg.lam,
                                 threshold=cfg.threshold)
    return stlsq(fm, threshold=cfg.threshold)


def _fit_run(cfg: ExperimentConfig, run, trains, truth):
    """One run's regression on its solved or loaded training set.

    `trains` is the set's trajectories, a list that is left whole, or
    `_handover` of the outcomes its owner gives up, which frees each
    trajectory once the pass has summed it.  Returns (runs.csv row, fitted
    SparseModel or None).  A LiesindyError, such as a blown training
    member, makes the row an error row.
    """
    seeds = _run_seeds(cfg.seed, run)
    row = {"run": run, "status": "ok", "success": 0, "err_norm": "",
           "n_rows": 0, "dropped": 0, "jets": _jet_estimator(cfg)[0],
           "iterations": 0, "rank_warning": 0, "condition_number": "",
           "min_singular_value": "", "active": "", "message": "",
           "train_seeds": "|".join(map(str, seeds["train_ic"])),
           "noise_seeds": "|".join(map(str, seeds["noise"]))}
    try:
        fm = build_feature_matrix(cfg, trains)
        model = _fit(cfg, fm)
    except LiesindyError as err:
        _error_row(row, err)
        return row, None
    row["n_rows"] = fm.n_rows
    row["dropped"] = fm.dropped
    row["iterations"] = int(model.diagnostics["iterations"])
    row["rank_warning"] = int(model.diagnostics["rank_warning"])
    for key in ("condition_number", "min_singular_value"):
        row[key] = repr(float(model.diagnostics[key]))
    row["success"] = int(success(model, truth))
    row["err_norm"] = repr(
        float(np.linalg.norm(model.weights - truth.weights)))
    row["active"] = "|".join(to_string(f) for f in model.active_features())
    return row, model


def _error_row(row, err):
    row["status"] = "error"
    row["message"] = f"{type(err).__name__}: {err}"


@dataclass
class DiscoveryReport:
    """One experiment's results.  The summary comes from the rows, as
    `summarize_rows` computes it from runs.csv, and the long-term series
    from the scores."""

    config: ExperimentConfig
    rows: list                   # runs.csv rows
    models: list                 # model dict or None per run
    scores: list                 # long_term_mse's (mean, per_ic, blown)
                                 # or None per run
    success_rate: float = field(init=False)
    rmse_successful: float | None = field(init=False)
    rmse_all: float | None = field(init=False)
    longterm_mean: list | None = field(init=False)  # over runs and test ICs
    longterm_std: list | None = field(init=False)
    longterm_counts: list | None = field(init=False)

    def __post_init__(self):
        self.success_rate, self.rmse_successful, self.rmse_all = \
            summarize_rows(self.rows)
        self.longterm_mean, self.longterm_std, self.longterm_counts = \
            aggregate_longterm([s[0] for s in self.scores if s is not None])


def aggregate_longterm(series):
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
    data_digest must match the config), each run's set loaded on its turn;
    otherwise the test set and every run's set are solved in memory in one
    call from the same seeds, which yields byte-identical reports.  A blown
    training member makes its run an error row, and so does a model whose
    rollout raises; a blown test member ends the experiment.
    """
    test_trajs = None
    if data_dir is not None:
        blob = read_json(os.path.join(data_dir, "dataset.json"), HarnessError)
        if not isinstance(blob, dict) or "data_digest" not in blob:
            raise HarnessError(f"{data_dir}/dataset.json has no data_digest")
        tag = blob["data_digest"]
        if tag != cfg.data_digest():
            raise HarnessError(
                f"dataset digest {tag} does not match the config's "
                f"{cfg.data_digest()}")
        if cfg.long_term:
            test_trajs, _ = load_trajectories(os.path.join(data_dir, "test"))
    else:
        train_sets = _solve_sets(cfg, range(cfg.runs), test=cfg.long_term)
        if cfg.long_term:
            test_trajs = _trajectories(train_sets.pop(0))

    truth = ground_truth(cfg.system, cfg.target, cfg.features,
                         cfg.solver.params)
    rows, fitted = [], []
    for r in range(cfg.runs):
        if data_dir is None:
            trains, train_sets[r] = train_sets[r], None
        else:
            # an unreadable dataset ends the experiment instead of one run
            trains = load_trajectories(os.path.join(data_dir, f"run_{r}"))[0]
        row, model = _fit_run(cfg, r, _handover(trains), truth)
        rows.append(row)
        fitted.append(model)
    scores = [None] * cfg.runs
    scored = [r for r, model in enumerate(fitted) if model is not None]
    if test_trajs is not None and scored:
        for r, score in zip(scored, long_term_mse(
                [fitted[r] for r in scored], test_trajs, cfg.solver)):
            if isinstance(score, LiesindyError):
                _error_row(rows[r], score)
            else:
                scores[r] = score

    report = DiscoveryReport(
        cfg, rows, [None if m is None else model_to_dict(m) for m in fitted],
        scores)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def generate_dataset(cfg: ExperimentConfig, out_dir):
    """Write the test set and each run's training set under out_dir.

    All sets are solved in one call.
    """
    os.makedirs(out_dir, exist_ok=True)
    test, *trains = _solve_sets(cfg, range(cfg.runs), test=True)
    save_trajectories(os.path.join(out_dir, "test"), _trajectories(test),
                      config=cfg.solver)
    for r, outcomes in enumerate(trains):
        save_trajectories(os.path.join(out_dir, f"run_{r}"),
                          _trajectories(outcomes), config=cfg.solver)
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


def write_report(report: DiscoveryReport, out_dir):
    cfg = report.config
    os.makedirs(out_dir, exist_ok=True)
    cfg.save(os.path.join(out_dir, "config.json"))
    with open(os.path.join(out_dir, "runs.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=RUN_COLUMNS)
        w.writeheader()
        w.writerows(report.rows)
    write_summary_csv(os.path.join(out_dir, "summary.csv"),
                      (cfg.system, cfg.method_label(), report.success_rate,
                       report.rmse_successful, report.rmse_all))
    mdir = os.path.join(out_dir, "models")
    os.makedirs(mdir, exist_ok=True)
    for r, (model, score) in enumerate(zip(report.models, report.scores)):
        blob = {"run": r, "model": model}
        if score is not None:
            mean, per_ic, blown = score
            blob["longterm"] = {
                "mean": [repr(float(v)) for v in mean],
                "per_ic": [[repr(float(v)) for v in s] for s in per_ic],
                "blown": bool(blown)}
        with open(os.path.join(mdir, f"run_{r}.json"), "w") as f:
            json.dump(blob, f, indent=1, sort_keys=True)
            f.write("\n")
    if report.longterm_mean is not None:
        write_longterm(out_dir, report.longterm_mean, report.longterm_std,
                       report.longterm_counts,
                       f"{cfg.system} {cfg.method_label()} long-term MSE")


def write_longterm(out_dir, mean, std, counts, title):
    """longterm.csv (one row per step) and its plot longterm.svg."""
    with open(os.path.join(out_dir, "longterm.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "mean_mse", "std_mse", "n_series"])
        for j, (m, s, n) in enumerate(zip(mean, std, counts)):
            w.writerow([j, repr(m), repr(s), n])
    render_longterm_svg(os.path.join(out_dir, "longterm.svg"), mean, std,
                        title=title)


def load_longterm_csv(path):
    """(mean, std) series back from a longterm.csv; HarnessError if a
    column is missing, holds no rows, or holds a value that is not finite."""
    rows = _read_csv(path, {"mean_mse": _finite, "std_mse": _finite})
    return ([float(r["mean_mse"]) for r in rows],
            [float(r["std_mse"]) for r in rows])


def _finite(text):
    if not math.isfinite(float(text)):
        raise ValueError(text)


def _read_csv(path, checks):
    """The rows of a CSV file, as strings; HarnessError naming the file if
    it holds no rows, and naming the column too if a column of `checks` is
    missing or its check raises ValueError or TypeError (a short row's
    None) on one of its values."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            fields = reader.fieldnames or ()
            rows = list(reader)
    except UnicodeDecodeError as err:
        raise HarnessError(f"{path} is not UTF-8 text (byte {err.start})"
                           ) from None
    missing = [c for c in checks if c not in fields]
    if missing:
        raise HarnessError(f"{path} lacks columns: {', '.join(missing)}")
    if not rows:
        raise HarnessError(f"{path} holds no rows")
    for row in rows:
        for column, check in checks.items():
            try:
                check(row[column])
            except (TypeError, ValueError):
                raise HarnessError(f"{path}: column {column} holds "
                                   f"{row[column]!r}") from None
    return rows


def write_summary_csv(path, summary):
    """summary: (system, method, success_rate, rmse_ok or None, rmse_all or
    None)."""
    system, method, rate, ok, allv = summary
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["system", "method", "success_rate", "rmse_successful",
                    "rmse_all"])
        w.writerow([system, method, repr(float(rate)),
                    "N/A" if ok is None else repr(float(ok)),
                    "N/A" if allv is None else repr(float(allv))])


# the runs.csv columns `summarize_rows` reads, with a check of each value;
# older reports lack some of the other RUN_COLUMNS and still load
_SUMMARY_COLUMNS = {"status": str, "success": ("0", "1").index,
                    "err_norm": lambda v: v and float(v)}


def load_runs_csv(path):
    """The rows of a runs.csv; HarnessError if it lacks a column that
    `summarize_rows` reads, holds no rows, or one of those columns holds a
    value it cannot read."""
    return _read_csv(path, _SUMMARY_COLUMNS)


def summarize_rows(rows):
    """Recompute the summary aggregates from per-run CSV rows (at least
    one, as `load_runs_csv` returns them)."""
    rate = float(np.mean([int(r["success"]) for r in rows]))
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


def render_longterm_svg(path, mean, std, title):
    """Log-scale MSE-vs-step line with a shaded std band, 640 x 420.

    Step 0 is exactly zero by construction (identical initial conditions)
    and is omitted from the log plot.
    """
    width, height = 640, 420
    mean = [float(v) for v in mean]
    std = [float(v) for v in std]
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
