"""Command-line front end.

Subcommands mirror the experiment life cycle: generate datasets, discover
equations from them, verify invariant catalogs, evaluate saved models on
test data, and re-render reports from their CSVs.
"""

import argparse
import glob
import os
import sys

from .dynamics import load_trajectories, read_json
from .expr import LiesindyError, max_order, to_string
from .harness import (
    ExperimentConfig, HarnessError, aggregate_longterm, long_term_mse,
    load_longterm_csv, load_runs_csv, render_longterm_svg, run_experiment,
    generate_dataset, summarize_rows, write_longterm, write_summary_csv,
)
from .invariants import (
    SYSTEMS, CatalogError, builtin_set, truth_equation, verify_set,
)
from .liealg import check_symmetry_criterion, prolong
from .regress import RegressionError, model_from_dict


def _cmd_generate(args):
    cfg = ExperimentConfig.load(args.config)
    generate_dataset(cfg, args.out)
    print(f"wrote test set and {cfg.runs} training sets to {args.out} "
          f"(data digest {cfg.data_digest()})")
    return 0


def _cmd_discover(args):
    cfg = ExperimentConfig.load(args.config)
    report = run_experiment(cfg, data_dir=args.data, out_dir=args.out)
    ok = report.rmse_successful
    print(f"{cfg.system} {cfg.method_label()}: "
          f"success rate {100.0 * report.success_rate:.0f}%, "
          f"rmse successful "
          f"{'N/A' if ok is None else format(ok, '.3e')}, "
          f"rmse all "
          f"{'N/A' if report.rmse_all is None else format(report.rmse_all, '.3e')}")
    print(f"report written to {args.out}")
    return 0


def _cmd_verify(args):
    try:
        inv = builtin_set(args.system)
    except CatalogError as err:
        print(f"FAIL catalog: {err}")
        return 1
    report = verify_set(inv)
    print(f"invariance pairs checked: {len(report.pairs)}, "
          f"numeric max |apply| {report.numeric_max:.2e}")
    print(f"independence: min singular value "
          f"{report.jacobian_min_sv:.2e} at "
          f"{100.0 * report.jacobian_ok_fraction:.1f}% of samples")
    status = 0
    if not report.passed:
        for msg in report.failures:
            print(f"FAIL {msg}")
        status = 1
    try:
        eq = truth_equation(args.system)
    except CatalogError:
        eq = None
    if eq is not None:
        order = max(1, max_order(eq))
        for g in inv.generators:
            crit = check_symmetry_criterion(prolong(g, order), eq)
            tag = "ok" if crit.symbolic_zero else "FAIL"
            name = g.name or to_string(g.phi[0])
            print(f"criterion {name}: {tag}")
            if not crit.symbolic_zero:
                status = 1
    print("PASS" if status == 0 else "FAIL")
    return status


def _saved_model(path):
    """The model a run_<k>.json holds, or None for a run without one."""
    blob = read_json(path, HarnessError)
    if not isinstance(blob, dict):
        raise HarnessError(f"{path} is not a JSON object")
    if blob.get("model") is None:
        return None
    try:
        return model_from_dict(blob["model"])
    except RegressionError as err:
        raise HarnessError(f"{path}: {err}") from None


def _run_number(path):
    stem = os.path.basename(path)[4:-5]
    if not stem.isdigit():
        raise HarnessError(f"{path} is not named run_<number>.json")
    return int(stem)


def _cmd_evaluate(args):
    models_dir = args.models
    if os.path.isdir(os.path.join(models_dir, "models")):
        models_dir = os.path.join(models_dir, "models")
    paths = sorted(glob.glob(os.path.join(models_dir, "run_*.json")),
                   key=_run_number)
    if not paths:
        raise HarnessError(f"no run_*.json under {models_dir}")
    test_dir = args.data
    if os.path.isdir(os.path.join(test_dir, "test")):
        test_dir = os.path.join(test_dir, "test")
    test_trajs, solver = load_trajectories(test_dir)
    if solver is None:
        raise HarnessError("test data has no solver config")
    models = [m for m in map(_saved_model, paths) if m is not None]
    if not models:
        raise HarnessError("no usable models")
    scores = long_term_mse(models, test_trajs, solver)
    for score in scores:
        if isinstance(score, Exception):
            raise score
    blown = sum(bad for _, _, bad in scores)
    os.makedirs(args.out, exist_ok=True)
    write_longterm(args.out, *aggregate_longterm([m for m, _, _ in scores]),
                   "long-term MSE over saved models")
    print(f"evaluated {len(scores)} models over {len(test_trajs)} test "
          f"trajectories ({blown} blew up); wrote {args.out}/longterm.csv")
    return 0


def _cmd_report(args):
    rows = load_runs_csv(os.path.join(args.indir, "runs.csv"))
    rate, rmse_ok, rmse_all = summarize_rows(rows)
    cfg_path = os.path.join(args.indir, "config.json")
    system, method = "?", "?"
    if os.path.exists(cfg_path):
        cfg = ExperimentConfig.load(cfg_path)
        system, method = cfg.system, cfg.method_label()
    write_summary_csv(os.path.join(args.indir, "summary.csv"),
                      (system, method, rate, rmse_ok, rmse_all))
    lt_path = os.path.join(args.indir, "longterm.csv")
    if os.path.exists(lt_path):
        render_longterm_svg(os.path.join(args.indir, "longterm.svg"),
                            *load_longterm_csv(lt_path),
                            title=f"{system} {method} long-term MSE")
    print(f"{'system':<10}{'method':<26}{'success rate':<14}"
          f"{'RMSE successful':<18}{'RMSE all'}")
    print(f"{system:<10}{method:<26}{100.0 * rate:<14.0f}"
          f"{'N/A' if rmse_ok is None else format(rmse_ok, '.3e'):<18}"
          f"{'N/A' if rmse_all is None else format(rmse_all, '.3e')}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="liesindy",
        description="discover governing PDEs with symmetry-invariant "
                    "feature libraries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="solve and save experiment datasets")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="dataset directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("discover", help="run discovery on a saved dataset")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("verify",
                       help="verify an invariant catalog entry")
    p.add_argument("--system", required=True,
                   help=f"catalog key ({', '.join(SYSTEMS)})")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("evaluate",
                       help="long-term prediction error of saved models")
    p.add_argument("--models", required=True,
                   help="report directory or its models/ subdirectory")
    p.add_argument("--data", required=True,
                   help="dataset directory holding the test set")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="re-render summary CSV and SVG")
    p.add_argument("--in", dest="indir", required=True,
                   help="report directory with runs.csv")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LiesindyError, OSError, MemoryError) as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
