"""liesindy pipeline benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload kdv-disindy-rollout --seed 7 \\
        --seconds 36 --trace 0

Run from the root of a checkout.  A closed loop with one client: each
repetition is a fresh `python3 perfbench/rep.py` process (LIESINDY_WORKERS=1,
BLAS pinned to one thread) that builds the workload's ExperimentConfig with
`seed` and runs one experiment cell through the public API.  Repetitions
start while at least half of one still fits in `--seconds`, at least
MIN_REPS of them.  Set-up is sampled also from launches that stop once the
config is built.  Times are the repetition process's CPU time scaled to a
reference host speed (see rep.py).

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports per-layer
metrics from the traced ones (see spans.py).

Every repetition is checked: each run ends `ok`, every CLI exit code is 0,
every metric is finite, and all repetitions of the run write byte-identical
report files.  The second-to-last stdout line holds details (environment,
sample counts, spreads, solution quality); the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("kdv-disindy-rollout", "ks-equivr-noisy",
             "nkdv-dataset-roundtrip")
END_TO_END = {"setup_s": "s", "cell_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "_ratio": "ratio"}
MIN_REPS = 2
SETUP_ONLY = 4          # extra set-up samples per run; the first is warm-up
BLAS_THREADS = "1"


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "liesindy_workers": "1",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def rep_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["LIESINDY_WORKERS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_rep(workload, seed, work, trace, env, deadline):
    """One fresh-process repetition; returns its parsed line or an error."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed), "--work", work,
           "--trace", str(trace)]
    t0 = clock()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env,
                              capture_output=True, text=True,
                              timeout=max(10.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"no result line: {proc.stdout[-500:]!r}"}


def check_rep(rep):
    """Problems found in one repetition's outputs (empty when correct)."""
    if "error" in rep:
        return [rep["error"]]
    bad = [f"run {r['run']}: {r['status']} {r['message']}"
           for r in rep["rows"] if r["status"] != "ok"]
    if len(rep["rows"]) != rep["runs"]:
        bad.append(f"{len(rep['rows'])} run rows for {rep['runs']} runs")
    bad += [f"CLI exit code {c}" for c in rep["exit_codes"] if c != 0]
    if len(rep["exit_codes"]) != rep["cli_calls"]:
        bad.append(f"{len(rep['exit_codes'])} of {rep['cli_calls']} "
                   "CLI commands ran")
    values = [rep[k] for k in END_TO_END]
    values += [rep[k] for k in ("success_rate", "coef_rmse",
                                "longterm_mse_final") if rep[k] is not None]
    values += list((rep["layers"] or {}).values())
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values):
        bad.append("non-finite metric")
    return bad


def tally(rep, workload_runs, cli_calls):
    """(attempted, failed) runs and CLI commands of one repetition."""
    if "error" in rep:
        n = workload_runs + cli_calls
        return n, n
    failed = sum(r["status"] != "ok" for r in rep["rows"])
    failed += sum(c != 0 for c in rep["exit_codes"])
    failed += max(0, workload_runs - len(rep["rows"]))
    return workload_runs + cli_calls, failed


def spread(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running
    # repetition and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "liesindy", "__init__.py")):
        print(f"perfbench: no liesindy sources under {SRC}", file=sys.stderr)
        return 2
    env = rep_env()
    # Set-up alone, several times: the first launch compiles and caches
    # what later ones reuse and is not sampled; the others are set-up
    # samples beside those of the repetitions.
    setups = []
    for i in range(SETUP_ONLY):
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--work", ROOT, "--t0", repr(clock())]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            print(f"perfbench: liesindy does not set up:\n{proc.stderr}",
                  file=sys.stderr)
            return 2
        if i:
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    work_root = os.path.join(ROOT, ".bench_work",
                             f"{args.workload}-{os.getpid()}")
    deadline = clock() + 170.0
    reps = []
    try:
        start = last = clock()
        # Start another repetition while at least half of it still fits in
        # --seconds, so a run lasts about --seconds whatever a cell costs.
        while (len(reps) < MIN_REPS
               or clock() - start + (clock() - last) / 2 < args.seconds):
            traced = args.trace and len(reps) % 2 == 1
            last = clock()
            rep = run_rep(args.workload, args.seed,
                          os.path.join(work_root, f"rep{len(reps)}"),
                          int(traced), env, deadline)
            rep["traced"] = bool(traced)
            reps.append(rep)
            if "error" in rep or clock() > deadline - 30.0:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass

    ok_reps = [r for r in reps if "error" not in r]
    problems = [f"rep {i}: {p}" for i, r in enumerate(reps)
                for p in check_rep(r)]
    digests = sorted({r["digest"] for r in ok_reps})
    if len(digests) > 1:
        problems.append(f"report digests differ across repetitions: "
                        f"{digests}")
    shape = next(({"runs": r["runs"], "cli": r["cli_calls"]}
                  for r in ok_reps), {"runs": 0, "cli": 0})
    attempted = failed = 0
    for r in reps:
        a, f = tally(r, shape["runs"], shape["cli"])
        attempted += a
        failed += f

    plain = [r for r in ok_reps if not r["traced"]]
    traced = [r for r in ok_reps if r["traced"]]
    samples = {k: spread([r[k] for r in plain])
               for k in (*END_TO_END, "cell_cpu_s", "cell_wall_s")}
    for k in ("setup_s", "setup_cpu_s", "setup_wall_s"):
        samples[k] = spread([r[k] for r in setups + plain])
    samples["reference_s"] = spread([t for r in setups + ok_reps
                                     for t in r["reference_s"]])
    if traced:
        samples["traced_cell_s"] = spread([r["cell_s"] for r in traced])
    quality = {k: ok_reps[0][k] if ok_reps else None
               for k in ("success_rate", "coef_rmse", "longterm_mse_final")}
    quality["run_error_rate"] = failed / attempted if attempted else None
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "repetitions": len(reps),
               "samples": samples, "quality": quality, "digest": digests,
               "environment": environment(), "problems": problems}
    print(json.dumps({"details": details}))

    metrics = {}
    if not problems and plain:
        if args.trace:
            layers = {}
            for key in traced[0]["layers"]:
                values = [r["layers"][key] for r in traced]
                # counts stay whole numbers; times take the true median
                median = (statistics.median_low
                          if all(isinstance(v, int) for v in values)
                          else statistics.median)
                layers[key] = median(values)
            layers["trace.overhead_s"] = (
                samples["traced_cell_s"]["median"]
                - samples["cell_s"]["median"])
            for key, value in layers.items():
                unit = next((u for suffix, u in PER_LAYER_UNITS.items()
                             if key.endswith(suffix)), "count")
                metrics[key] = {"value": value, "unit": unit}
        else:
            for key, unit in END_TO_END.items():
                metrics[key] = {"value": samples[key]["median"],
                                "unit": unit}
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
