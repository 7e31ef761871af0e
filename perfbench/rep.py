"""One benchmark repetition: set up, run one cell, print one JSON line.

run.py starts this script in a fresh process per repetition, with `src/` on
PYTHONPATH, LIESINDY_WORKERS=1 and single-threaded BLAS.  `setup_s` covers
interpreter start, imports, catalog resolution and library parsing up to
the built ExperimentConfig; `cell_s` runs from that config to the written
report.

Both are CPU time of this process (user + system, all threads), scaled to a
reference host speed.  The process runs one thread of work, so its CPU time
is its wall time less the time the hypervisor gave the CPU to other guests.
What is left still moves with the speed the shared host gives this process,
by up to a third over minutes, so a fixed `reference_work` is timed just
before and just after the cell and every time is multiplied by
REFERENCE_S / (its CPU time).  Set-up is scaled by the measurement taken
right after it.  The raw CPU and wall times and the reference times are
reported beside them; `--t0` is the parent's CLOCK_MONOTONIC reading just
before the process was started, so the wall set-up time includes
interpreter start.

With `--trace 1` the cell runs with spans and counters installed (spans.py)
and the line also carries per-layer numbers, times scaled like `cell_s`.
With `--setup-only` it stops once the config is built and reports the
set-up times alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


cpu_clock = time.process_time

# CPU seconds reference_work takes on the host the figures are scaled to.
REFERENCE_S = 0.25


def reference_work():
    """CPU seconds of a fixed piece of work that involves no liesindy code.

    It mixes what the cells spend their time on: interpreted Python, small
    numpy FFTs and elementwise ops, and a pass over a few MiB of memory.
    Run just before and after a cell, it measures how fast the host runs
    this process at that moment.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256)
    big = rng.standard_normal(1 << 19)
    table = {}
    c0 = cpu_clock()
    for i in range(2500):
        v = np.fft.rfft(x)
        x = np.fft.irfft(v * 0.5, 256) + 1e-3 * x * x
        table[i % 97] = table.get(i % 97, 0) + i
        if i % 50 == 0:
            big = big[::-1] * 0.5 + 1.0
    return cpu_clock() - c0


# Each workload is bound by a different layer; see README.md for the shares.
WORKLOADS = {
    "kdv-disindy-rollout": dict(system="kdv", method="di-sindy", runs=2,
                                noise_sigma=0.0, long_term=True),
    "ks-equivr-noisy": dict(system="ks", method="equiv-r", runs=2, lam=1e-2,
                            noise_sigma=1e-3, long_term=False),
    "nkdv-dataset-roundtrip": dict(system="nkdv", method="di-sindy", runs=2,
                                   noise_sigma=0.0, long_term=False),
}


def _in_memory_cell(cfg, work):
    """harness.run_experiment with the report written under work/report."""
    from liesindy import harness
    report = harness.run_experiment(cfg, out_dir=os.path.join(work,
                                                              "report"))
    return {"rows": report.rows, "exit_codes": [],
            "success_rate": report.success_rate,
            "coef_rmse": report.rmse_all,
            "longterm_mse_final": (report.longterm_mean[-1]
                                   if report.longterm_mean else None)}


def _cli_roundtrip_cell(cfg, work):
    """cli verify -> generate -> discover from the generated dataset."""
    from liesindy import cli, harness
    config = os.path.join(work, "config.json")
    data = os.path.join(work, "data")
    out = os.path.join(work, "report")
    cfg.save(config)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["verify", "--system", cfg.system],
                     ["generate", "--config", config, "--out", data],
                     ["discover", "--config", config, "--data", data,
                      "--out", out]):
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    rows = []
    rate = rmse_all = None
    if codes[-1] == 0:
        rows = harness.load_runs_csv(os.path.join(out, "runs.csv"))
        rate, _, rmse_all = harness.summarize_rows(rows)
    return {"rows": rows, "exit_codes": codes, "success_rate": rate,
            "coef_rmse": rmse_all, "longterm_mse_final": None}


CELLS = {
    "kdv-disindy-rollout": _in_memory_cell,
    "ks-equivr-noisy": _in_memory_cell,
    "nkdv-dataset-roundtrip": _cli_roundtrip_cell,
}
CLI_CALLS = {"nkdv-dataset-roundtrip": 3}


def report_digest(path):
    """sha256 over every report file's relative path and bytes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the config is built")
    args = ap.parse_args()

    from liesindy import cli, harness  # noqa: F401  (import cost is set-up)
    cfg = harness.ExperimentConfig(seed=args.seed, **WORKLOADS[args.workload])
    setup_cpu_s = cpu_clock()
    setup_wall_s = clock() - args.t0
    ref_before = reference_work()
    setup = {"setup_s": setup_cpu_s * REFERENCE_S / ref_before,
             "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps({**setup, "reference_s": [ref_before]}))
        return

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    t0, c0 = clock(), cpu_clock()
    out = CELLS[args.workload](cfg, args.work)
    cell_cpu_s = cpu_clock() - c0
    cell_wall_s = clock() - t0
    ref_after = reference_work()
    scale = REFERENCE_S / ((ref_before + ref_after) / 2)
    layers = None
    if tracer:
        layers = {k: v * scale if k.endswith("_s") else v
                  for k, v in tracer.layer_metrics().items()}

    out.update(setup)
    out.update({
        "cell_s": cell_cpu_s * scale,
        "cell_cpu_s": cell_cpu_s,
        "cell_wall_s": cell_wall_s,
        "reference_s": [ref_before, ref_after],
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": cfg.runs,
        "cli_calls": CLI_CALLS.get(args.workload, 0),
        "digest": report_digest(os.path.join(args.work, "report")),
        "layers": layers,
    })
    out["rows"] = [{"run": r["run"], "status": r["status"],
                    "message": r["message"]} for r in out["rows"]]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
