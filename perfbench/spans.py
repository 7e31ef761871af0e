"""Spans and counters around liesindy's module boundaries, for traced runs.

Nothing in liesindy is edited.  `install` rebinds the public entry points
under the names the calling modules imported them by (`harness.solve_pde`,
`cli.verify_set`, `regress.lie_apply`, ...), so every call the pipeline
makes through those names opens a span (name, start, end, parent) or bumps
an exact counter.  Spans stay in memory; `layer_metrics` folds them into
per-layer self time once the cell has ended.  Span times are the process's
CPU time, the clock `cell_s` is measured on; rep.py scales them the same
way.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

clock = time.process_time

# span name -> per-layer metric that receives the span's self time
SELF_TIME = {
    "dynamics.solve": "dynamics.solve_s",
    "dynamics.rollout": "dynamics.rollout_s",
    "dynamics.save": "dynamics.save_s",
    "dynamics.load": "dynamics.load_s",
    "jetgrid.jets": "jetgrid.jets_s",
    "jetgrid.features": "jetgrid.features_s",
    "regress.fit": "regress.fit_s",
    "invariants.verify": "invariants.verify_s",
    "harness.report": "harness.report_s",
    "harness": "harness.self_s",
    "cli": "cli.self_s",
}

# counter -> per-layer metric of the same meaning
COUNTS = {
    "dynamics.rollout": "dynamics.rollout_calls",
    "dynamics.rollout:BlowUpError": "dynamics.rollout_blowups",
    "dynamics.solve": "dynamics.solve_calls",
    "expr.evaluate_array": "expr.evaluate_calls",
    "regress.fit": "regress.fit_calls",
    "regress.iterations": "regress.iterations",
    "regress.matrix_bytes": "regress.matrix_bytes",
    "liealg.apply": "liealg.apply_calls",
    "dynamics.dataset_bytes": "dynamics.dataset_bytes",
    "jetgrid.rows": "jetgrid.rows",
}


class Tracer:
    """In-memory span list with a parent stack, plus exact counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.stack = []
        self.counts = Counter()

    def span(self, name, fn, after=None):
        """Wrap fn in a span; `after(result, args, kwargs)` adds counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, clock(), None,
                               self.stack[-1] if self.stack else None])
            self.stack.append(idx)
            self.counts[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.counts[f"{name}:{type(err).__name__}"] += 1
                raise
            finally:
                self.stack.pop()
                self.spans[idx][2] = clock()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times(self):
        """Span name -> summed duration minus the time its children cover."""
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out

    def layer_metrics(self):
        selfs = self.self_times()
        out = {metric: selfs.get(name, 0.0)
               for name, metric in SELF_TIME.items()}
        out.update({metric: self.counts.get(name, 0)
                    for name, metric in COUNTS.items()})
        rows = self.counts["jetgrid.rows"]
        seen = rows + self.counts["jetgrid.rows_dropped"]
        out["jetgrid.rows_kept_ratio"] = rows / seen if seen else 0.0
        return out


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def install(tracer: Tracer):
    """Rebind the pipeline's entry points in the modules that call them."""
    from liesindy import cli, dynamics, harness, invariants, jetgrid, liealg
    from liesindy import regress

    counts = tracer.counts

    def features_done(fm, args, kwargs):
        counts["jetgrid.rows"] += int(fm.target.size)
        counts["jetgrid.rows_dropped"] += int(fm.dropped)

    def fitted(model, args, kwargs):
        # computed: the tall float64 system (rows x (features + target))
        # handed to the engine, one extra row block per equiv-r generator
        fm = args[0]
        blocks = 1
        if len(args) > 1 and kwargs.get("lam", 0.0) > 0:
            blocks += len(args[1])
        counts["regress.matrix_bytes"] += 8 * blocks * fm.target.size * (
            len(fm.columns) + 1)
        counts["regress.iterations"] += int(model.diagnostics["iterations"])

    def saved(result, args, kwargs):
        # computed from the files the writer left, not from I/O counters
        counts["dynamics.dataset_bytes"] += _dir_bytes(args[0])

    span = tracer.span
    harness.solve_pde = span("dynamics.solve", harness.solve_pde)
    harness.integrate_model = span("dynamics.rollout",
                                   harness.integrate_model)
    harness.save_trajectories = span("dynamics.save",
                                     harness.save_trajectories, saved)
    harness.load_trajectories = span("dynamics.load",
                                     harness.load_trajectories)
    harness.finite_differences = span("jetgrid.jets",
                                      harness.finite_differences)
    harness.evaluate_features = span("jetgrid.features",
                                     harness.evaluate_features,
                                     features_done)
    harness.stlsq = span("regress.fit", harness.stlsq, fitted)
    harness.stlsq_regularized = span("regress.fit",
                                     harness.stlsq_regularized, fitted)
    cli.verify_set = span("invariants.verify", cli.verify_set)
    harness.write_report = span("harness.report", harness.write_report)
    harness.run_experiment = span("harness", harness.run_experiment)
    harness.generate_dataset = span("harness", harness.generate_dataset)
    cli.run_experiment = span("harness", cli.run_experiment)
    cli.generate_dataset = span("harness", cli.generate_dataset)
    cli.main = span("cli", cli.main)

    for mod in (dynamics, jetgrid, regress, invariants, liealg):
        mod.evaluate_array = tracer.counted("expr.evaluate_array",
                                            mod.evaluate_array)
    regress.lie_apply = tracer.counted("liealg.apply", regress.lie_apply)
