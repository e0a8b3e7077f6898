"""Spans around the calls into each isacloc module, recorded from outside.

The tracer replaces the names that `isacloc.harness` and `isacloc.scenario`
look up at call time (and the two harness entry points the benchmark calls)
with wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Spans stay in memory; `layer_metrics` turns
them into the per-layer metrics and `write_spans` dumps them as CSV.

A span's self time is its duration minus the durations of its direct
children.  Results of the wrapped calls named in CAPTURED are kept as
well, reduced to small records, for the property checks of the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

# (module, attribute looked up at call time, span name)
WRAPPED = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "emit_report", "harness.emit_report"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "sample_scenario", "scenario.sample_scenario"),
    ("harness", "synthesize_measurements_model", "scenario.synthesize_model"),
    ("harness", "synthesize_measurements_phy", "scenario.synthesize_phy"),
    ("harness", "ls_grid_init", "solvers.ls_grid_init"),
    ("harness", "difference_grid_init", "solvers.difference_grid_init"),
    ("harness", "solve_ls", "solvers.solve_ls"),
    ("harness", "solve_irls", "solvers.solve_irls"),
    ("harness", "solve_proposed", "solvers.solve_proposed"),
    ("harness", "fuse", "solvers.fuse"),
    ("scenario", "true_bistatic_ranges", "scenario.true_bistatic_ranges"),
    ("scenario", "build_grid", "prs_grid.build_grid"),
    ("scenario", "apply_channel", "phy_channel.apply_channel"),
    ("scenario", "bistatic_delay", "phy_channel.bistatic_delay"),
    ("scenario", "extract_and_divide", "ranging.extract_and_divide"),
    ("scenario", "range_profile", "ranging.range_profile"),
    ("scenario", "estimate_range", "ranging.estimate_range"),
)


def _solve_record(args, result):
    # (measurements, gnbs, ues, solver config, init) as run_trial passes them
    measurements, gnbs, ues, config, init = args
    return {"ranges": measurements.ranges, "gnbs": gnbs, "ues": ues, "config": config,
            "init": init, "estimate": result.estimate, "converged": result.converged,
            "iterations": result.iterations}


# Span name -> what to keep of each call: small records only, never grids.
CAPTURED = {
    "scenario.synthesize_model": lambda args, result: (args[0], args[1], result.ranges),
    "scenario.synthesize_phy": lambda args, result: (args[0], args[1], result.ranges),
    "solvers.solve_ls": _solve_record,
    "solvers.solve_irls": _solve_record,
    "solvers.solve_proposed": _solve_record,
    "prs_grid.build_grid": lambda args, result: (args[0], args[1].sequence_seed),
    "ranging.range_profile": lambda args, result: args[0].size,
}

SOLVES = ("solve_ls", "solve_irls", "solve_proposed")

# Per-layer metric name -> unit, in the order they are reported.
METRICS = {
    "scenario.sample_scenario.us_per_call": "us",
    "scenario.synthesize_model.us_per_call": "us",
    "scenario.synthesize_phy.self_us_per_call": "us",
    "prs_grid.build_grid.us_per_call": "us",
    "prs_grid.build_grid.calls_per_trial": "count",
    "prs_grid.build_grid.distinct_ratio": "ratio",
    "phy_channel.apply_channel.us_per_call": "us",
    "ranging.extract_and_divide.us_per_call": "us",
    "ranging.range_profile.us_per_call": "us",
    "ranging.estimate_range.us_per_call": "us",
    "ranging.fft_points_per_trial": "count",
    "solvers.ls_grid_init.us_per_call": "us",
    "solvers.difference_grid_init.us_per_call": "us",
    **{f"solvers.{s}.{m}": unit for s in SOLVES for m, unit in (
        ("iterations_per_solve", "count"), ("us_per_iteration", "us"),
        ("max_iter_solves", "count"))},
    "harness.run_trial.ms.p50": "ms",
    "harness.run_trial.ms.p90": "ms",
    "harness.aggregate.ms": "ms",
    "harness.emit_report.ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (name, start, end, parent index or -1)
        self.captured = defaultdict(list)  # span name -> records made by CAPTURED
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, original, name):
        record = CAPTURED.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if record is not None:
                self.captured[name].append(record(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every name in WRAPPED for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name in WRAPPED:
                module = modules[module_name]
                original = getattr(module, attr)
                undo.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)


def _durations(spans):
    """Per span name: list of durations and total self time."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(list)
    self_time = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        total[name].append(end - start)
        self_time[name] += end - start - child_time[index]
    return total, self_time


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(tracer: Tracer, trials: int, factor: float, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced round of `trials` trials.

    Times are multiplied by `factor` (raw to normalized seconds).  A layer
    that did not run on the workload reads 0 for every metric.
    """
    total, self_time = _durations(tracer.spans)

    def per_call_us(name):
        calls = total.get(name, [])
        return 1e6 * factor * sum(calls) / len(calls) if calls else 0.0

    out = {
        "scenario.sample_scenario.us_per_call": per_call_us("scenario.sample_scenario"),
        "scenario.synthesize_model.us_per_call": per_call_us("scenario.synthesize_model"),
        "prs_grid.build_grid.us_per_call": per_call_us("prs_grid.build_grid"),
        "phy_channel.apply_channel.us_per_call": per_call_us("phy_channel.apply_channel"),
        "ranging.extract_and_divide.us_per_call": per_call_us("ranging.extract_and_divide"),
        "ranging.range_profile.us_per_call": per_call_us("ranging.range_profile"),
        "ranging.estimate_range.us_per_call": per_call_us("ranging.estimate_range"),
        "solvers.ls_grid_init.us_per_call": per_call_us("solvers.ls_grid_init"),
        "solvers.difference_grid_init.us_per_call": per_call_us("solvers.difference_grid_init"),
    }
    phy_calls = len(total.get("scenario.synthesize_phy", []))
    out["scenario.synthesize_phy.self_us_per_call"] = (
        1e6 * factor * self_time["scenario.synthesize_phy"] / phy_calls if phy_calls else 0.0
    )

    grids = tracer.captured.get("prs_grid.build_grid", [])
    out["prs_grid.build_grid.calls_per_trial"] = len(grids) / trials
    out["prs_grid.build_grid.distinct_ratio"] = len(set(grids)) / len(grids) if grids else 0.0
    points = tracer.captured.get("ranging.range_profile", [])
    out["ranging.fft_points_per_trial"] = sum(points) / trials

    for solve in SOLVES:
        calls = tracer.captured.get(f"solvers.{solve}", [])
        iterations = sum(call["iterations"] for call in calls)
        seconds = sum(total.get(f"solvers.{solve}", []))
        out[f"solvers.{solve}.iterations_per_solve"] = iterations / len(calls) if calls else 0.0
        out[f"solvers.{solve}.us_per_iteration"] = (
            1e6 * factor * seconds / iterations if iterations else 0.0
        )
        out[f"solvers.{solve}.max_iter_solves"] = sum(
            call["iterations"] >= call["config"].max_iterations for call in calls
        )

    trial_ms = [1e3 * factor * d for d in total.get("harness.run_trial", [])]
    out["harness.run_trial.ms.p50"] = _nearest_rank(trial_ms, 0.5)
    out["harness.run_trial.ms.p90"] = _nearest_rank(trial_ms, 0.9)
    out["harness.aggregate.ms"] = 1e3 * factor * self_time["harness.run_experiment"]
    out["harness.emit_report.ms"] = 1e3 * factor * sum(total["harness.emit_report"])
    out["trace.overhead_pct"] = overhead_pct
    return {name: out[name] for name in METRICS}


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for index, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
