"""Per-layer metrics from the span files that ``tracer.py`` writes.

A layer is a polytransfer module.  For a function ``layer.fn``:
``layer.fn.calls`` counts calls, ``layer.fn.s`` is inclusive time and
``layer.fn.self_s`` excludes the time its traced children cover, summed over
every CLI process of the traced pass.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

# function metrics: every one is reported on every workload, as 0 where the
# workload never calls the function
FUNCTION_METRICS = [
    "cli.run.self_s", "cli.write_csv.s",
    "rng.make_rng.calls", "rng.make_rng.s",
    "nets.train_adagrad.s", "nets.train_adagrad.self_s", "nets.backprop.calls",
    "nets.backprop.s", "nets.forward.s",
    "gotu.gradient_flow.calls", "gotu.gradient_flow.s", "gotu.gradient_flow.self_s",
    "gotu.closed_form_losses.calls", "gotu.error_max_influence.calls",
    "icl.train_lsa.s", "icl.loss_gradient.calls", "icl.loss_gradient.s",
    "icl.population_loss.calls", "icl.population_loss.s", "icl.shift_report.s",
    "poly.fit_regression.s", "poly.design_matrix.s", "poly.box_region_gram.s",
    "poly.MultiPoly.eval.calls", "poly.MultiPoly.eval.s",
    "heatmap.grid_eval.s", "heatmap.emit_svg_heatmap.s",
    "dist.density_ratio_sup.calls", "dist.density_ratio_sup.s",
    "dist.gaussian_mass.calls", "dist.gaussian_mass.s",
    "trunc.truncated_transfer_check.calls", "trunc.truncated_transfer_check.s",
    "trunc.truncated_normal_moments.calls", "trunc.truncated_normal_moments.s",
    "trunc.alpha_mass_min.s",
    "transfer.ensemble_max_ratio.s", "transfer.abs_moment_uniform_1d.calls",
    "transfer.abs_moment_uniform_1d.s", "transfer.catalog_coefficient.s",
    "boolean.fourier_transform.calls", "boolean.fourier_transform.s",
    "boolean.influences.s", "boolean.BooleanFn.degree.s",
    "boolean.conditional_moments.s", "boolean.normalize_variance.s",
    "boolean.transfer_report.s",
]
# counters recorded by the tracer from call arguments ("computed" ones are
# derived from sizes, not measured)
COUNTER_UNITS = {
    "poly.eval_points": "count",
    "dist.ratio_grid_points": "count",          # computed
    "boolean.fwht_bytes_moved": "bytes",        # computed, ignores cache misses
}
UNITS = {
    **{m: "count" if m.endswith(".calls") else "s" for m in FUNCTION_METRICS},
    **COUNTER_UNITS,
    "cli.import_s": "s",
}


def load(pass_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(pass_dir.glob("*.trace.json"))]


def totals(traces: list[dict]) -> dict:
    """name -> [calls, inclusive s, self s], summed over spans and aggregates."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for t in traces:
        for name, start, end, _, self_s in t["spans"]:
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += self_s
        for _, _, name, calls, total_s, self_s in t["aggregates"]:
            acc = out[name]
            acc[0] += calls
            acc[1] += total_s
            acc[2] += self_s
    return out


def metrics(traces: list[dict]) -> dict:
    """Function and counter metrics plus ``cli.import_s`` (median per process)."""
    tot = totals(traces)
    out = {}
    for metric in FUNCTION_METRICS:
        name, field = metric.rsplit(".", 1)
        calls, incl, self_s = tot.get(name, (0, 0.0, 0.0))
        out[metric] = {"calls": calls, "s": incl, "self_s": self_s}[field]
    for counter in COUNTER_UNITS:
        out[counter] = sum(t["counters"].get(counter, 0) for t in traces)
    out["cli.import_s"] = statistics.median(t["import_s"] for t in traces) if traces else 0.0
    return out


def coverage_errors(trace: dict, tol: float = 1e-9) -> list[str]:
    """Spans whose self time plus child coverage is not their duration, or
    whose self time is negative."""
    spans, aggs = trace["spans"], trace["aggregates"]
    covered = defaultdict(float)        # span index -> child time
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    hot_children = defaultdict(float)   # (span, hot name) -> time of its hot children
    hot_child_of = defaultdict(float)   # (span, hot name) -> its total - self
    for parent, via, name, calls, total_s, self_s in aggs:
        if via is None:
            if parent >= 0:
                covered[parent] += total_s
        else:
            hot_children[(parent, via)] += total_s
        hot_child_of[(parent, name)] += total_s - self_s
    errors = []
    for i, (name, start, end, _, self_s) in enumerate(spans):
        if self_s < -tol or abs(self_s + covered[i] - (end - start)) > tol:
            errors.append(f"span {i} {name}: self {self_s} + children {covered[i]} "
                          f"!= {end - start}")
    for key in set(hot_children) | set(hot_child_of):
        if abs(hot_children[key] - hot_child_of[key]) > tol * max(1, len(aggs)):
            errors.append(f"aggregate {key}: children {hot_children[key]} "
                          f"!= total - self {hot_child_of[key]}")
    errors += [f"aggregate {name} under {parent}: negative self {self_s}"
               for parent, _, name, _, _, self_s in aggs if self_s < -tol]
    return errors
