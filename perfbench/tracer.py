"""Run the polytransfer CLI once with per-layer timing spans.

Usage: python3 perfbench/tracer.py TRACE_JSON CLI_ARG...

Wraps the public functions of each polytransfer module from outside -- the
module attribute and every other module's binding of the same function, so
``cli.grid_eval`` and each module's own ``make_rng`` are covered -- then runs
``polytransfer.cli.main(CLI_ARG...)``.  Spans stay in memory and are written
to TRACE_JSON when the CLI returns.  The program under ``src/`` is not
changed.

Each span holds a name, start, end, parent span and self time (its duration
minus the part its child spans cover).  Per-step functions (``HOT``) are not
recorded one by one: they are aggregated per enclosing span into a call
count, total time and self time.  The run id is TRACE_JSON's name up to
its first dot.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

clock = time.perf_counter

# layer (module) -> functions recorded as spans; dotted names are methods or
# properties of a class in that module
SPANS = {
    "cli": ["run", "write_csv"],
    "heatmap": ["grid_eval", "emit_svg_heatmap"],
    "nets": ["mlp_init", "train_adagrad", "forward"],
    "gotu": ["init_weights", "gradient_flow", "critical_time"],
    "icl": ["train_lsa", "population_loss", "shift_report"],
    "poly": ["fit_regression", "design_matrix", "box_region_gram", "MultiPoly.eval"],
    "dist": ["density_ratio_sup", "gaussian_mass"],
    "trunc": ["alpha_mass_min", "truncated_transfer_check", "truncated_normal_moments"],
    "transfer": ["catalog_coefficient", "ensemble_max_ratio", "write_reports"],
    "boolean": ["fourier_transform", "influences", "BooleanFn.degree",
                "conditional_moments", "normalize_variance", "transfer_report"],
}

# per-step functions, aggregated per enclosing span
HOT = {
    "rng": ["make_rng"],
    "nets": ["backprop"],
    "icl": ["loss_gradient"],
    "gotu": ["closed_form_losses", "error_max_influence"],
    "transfer": ["abs_moment_uniform_1d"],
}


def _fwht_bytes(values) -> int:
    """Bytes an in-place radix-2 FWHT streams: each stage reads and writes
    every 8-byte value once.  Computed from the size; ignores cache misses."""
    size = len(values)
    return 16 * size * int(math.log2(size)) if size > 1 else 0


def _eval_points(poly, x) -> int:
    return len(x) if getattr(x, "ndim", 2) > 1 else 1


def _grid_points(P, Q, axes) -> int:
    return math.prod(len(a) for a in axes)


# (layer, function, counter, measure): counters computed from the arguments
COUNTERS = [
    ("poly", "MultiPoly.eval", "poly.eval_points", _eval_points),
    ("dist", "_eval_ratio_on_grid", "dist.ratio_grid_points", _grid_points),
    ("boolean", "fwht", "boolean.fwht_bytes_moved", _fwht_bytes),
]


class Recorder:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent, self_s]
        self.aggregates = {}   # (parent, via, name) -> [calls, total_s, self_s]
        self.counters = {}
        self.stack = []        # open frames: [name, child_s, span index or None]

    def _parent(self) -> int:
        for *_, index in reversed(self.stack):
            if index is not None:
                return index
        return -1

    def timed(self, name: str, fn, hot: bool):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hot:
                frame = [name, 0.0, None]
            else:
                frame = [name, 0.0, len(self.spans)]
                self.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self_s = dur - frame[1]
                if hot:
                    via = stack[-1][0] if stack and stack[-1][2] is None else None
                    agg = self.aggregates.setdefault((self._parent(), via, name),
                                                     [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += self_s
                else:
                    self.spans[frame[2]] = [name, start, end, self._parent(), self_s]

        return wrapper

    def counted(self, counter: str, fn, measure):
        self.counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += measure(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self, import_s: float) -> dict:
        return {
            "run": self.run_id,
            "import_s": import_s,
            "spans": self.spans,
            "aggregates": [[p, via, name, *v] for (p, via, name), v in self.aggregates.items()],
            "counters": self.counters,
        }


def _replace(modules, layer: str, attr: str, make):
    """Replace ``layer.attr`` and every module binding of the same object."""
    owner = modules[layer]
    *cls_path, leaf = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if cls_path:
        orig = owner.__dict__[leaf]
        if isinstance(orig, property):
            setattr(owner, leaf, property(make(orig.fget)))
        else:
            setattr(owner, leaf, make(orig))
        return
    orig = getattr(owner, leaf)
    new = make(orig)
    for mod in modules.values():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def install(rec: Recorder) -> None:
    from polytransfer import (boolean, cli, dist, gotu, heatmap, icl, nets, poly,
                              rng, transfer, trunc)

    modules = {m.__name__.rsplit(".", 1)[1]: m for m in
               (boolean, cli, dist, gotu, heatmap, icl, nets, poly, rng, transfer, trunc)}
    # counters first, so the timed wrapper encloses the counting
    for layer, attr, counter, measure in COUNTERS:
        _replace(modules, layer, attr, lambda f, c=counter, m=measure: rec.counted(c, f, m))
    for table, hot in ((SPANS, False), (HOT, True)):
        for layer, attrs in table.items():
            for attr in attrs:
                _replace(modules, layer, attr,
                         lambda f, n=f"{layer}.{attr}", h=hot: rec.timed(n, f, h))


def main(argv) -> int:
    out_path = Path(argv[0])
    start = clock()
    import polytransfer.cli as cli
    import_s = clock() - start
    rec = Recorder(out_path.name.split(".")[0])
    install(rec)
    try:
        return cli.main(argv[1:])
    finally:
        out_path.write_text(json.dumps(rec.to_json(import_s)))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
