"""Self-test of the benchmark: runs each workload at a tiny size.

Usage (from the repository root):  python3 perfbench/selftest.py

Asserts that every metric BENCHMARK.json names is printed with its unit,
that traced self times are non-negative and add up with the child coverage
to the inclusive time, and that the untraced passes never load the tracer.
The tiny sizes still pass the output checks, and that is asserted too.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import layers
import run

TINY = {
    "training": [
        ("fig1", {"fig1.epochs": 1, "fig1.resolution": 10}),
        ("fig2", {"fig2.epochs": 1, "fig2.poly_epochs": 0, "fig2.resolution": 10}),
        ("gotu", {"gotu.horizon": 0.2, "gotu.scaling_seeds": 1, "gotu.scaling_horizon": 0.2}),
        ("icl-shift", {"icl.steps": 1000, "icl.mc": 2000}),
    ],
    "catalog": [
        ("list", {}),
        ("gaussian1d-coeffs", {}),
        ("truncated", {"truncated.grid_points": 3}),
        ("boolean-transfer", {"boolean.n": 10}),
        ("transfer-ensemble", {"ensemble.count": 50}),
    ],
    "hypercube": [
        ("boolean-transfer", {"boolean.n": 12}),
    ],
}


def run_tiny(workload: str, trace: int, commands: list) -> dict:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    out = io.StringIO()
    before = len(commands)
    with contextlib.redirect_stdout(out):
        assert run.main(argv, workloads=TINY, setup_runs=1) == 0
    launched = commands[before:]
    uses_tracer = [any("tracer.py" in a for a in argv) for argv in launched]
    if trace:
        assert any(uses_tracer), "the traced pass did not run the tracer"
    else:
        assert not any(uses_tracer), "an untraced pass ran the tracer"
    assert "tracer" not in sys.modules, "run.py imported the tracer"
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
    return result


def assert_metrics(result: dict, wanted: list, workload: str) -> None:
    metrics = result["metrics"]
    for m in wanted:
        assert m["name"] in metrics, f"{workload}: {m['name']} not printed"
        assert metrics[m["name"]]["unit"] == m["unit"], f"{workload}: {m['name']} unit"
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def assert_coverage(workload: str) -> None:
    pass_dir = run.OUT_ROOT / f"{workload}-coverage"
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    run.run_pass(TINY[workload], 0, pass_dir, deadline, traced=True)
    traces = layers.load(pass_dir)
    assert len(traces) == len(TINY[workload])
    for t in traces:
        errors = layers.coverage_errors(t)
        assert not errors, f"{workload}/{t['run']}: {errors[:3]}"
    for name, (calls, incl, self_s) in layers.totals(traces).items():
        assert self_s >= -1e-9 and self_s <= incl + 1e-9, f"{name}: self {self_s}, incl {incl}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT_ROOT = run.OUT_ROOT / "selftest"
    commands = []
    spawn = run.spawn
    run.spawn = lambda argv, *a, **k: (commands.append(argv), spawn(argv, *a, **k))[1]
    for workload in TINY:
        assert_metrics(run_tiny(workload, 0, commands), spec["end_to_end"], workload)
        assert_metrics(run_tiny(workload, 1, commands), spec["per_layer"], workload)
        assert_coverage(workload)
        print(f"selftest {workload}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
