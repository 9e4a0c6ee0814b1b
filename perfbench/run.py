"""polytransfer benchmark: fresh-process CLI wall time, plus a traced per-layer pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload training --seed 0 --seconds 56 --trace 0

Load shape: one closed-loop client.  Every CLI run is a fresh
``python -m polytransfer.cli`` process, started only after the previous one
has exited.  The seed is written into the generated config files; the
program sees only those configs.  OpenBLAS keeps its default thread count.

A run first starts ``polytransfer list`` SETUP_RUNS times (``setup_s``:
interpreter start plus ``import polytransfer.cli``).  It then repeats passes
over the workload's CLI runs for ``--seconds`` seconds: a further pass starts
only while the passes so far predict that it ends in time; at least one runs.

On a shared host the speed can swing by a quarter in phases of about ten
seconds, so a slow phase spans several consecutive processes.  ``wall_s`` and
``cpu_s`` are therefore the sums, over the jobs of a pass, of each job's
median over the passes: a slow phase that straddles two passes then costs
each job at most one of its samples.  ``setup_s`` is the median over every
fresh ``polytransfer list`` process of the run, those in the passes included.

Each child is accounted on its own through ``os.wait4`` and has a timeout.  A
timeout, a non-zero exit, a failed output check (``checks.py``) or CSVs that
differ from the first pass of the same seed count as a failed CLI run.

With ``--trace 1`` one more pass runs every CLI process under ``tracer.py``,
and the per-layer metrics come from its spans (``layers.py``).  End-to-end
metrics always come from the untraced passes, which never load the tracer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the median, maximum and count of each timing's samples (per pass for
``wall_s`` and ``cpu_s``, per process otherwise), and the machine facts.
The full record goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from checks import EXPERIMENTS, check, families_missing, forward_unsatisfied, resolved

clock = time.perf_counter
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench"
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0     # the whole run, set-up included, ends before this

# workload -> [(job, config overrides)]; job "list" is `polytransfer list`.
# `training` cuts iteration counts (epochs, horizons, scaling seeds, steps) so
# that one pass takes 23-29 s on 2 vCPUs; per-step shapes (batch sizes, net widths, n,
# degree, prompt length, MC sizes) stay at their defaults.  fig2 trains its
# cubic-activation net for 0 epochs: that net diverges within two epochs at
# about a third of all seeds, which `nets.poly_net_diverged` reports.
WORKLOADS = {
    "training": [
        ("fig1", {"fig1.epochs": 40}),
        ("fig2", {"fig2.epochs": 40, "fig2.poly_epochs": 0}),
        ("gotu", {"gotu.horizon": 10.0, "gotu.scaling_seeds": 2,
                  "gotu.scaling_horizon": 8.0}),
        ("icl-shift", {"icl.steps": 4000}),
    ],
    "catalog": [
        ("list", {}),
        ("gaussian1d-coeffs", {}),
        ("truncated", {}),
        ("boolean-transfer", {}),
        ("transfer-ensemble", {}),
    ],
    # Not in BENCHMARK.json: the time budget for all runs holds three
    # workloads only at ~36 s a run, and runs that short spread past the
    # bounds on a shared 2-vCPU host; two workloads measure 56 s a run.  The
    # boolean layer stays measured on `catalog` (n = 16); run this one by
    # name for n = 24.
    "hypercube": [
        ("boolean-transfer", {"boolean.n": 24}),
    ],
}
# the traced pass of `training` also runs fig2 with two epochs of the
# cubic-activation net; a DivergenceError there is the known defect, counted
# in `nets.poly_net_diverged`, not a failed run
POLY_NET_PROBE = {"fig2.epochs": 0, "fig2.poly_epochs": 2, "fig2.resolution": 10}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def spawn(argv, work_dir: Path, timeout: float) -> dict:
    """Run one child to completion: wall time, its own rusage, exit status."""
    env = dict(os.environ)
    env.pop("POLYTRANSFER_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(work_dir / "stdout.txt", "wb") as out, open(work_dir / "stderr.txt", "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, cwd=work_dir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": argv,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
        "returncode": proc.returncode,
    }


def run_job(job: str, overrides: dict, seed: int, job_dir: Path, deadline: float,
            trace_path: Path | None = None) -> dict:
    """One fresh CLI process plus its output check."""
    job_dir.mkdir(parents=True, exist_ok=True)
    args = ["list"]
    if job != "list":
        cfg = {"experiment": job, "seed": seed, "out": str(job_dir), **overrides}
        cfg_path = job_dir / "config.txt"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        args = ["run", str(cfg_path)]
    if trace_path is None:
        argv = [sys.executable, "-m", "polytransfer.cli", *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *args]
    rec = spawn(argv, job_dir, deadline - clock())
    rec["job"] = job
    if rec["returncode"] == -signal.SIGKILL:
        rec["problems"] = ["timed out"]
    elif rec["returncode"] != 0:
        rec["problems"] = [f"exit code {rec['returncode']}"]
    else:
        rec["problems"] = check(job, job_dir)
    return rec


def run_pass(jobs, seed: int, pass_dir: Path, deadline: float, traced: bool = False) -> dict:
    start = clock()
    records = [run_job(job, overrides, seed, pass_dir / f"{i}-{job}", deadline,
                       pass_dir / f"{i}-{job}.trace.json" if traced else None)
               for i, (job, overrides) in enumerate(jobs)]
    return {"dir": pass_dir, "wall_s": clock() - start, "records": records}


def check_same_csvs(reference: dict, other: dict) -> None:
    """Fail each job of `other` whose CSVs differ from the reference pass's bytes."""
    for i, rec in enumerate(other["records"]):
        a, b = (sorted(p["dir"].glob(f"{i}-{rec['job']}/*.csv")) for p in (reference, other))
        if [(p.name, p.read_bytes()) for p in a] != [(p.name, p.read_bytes()) for p in b]:
            rec["problems"].append("CSVs differ from the first pass of the same seed")


def host_probe() -> float:
    """Time of a fixed pure-Python loop: shows host drift, never rescales a metric."""
    start = clock()
    x = 0
    for i in range(3_000_000):
        x += i & 7
    return clock() - start


def machine_facts() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            get_threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.restype = ctypes.c_int
        threads = get_threads()
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        l3 = None
    return {
        "nproc": os.cpu_count(),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": list(os.getloadavg()),
    }


def timings(setup: list, passes: list) -> dict:
    """Sample lists behind the end-to-end and per-experiment metrics."""
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [r["wall_s"] for r in setup + [r for p in passes for r in p["records"]]
                    if r["job"] == "list"],
        "cpu_s": [sum(r["cpu_s"] for r in p["records"]) for p in passes],
        "peak_rss_mib": [max(r["rss_mib"] for r in p["records"]) for p in passes],
    }
    for p in passes:
        for r in p["records"]:
            if r["job"] != "list":
                samples.setdefault(f"{r['job']}_s", []).append(r["wall_s"])
    return samples


def end_to_end(samples: dict, passes: list) -> dict:
    """End-to-end metrics; wall and CPU time sum each job's median over the passes."""
    jobs = range(len(passes[0]["records"]))
    job_median = lambda key, i: statistics.median(p["records"][i][key] for p in passes)
    return {
        "wall_s": sum(job_median("wall_s", i) for i in jobs),
        "cpu_s": sum(job_median("cpu_s", i) for i in jobs),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
    }


# per-layer metrics computed here, beside those of layers.py
RUN_UNITS = {
    **{f"{exp}_s": "s" for exp in EXPERIMENTS},   # from the untraced passes
    "trace.overhead_s": "s",
    "host.probe_s": "s",
    "failed_frac": "fraction",
    "cli.csv_bytes": "bytes",
    "heatmap.svg_bytes": "bytes",
    "boolean.table_bytes": "bytes",               # computed: 2^n float64 values
    "boolean.families_missing": "count",
    "trunc.forward_unsatisfied": "count",
    "nets.poly_net_diverged": "count",
}


def per_layer(jobs, samples: dict, traced: dict, probe_diverged: int,
              failed_frac: float, host: list) -> dict:
    out = {f"{exp}_s": statistics.median(samples.get(f"{exp}_s", [0.0]))
           for exp in EXPERIMENTS}
    out.update(layers.metrics(layers.load(traced["dir"])))
    out["trace.overhead_s"] = traced["wall_s"] - statistics.median(samples["wall_s"])
    dirs = [traced["dir"] / f"{i}-{job}" for i, (job, _) in enumerate(jobs)]
    out["cli.csv_bytes"] = sum(p.stat().st_size for d in dirs for p in d.glob("*.csv"))
    out["heatmap.svg_bytes"] = sum(p.stat().st_size for d in dirs for p in d.glob("*.svg"))
    of_job = lambda name: [d for d, (job, _) in zip(dirs, jobs) if job == name]
    out["boolean.families_missing"] = sum(families_missing(d) for d in of_job("boolean-transfer"))
    out["boolean.table_bytes"] = max((8 << int(resolved(d)["boolean.n"])
                                      for d in of_job("boolean-transfer")), default=0)
    out["trunc.forward_unsatisfied"] = sum(forward_unsatisfied(d) for d in of_job("truncated"))
    out["nets.poly_net_diverged"] = probe_diverged
    out["failed_frac"] = failed_frac
    out["host.probe_s"] = statistics.mean(host)
    return out


def poly_net_probe(seed: int, run_dir: Path, deadline: float) -> tuple[int, dict | None]:
    """(1 if fig2's cubic-activation net diverged else 0, record if it failed otherwise)."""
    rec = run_job("fig2", POLY_NET_PROBE, seed, run_dir / "probe-fig2", deadline)
    if rec["returncode"] == 0:
        return 0, None
    if b"DivergenceError" in (run_dir / "probe-fig2" / "stderr.txt").read_bytes():
        return 1, None
    return 0, rec


def main(argv=None, workloads=None, setup_runs: int = SETUP_RUNS) -> int:
    workloads = workloads or WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polytransfer" / "cli.py").is_file():
        print(f"no polytransfer sources under {SRC}", file=sys.stderr)
        return 2
    deadline = clock() + RUN_LIMIT_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT_ROOT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    jobs = workloads[args.workload]

    facts = machine_facts()
    host = [host_probe()]
    setup = [run_job("list", {}, args.seed, run_dir / f"setup-{i}", deadline)
             for i in range(setup_runs)]
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(jobs, args.seed, run_dir / f"pass-{len(passes)}", deadline))
        if len(passes) > 1:
            check_same_csvs(passes[0], passes[-1])
        per_pass = (clock() - start) / len(passes)
        reserve = per_pass * (2 if args.trace else 1)   # next pass, then the traced one
        if clock() - start + per_pass > args.seconds or clock() + reserve > deadline:
            break
    records = setup + [r for p in passes for r in p["records"]]
    samples = timings(setup, passes)
    traced = None
    if args.trace:
        traced = run_pass(jobs, args.seed, run_dir / "traced", deadline, traced=True)
        check_same_csvs(passes[0], traced)
        records += traced["records"]
        diverged = 0
        if args.workload == "training":
            diverged, probe_failure = poly_net_probe(args.seed, run_dir, deadline)
            records += [probe_failure] if probe_failure else []
    host.append(host_probe())

    failed = [r for r in records if r["problems"]]
    if args.trace:
        metrics = per_layer(jobs, samples, traced, diverged, len(failed) / len(records), host)
        units = {**layers.UNITS, **RUN_UNITS}
    else:
        metrics = end_to_end(samples, passes)
        units = END_TO_END_UNITS
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    summary = {k: {"median": statistics.median(v), "max": max(v), "n": len(v)}
               for k, v in samples.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": facts, "host.probe_s": host, "timings": summary, "samples": samples,
              "problems": {f"{r['job']} ({' '.join(r['argv'][1:])})": r["problems"]
                           for r in failed},
              "result": result}
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    (OUT_ROOT / f"{name}.json").write_text(json.dumps(record, indent=1))
    if not failed:
        shutil.rmtree(run_dir, ignore_errors=True)

    for r in failed:
        print(f"FAILED {r['job']}: {'; '.join(r['problems'])}", file=sys.stderr)
    print("# machine " + json.dumps(facts))
    print(f"# host.probe_s before {host[0]:.4f} after {host[1]:.4f}")
    for k, v in summary.items():
        print(f"# {k} samples: median {v['median']:.4f}, max {v['max']:.4f}, n {v['n']}")
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    raise SystemExit(main())
