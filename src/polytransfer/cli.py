"""Experiment runner: named experiments, flat config files, CSV + SVG output.

Config files are plain text, one ``key = value`` per line, ``#`` comments,
dotted prefixes for experiment-specific sections::

    experiment = fig1
    seed = 0
    out = runs/fig1
    fig1.n_samples = 10000

Unknown and repeated keys are rejected.  Every run writes a resolved copy
of its full configuration next to the outputs, and a rerun from that copy
reproduces the CSVs byte for byte (all randomness flows from the single
seed).  The POLYTRANSFER_OUT env var prefixes a relative ``out``; with an
absolute ``out`` it is a config error.

Each runner imports the modules it uses, numpy among them: a process loads
(and, without cached bytecode, compiles) only the code its run needs.  So
``list``, ``--help``, the usage message and every ``ConfigError`` load no
numpy; ``run`` parses, resolves and writes the config before its runner
imports numpy.  The package needs numpy alone: normal masses and Gaussian
log-densities are closed forms in ``math`` and numpy, and the
truncated-Gaussian sampler takes its normal quantile from the standard
library's ``statistics.NormalDist``.

Importing this module before numpy sets ``OPENBLAS_NUM_THREADS`` to 1
unless it is already set, so a ``run`` computes on one OpenBLAS thread, also
when a wrapper imports more modules before it calls ``main``.  The variable
counts only before OpenBLAS loads, so a process that loaded numpy first, such
as pytest, gets nothing set and its subprocesses inherit nothing.  No product
here (at most 512 x 231 blocks in the degree-20 fit, 1024 x 20 in the nets)
gains from a second thread, while an idle helper thread busy-waits after
``import numpy`` and after every threaded call.  With OpenBLAS and the
variable unset, a run's bytes then do not depend on the host's core count:
``A.T @ A`` in the fit rounds differently on one thread than on several.

A run's independent pieces (figure models, gotu flows) use up to one forked
worker per CPU of its affinity mask (``_in_workers``): one CPU forks nothing,
and may lose a little.  A run's rusage counts its workers' CPU; ``ru_maxrss``
from ``wait4`` is the largest process's peak, not their sum.  CPython >= 3.12
warns on a fork in a threaded process.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .mc import McSpec, mean_and_stderr
from .rng import Tag, make_rng, replicate_seed

if "numpy" not in sys.modules:   # the variable counts only before OpenBLAS loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict:
    out, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} on lines {seen[key]} and {lineno}")
        out[key], seen[key] = value, lineno
    return out


def _floats(s: str):
    return tuple(float(v) for v in s.replace(",", " ").split())


def _ints(s: str):
    """Integers; integral floats such as ``25.0`` (a resolved file's form) parse too."""
    values = _floats(s)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"not integers: {s!r}")
    return tuple(int(v) for v in values)


COMMON_SCHEMA = {
    "experiment": (str, None),
    "seed": (int, 0),
    "out": (str, "runs/out"),
}


@dataclass(frozen=True)
class Experiment:
    """An experiment's ``list`` line, config keys (key -> (parser, default)) and runner."""

    summary: str
    keys: dict
    run: Callable[[dict, Path], int]


EXPERIMENTS: dict[str, Experiment] = {}


def experiment(name: str, summary: str, keys: dict):
    """Declare the decorated runner as experiment ``name``."""
    def register(run):
        EXPERIMENTS[name] = Experiment(summary, keys, run)
        return run
    return register


def resolve_config(raw: dict) -> dict:
    name = raw.get("experiment")
    if name is None:
        raise ConfigError("missing required key: experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from "
                          + ", ".join(sorted(EXPERIMENTS)))
    schema = {**COMMON_SCHEMA, **EXPERIMENTS[name].keys}
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    resolved = {}
    for key, (conv, default) in schema.items():
        try:
            resolved[key] = conv(raw[key]) if key in raw else default
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad value for {key}: {raw[key]!r}") from e
    return resolved


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return " ".join(repr(float(x)) for x in v)
    return str(v)


def write_resolved(cfg: dict, out_dir: Path) -> None:
    lines = [f"{k} = {_format_value(v)}" for k, v in sorted(cfg.items())]
    (out_dir / "config.resolved.txt").write_text("\n".join(lines) + "\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _out_dir(cfg: dict) -> Path:
    root = os.environ.get("POLYTRANSFER_OUT")
    out = Path(cfg["out"])
    if root:
        if out.is_absolute():
            raise ConfigError(f"POLYTRANSFER_OUT={root!r} cannot prefix the absolute out = {out}")
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _in_workers(thunks: list) -> list:
    """``[t() for t in thunks]``, thunk i on worker ``i mod k`` (worker 0 is this process);
    the first exception in task order is re-raised.  Tasks return, not print, their lines."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(len(thunks), cores) or 1

    def share(w):   # worker w's (value, error, child's traceback) up to its first error
        for t in thunks[w::k]:
            try:
                yield t(), None, None
            except Exception as e:
                yield None, e, w and traceback.format_exc()
                return

    children, ended = [], []
    try:
        for w in range(1, k):
            import pickle, traceback
            r, wr = os.pipe()
            if (pid := os.fork()) == 0:
                try:   # never return into the caller's code
                    with os.fdopen(wr, "wb") as fh:
                        pickle.dump(list(share(w)), fh)
                    os._exit(0)
                finally:   # reached on an error only, such as a result that does not pickle
                    print(traceback.format_exc(), file=sys.stderr, flush=True)
                    os._exit(1)
            os.close(wr)
            children.append((pid, os.fdopen(r, "rb")))
        shares = [list(share(0))]
    finally:   # read each pipe, then reap its child, whatever was raised here
        for pid, fh in children:
            with fh:
                ended.append((fh.read(), os.waitpid(pid, 0)[1]))
    if not all(data and status == 0 for data, status in ended):
        raise RuntimeError("a worker exited without a complete result")
    shares += [pickle.loads(data) for data, _ in ended]
    outcomes = [o for row in itertools.zip_longest(*shares) for o in row if o is not None]
    for _, error, trace in outcomes:   # the first error in task order
        if trace:   # pickling dropped the child's traceback: chain its text
            error.__cause__ = RuntimeError(f"in a forked worker:\n{trace}")
        if error is not None:
            raise error
    return [value for value, _, _ in outcomes]


# ---------------------------------------------------------------------------
# Figure experiments
# ---------------------------------------------------------------------------


def _region_mse(model, f_star, sampler, mc: McSpec):
    import numpy as np

    pts = sampler(mc.n_samples, mc.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        err = (np.asarray(model(pts)) - f_star(pts)) ** 2
    est = mean_and_stderr(err)
    return est.value, est.stderr


def _plot_values(model, pts):
    """Model values sanitized for rendering: overflow saturates the scale at +-1e12."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        v = np.asarray(model(pts), dtype=float)
    v = np.nan_to_num(v, nan=1e12)   # +-inf go to +-max float, then clip
    return np.clip(v, -1e12, 1e12)


def _band_sampler(outer_lo, outer_hi, inner_lo, inner_hi):
    """Uniform on the outer box minus the closed inner box, by rejection."""
    import numpy as np

    from . import dist

    outer = dist.UniformBox(outer_lo, outer_hi)
    lo, hi = np.asarray(inner_lo, dtype=float), np.asarray(inner_hi, dtype=float)

    def sampler(n, seed):
        out, have = [], 0
        while have < n:
            pts = outer.sample(2 * n, seed, (Tag.BAND, Tag.ATTEMPT, len(out)))
            out.append(pts[~np.all((pts >= lo) & (pts <= hi), axis=1)])
            have += out[-1].shape[0]
        return np.concatenate(out)[:n]

    return sampler


def fit_extrapolating_poly(X, y, degree, seen_lo, seen_hi, band_lo, band_hi,
                           ridge: float, band_penalty: float):
    """Degree-d fit in the box basis, kept small on the evaluation band.

    Plain least squares (any ridge small enough to fit) sends the band
    values of a degree-20 fit to ~1e10 even in the infinite-sample limit:
    the truncation tail lands on basis directions that explode outside the
    seen box.  Penalizing the fit's mean square over the band (a pure
    geometry seminorm; no labels from outside the box are used) recovers
    the extrapolating solution.
    """
    from . import poly

    n = len(X)
    penalty = None
    if band_penalty > 0:
        gram = poly.box_region_gram(degree, (seen_lo, seen_hi),
                                    (band_lo, band_hi), subtract=(seen_lo, seen_hi))
        penalty = band_penalty * n * gram
    return poly.fit_regression(X, y, degree, basis=poly.BOX, ridge=ridge,
                               box=(seen_lo, seen_hi), penalty_matrix=penalty)


def run_figure(cfg: dict, out_dir: Path, *, prefix: str, f_star, seen_lo, seen_hi,
               band_lo, band_hi, with_poly_net: bool) -> int:
    from . import dist, nets
    from .heatmap import emit_svg_heatmap, grid_eval

    seed = cfg["seed"]
    n_samples = cfg[f"{prefix}.n_samples"]
    degree = cfg[f"{prefix}.degree"]
    resolution = cfg[f"{prefix}.resolution"]

    source = dist.UniformBox(seen_lo, seen_hi)
    X = source.sample(n_samples, seed)
    y = f_star(X)
    noise = cfg.get(f"{prefix}.noise", 0.0)
    if noise:
        y = y + noise * make_rng(seed, Tag.NOISE).standard_normal(y.size)

    def train(name, activation, path, epochs, rate, **init):   # forward map, stderr line
        m, line = nets.mlp_init(activation=activation, seed=seed, path=(Tag.INIT, path),
                                **init), None
        try:
            m = nets.train_adagrad(m, X, y, epochs=epochs, rate=rate, seed=seed)[0]
        except nets.DivergenceError as e:
            m, line = e.model, (f"{prefix}: {name} diverged (seed {seed}): {e}; "
                                "evaluating the weights of that batch")
        return (lambda pts: nets.forward(m, pts)), line

    seen_sampler = lambda n, s: dist.UniformBox(seen_lo, seen_hi).sample(n, s, (Tag.SEEN,))
    band_sampler = _band_sampler(band_lo, band_hi, seen_lo, seen_hi)
    full_sampler = lambda n, s: dist.UniformBox([-5, -5], [5, 5]).sample(n, s, (Tag.FULL,))
    regions = {"seen": seen_sampler, "band": band_sampler, "full": full_sampler}

    def model_task(name):
        """Fit or train one model and write its heatmap: its MSE rows and stderr line."""
        model, line = f_star, None
        if name == "poly20":
            model = fit_extrapolating_poly(X, y, degree, seen_lo, seen_hi, band_lo, band_hi,
                                           ridge=cfg[f"{prefix}.ridge"],
                                           band_penalty=cfg[f"{prefix}.band_penalty"]).eval
        elif name == "relu_net":
            model, line = train(name, nets.RELU, 0, cfg[f"{prefix}.epochs"], cfg[f"{prefix}.rate"])
        elif name == "poly_net":
            model, line = train(name, nets.POLY, 1, cfg[f"{prefix}.poly_epochs"],
                                cfg[f"{prefix}.poly_rate"],
                                init_scale=cfg[f"{prefix}.poly_init_scale"])
        # heatmaps over [-5, 5]^2 on a shared color range
        hm = grid_eval(lambda pts: _plot_values(model, pts), -5, 5, -5, 5, resolution)
        hm.vmax, hm.title = 1.5, name
        emit_svg_heatmap(hm, out_dir / f"heatmap_{name}.svg")
        return [[name, region, *_region_mse(model, f_star, sampler, McSpec(20_000, seed))]
                for region, sampler in regions.items() if name != "f_star"], line

    names = ["f_star", "poly20", "relu_net"] + ["poly_net"] * with_poly_net
    results = _in_workers([lambda name=name: model_task(name) for name in names])
    sys.stderr.writelines(line + "\n" for _, line in results if line)
    write_csv(out_dir / "mse.csv", ["model", "region", "mse", "se"],
              [row for rows, _ in results for row in rows])
    return 0


@experiment(
    "fig1", "degree-20 polynomial vs ReLU net on sin(2pix)sin(2piy), seen box [0,1]x[-1,1]",
    {"fig1.n_samples": (int, 10_000),
     "fig1.degree": (int, 20),
     "fig1.ridge": (float, 1e-10),
     "fig1.band_penalty": (float, 3e-3),
     "fig1.epochs": (int, 150),
     "fig1.rate": (float, 0.05),
     "fig1.resolution": (int, 100),
     "fig1.noise": (float, 0.0)})
def run_fig1(cfg: dict, out_dir: Path) -> int:
    import numpy as np

    f_star = lambda pts: np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
    return run_figure(cfg, out_dir, prefix="fig1", f_star=f_star,
                      seen_lo=(0.0, -1.0), seen_hi=(1.0, 1.0),
                      band_lo=(-1.0, -2.0), band_hi=(2.0, 2.0), with_poly_net=False)


@experiment(
    "fig2", "adds xy term and a polynomial-activation net, seen box [-1/2,1/2]^2",
    {"fig2.n_samples": (int, 10_000),
     "fig2.degree": (int, 20),
     "fig2.ridge": (float, 1e-10),
     "fig2.band_penalty": (float, 3e-3),
     "fig2.epochs": (int, 150),
     "fig2.rate": (float, 0.05),
     "fig2.poly_epochs": (int, 300),
     "fig2.poly_rate": (float, 0.01),
     "fig2.poly_init_scale": (float, 0.5),
     "fig2.resolution": (int, 100)})
def run_fig2(cfg: dict, out_dir: Path) -> int:
    import numpy as np

    f_star = lambda pts: (np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
                          + pts[:, 0] * pts[:, 1])
    return run_figure(cfg, out_dir, prefix="fig2", f_star=f_star,
                      seen_lo=(-0.5, -0.5), seen_hi=(0.5, 0.5),
                      band_lo=(-1.5, -1.5), band_hi=(1.5, 1.5), with_poly_net=True)


# ---------------------------------------------------------------------------
# Coefficient and inequality experiments
# ---------------------------------------------------------------------------


@experiment(
    "gaussian1d-coeffs", "bridge coefficients vs the direct Gaussian ratio over a mean sweep",
    {"gaussian1d.mus": (_floats, (0.0, 1.0, 2.0, 4.0)),
     "gaussian1d.degree": (int, 1)})
def run_gaussian1d_coeffs(cfg: dict, out_dir: Path) -> int:
    from . import dist, transfer

    d = cfg["gaussian1d.degree"]
    rows = []
    for mu in cfg["gaussian1d.mus"]:
        bridge, coeff = transfer.catalog_coefficient("gaussian1d", d, mu=mu)
        p = dist.Gaussian([0.0], [[1.0]])
        res = dist.density_ratio_sup(p, bridge) if mu else None
        numeric = res.value if mu else 1.0
        box_lo = float(res.box_lo[0]) if mu else float("nan")
        box_hi = float(res.box_hi[0]) if mu else float("nan")
        rows.append([mu, math.exp(mu * mu / 2.0),
                     getattr(bridge, "z_const", 1.0), coeff, numeric, box_lo, box_hi])
    write_csv(out_dir / "coeffs.csv",
              ["mu", "direct_ratio_lowerbound", "z_bridge", "bridge_coefficient",
               "numeric_ratio_sup", "box_lo", "box_hi"], rows)
    return 0


@experiment(
    "truncated", "truncated-regression MSE transfer over a truncation-mass sweep",
    {"truncated.thresholds": (_floats, (-1.0, -0.5, 0.0, 0.5, 1.0)),
     "truncated.constant": (float, 1.25),
     "truncated.grid_lo": (float, -2.0),
     "truncated.grid_hi": (float, 2.0),
     "truncated.grid_points": (int, 21)})
def run_truncated(cfg: dict, out_dir: Path) -> int:
    import numpy as np

    from . import dist, transfer, trunc

    grid = np.linspace(cfg["truncated.grid_lo"], cfg["truncated.grid_hi"],
                       cfg["truncated.grid_points"])
    reports = []
    summary = []
    for thr in cfg["truncated.thresholds"]:
        s = dist.IntervalUnion(((thr, math.inf),))
        inst = trunc.TruncatedRegressionInstance(
            np.zeros((1, 1)), lambda x: 0.0, s)
        alpha = trunc.alpha_mass_min(inst)
        worst = 0.0
        for c in grid:
            res = trunc.truncated_transfer_check(lambda x, c=c: c, inst,
                                                 constant=cfg["truncated.constant"])
            res.forward.kind = f"truncated-forward[alpha={alpha:.4g}]"
            res.reverse.kind = f"truncated-reverse[alpha={alpha:.4g}]"
            reports.extend([res.forward, res.reverse])
            worst = max(worst, res.full / max(res.truncated, 1e-300))
        summary.append([thr, alpha, worst, cfg["truncated.constant"] / alpha ** 2])
    transfer.write_reports(out_dir / "reports.csv", reports)
    write_csv(out_dir / "summary.csv",
              ["threshold", "alpha", "max_full_over_truncated", "coefficient"],
              summary)
    return 0


@experiment(
    "boolean-transfer", "seen/unseen hypercube transfer for dictator and low-influence families",
    {"boolean.n": (int, 16),
     "boolean.c_gap": (float, 1.0)})
def run_boolean_transfer(cfg: dict, out_dir: Path) -> int:
    from . import boolean

    n = cfg["boolean.n"]
    c_gap = cfg["boolean.c_gap"]
    seen = boolean.FrozenCoordinateSet(0, 1)
    rows = []

    def add(name: str, fn: boolean.BooleanFn, **kw):
        rep = boolean.transfer_report(fn, seen, c_gap=c_gap, **kw)
        rows.append([name, n, rep.degree, rep.tau, rep.mass, rep.gap,
                     rep.condition_holds, rep.lhs, rep.coefficient,
                     rep.source_moment, rep.satisfied])

    dictator = boolean.BooleanFn.from_fourier(n, {1: 1.0})
    add("dictator", dictator)
    spread = boolean.BooleanFn.from_fourier(
        n, {1 << i: 1.0 / math.sqrt(n) for i in range(n)})
    add("normalized-sum", spread)
    add("synthetic-low-influence", spread, tau_override=2.0 ** -24)
    # 24 distinct supports drawn from the nonzero masks of popcount <= 3
    # (all of them when there are fewer); drawing from all of [1, 2^n) and
    # keeping popcount <= 3 kept ~1% of the draws at n = 16
    low = sorted(sum(1 << i for i in c) for k in (1, 2, 3)
                 for c in itertools.combinations(range(n), k))
    rng = make_rng(cfg["seed"])
    picked = rng.choice(len(low), size=min(24, len(low)), replace=False)
    coeffs = {low[i]: float(c) for i, c in zip(picked, rng.standard_normal(picked.size))}
    fn, _ = boolean.normalize_variance(boolean.BooleanFn.from_fourier(n, coeffs))
    add("random-low-degree", fn)
    write_csv(out_dir / "boolean.csv",
              ["family", "n", "degree", "tau", "mass", "gap", "condition_holds",
               "lhs_eq_f2", "coefficient", "source_moment", "satisfied"], rows)
    return 0


@experiment(
    "gotu", "diagonal-net gradient flow trace and critical-time scaling",
    {"gotu.n": (int, 50),
     "gotu.depth": (int, 2),
     "gotu.alpha": (float, 0.05),
     "gotu.step": (float, 1e-3),
     "gotu.horizon": (float, 20.0),
     "gotu.c0": (float, 0.25),
     "gotu.scaling_ns": (_ints, (25, 50, 100, 200)),
     "gotu.scaling_seeds": (int, 10),
     "gotu.scaling_alpha": (float, 0.25),
     "gotu.scaling_horizon": (float, 15.0)})
def run_gotu(cfg: dict, out_dir: Path) -> int:
    import numpy as np

    from . import gotu

    n, depth = cfg["gotu.n"], cfg["gotu.depth"]
    k = 0
    c0 = cfg["gotu.c0"]

    def flow(n_i, alpha, seed_s, coef, horizon, **kw):
        net = gotu.init_weights(n_i, depth, alpha, seed_s)
        _, trace = gotu.gradient_flow(net, gotu.LinearTarget(0.0, coef), k,
                                      step=cfg["gotu.step"], horizon=horizon, **kw)
        ts = gotu.critical_time(trace, c0)
        return [n_i, depth, alpha, seed_s, ts if ts is not None else "none"], trace

    main = lambda: flow(n, cfg["gotu.alpha"], cfg["seed"], np.eye(n)[k], cfg["gotu.horizon"])
    # critical-time scaling (rows only): spread-coefficient target so tau(0) ~ 1/n < c0
    scaling = [lambda n_i=n_i, s=s: flow(n_i, cfg["gotu.scaling_alpha"],
                                         replicate_seed(cfg["seed"], s), np.ones(n_i),
                                         cfg["gotu.scaling_horizon"], record_every=5)[0]
               for n_i in cfg["gotu.scaling_ns"] for s in range(cfg["gotu.scaling_seeds"])]
    (summary, trace), *rows = _in_workers([main] + scaling)
    write_csv(out_dir / "trace.csv", gotu.TRACE_COLUMNS, trace)
    write_csv(out_dir / "summary.csv", ["n", "L", "alpha", "seed", "t_star"], [summary, *rows])
    return 0


@experiment(
    "icl-shift", "linear self-attention training plus task-shift loss ratios",
    {"icl.n": (int, 1),
     "icl.length": (int, 20),
     "icl.steps": (int, 20_000),
     "icl.rate": (float, 1e-2),
     "icl.batch": (int, 256),
     "icl.mus": (_floats, (1.0, 2.0, 4.0, 8.0)),
     "icl.mc": (int, 200_000),
     "icl.exponent": (int, 10)})
def run_icl_shift(cfg: dict, out_dir: Path) -> int:
    import numpy as np

    from . import dist, icl, transfer

    n, length = cfg["icl.n"], cfg["icl.length"]
    source = icl.PromptDistribution.gaussian(n, length)
    params, trace = icl.train_lsa(source, steps=cfg["icl.steps"],
                                  rate=cfg["icl.rate"], batch=cfg["icl.batch"],
                                  seed=cfg["seed"])
    write_csv(out_dir / "train_trace.csv", icl.TRACE_COLUMNS, trace)
    targets = []
    for mu in cfg["icl.mus"]:
        mean = np.zeros(n)
        mean[0] = mu
        targets.append(icl.PromptDistribution(
            source.p_x, source.p_x_query, dist.Gaussian(mean, np.eye(n)), length))
    reports = icl.shift_reports(params, source, targets, "task",
                                McSpec(cfg["icl.mc"], cfg["seed"]),
                                exponent=cfg["icl.exponent"])
    for mu, rep in zip(cfg["icl.mus"], reports):
        rep.kind = f"icl-task[mu={mu:.4g}]"
    transfer.write_reports(out_dir / "reports.csv", reports)
    return 0


@experiment(
    "transfer-ensemble", "random-polynomial ratio ensembles against the coefficient bound",
    {"ensemble.count": (int, 1000),
     "ensemble.degrees": (_ints, (1, 2, 3)),
     "ensemble.constant": (float, 1.0)})
def run_transfer_ensemble(cfg: dict, out_dir: Path) -> int:
    from . import transfer

    rows = []
    for d in cfg["ensemble.degrees"]:
        worst = transfer.ensemble_max_ratio((0.0, 1.0), (0.0, 3.0), d,
                                            cfg["ensemble.count"], cfg["seed"])
        coeff = transfer.logconcave_transfer_coefficient(
            d, 3.0, cfg["ensemble.constant"])
        rows.append([d, worst, 3.0, coeff])
    write_csv(out_dir / "ensemble.csv",
              ["degree", "max_ratio_root", "ratio_sup", "coefficient"], rows)
    return 0


def run(config_path: str) -> int:
    raw = parse_config_text(Path(config_path).read_text())
    cfg = resolve_config(raw)
    out_dir = _out_dir(cfg)
    write_resolved(cfg, out_dir)
    return EXPERIMENTS[cfg["experiment"]].run(cfg, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polytransfer",
        description="transfer-inequality experiments for low-degree polynomials")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("config", help="path to a key = value config file")
    sub.add_parser("list", help="print the experiment catalog")
    args = parser.parse_args(argv)
    if args.command == "list":
        for name, exp in sorted(EXPERIMENTS.items()):
            print(f"{name:20s} {exp.summary}")
        return 0
    if args.command == "run":
        try:
            return run(args.config)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
