import csv
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polytransfer
from polytransfer import cli, heatmap
from polytransfer.heatmap import Heatmap, emit_svg_heatmap, grid_eval


class TestConfig:
    def test_parse_key_values(self):
        raw = cli.parse_config_text("""
        # a comment
        experiment = gotu
        seed = 3
        gotu.n = 12   # trailing comment
        """)
        assert raw == {"experiment": "gotu", "seed": "3", "gotu.n": "12"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown experiment"):
            cli.resolve_config({"experiment": "nope"})

    def test_unknown_key_listed(self):
        with pytest.raises(cli.ConfigError, match="gotu.bogus"):
            cli.resolve_config({"experiment": "gotu", "gotu.bogus": "1"})

    def test_bad_value_reported_with_key(self):
        with pytest.raises(cli.ConfigError, match="gotu.n"):
            cli.resolve_config({"experiment": "gotu", "gotu.n": "many"})

    def test_defaults_filled(self):
        cfg = cli.resolve_config({"experiment": "transfer-ensemble"})
        assert cfg["seed"] == 0
        assert cfg["ensemble.count"] == 1000

    def test_missing_experiment(self):
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.resolve_config({})

    @pytest.mark.parametrize("experiment, key", [("gotu", "gotu.scaling_ns"),
                                                 ("transfer-ensemble", "ensemble.degrees")])
    @pytest.mark.parametrize("value", ["8.7", "8 1.9", "inf", "nan"])
    def test_integer_lists_reject_non_integers(self, experiment, key, value):
        # the runners used to truncate these: 8.7 ran n = 8 and 1.9 ran degree 1
        with pytest.raises(cli.ConfigError, match=key):
            cli.resolve_config({"experiment": experiment, key: value})

    @pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
    def test_resolved_file_resolves_to_the_same_values(self, experiment, tmp_path):
        cfg = cli.resolve_config({"experiment": experiment})
        cli.write_resolved(cfg, tmp_path)
        text = (tmp_path / "config.resolved.txt").read_text()
        again = cli.resolve_config(cli.parse_config_text(text))
        assert {k: repr(v) for k, v in again.items()} == {k: repr(v) for k, v in cfg.items()}


def test_readme_lists_exactly_the_registered_experiments():
    readme = Path(polytransfer.__file__).resolve().parents[2] / "README.md"
    table = readme.read_text().split("\nExperiments:\n", 1)[1].strip().split("\n\n")[0]
    names = [row.split("|")[1].strip().strip("`") for row in table.splitlines()[2:]]
    assert sorted(names) == sorted(cli.EXPERIMENTS)


class TestMain:
    def test_list_prints_catalog(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in cli.EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("experiment = frobnicate\n")
        assert cli.main(["run", str(cfg)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_command_prints_usage(self, capsys):
        assert cli.main([]) == 2


def color_of_per_cell(value, vmax):
    """The per-cell color mapping that the vectorized one replaced."""
    mid, pos, neg = (247, 247, 247), (178, 24, 43), (33, 102, 172)
    t = max(-1.0, min(1.0, value / vmax))
    end, s = (pos, t) if t >= 0 else (neg, -t)
    return "#%02x%02x%02x" % tuple(int(round(mid[i] + (end[i] - mid[i]) * s))
                                   for i in range(3))


class TestHeatmapSvg:
    def test_colors_match_per_cell_mapping(self):
        vmax = 1.7
        diffs = [abs(e - m) for end in ((178, 24, 43), (33, 102, 172))
                 for e, m in zip(end, (247, 247, 247))]
        # t values where some channel lands on a half: round-half-even ties
        ties = [(j + 0.5) / d for d in diffs for j in range(d)]
        values = np.concatenate([
            np.arange(-120_000, 120_001) * 1e-5 * vmax,
            vmax * np.array(ties), -vmax * np.array(ties),
            [vmax, -vmax, 2 * vmax, -2 * vmax, 0.0, -0.0]])
        got = heatmap.colors_of(values, vmax).tolist()
        assert got == [color_of_per_cell(v, vmax) for v in values.tolist()]

    def test_svg_bytes_equal_per_cell_path(self, tmp_path, monkeypatch):
        vals = np.random.default_rng(3).normal(size=(40, 30))
        vals[0, :4] = [0.0, -0.0, 1.5, -1.5]
        h = Heatmap(-5, 5, -5, 5, vals, vmax=1.5, title="demo")
        emit_svg_heatmap(h, tmp_path / "fast.svg")
        per_cell = np.vectorize(color_of_per_cell, otypes=[object])
        monkeypatch.setattr(heatmap, "colors_of",
                            lambda values, vmax: per_cell(np.asarray(values, dtype=float), vmax))
        emit_svg_heatmap(h, tmp_path / "slow.svg")
        assert (tmp_path / "fast.svg").read_bytes() == (tmp_path / "slow.svg").read_bytes()

    def test_constant_grid_single_color(self, tmp_path):
        h = Heatmap(0, 1, 0, 1, np.full((4, 4), 0.5), vmax=1.0)
        path = tmp_path / "h.svg"
        emit_svg_heatmap(h, path)
        text = path.read_text()
        cells = [line for line in text.splitlines()
                 if line.startswith("<rect") and 'fill="white"' not in line]
        cell_colors = {line.split('fill="')[1][:7] for line in cells[:16]}
        assert len(cell_colors) == 1

    def test_extreme_corner_colors(self, tmp_path):
        h = Heatmap(0, 1, 0, 1, np.array([[-1.0, 0.0], [0.0, 1.0]]), vmax=1.0)
        path = tmp_path / "h.svg"
        emit_svg_heatmap(h, path)
        text = path.read_text()
        assert "#2166ac" in text  # saturated negative endpoint
        assert "#b2182b" in text  # saturated positive endpoint
        assert "#f7f7f7" in text  # midpoint

    def test_byte_identical_rerenders(self, tmp_path):
        vals = np.random.default_rng(0).normal(size=(8, 8))
        h = Heatmap(-5, 5, -5, 5, vals, vmax=1.5, title="demo")
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_heatmap(h, p1)
        emit_svg_heatmap(h, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sine_grid_checkerboard_sign_structure(self):
        h = grid_eval(lambda pts: np.sin(2 * np.pi * pts[:, 0])
                      * np.sin(2 * np.pi * pts[:, 1]), -5, 5, -5, 5, 200)
        # sign flips every half period along each axis: compare shifted cells
        values = h.values
        quarter = 200 // 20  # half period = 0.5 units = 10 cells
        prod = values[:, :-quarter] * values[:, quarter:]
        assert np.mean(prod < 0) > 0.8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Heatmap(0, 1, 0, 1, np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            Heatmap(0, 1, 0, 1, np.ones((1, 5)))


def run_config(tmp_path, text):
    cfg = tmp_path / "config.txt"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg)]) == 0


class TestExperiments:
    def test_gaussian1d_coeffs_outputs(self, tmp_path):
        out = tmp_path / "run"
        run_config(tmp_path, f"""
            experiment = gaussian1d-coeffs
            out = {out}
            gaussian1d.mus = 0 1 2
        """)
        with open(out / "coeffs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["mu"]) for r in rows] == [0.0, 1.0, 2.0]
        z2 = 1 + 2.0 / math.sqrt(2 * math.pi)
        assert float(rows[2]["z_bridge"]) == pytest.approx(z2, rel=1e-12)
        assert float(rows[2]["bridge_coefficient"]) == pytest.approx(z2 ** 2, rel=1e-12)
        assert float(rows[2]["direct_ratio_lowerbound"]) == pytest.approx(
            math.exp(2.0), rel=1e-12)
        assert float(rows[2]["numeric_ratio_sup"]) == pytest.approx(z2, rel=0.01)
        assert (out / "config.resolved.txt").exists()

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        text = f"experiment = transfer-ensemble\nout = {out}\nensemble.count = 50\n"
        run_config(tmp_path, text)
        first = (out / "ensemble.csv").read_bytes()
        run_config(tmp_path, text)
        assert (out / "ensemble.csv").read_bytes() == first

    def test_ensemble_cells_are_plain_numbers(self, tmp_path):
        # numpy float scalars once leaked their repr, np.float64(...), into the CSV
        out = tmp_path / "run"
        run_config(tmp_path, f"experiment = transfer-ensemble\nout = {out}\nensemble.count = 20\n")
        with open(out / "ensemble.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        for row in rows[1:]:
            assert all(math.isfinite(float(cell)) for cell in row)

    def test_truncated_experiment(self, tmp_path):
        out = tmp_path / "run"
        run_config(tmp_path, f"""
            experiment = truncated
            out = {out}
            truncated.thresholds = 0
            truncated.grid_points = 5
        """)
        with open(out / "reports.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["satisfied"] == "True" for r in rows)
        with open(out / "summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert float(summary[0]["alpha"]) == pytest.approx(0.5)

    def test_boolean_experiment(self, tmp_path):
        out = tmp_path / "run"
        run_config(tmp_path, f"""
            experiment = boolean-transfer
            out = {out}
            boolean.n = 10
        """)
        with open(out / "boolean.csv") as fh:
            rows = {r["family"]: r for r in csv.DictReader(fh)}
        assert rows["dictator"]["condition_holds"] == "False"
        assert rows["synthetic-low-influence"]["condition_holds"] == "True"

    def test_boolean_random_low_degree_present_at_every_seed(self, tmp_path):
        # drawing masks from all of [1, 2^n) and keeping popcount <= 3 lost
        # this family at 14 of these seeds, the default seed 0 among them
        out = tmp_path / "run"
        for seed in range(20):
            run_config(tmp_path, f"experiment = boolean-transfer\nout = {out}\nseed = {seed}\n")
            with open(out / "boolean.csv") as fh:
                rows = {r["family"]: r for r in csv.DictReader(fh)}
            assert int(rows["random-low-degree"]["degree"]) <= 3, seed

    def test_gotu_experiment_small(self, tmp_path):
        out = tmp_path / "run"
        run_config(tmp_path, f"""
            experiment = gotu
            out = {out}
            gotu.n = 10
            gotu.horizon = 2.0
            gotu.scaling_ns = 8 12
            gotu.scaling_seeds = 2
            gotu.scaling_horizon = 6.0
        """)
        with open(out / "trace.csv") as fh:
            trace_rows = list(csv.DictReader(fh))
        ls = [float(r["L_S"]) for r in trace_rows]
        assert all(b <= a + 1e-9 for a, b in zip(ls, ls[1:]))
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 + 2 * 2

    def test_icl_experiment_small(self, tmp_path):
        out = tmp_path / "run"
        run_config(tmp_path, f"""
            experiment = icl-shift
            out = {out}
            icl.steps = 200
            icl.mc = 5000
            icl.mus = 1 2
        """)
        with open(out / "reports.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["kind"].startswith("icl-task")

    def test_fig1_small(self, tmp_path):
        out = tmp_path / "run"
        run_config(tmp_path, f"""
            experiment = fig1
            out = {out}
            fig1.n_samples = 800
            fig1.degree = 8
            fig1.epochs = 3
            fig1.resolution = 16
        """)
        for name in ("f_star", "poly20", "relu_net"):
            assert (out / f"heatmap_{name}.svg").exists()
        with open(out / "mse.csv") as fh:
            rows = list(csv.DictReader(fh))
        models = {r["model"] for r in rows}
        regions = {r["region"] for r in rows}
        assert models == {"poly20", "relu_net"}
        assert regions == {"seen", "band", "full"}

    def test_out_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYTRANSFER_OUT", str(tmp_path / "root"))
        cfg = tmp_path / "c.txt"
        cfg.write_text("experiment = transfer-ensemble\nout = sub\nensemble.count = 10\n")
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "root" / "sub" / "ensemble.csv").exists()


def use_cpus(monkeypatch, n):
    """Show ``cli._in_workers`` an affinity mask of n CPUs, so it runs n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def run_small_figure(tmp_path, experiment, **extra):
    out = tmp_path / "run"
    lines = [f"experiment = {experiment}", f"out = {out}", f"{experiment}.n_samples = 64",
             f"{experiment}.degree = 4", f"{experiment}.epochs = 7",
             f"{experiment}.resolution = 8"]
    lines += [f"{experiment}.{k} = {v}" for k, v in extra.items()]
    run_config(tmp_path, "\n".join(lines) + "\n")
    return out


class TestFigureStreams:
    """The recorders below run the figure on one CPU, so on one worker: a call
    made in a forked worker never reaches a recorder in this process."""

    def test_net_init_is_not_an_image_of_the_training_points(self, tmp_path, monkeypatch):
        # the nets used to draw their first-layer weights from the root
        # stream of the training points, an affine image of the first 20
        from polytransfer import dist, nets

        use_cpus(monkeypatch, 1)
        inits, real = [], nets.mlp_init

        def recorded(*args, **kwargs):
            inits.append(real(*args, **kwargs))
            return inits[-1]

        monkeypatch.setattr(nets, "mlp_init", recorded)
        run_small_figure(tmp_path, "fig2", poly_epochs=0)
        X = dist.UniformBox((-0.5, -0.5), (0.5, 0.5)).sample(64, 0)
        assert len(inits) == 2
        for m in inits:
            r = np.corrcoef(m.weights[0].ravel(), X[:20].ravel())[0, 1]
            assert abs(r) < 0.9

    def test_training_streams_are_not_the_data_or_region_streams(self, tmp_path, monkeypatch):
        # epoch e used to permute with stream e + 1, the stream of the noise
        # (3), the seen (5), full (6) and band (7) samplers
        from polytransfer import dist, nets

        use_cpus(monkeypatch, 1)
        keys = {"nets": set(), "data": set()}

        def recording(owner, real):
            def make_rng(*args, **kwargs):
                rng = real(*args, **kwargs)
                state = rng.bit_generator.state["state"]
                keys[owner].add((*state["counter"].tolist(), *state["key"].tolist()))
                return rng
            return make_rng

        monkeypatch.setattr(nets, "make_rng", recording("nets", nets.make_rng))
        monkeypatch.setattr(dist, "make_rng", recording("data", dist.make_rng))
        monkeypatch.setattr(cli, "make_rng", recording("data", cli.make_rng))
        run_small_figure(tmp_path, "fig2", poly_epochs=7)
        assert len(keys["nets"]) == 2 + 7 and len(keys["data"]) == 4
        assert not keys["nets"] & keys["data"]

    def test_diverged_net_is_evaluated_and_reported(self, tmp_path, capsys, monkeypatch):
        # at init scale 1 the cubic net overflows on its first batch; it
        # trains in a forked worker, and this process prints the line
        use_cpus(monkeypatch, 2)
        out = run_small_figure(tmp_path, "fig2", poly_epochs=2, poly_init_scale=1.0)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("fig2: poly_net diverged (seed 0): loss ")
        assert "at epoch 0" in err[0]
        assert len(list(out.glob("heatmap_*.svg"))) == 4
        with open(out / "mse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert {r["model"] for r in rows} == {"poly20", "relu_net", "poly_net"}


# f*, seen box and band box as `run_fig1` and `run_fig2` declare them
FIGURES = {
    "fig1": (lambda p: np.sin(2 * np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1]),
             ((0.0, -1.0), (1.0, 1.0)), ((-1.0, -2.0), (2.0, 2.0))),
    "fig2": (lambda p: (np.sin(2 * np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1])
                        + p[:, 0] * p[:, 1]),
             ((-0.5, -0.5), (0.5, 0.5)), ((-1.5, -1.5), (1.5, 1.5))),
}


def box_integral(g, lo, hi, nodes=120):
    """Integral of g over the 2-D box [lo, hi] by the tensor Gauss-Legendre
    rule, which is exact through degree 239 per axis, and the box's area."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = (hi - lo) / 2
    xx, yy = np.meshgrid(*(lo[j] + half[j] * (t + 1) for j in range(2)), indexing="ij")
    values = g(np.column_stack([xx.ravel(), yy.ravel()]))
    return float(np.outer(w, w).ravel() @ values) * half.prod(), 4 * half.prod()


class TestFigureMseOracle:
    """The poly20 cells of mse.csv against the region means of (p - f*)^2 by
    quadrature: the seen and full regions are boxes, the band is the outer
    box minus the seen box."""

    @pytest.mark.parametrize("experiment", sorted(FIGURES))
    def test_poly20_cells_match_quadrature(self, tmp_path, experiment):
        from polytransfer import dist

        f_star, seen, band = FIGURES[experiment]
        out = tmp_path / "run"
        run_config(tmp_path, f"experiment = {experiment}\nout = {out}\n"
                             f"{experiment}.epochs = 0\n{experiment}.resolution = 4\n"
                             + ("fig2.poly_epochs = 0\n" if experiment == "fig2" else ""))
        with open(out / "mse.csv") as fh:
            cells = {r["region"]: (float(r["mse"]), float(r["se"]))
                     for r in csv.DictReader(fh) if r["model"] == "poly20"}

        # the fit as the run makes it, at the default settings
        cfg = cli.resolve_config({"experiment": experiment})
        X = dist.UniformBox(*seen).sample(cfg[f"{experiment}.n_samples"], cfg["seed"])
        fit = cli.fit_extrapolating_poly(X, f_star(X), cfg[f"{experiment}.degree"], *seen, *band,
                                         ridge=cfg[f"{experiment}.ridge"],
                                         band_penalty=cfg[f"{experiment}.band_penalty"])
        sq = lambda pts: (fit.poly.eval(pts) - f_star(pts)) ** 2
        (s_int, s_area), (b_int, b_area) = box_integral(sq, *seen), box_integral(sq, *band)
        full_int, full_area = box_integral(sq, (-5.0, -5.0), (5.0, 5.0))
        exact = {"seen": s_int / s_area, "band": (b_int - s_int) / (b_area - s_area),
                 "full": full_int / full_area}
        assert set(cells) == set(exact)
        for region, (mse, se) in cells.items():
            assert abs(mse - exact[region]) < 4.0 * se, (region, mse, se, exact[region])


EXPERIMENT_MODULES = {f"polytransfer.{m}" for m in (
    "boolean", "dist", "gotu", "heatmap", "icl", "nets", "poly", "transfer", "trunc")}


def child_env(**variables) -> dict:
    """Environment of a fresh interpreter that imports this source tree; a
    variable given as None is removed."""
    env = dict(os.environ)
    env.pop("POLYTRANSFER_OUT", None)
    src = str(Path(polytransfer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for key, value in variables.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def modules_loaded_by(code: str, cwd) -> set:
    """Names in sys.modules after a fresh interpreter runs ``code``."""
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=300, check=True)
    return set(proc.stdout.splitlines()[-1].split())


# Small configs that take every default run's code path.
SMALL_RUNS = {
    "fig1": "fig1.n_samples = 64\nfig1.degree = 4\nfig1.epochs = 2\nfig1.resolution = 4\n",
    "fig2": ("fig2.n_samples = 64\nfig2.degree = 4\nfig2.epochs = 2\nfig2.poly_epochs = 2\n"
             "fig2.resolution = 4\n"),
    "gaussian1d-coeffs": "",
    "truncated": "truncated.thresholds = -1 1\ntruncated.grid_points = 5\n",
    "boolean-transfer": "boolean.n = 10\n",
    "gotu": ("gotu.n = 10\ngotu.horizon = 0.5\ngotu.scaling_ns = 8 10\n"
             "gotu.scaling_seeds = 1\ngotu.scaling_horizon = 0.5\n"),
    "icl-shift": "icl.steps = 5\nicl.batch = 8\nicl.mus = 1\nicl.mc = 1000\n",
    "transfer-ensemble": "ensemble.count = 20\n",
}


class TestImports:
    """A CLI process loads only what its run uses (scipy alone takes
    ~0.35 s and ~20 MiB to import)."""

    def test_cli_import_loads_no_experiment_module_or_scipy(self, tmp_path):
        loaded = modules_loaded_by("import polytransfer.cli", tmp_path)
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}
        assert not loaded & EXPERIMENT_MODULES
        assert "hashlib" not in loaded   # only derived streams import it

    def test_small_runs_cover_every_experiment(self):
        assert set(SMALL_RUNS) == set(cli.EXPERIMENTS)

    @pytest.mark.parametrize("experiment", sorted(SMALL_RUNS))
    def test_run_loads_no_scipy(self, tmp_path, experiment):
        (tmp_path / "c.txt").write_text(
            f"experiment = {experiment}\nout = {tmp_path / 'run'}\n" + SMALL_RUNS[experiment])
        loaded = modules_loaded_by(
            "from polytransfer import cli\n"
            "assert cli.main(['run', 'c.txt']) == 0", tmp_path)
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}

    @pytest.mark.parametrize("code", [
        "import polytransfer.cli",
        "assert cli.main(['list']) == 0",
        "assert cli.main([]) == 2",
        "try:\n    cli.main(['--help'])\nexcept SystemExit as e:\n    assert e.code == 0",
        "assert cli.main(['run', 'unknown-experiment.txt']) == 2",
        "assert cli.main(['run', 'unknown-key.txt']) == 2",
    ])
    def test_text_only_commands_load_no_numpy(self, tmp_path, code):
        # importing numpy and starting its BLAS threads took half of a `list` process
        (tmp_path / "unknown-experiment.txt").write_text("experiment = fig3\n")
        (tmp_path / "unknown-key.txt").write_text("experiment = fig1\nfig1.width = 3\n")
        loaded = modules_loaded_by("from polytransfer import cli\n" + code, tmp_path)
        assert "numpy" not in loaded


class TestBlasThreads:
    """Importing the CLI before numpy sets OPENBLAS_NUM_THREADS=1 unless it is set."""

    # how a child process reaches cli.main: as a module, or the way a wrapper
    # such as perfbench's tracer does, importing the CLI and then modules that
    # load numpy before it calls main
    LAUNCHES = {
        "module": ["-m", "polytransfer.cli"],
        "wrapped": ["-c", "import sys\nfrom polytransfer import cli, poly\n"
                          "sys.exit(cli.main(sys.argv[1:]))"],
    }

    def test_fit_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # A.T @ A in the degree-20 fit rounds differently on one OpenBLAS
        # thread than on several, so with the library's default of one
        # thread per core the poly20 rows moved with the host's core count
        outputs = {}
        for launch, threads in (("module", "1"), ("module", None), ("wrapped", None)):
            out = tmp_path / f"{launch}-{threads}"
            (tmp_path / "c.txt").write_text(
                f"experiment = fig1\nout = {out}\nfig1.n_samples = 600\nfig1.degree = 20\n"
                "fig1.epochs = 0\nfig1.resolution = 4\n")
            subprocess.run([sys.executable, *self.LAUNCHES[launch], "run", "c.txt"],
                           cwd=tmp_path, env=child_env(OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, timeout=300, check=True)
            outputs[launch, threads] = (out / "mse.csv").read_bytes()
        assert outputs["module", None] == outputs["module", "1"]
        assert outputs["wrapped", None] == outputs["module", "1"]

    @pytest.mark.parametrize("prelude, preset, command, expected", [
        ("", None, "run", "1"), ("", "2", "run", "2"), ("", None, "list", "1"),
        ("", "2", "list", "2"),
        # the variable would no longer take effect, and subprocesses started
        # later would inherit it
        ("import numpy\n", None, "run", None)])
    def test_set_only_before_numpy_and_a_preset_count_is_kept(
            self, tmp_path, prelude, preset, command, expected):
        (tmp_path / "c.txt").write_text(
            f"experiment = transfer-ensemble\nout = {tmp_path / 'run'}\nensemble.count = 20\n")
        argv = ["run", "c.txt"] if command == "run" else ["list"]
        script = (f"import os, sys\n{prelude}from polytransfer import cli\n"
                  f"assert cli.main({argv!r}) == 0\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=child_env(OPENBLAS_NUM_THREADS=preset),
                              capture_output=True, text=True, timeout=300, check=True)
        loads_numpy = command == "run" or bool(prelude)
        assert proc.stdout.splitlines()[-1] == f"{expected} {loads_numpy}"


# Calls that share a sample on purpose, as (caller, callee) function names:
# every call from the caller into the callee is one call site.
# - verify_transfer reads both Renyi divergences against a bridge from one
#   bridge sample;
# - fig2's two nets train on one epoch stream, so they see the same batches
#   (each net's task calls `train` from its own line of `model_task`).
SHARED_SAMPLES = {("verify_transfer", "renyi_divergence"), ("model_task", "train")}


def audit_streams(monkeypatch, action, shared=SHARED_SAMPLES) -> dict:
    """Run ``action`` with every module's ``make_rng`` binding recorded.

    Returns {(seed, path): call sites} for the (seed, path) pairs that more
    than one call site built.  A call site is the chain of polytransfer
    frames, outermost first, as (module, function, line); a loop that
    rebuilds one stream from one line is one call site.  The action runs on
    one CPU, so on one worker: a stream built in a forked worker would never
    reach the recorder in this process.
    """
    from polytransfer import rng

    use_cpus(monkeypatch, 1)
    for name in sorted(EXPERIMENT_MODULES):
        __import__(name)
    real, pkg = rng.make_rng, str(Path(polytransfer.__file__).parent)
    builds = {}

    def recording(seed, *path):
        frames, f = [], sys._getframe(1)
        while f is not None:
            if f.f_code.co_filename.startswith(pkg):
                frames.append((Path(f.f_code.co_filename).stem, f.f_code.co_name, f.f_lineno))
            f = f.f_back
        frames.reverse()
        site = tuple((m, fn, None if (fn, inner[1]) in shared else line)
                     for (m, fn, line), inner in zip(frames, frames[1:] + [(None,) * 3]))
        builds.setdefault((int(seed), tuple(map(int, path))), set()).add(site)
        return real(seed, *path)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("polytransfer") and getattr(module, "make_rng", None) is real:
            monkeypatch.setattr(module, "make_rng", recording)
    action()
    monkeypatch.undo()
    return {key: sites for key, sites in builds.items() if len(sites) > 1}


AUDITED_RUNS = [(e, "") for e in sorted(SMALL_RUNS)] + [
    ("icl-shift", f"icl.steps = {steps}\n") for steps in range(1, 5)]


class TestStreamAudit:
    """No two call sites of a run build the same generator (seed, path)."""

    @pytest.mark.parametrize("experiment, extra", AUDITED_RUNS)
    def test_run_builds_no_stream_twice(self, tmp_path, monkeypatch, experiment, extra):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"experiment = {experiment}\nout = {tmp_path / 'run'}\n"
                       + SMALL_RUNS[experiment] + extra)
        aliased = audit_streams(monkeypatch, lambda: cli.main(["run", str(cfg)]))
        assert not aliased

    def test_declared_shares_are_the_only_exceptions(self, tmp_path, monkeypatch):
        from polytransfer import dist, poly, transfer
        from polytransfer.mc import McSpec
        from polytransfer.rng import Tag

        p, q = dist.Gaussian([0.0], [[1.0]]), dist.Gaussian([0.5], [[1.0]])
        f = poly.MultiPoly(1, 2, poly.MONOMIAL, {(0,): 0.5, (2,): 1.0})
        check = lambda: transfer.verify_transfer(
            f, p, q, 2, transfer.HolderPair(2.0, 2.0), bridge=dist.bridge_1d(0.5),
            mc=McSpec(500, 3))
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"experiment = fig2\nout = {tmp_path / 'run'}\n" + SMALL_RUNS["fig2"])
        figure = lambda: cli.main(["run", str(cfg)])
        for action, keys, caller in [
                (check, {(3, ()), (3, (Tag.PLATEAU,))}, ("transfer", "verify_transfer")),
                (figure, {(0, (Tag.EPOCH, 0)), (0, (Tag.EPOCH, 1))}, ("cli", "model_task"))]:
            assert not audit_streams(monkeypatch, action)
            undeclared = audit_streams(monkeypatch, action, shared=set())
            assert set(undeclared) == keys
            for a, b in undeclared.values():   # the same frames but for the caller's line
                assert {fa[:2] for fa, fb in zip(a, b) if fa != fb} == {caller}


def throw(error):
    raise error


class TestWorkers:
    """``cli._in_workers(thunks)`` is ``[t() for t in thunks]`` on any number of
    forked workers, one per CPU of the affinity mask (``use_cpus`` sets it)."""

    @pytest.mark.parametrize("experiment, files", [("fig1", 4), ("fig2", 5), ("gotu", 2)])
    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch,
                                                       experiment, files):
        # under pytest numpy's OpenBLAS threads are already running when a run forks
        outputs = {}
        for workers in (1, 2):
            use_cpus(monkeypatch, workers)
            out = tmp_path / f"workers-{workers}"
            run_config(tmp_path, f"experiment = {experiment}\nout = {out}\n"
                       + SMALL_RUNS[experiment])
            outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                                if p.suffix in (".csv", ".svg")}
        assert len(outputs[1]) == files
        assert outputs[2] == outputs[1]

    def test_task_i_runs_on_worker_i_mod_k_and_returns_in_order(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        results = cli._in_workers([lambda i=i: (i, os.getpid()) for i in range(7)])
        assert [i for i, _ in results] == list(range(7))
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert pids == [pids[i % 3] for i in range(7)]

    def test_first_exception_in_task_order_crosses_with_its_attributes(self, monkeypatch):
        from polytransfer import nets

        use_cpus(monkeypatch, 2)
        model = nets.mlp_init(seed=3)
        # task 1 fails in the child; task 2, later in task order, fails in this process
        tasks = [lambda: 0, lambda: throw(nets.DivergenceError("loss inf", model=model)),
                 lambda: throw(ValueError("a later task"))]
        with pytest.raises(nets.DivergenceError, match="loss inf") as info:
            cli._in_workers(tasks)
        assert info.value.model is not model
        for crossed, sent in zip(info.value.model.weights + info.value.model.biases,
                                 model.weights + model.biases, strict=True):
            np.testing.assert_array_equal(crossed, sent)

    @pytest.mark.parametrize("code", [0, 1])
    def test_a_child_that_exits_mid_task_raises(self, monkeypatch, code):
        use_cpus(monkeypatch, 2)
        parent = os.getpid()
        exits = lambda: os.getpid() != parent and os._exit(code)   # never in this process
        with pytest.raises(RuntimeError, match="without a complete result"):
            cli._in_workers([lambda: 0, exits, lambda: 2])

    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: throw(AssertionError("forked on one CPU")))
        use_cpus(monkeypatch, 1)
        run_config(tmp_path, f"experiment = fig2\nout = {tmp_path / 'run'}\n" + SMALL_RUNS["fig2"])
        assert cli._in_workers([os.getpid, os.getpid]) == [os.getpid()] * 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)   # then the count is 1
        assert cli._in_workers([os.getpid, os.getpid]) == [os.getpid()] * 2

    def test_a_child_s_exception_carries_its_traceback_as_text(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="in the child") as info:
            cli._in_workers([lambda: 0, lambda: throw(ValueError("in the child"))])
        cause = info.value.__cause__   # pickling drops the traceback itself
        assert isinstance(cause, RuntimeError) and "in a forked worker" in str(cause)
        assert "in throw" in str(cause) and "ValueError: in the child" in str(cause)
        with pytest.raises(ValueError) as info:   # this process keeps its own traceback
            cli._in_workers([lambda: throw(ValueError("here")), lambda: 0])
        assert info.value.__cause__ is None

    def test_a_child_that_cannot_send_its_result_says_why(self, monkeypatch, capfd):
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="without a complete result"):
            cli._in_workers([lambda: 0, lambda: (lambda: "a local function does not pickle")])
        assert "pickle" in capfd.readouterr().err

    def test_the_fork_warning_of_cpython_3_12_is_not_an_error(self):
        # pyproject's filterwarnings ignores the exact message os.fork warns with
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning)
