import csv
import math
import os
import subprocess
import sys
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


class TestMain:
    def test_list_prints_catalog(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in cli.RUNNERS:
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


def run_small_figure(tmp_path, experiment, **extra):
    out = tmp_path / "run"
    lines = [f"experiment = {experiment}", f"out = {out}", f"{experiment}.n_samples = 64",
             f"{experiment}.degree = 4", f"{experiment}.epochs = 7",
             f"{experiment}.resolution = 8"]
    lines += [f"{experiment}.{k} = {v}" for k, v in extra.items()]
    run_config(tmp_path, "\n".join(lines) + "\n")
    return out


class TestFigureStreams:
    def test_net_init_is_not_an_image_of_the_training_points(self, tmp_path, monkeypatch):
        # the nets used to draw their first-layer weights from the root
        # stream of the training points, an affine image of the first 20
        from polytransfer import dist, nets

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

    def test_diverged_net_is_evaluated_and_reported(self, tmp_path, capsys):
        # at init scale 1 the cubic net overflows on its first batch
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


EXPERIMENT_MODULES = {f"polytransfer.{m}" for m in (
    "boolean", "dist", "gotu", "heatmap", "icl", "nets", "poly", "transfer", "trunc")}


def modules_loaded_by(code: str, cwd) -> set:
    """Names in sys.modules after a fresh interpreter runs ``code``."""
    env = dict(os.environ)
    env.pop("POLYTRANSFER_OUT", None)
    src = str(Path(polytransfer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return set(proc.stdout.splitlines()[-1].split())


class TestImports:
    """A CLI process loads only what its run uses (scipy alone takes
    ~0.25 s to import)."""

    def test_cli_import_loads_no_experiment_module_or_scipy(self, tmp_path):
        loaded = modules_loaded_by("import polytransfer.cli", tmp_path)
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}
        assert not loaded & EXPERIMENT_MODULES
        assert "hashlib" not in loaded   # only derived streams import it

    def test_boolean_run_loads_no_scipy(self, tmp_path):
        (tmp_path / "c.txt").write_text(
            f"experiment = boolean-transfer\nout = {tmp_path / 'run'}\nboolean.n = 10\n")
        loaded = modules_loaded_by(
            "from polytransfer import cli\n"
            "assert cli.main(['run', 'c.txt']) == 0", tmp_path)
        assert "polytransfer.boolean" in loaded
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}
