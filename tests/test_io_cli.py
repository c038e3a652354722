"""Dataset round-trips, manifests, SVG determinism, and the CLI surface."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from heatbayes.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
)
from heatbayes.io import RunManifest, read_dataset, write_dataset


class TestWriteDataset:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [tuple(rng.standard_normal(3) * 10.0**rng.integers(-200, 200))
                for _ in range(50)]
        rows.append((math.pi, 1.0 / 3.0, 5e-324))
        path = tmp_path / "data.csv"
        write_dataset((("a", "b", "c"), rows), path)
        cols, back = read_dataset(path)
        assert cols == ["a", "b", "c"]
        for row, orig in zip(back, rows):
            for v, o in zip(row, orig):
                assert v == o  # exact, including subnormals

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset((("x", "y"), []), path)
        assert path.read_bytes() == b"x,y\n"

    def test_identical_inputs_identical_checksums(self, tmp_path):
        table = (("u",), [(1.2345678901234567,), (float("nan"),)])
        c1 = write_dataset(table, tmp_path / "a.csv")
        c2 = write_dataset(table, tmp_path / "b.csv")
        assert c1 == c2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_lf_and_utf8(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset((("name",), [("value",)]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_dataset((("a",), []), tmp_path / "no_dir" / "x.csv")


class TestManifest:
    def test_records_outputs_and_digest(self, tmp_path):
        man = RunManifest(config={"n": 100.0, "prior": "exp"}, seed=9)
        csum = write_dataset((("a",), [(1.0,)]), tmp_path / "out.csv")
        man.record(tmp_path / "out.csv", csum)
        man.write(tmp_path / "manifest.json")
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["seed"] == 9
        assert payload["outputs"][0]["sha256"] == csum
        assert len(payload["config_digest"]) == 64
        assert payload["wall_clock_s"] >= 0


class TestSvg:
    def _panel(self, draws=2):
        from heatbayes import ExperimentConfig, PanelSpec, PriorSpec, render_panel
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e4,),
                               seed=1, x_grid_points=41)
        return render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                           data_stream=0, draws=draws))

    def test_deterministic_bytes(self, tmp_path):
        from heatbayes.svg import render_static_plot
        panel = self._panel()
        c1 = render_static_plot(panel, tmp_path / "a.svg")
        c2 = render_static_plot(panel, tmp_path / "b.svg")
        assert c1 == c2
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_legend_conventions_present(self, tmp_path):
        from heatbayes.svg import render_static_plot
        render_static_plot(self._panel(), tmp_path / "p.svg")
        body = (tmp_path / "p.svg").read_text()
        assert body.startswith("<?xml")
        assert "#000000" in body and "#cc2222" in body and "#117733" in body
        assert "stroke-dasharray" in body

    def test_no_dashes_without_draws(self, tmp_path):
        from heatbayes.svg import render_static_plot
        render_static_plot(self._panel(draws=0), tmp_path / "p.svg")
        assert "stroke-dasharray" not in (tmp_path / "p.svg").read_text()

    def test_empty_panel_rejected(self, tmp_path):
        from heatbayes.experiments import PanelData
        from heatbayes.svg import render_static_plot
        empty = PanelData(label="", x=np.array([]), truth=np.array([]),
                          post_mean=np.array([]), lower=np.array([]),
                          upper=np.array([]), draw_curves=np.zeros((0, 0)))
        with pytest.raises(ValueError):
            render_static_plot(empty, tmp_path / "e.svg")


class TestCli:
    def test_unknown_subcommand_fails_with_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_fails(self):
        assert main([]) == EXIT_CONFIG

    def test_simulate_writes_files(self, tmp_path):
        out = str(tmp_path / "obs.csv")
        code = main(["simulate", "--n", "1e4", "--seed", "3", "--out", out])
        assert code == EXIT_OK
        assert os.path.exists(out)
        assert os.path.exists(str(tmp_path / "obs.manifest.json"))
        cols, rows = read_dataset(out)
        assert cols == ["i", "kappa", "mu0", "y"]
        assert len(rows) == 100

    def test_simulate_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--n", "100", "--seed", "5", "--out", a])
        main(["simulate", "--n", "100", "--seed", "5", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_posterior_writes_summary_and_mean(self, tmp_path):
        out = str(tmp_path / "post.csv")
        code = main(["posterior", "--n", "1e4", "--prior", "exp", "--alpha",
                     "1", "--seed", "2", "--out", out])
        assert code == EXIT_OK
        cols, rows = read_dataset(out)
        assert cols == ["i", "y", "mean", "variance", "shrink_var"]
        fn_cols, fn_rows = read_dataset(str(tmp_path / "post_mean.csv"))
        assert fn_cols == ["x", "post_mean"]
        assert len(fn_rows) == 201

    def test_bands_dataset_schema(self, tmp_path):
        out = str(tmp_path / "bands.csv")
        code = main(["bands", "--n", "1e4", "--prior", "exp", "--alpha", "1",
                     "--seed", "7", "--out", out])
        assert code == EXIT_OK
        cols, rows = read_dataset(out)
        assert cols[:5] == ["x", "truth", "post_mean", "lower", "upper"]
        assert cols[5] == "draw_01" and cols[-1] == "draw_20"
        assert len(rows) == 201

    def test_coverage_runs_small(self, tmp_path, capsys):
        out = str(tmp_path / "cov.csv")
        code = main(["coverage", "--prior", "exp", "--alpha", "1", "--n",
                     "1e3", "--reps", "40", "--seed", "1", "--out", out])
        assert code == EXIT_OK
        assert "coverage" in capsys.readouterr().out
        cols, rows = read_dataset(out)
        assert "coverage" in cols and len(rows) == 1

    def test_risk_multi_n(self, capsys):
        code = main(["risk", "--prior", "exp", "--alpha", "1", "--n",
                     "1e2,1e4", "--reps", "30", "--seed", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "risk_exact" in out

    def test_lemmas_small_grid(self, tmp_path, capsys):
        out = str(tmp_path / "lemmas.csv")
        code = main(["lemmas", "--grid", "1e4,1e6", "--out", out])
        assert code == EXIT_OK
        assert "series-damped" in capsys.readouterr().out
        cols, rows = read_dataset(out)
        assert "ratio" in cols

    @pytest.mark.parametrize("grid", ["1", "1e4,1"])
    def test_lemmas_rejects_grid_at_one(self, tmp_path, grid):
        out = tmp_path / "lemmas.csv"
        assert main(["lemmas", "--grid", grid, "--out", str(out)]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "1e3", "seed": 4, "prior": "exp",
                                   "alpha": 1.0}))
        out = str(tmp_path / "o.csv")
        code = main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", out])
        assert code == EXIT_OK
        # flag wins over config: seed 9, not 4
        ref = str(tmp_path / "ref.csv")
        main(["simulate", "--n", "1e3", "--seed", "9", "--out", ref])
        assert open(out, "rb").read() == open(ref, "rb").read()

    def test_malformed_config_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nonsense_field": 1}))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_bad_flag_value_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (
            ["coverage", "--prior", "exp", "--alpha", "-2", "--n", "1e3",
             "--reps", "5"],
            ["simulate", "--n", "0"],
            # zero flags must reach validation, not fall back to defaults
            ["coverage", "--kind", "interval", "--n", "1e3", "--reps", "5",
             "--trunc", "0"],
            ["simulate", "--trunc", "0"],
            ["posterior", "--grid", "0"],
            ["bands", "--grid", "0"],
            # figures validates before it creates the output directory
            ["figures", "--trunc", "0", "--out", "D"],
            ["figures", "--grid", "1", "--out", "D"],
            # risk_mc_se needs two replications
            ["coverage", "--n", "1e3", "--reps", "1"],
            ["risk", "--n", "1e3", "--reps", "1"],
            # flags a subcommand does not read are rejected, not ignored
            ["simulate", "--prior", "exp"],
            ["figures", "--n", "1e6", "--out", "D"],
            ["lemmas", "--seed", "3"],
            # non-finite values are rejected where they are read
            ["simulate", "--n", "inf"],
            ["posterior", "--n", "inf"],
            ["coverage", "--n", "inf", "--reps", "5"],
            ["risk", "--n", "1e4,inf", "--reps", "5"],
            ["lemmas", "--grid", "inf"],
            ["coverage", "--tau", "inf", "--reps", "5"],
            ["coverage", "--alpha", "inf", "--reps", "5"],
            ["coverage", "--mu0", "power", "--mu0-beta", "inf", "--reps", "5"],
        ):
            assert main(argv) == EXIT_CONFIG, argv
        assert os.listdir(tmp_path) == []

    def test_arithmetic_error_is_numeric_failure(self, tmp_path, monkeypatch,
                                                 capsys):
        """Any ArithmeticError of the library exits 3, not with a
        traceback."""
        from heatbayes import experiments

        def fail(*args):
            raise ArithmeticError("quadratic-form quantile did not converge")

        monkeypatch.setattr(experiments, "frequentist_radius", fail)
        monkeypatch.chdir(tmp_path)
        assert main(["coverage", "--n", "1e4", "--reps", "5"]) == EXIT_NUMERIC
        assert "did not converge" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["--prior", "exp", "--alpha", "5", "--n", "1e50"],
        ["--alpha", "10", "--n", "1e200"]], ids=["exp5-1e50", "poly10-1e200"])
    def test_nearly_deterministic_honest_radius_returns(self, tmp_path, argv):
        """Honest radii of forms whose sd is below eps times their mean:
        a child process, so that a hang fails instead of stalling."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "heatbayes", "coverage", *argv,
             "--reps", "10"], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr

    def test_single_n_commands_reject_lists(self, tmp_path, monkeypatch,
                                            capsys):
        """simulate, posterior and bands take one n; a comma list exits 2
        and names --n instead of using its first value."""
        monkeypatch.chdir(tmp_path)
        for command in ("simulate", "posterior", "bands"):
            assert main([command, "--n", "1e4,1e6"]) == EXIT_CONFIG, command
            assert "--n" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_digest_records_parsed_values(self, tmp_path, capsys):
        """The same run from flags and from a config file, with numbers
        spelled differently, records one config digest."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1, "n": "10000"}))
        outs = [str(tmp_path / "flags.csv"), str(tmp_path / "file.csv")]
        assert main(["risk", "--alpha", "1", "--n", "1e4", "--reps", "5",
                     "--out", outs[0]]) == EXIT_OK
        assert main(["risk", "--config", str(cfg), "--reps", "5",
                     "--out", outs[1]]) == EXIT_OK
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        digests = [json.loads(open(out[:-4] + ".manifest.json").read())[
            "config_digest"] for out in outs]
        assert digests[0] == digests[1]
        capsys.readouterr()

    def test_io_error_exit_code(self, tmp_path):
        target = str(tmp_path / "missing_dir" / "x.csv")
        assert main(["simulate", "--n", "1e3", "--out", target]) == EXIT_IO

    def test_figures_single_protocol(self, tmp_path, capsys):
        out = str(tmp_path / "figs")
        code = main(["figures", "--fig", "fig2", "--seed", "1",
                     "--grid", "41", "--out", out])
        assert code == EXIT_OK
        files = sorted(os.listdir(out))
        csvs = [f for f in files if f.endswith(".csv")]
        svgs = [f for f in files if f.endswith(".svg")]
        assert len(csvs) == 10 and len(svgs) == 10
        assert "manifest.json" in files
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert len(manifest["outputs"]) == 20


# subcommand -> the options it reads, besides --config
OPTIONS = {
    "simulate": {"n", "seed", "trunc", "out"},
    "posterior": {"n", "prior", "alpha", "tau", "scaling", "beta", "seed",
                  "trunc", "grid", "out"},
    "bands": {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma",
              "seed", "trunc", "grid", "out"},
    "coverage": {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma",
                 "reps", "seed", "trunc", "kind", "mu0", "mu0_beta", "x",
                 "out"},
    "risk": {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma", "reps",
             "seed", "trunc", "mu0", "mu0_beta", "out"},
    "lemmas": {"grid", "out"},
    "figures": {"fig", "gamma", "seed", "grid", "trunc", "out"},
}

# a value each flag accepts, so that only the flag itself can be refused
VALUES = {"n": "1e3", "prior": "exp", "alpha": "2", "tau": "1",
          "scaling": "matched", "beta": "2", "gamma": "0.1", "reps": "5",
          "seed": "1", "trunc": "50", "grid": "11", "out": "o.csv",
          "kind": "interval", "mu0": "power", "mu0_beta": "2", "x": "0.3",
          "fig": "fig1"}


def _flag(name):
    return "--" + name.replace("_", "-")


class TestCommandOptions:
    def test_declarations_match(self):
        assert {name: {o.name for o in c.options}
                for name, c in COMMANDS.items()} == OPTIONS

    def test_unread_flags_are_rejected(self):
        parser = build_parser()
        rejected = []
        for command, names in OPTIONS.items():
            argv = [command]
            for name in sorted(names):
                argv += [_flag(name), VALUES[name]]
            parser.parse_args(argv)
            for name in sorted(set(VALUES) - names):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([command, _flag(name), VALUES[name]])
                assert exc.value.code == EXIT_CONFIG, (command, name)
                rejected.append(name)
        # 30 of them among the flags every subcommand used to accept
        common = {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma",
                  "reps", "seed", "grid", "trunc", "out"}
        assert len(rejected) == 58
        assert len([name for name in rejected if name in common]) == 30

    def test_manifest_records_every_option(self, tmp_path, capsys):
        runs = {
            "simulate": (["--n", "1e3"], "s.csv", "s.manifest.json"),
            "posterior": (["--n", "1e3", "--grid", "11"], "p.csv",
                          "p.manifest.json"),
            "bands": (["--n", "1e3", "--grid", "11"], "b.csv",
                      "b.manifest.json"),
            "coverage": (["--n", "1e3", "--reps", "20"], "c.csv",
                         "c.manifest.json"),
            "risk": (["--n", "1e3", "--reps", "20"], "r.csv",
                     "r.manifest.json"),
            "lemmas": (["--grid", "1e4"], "l.csv", "l.manifest.json"),
            "figures": (["--fig", "fig2", "--grid", "5"], "figs",
                        os.path.join("figs", "manifest.json")),
        }
        assert set(runs) == set(OPTIONS)
        for command, (argv, out, manifest) in runs.items():
            code = main([command] + argv + ["--out", str(tmp_path / out)])
            assert code == EXIT_OK, command
            payload = json.loads((tmp_path / manifest).read_text())
            assert set(payload["config"]) == OPTIONS[command] - {"out"}
            # defaults are resolved; only --trunc defaults to "automatic"
            assert all(value is not None for key, value
                       in payload["config"].items() if key != "trunc")
            assert (payload["seed"] is None) == ("seed" not in OPTIONS[command])
        capsys.readouterr()

    def test_risk_digest_tracks_scaling_and_beta(self, tmp_path, capsys):
        digests = []
        for extra in (["--scaling", "matched", "--beta", "1.5"],
                      ["--beta", "2.5"]):
            out = str(tmp_path / f"r{len(digests)}.csv")
            assert main(["risk", "--prior", "poly", "--alpha", "1", "--n",
                         "1e4,1e6", "--reps", "30", "--out", out]
                        + extra) == EXIT_OK
            manifest = out[:-4] + ".manifest.json"
            digests.append(json.loads(open(manifest).read())["config_digest"])
        assert digests[0] != digests[1]
        capsys.readouterr()

    def test_wall_clock_covers_the_work(self, tmp_path, capsys):
        out = str(tmp_path / "cov.csv")
        start = time.perf_counter()
        assert main(["coverage", "--n", "1e4,1e6,1e8", "--trunc", "3826",
                     "--reps", "200", "--out", out]) == EXIT_OK
        elapsed = time.perf_counter() - start
        payload = json.loads((tmp_path / "cov.manifest.json").read_text())
        assert payload["wall_clock_s"] >= 0.5 * elapsed
        capsys.readouterr()

    def test_config_value_outside_choices_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": "gauss"}))
        assert main(["posterior", "--config", str(cfg)]) == EXIT_CONFIG
        assert os.listdir(tmp_path) == ["cfg.json"]


def test_readme_command_lines_parse():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("heatbayes ")]
    assert {argv[1] for argv in lines} == set(COMMANDS)
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


class TestEnsureFinite:
    def test_rejects_hidden_nonfinite(self):
        from heatbayes.cli import NumericFailure, _ensure_finite
        with pytest.raises(NumericFailure):
            _ensure_finite(("a", "b"), [(1.0, float("inf"))])
        # allowed-missing columns pass
        _ensure_finite(("radius_freq",), [(float("nan"),)])
