"""Command-line interface.

Subcommands: simulate, posterior, bands, coverage, risk, lemmas, figures.
Each is declared once in COMMANDS: its help, its handler and the options
it reads, with their defaults.  The parser, the option lookup and the run
manifest are built from that declaration, so a subcommand accepts exactly
the flags it reads and its manifest records the value of each.
Options come from an optional JSON config file plus flags; flags win.  A
config file may hold any option that some subcommand declares, so one file
can serve a whole study; each subcommand reads only its own.
Exit codes: 0 success, 2 configuration error, 3 numeric failure (a
non-finite value produced, or any ArithmeticError of the computation),
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import DEFAULT_N_GRID, standard_lemma_suite
from .experiments import (
    FIGURE_PROTOCOLS,
    ExperimentConfig,
    Mu0Source,
    PanelSpec,
    render_panel,
    run_ball_coverage,
    run_interval_coverage,
    run_risk_curve,
)
from .functionals import LinearFunctional
from .io import RunManifest, table_cells, write_dataset
from .posterior import compute_posterior, posterior_mean_function
from .priors import PriorFamily, PriorSpec, ScalingRule
from .sequence import (
    DEFAULT_TIME_HORIZON,
    default_truncation,
    heat_eigenvalues,
    simulate_observations,
    true_signal_coefficients,
)
from .svg import render_static_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class NumericFailure(ArithmeticError):
    """A computed output contained a non-finite value."""


# columns that may hold NaN or inf: the honest radius of prior-drawn truths,
# and the lemma suite's residuals and its exact and predicted magnitudes,
# which overflow (e^(zeta K^2) at K = 30) where their ratio, formed with
# that factor taken out, does not
_NAN_OK = {"radius_freq", "radius_ratio", "residual", "exact", "predicted"}


def _ensure_finite(columns, rows) -> None:
    """Raise NumericFailure at the first non-finite number, column by column,
    outside the _NAN_OK columns.  rows may be a float matrix; cells that
    carry their own text (str and int, see io.table_cells) are never read
    as numbers."""
    columns, matrix, _ = table_cells((columns, rows))
    checked = np.array([name not in _NAN_OK for name in columns])
    bad = ~np.isfinite(matrix) & checked
    if bad.any():
        c = np.flatnonzero(bad.any(axis=0))[0]
        r = np.flatnonzero(bad[:, c])[0]
        raise NumericFailure(f"non-finite value in column "
                             f"{columns[c]!r}: {float(matrix[r, c])!r}")


def _parse_n_list(text) -> tuple:
    """A comma list of positive finite numbers (or one number) as a tuple
    of floats."""
    try:
        vals = tuple(float(part) for part in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse {text!r} as numbers") from exc
    if not vals or any(not 0 < v < math.inf for v in vals):
        raise ValueError(f"values must be positive and finite, got {text!r}")
    return vals


def _finite_float(value) -> float:
    if isinstance(value, bool):  # a config file's true is no number
        raise ValueError(f"must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):  # a manifest is JSON, which has no NaN or inf
        raise ValueError(f"must be finite, got {value!r}")
    return v


def _whole_number(value) -> int:
    """int(value), for a value that is an integer: a config file's 20.9
    and true would truncate to 20 and 1."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


class Option(NamedTuple):
    """The flag --name (underscores as dashes): its default, the keywords
    of its add_argument call, and the parser of its value (the `type`
    keyword unless given), which flag, config file and default values all
    pass through."""

    name: str
    default: object
    kwargs: dict
    parse: Callable | None


def _opt(name: str, default=None, parse=None, **kwargs) -> Option:
    return Option(name, default, kwargs, parse or kwargs.get("type"))


class Command(NamedTuple):
    help: str
    handler: Callable
    options: tuple


class _Options:
    """Resolved options of one run, flags over config file over defaults,
    each parsed (so that equal runs record equal values whatever their
    source), and its manifest, opened as soon as they resolve so that its
    wall_clock_s covers the work."""

    def __init__(self, command: Command, args: argparse.Namespace):
        path = args.config
        file = _read_config(path) if path else {}
        self.values = {}
        for o in command.options:
            value = getattr(args, o.name)
            if value is None and file.get(o.name) is not None:
                value = file[o.name]
                if value not in o.kwargs.get("choices", (value,)):
                    raise ValueError(f"config {path}: {o.name} must be one "
                                     f"of {o.kwargs['choices']}")
            if value is None:
                value = o.default
            try:
                self.values[o.name] = (value if value is None
                                       or o.parse is None else o.parse(value))
            except ValueError as exc:  # name the option in the message
                raise ValueError(f"--{o.name.replace('_', '-')}: {exc}") from exc
        seed = self.values.get("seed")
        self.manifest = RunManifest(
            config={k: v for k, v in self.values.items() if k != "out"},
            seed=None if seed is None else int(seed))

    def get(self, key: str):
        return self.values[key]

    def emit(self, outputs, manifest_path: str | None = None) -> None:
        """Check every (path, table) for non-finite values, then write each
        and record its checksum, then write the manifest, next to the first
        output unless manifest_path is given.  A .svg path plots its panel."""
        for path, table in outputs:
            if not path.endswith(".svg"):
                _ensure_finite(*table_cells(table)[:2])
        for path, table in outputs:
            write = (render_static_plot if path.endswith(".svg")
                     else write_dataset)
            self.manifest.record(path, write(table, path))
        self.manifest.write(manifest_path
                            or _stem(outputs[0][0]) + ".manifest.json")


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config {path} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(file, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(file) - {o.name for c in COMMANDS.values() for o in c.options}
    if unknown:
        raise ValueError(f"config {path}: unknown fields {sorted(unknown)}")
    return file


def _stem(out: str) -> str:
    return out[:-4] if out.endswith(".csv") else out


def _prior_from(opt: _Options) -> PriorSpec:
    family = (PriorFamily.EXPONENTIAL if opt.get("prior") == "exp"
              else PriorFamily.POLYNOMIAL)
    return PriorSpec(family, opt.get("alpha"), opt.get("tau"))


def _scaling_from(opt: _Options) -> ScalingRule:
    if opt.get("scaling") == "matched":
        return ScalingRule.rate_matched(opt.get("beta"))
    return ScalingRule.fixed()


def _mu0_from(opt: _Options) -> Mu0Source:
    if opt.get("mu0") == "prior":
        return Mu0Source.prior_draw()
    if opt.get("mu0") == "power":
        return Mu0Source.power_law(opt.get("mu0_beta"))
    return Mu0Source.test_cubic()


def _int_flag(opt: _Options, key: str, least: int, default=None):
    """Integer option of at least `least`; `default` when it is unset."""
    value = opt.get(key)
    if value is not None and int(value) < least:
        raise ValueError(f"--{key} must be at least {least}")
    return default if value is None else int(value)


def _experiment_config(opt: _Options, **fields) -> ExperimentConfig:
    """The configuration of bands, coverage and risk; `fields` sets the
    ones that differ between them."""
    return ExperimentConfig(
        prior=_prior_from(opt),
        n_grid=opt.get("n"),
        scaling=_scaling_from(opt),
        gamma=opt.get("gamma"),
        seed=int(opt.get("seed")),
        trunc=_int_flag(opt, "trunc", 1),
        **fields,
    )


def _single_n(opt: _Options) -> float:
    """The one n of simulate, posterior and bands."""
    n = opt.get("n")
    if len(n) != 1:
        raise ValueError(f"--n takes a single value here, got {len(n)}")
    return n[0]


def _report(opt: _Options, report) -> None:
    """Print a report's table, and write it when --out is set."""
    columns, rows = report.to_table()
    _ensure_finite(columns, rows)
    print("  ".join(columns))
    for row in rows:
        print("  ".join(
            v if isinstance(v, str) else format(float(v), ".6g") for v in row))
    if opt.get("out"):
        opt.emit([(opt.get("out"), (columns, rows))])


def _cmd_simulate(opt: _Options) -> int:
    n = _single_n(opt)
    seed = int(opt.get("seed"))
    nn = _int_flag(opt, "trunc", 1, default_truncation(n))
    kappa = heat_eigenvalues(DEFAULT_TIME_HORIZON, nn)
    mu0 = true_signal_coefficients(nn)
    obs = simulate_observations(mu0, kappa, n, seed)
    out = opt.get("out")
    opt.emit([(out, (("i", "kappa", "mu0", "y"), np.column_stack(
        [np.arange(1.0, nn + 1), kappa.values, mu0.values, obs.y.values])))])
    print(f"wrote {out} ({nn} coordinates, n={n:g}, seed={seed})")
    return EXIT_OK


def _cmd_posterior(opt: _Options) -> int:
    n = _single_n(opt)
    prior = _scaling_from(opt).resolve(_prior_from(opt), n)
    nn = _int_flag(opt, "trunc", 1, default_truncation(n, prior.tau))
    kappa = heat_eigenvalues(DEFAULT_TIME_HORIZON, nn)
    obs = simulate_observations(true_signal_coefficients(nn), kappa, n,
                                int(opt.get("seed")))
    summary = compute_posterior(prior, kappa, n, obs)
    x = np.linspace(0.0, 1.0, _int_flag(opt, "grid", 2))
    out = opt.get("out")
    fn_out = _stem(out) + "_mean.csv"
    opt.emit([(out, (("i", "y", "mean", "variance", "shrink_var"),
                     np.column_stack([np.arange(1.0, nn + 1), obs.y.values,
                                      summary.mean.values,
                                      summary.variance.values,
                                      summary.shrink_var.values]))),
              (fn_out, (("x", "post_mean"), np.column_stack(
                  [x, posterior_mean_function(summary, x)])))])
    print(f"wrote {out} and {fn_out}")
    return EXIT_OK


def _cmd_bands(opt: _Options) -> int:
    _single_n(opt)
    cfg = _experiment_config(opt, replications=1,
                             x_grid_points=_int_flag(opt, "grid", 2))
    panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=cfg.n_grid[0],
                                        data_stream=0))
    out = opt.get("out")
    opt.emit([(out, panel)])
    print(f"wrote {out} (band coverage fraction "
          f"{panel.coverage_fraction():.3f})")
    return EXIT_OK


def _cmd_coverage(opt: _Options) -> int:
    cfg = _experiment_config(opt, replications=int(opt.get("reps")),
                             mu0=_mu0_from(opt))
    if opt.get("kind") == "interval":
        L = LinearFunctional.point_evaluation(opt.get("x"))
        _report(opt, run_interval_coverage(cfg, L))
    else:
        _report(opt, run_ball_coverage(cfg))
    return EXIT_OK


def _cmd_risk(opt: _Options) -> int:
    _report(opt, run_risk_curve(_experiment_config(
        opt, replications=int(opt.get("reps")), mu0=_mu0_from(opt))))
    return EXIT_OK


def _cmd_lemmas(opt: _Options) -> int:
    report = standard_lemma_suite(opt.get("grid"))
    print("note: envelope bands and monotonicity targets are calibration "
          "surrogates for asymptotic statements, not sharp bounds")
    _report(opt, report)
    print(f"wrote {opt.get('out')}")
    return EXIT_OK


def _cmd_figures(opt: _Options) -> int:
    # build every configuration, and so validate every option, before any
    # panel is rendered; nothing is written before every panel is checked
    trunc = _int_flag(opt, "trunc", 1)
    grid = _int_flag(opt, "grid", 2)
    which = opt.get("fig")
    names = sorted(FIGURE_PROTOCOLS) if which == "all" else [which]
    jobs = [(name, spec, ExperimentConfig(
                prior=spec.prior, n_grid=(spec.n,),
                gamma=opt.get("gamma"), replications=1,
                seed=int(opt.get("seed")), trunc=trunc, x_grid_points=grid))
            for name in names for spec in FIGURE_PROTOCOLS[name]()]
    out_dir = opt.get("out")
    outputs = []
    for name, spec, cfg in jobs:
        panel = render_panel(cfg, spec)
        stem = os.path.join(out_dir, f"{name}_{panel.label}")
        outputs += [(stem + ".csv", panel), (stem + ".svg", panel)]
        print(f"{name} {panel.label}: band covers "
              f"{panel.coverage_fraction():.3f} of the grid")
    os.makedirs(out_dir, exist_ok=True)
    opt.emit(outputs, os.path.join(out_dir, "manifest.json"))
    return EXIT_OK


_N = _opt("n", "1e4", parse=_parse_n_list,
          help="signal-to-noise n (comma list where a grid applies)")
_PRIOR = (
    _opt("prior", "poly", choices=["poly", "exp"]),
    _opt("alpha", 1.0, _finite_float, type=float),
    _opt("tau", 1.0, _finite_float, type=float),
    _opt("scaling", "fixed", choices=["fixed", "matched"]),
    _opt("beta", 2.0, _finite_float, type=float,
         help="target smoothness for matched scaling"),
)
_GAMMA = _opt("gamma", 0.05, _finite_float, type=float)
_REPS = _opt("reps", 1000, _whole_number, type=int)
_SEED = _opt("seed", 0, _whole_number, type=int)
_TRUNC = _opt("trunc", None, _whole_number, type=int)
_GRID = _opt("grid", 201, _whole_number, type=int, help="x-grid point count")
_MU0_BETA = _opt("mu0_beta", 2.0, _finite_float, type=float)

COMMANDS = {
    "simulate": Command(
        "draw one observation set", _cmd_simulate,
        (_N, _SEED, _TRUNC, _opt("out", "observations.csv"))),
    "posterior": Command(
        "posterior summary and function-space mean", _cmd_posterior,
        (_N, *_PRIOR, _SEED, _TRUNC, _GRID, _opt("out", "posterior.csv"))),
    "bands": Command(
        "pointwise credible bands for one data realization", _cmd_bands,
        (_N, *_PRIOR, _GAMMA, _SEED, _TRUNC, _GRID,
         _opt("out", "bands.csv"))),
    "coverage": Command(
        "credible ball / interval coverage experiments", _cmd_coverage,
        (_N, *_PRIOR, _GAMMA, _REPS, _SEED, _TRUNC,
         _opt("kind", "ball", choices=["ball", "interval"]),
         _opt("mu0", "cubic", choices=["cubic", "prior", "power"]), _MU0_BETA,
         _opt("x", 0.5, _finite_float, type=float,
              help="point-evaluation location for intervals"),
         _opt("out"))),
    "risk": Command(
        "posterior risk curves along an n grid", _cmd_risk,
        (_N, *_PRIOR, _GAMMA, _REPS, _SEED, _TRUNC,
         _opt("mu0", "cubic", choices=["cubic", "power"]), _MU0_BETA,
         _opt("out"))),
    "lemmas": Command(
        "series-asymptotics verification suite", _cmd_lemmas,
        (_opt("grid", ",".join(f"{v:g}" for v in DEFAULT_N_GRID),
              parse=_parse_n_list, help="comma list of N values, each > 1"),
         _opt("out", "lemma_suite.csv"))),
    "figures": Command(
        "assemble figure panel datasets and vector plots", _cmd_figures,
        (_opt("fig", "all", choices=sorted(FIGURE_PROTOCOLS) + ["all"]),
         _GAMMA, _SEED, _GRID, _TRUNC, _opt("out", "figures_out"))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatbayes",
        description="Bayesian recovery experiments for the backward heat "
                    "problem in the Gaussian sequence model",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.add_argument("--config", help="JSON config file; flags override it")
        for o in command.options:
            sub.add_argument("--" + o.name.replace("_", "-"), dest=o.name,
                             **o.kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    command = COMMANDS[args.command]
    try:
        return command.handler(_Options(command, args))
    except ArithmeticError as exc:  # NumericFailure among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
