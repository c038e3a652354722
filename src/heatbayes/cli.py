"""Command-line interface.

Subcommands: simulate, posterior, bands, coverage, risk, lemmas, figures.
Options come from an optional JSON config file plus flags; flags win.
Exit codes: 0 success, 2 configuration error, 3 numeric failure
(non-finite value produced), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .asymptotics import standard_lemma_suite
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
from .functionals import LinearFunctional, admissible_truncation
from .io import RunManifest, write_dataset
from .posterior import compute_posterior, posterior_mean_function
from .priors import PriorSpec, ScalingRule
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


_NAN_OK = {"radius_freq", "radius_ratio", "residual"}


def _ensure_finite(columns, rows) -> None:
    for j, name in enumerate(columns):
        if name in _NAN_OK:
            continue
        for row in rows:
            v = row[j]
            if isinstance(v, str):
                continue
            if not math.isfinite(float(v)):
                raise NumericFailure(
                    f"non-finite value in column {name!r}: {v!r}")


def _parse_n_list(text: str) -> tuple:
    try:
        vals = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse n grid {text!r}") from exc
    if not vals or any(not v > 0 for v in vals):
        raise ValueError("all n values must be positive")
    return vals


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--n", help="signal-to-noise n (comma list where a grid applies)")
    sub.add_argument("--prior", choices=["poly", "exp"])
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--scaling", choices=["fixed", "matched"])
    sub.add_argument("--beta", type=float,
                     help="target smoothness for matched scaling")
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--reps", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--grid",
                     help="x-grid point count, or comma list of N for lemmas")
    sub.add_argument("--trunc", type=int)
    sub.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatbayes",
        description="Bayesian recovery experiments for the backward heat "
                    "problem in the Gaussian sequence model",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("simulate", "draw one observation set"),
        ("posterior", "posterior summary and function-space mean"),
        ("bands", "pointwise credible bands for one data realization"),
        ("coverage", "credible ball / interval coverage experiments"),
        ("risk", "posterior risk curves along an n grid"),
        ("lemmas", "series-asymptotics verification suite"),
        ("figures", "assemble figure panel datasets and vector plots"),
    ]:
        sub = subs.add_parser(name, help=descr)
        _add_common(sub)
        if name == "coverage":
            sub.add_argument("--kind", choices=["ball", "interval"])
            sub.add_argument("--mu0", choices=["cubic", "prior", "power"])
            sub.add_argument("--mu0-beta", type=float, dest="mu0_beta")
            sub.add_argument("--x", type=float,
                             help="point-evaluation location for intervals")
        if name == "risk":
            sub.add_argument("--mu0", choices=["cubic", "power"])
            sub.add_argument("--mu0-beta", type=float, dest="mu0_beta")
        if name == "figures":
            sub.add_argument("--fig",
                             choices=sorted(FIGURE_PROTOCOLS) + ["all"])
    return parser


class _Options:
    """Flag values over config-file values over defaults; flags win."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self.flags = vars(args)
        self.defaults = defaults
        self.file = {}
        cfg_path = self.flags.get("config")
        if cfg_path:
            try:
                with open(cfg_path, "r", encoding="utf-8") as fh:
                    self.file = json.load(fh)
            except OSError as exc:
                raise OSError(f"cannot read config {cfg_path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"config {cfg_path} line {exc.lineno}: {exc.msg}") from exc
            if not isinstance(self.file, dict):
                raise ValueError(f"config {cfg_path} must hold a JSON object")
            unknown = set(self.file) - set(defaults) - set(self.flags)
            if unknown:
                raise ValueError(
                    f"config {cfg_path}: unknown fields {sorted(unknown)}")

    def get(self, key: str):
        flag = self.flags.get(key)
        if flag is not None:
            return flag
        if key in self.file and self.file[key] is not None:
            return self.file[key]
        return self.defaults.get(key)


_DEFAULTS = {
    "n": "1e4",
    "prior": "poly",
    "alpha": 1.0,
    "tau": 1.0,
    "scaling": "fixed",
    "beta": 2.0,
    "gamma": 0.05,
    "reps": 1000,
    "seed": 0,
    "grid": None,
    "trunc": None,
    "out": None,
    "kind": "ball",
    "mu0": "cubic",
    "mu0_beta": 2.0,
    "x": 0.5,
    "fig": "all",
}


def _prior_from(opt: _Options) -> PriorSpec:
    if opt.get("prior") == "exp":
        return PriorSpec.exponential(float(opt.get("alpha")))
    return PriorSpec.polynomial(float(opt.get("alpha")), float(opt.get("tau")))


def _scaling_from(opt: _Options) -> ScalingRule:
    if opt.get("scaling") == "matched":
        return ScalingRule.rate_matched(float(opt.get("beta")))
    return ScalingRule.fixed()


def _int_flag(opt: _Options, key: str, least: int, default=None):
    """Integer option of at least `least`; `default` when it is unset."""
    value = opt.get(key)
    if value is not None and int(value) < least:
        raise ValueError(f"--{key} must be at least {least}")
    return default if value is None else int(value)


def _manifest(opt: _Options, keys) -> RunManifest:
    cfg = {k: opt.get(k) for k in keys}
    return RunManifest(config=cfg, seed=int(opt.get("seed")))


def _cmd_simulate(opt: _Options) -> int:
    n = _parse_n_list(opt.get("n"))[0]
    seed = int(opt.get("seed"))
    nn = _int_flag(opt, "trunc", 1, default_truncation(n))
    kappa = heat_eigenvalues(DEFAULT_TIME_HORIZON, nn)
    mu0 = true_signal_coefficients(nn)
    obs = simulate_observations(mu0, kappa, n, seed)
    columns = ("i", "kappa", "mu0", "y")
    rows = [(int(i + 1), kappa.values[i], mu0.values[i], obs.y.values[i])
            for i in range(nn)]
    _ensure_finite(columns, rows)
    out = opt.get("out") or "observations.csv"
    manifest = _manifest(opt, ["n", "seed", "trunc"])
    manifest.record(out, write_dataset((columns, rows), out))
    manifest.write(_manifest_path(out))
    print(f"wrote {out} ({nn} coordinates, n={n:g}, seed={seed})")
    return EXIT_OK


def _manifest_path(out: str) -> str:
    base = out[:-4] if out.endswith(".csv") else out
    return base + ".manifest.json"


def _cmd_posterior(opt: _Options) -> int:
    n = _parse_n_list(opt.get("n"))[0]
    seed = int(opt.get("seed"))
    prior = _prior_from(opt)
    prior = _scaling_from(opt).resolve(prior, n)
    nn = _int_flag(opt, "trunc", 1, default_truncation(n, prior.tau))
    kappa = heat_eigenvalues(DEFAULT_TIME_HORIZON, nn)
    mu0 = true_signal_coefficients(nn)
    obs = simulate_observations(mu0, kappa, n, seed)
    summary = compute_posterior(prior, kappa, n, obs)
    x = np.linspace(0.0, 1.0, _int_flag(opt, "grid", 2, 201))
    mean_fn = posterior_mean_function(summary, x)
    out = opt.get("out") or "posterior.csv"
    columns = ("i", "y", "mean", "variance", "shrink_var")
    rows = [(int(i + 1), obs.y.values[i], summary.mean.values[i],
             summary.variance.values[i], summary.shrink_var.values[i])
            for i in range(nn)]
    _ensure_finite(columns, rows)
    fn_cols = ("x", "post_mean")
    fn_rows = list(zip(x, mean_fn))
    _ensure_finite(fn_cols, fn_rows)
    manifest = _manifest(opt, ["n", "prior", "alpha", "tau", "seed", "trunc"])
    manifest.record(out, write_dataset((columns, rows), out))
    fn_out = (out[:-4] if out.endswith(".csv") else out) + "_mean.csv"
    manifest.record(fn_out, write_dataset((fn_cols, fn_rows), fn_out))
    manifest.write(_manifest_path(out))
    print(f"wrote {out} and {fn_out}")
    return EXIT_OK


def _experiment_config(opt: _Options, mu0: Mu0Source) -> ExperimentConfig:
    return ExperimentConfig(
        prior=_prior_from(opt),
        n_grid=_parse_n_list(opt.get("n")),
        scaling=_scaling_from(opt),
        gamma=float(opt.get("gamma")),
        replications=int(opt.get("reps")),
        mu0=mu0,
        seed=int(opt.get("seed")),
        trunc=_int_flag(opt, "trunc", 1),
    )


def _cmd_bands(opt: _Options) -> int:
    n = _parse_n_list(opt.get("n"))[0]
    cfg = ExperimentConfig(
        prior=_prior_from(opt),
        n_grid=(n,),
        scaling=_scaling_from(opt),
        gamma=float(opt.get("gamma")),
        replications=1,
        seed=int(opt.get("seed")),
        trunc=_int_flag(opt, "trunc", 1),
        x_grid_points=_int_flag(opt, "grid", 2, 201),
    )
    panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=n, data_stream=0))
    columns, rows = panel.to_table()
    _ensure_finite(columns, rows)
    out = opt.get("out") or "bands.csv"
    manifest = _manifest(opt, ["n", "prior", "alpha", "tau", "gamma",
                               "seed", "trunc", "grid"])
    manifest.record(out, write_dataset((columns, rows), out))
    manifest.write(_manifest_path(out))
    print(f"wrote {out} (band coverage fraction "
          f"{panel.coverage_fraction():.3f})")
    return EXIT_OK


def _print_report(report) -> None:
    columns, rows = report.to_table()
    print("  ".join(columns))
    for row in rows:
        print("  ".join(
            v if isinstance(v, str) else format(float(v), ".6g") for v in row))


def _cmd_coverage(opt: _Options) -> int:
    mu0_kind = opt.get("mu0")
    if mu0_kind == "prior":
        mu0 = Mu0Source.prior_draw()
    elif mu0_kind == "power":
        mu0 = Mu0Source.power_law(float(opt.get("mu0_beta")))
    else:
        mu0 = Mu0Source.test_cubic()
    cfg = _experiment_config(opt, mu0)
    if opt.get("kind") == "interval":
        nn = max(cfg.trunc or 100, admissible_truncation(cfg.prior))
        L = LinearFunctional.point_evaluation(float(opt.get("x")), nn)
        report = run_interval_coverage(cfg, L)
    else:
        report = run_ball_coverage(cfg)
    columns, rows = report.to_table()
    _ensure_finite(columns, rows)
    _print_report(report)
    out = opt.get("out")
    if out:
        manifest = _manifest(opt, ["n", "prior", "alpha", "tau", "scaling",
                                   "beta", "gamma", "reps", "seed", "trunc",
                                   "kind", "mu0", "x"])
        manifest.record(out, write_dataset((columns, rows), out))
        manifest.write(_manifest_path(out))
    return EXIT_OK


def _cmd_risk(opt: _Options) -> int:
    mu0 = (Mu0Source.power_law(float(opt.get("mu0_beta")))
           if opt.get("mu0") == "power" else Mu0Source.test_cubic())
    cfg = _experiment_config(opt, mu0)
    report = run_risk_curve(cfg)
    columns, rows = report.to_table()
    _ensure_finite(columns, rows)
    _print_report(report)
    out = opt.get("out")
    if out:
        manifest = _manifest(opt, ["n", "prior", "alpha", "tau", "gamma",
                                   "reps", "seed", "trunc", "mu0"])
        manifest.record(out, write_dataset((columns, rows), out))
        manifest.write(_manifest_path(out))
    return EXIT_OK


def _cmd_lemmas(opt: _Options) -> int:
    grid_text = opt.get("grid") or "1e4,1e8,1e12,1e16"
    grid = _parse_n_list(grid_text)
    report = standard_lemma_suite(grid)
    columns, rows = report.to_table()
    print("note: envelope bands and monotonicity targets are calibration "
          "surrogates for asymptotic statements, not sharp bounds")
    print("  ".join(columns))
    for row in rows:
        print("  ".join(
            v if isinstance(v, str) else format(float(v), ".6g") for v in row))
    out = opt.get("out") or "lemma_suite.csv"
    manifest = _manifest(opt, ["grid", "seed"])
    manifest.record(out, write_dataset((columns, rows), out))
    manifest.write(_manifest_path(out))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_figures(opt: _Options) -> int:
    import os

    # build every configuration, and so validate every flag, before any
    # file is written
    trunc = _int_flag(opt, "trunc", 1)
    grid = _int_flag(opt, "grid", 2, 201)
    which = opt.get("fig")
    names = sorted(FIGURE_PROTOCOLS) if which == "all" else [which]
    jobs = [(name, spec, ExperimentConfig(
                prior=spec.prior, n_grid=(spec.n,),
                gamma=float(opt.get("gamma")), replications=1,
                seed=int(opt.get("seed")), trunc=trunc, x_grid_points=grid))
            for name in names for spec in FIGURE_PROTOCOLS[name]()]
    out_dir = opt.get("out") or "figures_out"
    os.makedirs(out_dir, exist_ok=True)
    manifest = _manifest(opt, ["fig", "gamma", "seed", "grid", "trunc"])
    for name, spec, cfg in jobs:
        panel = render_panel(cfg, spec)
        columns, rows = panel.to_table()
        _ensure_finite(columns, rows)
        stem = os.path.join(out_dir, f"{name}_{panel.label}")
        manifest.record(stem + ".csv",
                        write_dataset((columns, rows), stem + ".csv"))
        manifest.record(stem + ".svg",
                        render_static_plot(panel, stem + ".svg"))
        print(f"{name} {panel.label}: band covers "
              f"{panel.coverage_fraction():.3f} of the grid")
    manifest.write(os.path.join(out_dir, "manifest.json"))
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "posterior": _cmd_posterior,
    "bands": _cmd_bands,
    "coverage": _cmd_coverage,
    "risk": _cmd_risk,
    "lemmas": _cmd_lemmas,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        opt = _Options(args, _DEFAULTS)
        return _HANDLERS[args.command](opt)
    except NumericFailure as exc:
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
