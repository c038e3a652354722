"""Job lists of the three benchmark workloads.

Every job uses the paper's own protocol settings (gamma = 0.05, the cubic
truth 4x(x-1)(8x-5) unless a prior draw is named) and the workload seed as
its configuration seed; nothing else reaches the library.  A job's `run`
looks every library function up on its module at call time, so that the
traced run sees the wrappers `instrument` installs.

rough      the only N ~ 1e7 work: the fig3 alpha=0.5, n=1e4 panel on a
           21-point grid and a 2-replication interval coverage at x = 0.5.
           Grid synthesis (functionals), posterior_weights and bulk normals
           (rng) dominate.  Grid and replications are cut from the paper's
           201 points and the issue's 8 replications so that a pass takes
           about 8 s and a run holds several passes.
coverage   Monte Carlo at N <= 3826 with 1000 replications: criterion 4's
           fixed-truth ball coverage, criterion 3's prior-draw ball and
           interval coverage, and an exp alpha=1 risk curve.  Quadratic-form
           quantiles (credible), per-row streams (rng) and replication
           arithmetic (experiments) dominate; grid synthesis is idle.
protocols  the 30 panels of fig1, fig2 and fig4 written as CSV and SVG, and
           the lemma suite on its default grid: the same paths as `rough`
           through many small calls, plus asymptotics, io and svg.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import checks
from heatbayes import asymptotics, experiments, functionals, io, svg
from heatbayes.priors import PriorSpec

GAMMA = 0.05
# grid of the protocols panels (the paper's) and of the rough panel
GRID_POINTS = 201
ROUGH_GRID_POINTS = 21
ROUGH_REPLICATIONS = 2


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _panel_job(fig: str, spec, seed: int, out_dir: str,
               grid_points: int = GRID_POINTS) -> Job:
    # the configuration `heatbayes figures` builds for each panel
    cfg = experiments.ExperimentConfig(prior=spec.prior, n_grid=(spec.n,),
                                       gamma=GAMMA, replications=1, seed=seed,
                                       x_grid_points=grid_points)
    stem = os.path.join(out_dir, f"{fig}_{spec.label}")
    nn = _truncations(cfg, interval=True)[0]

    def run():
        panel = experiments.render_panel(cfg, spec)
        files = {"csv": stem + ".csv", "svg": stem + ".svg"}
        files["csv_sha"] = io.write_dataset(panel, files["csv"])
        files["svg_sha"] = svg.render_static_plot(panel, files["svg"])
        return panel, files

    def check(out):
        panel, files = out
        return checks.check_panel(panel, cfg, spec, nn, files)

    return Job(f"{fig}/{spec.label}", run, check)


def _truncations(cfg, interval: bool) -> list:
    """Truncation level per n, as the library picks it; point evaluation
    (intervals, panels) also needs the admissible truncation."""
    out = []
    for n in cfg.n_grid:
        nn = cfg.truncation_for(n, cfg.prior)
        if interval:
            nn = max(nn, functionals.admissible_truncation(cfg.prior))
        out.append(nn)
    return out


def _ball_job(name: str, cfg) -> Job:
    nns = _truncations(cfg, interval=False)
    return Job(name, lambda: experiments.run_ball_coverage(cfg),
               lambda rep: checks.check_ball(rep, cfg, nns))


def _interval_job(name: str, cfg, x: float = 0.5) -> Job:
    nns = _truncations(cfg, interval=True)

    def run():
        L = functionals.LinearFunctional.point_evaluation(x, 100)
        return experiments.run_interval_coverage(cfg, L)

    return Job(name, run, lambda rep: checks.check_interval(rep, cfg, nns, x))


def _risk_job(name: str, cfg) -> Job:
    nns = _truncations(cfg, interval=False)
    return Job(name, lambda: experiments.run_risk_curve(cfg),
               lambda rep: checks.check_risk(rep, cfg, nns))


def _config(prior, n_grid, seed, replications, mu0=None):
    mu0 = mu0 or experiments.Mu0Source.test_cubic()
    return experiments.ExperimentConfig(prior=prior, n_grid=n_grid, gamma=GAMMA,
                                        replications=replications, mu0=mu0,
                                        seed=seed)


def rough(seed: int, out_dir: str) -> list:
    spec = next(s for s in experiments.figure_three_panels()
                if s.prior.alpha == 0.5 and s.n == 1e4)
    prior = PriorSpec.polynomial(0.5)
    return [
        _panel_job("fig3", spec, seed, out_dir, ROUGH_GRID_POINTS),
        _interval_job("interval/poly-a0.5-n1e4",
                      _config(prior, (1e4,), seed, ROUGH_REPLICATIONS)),
    ]


def coverage(seed: int, out_dir: str) -> list:
    jobs = []
    for key, prior in (("poly-a1", PriorSpec.polynomial(1.0)),
                       ("poly-a3", PriorSpec.polynomial(3.0)),
                       ("exp-a5", PriorSpec.exponential(5.0))):
        jobs.append(_ball_job(f"ball/{key}", _config(prior, (1e4, 1e8), seed,
                                                     1000)))
    draw = experiments.Mu0Source.prior_draw()
    for key, prior in (("poly-a1", PriorSpec.polynomial(1.0)),
                       ("exp-a1", PriorSpec.exponential(1.0))):
        cfg = _config(prior, (1e4,), seed, 1000, draw)
        jobs.append(_ball_job(f"ball-prior/{key}", cfg))
        jobs.append(_interval_job(f"interval-prior/{key}", cfg))
    jobs.append(_risk_job("risk/exp-a1", _config(
        PriorSpec.exponential(1.0), (1e2, 1e4, 1e6, 1e8), seed, 1000)))
    return jobs


def protocols(seed: int, out_dir: str) -> list:
    jobs = []
    for fig in ("fig1", "fig2", "fig4"):
        for spec in experiments.FIGURE_PROTOCOLS[fig]():
            jobs.append(_panel_job(fig, spec, seed, out_dir))
    path = os.path.join(out_dir, "lemma_suite.csv")

    def run():
        report = asymptotics.standard_lemma_suite()
        io.write_dataset(report, path)
        return report

    jobs.append(Job("lemmas/default-grid", run, checks.check_lemmas))
    return jobs


def build(workload: str, seed: int, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    return {"rough": rough, "coverage": coverage, "protocols": protocols}[
        workload](seed, out_dir)
