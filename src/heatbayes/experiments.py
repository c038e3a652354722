"""Monte Carlo coverage, risk, and figure-data experiments.

Every random number comes from an `rng.substream` path, so results are
independent of execution order and worker count; reports aggregate rows
in grid order.  With k the index of n in the grid, r a replication and b a
draw block, the paths are:

    (seed, "ball", k, b)       fixed-truth ball errors ||muhat - mu0||^2
    (seed, "mu0", k, r)        prior-drawn truths of the ball coverage
    (seed, "cov", k, r)        the noise vectors paired with them
    (seed, "interval", k)      one normal per interval replication
    (seed, "risk", k, b)       Monte Carlo errors of the risk curve
    (seed, "obs", s)           observations of panel data stream s
    (seed, "panel", s, "draw", j)  posterior draw j of that panel
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .credible import (
    QuadraticForm,
    _form_draws,
    frequentist_radius,
    quadratic_form_quantile,
)
from .functionals import (
    FunctionalKind,
    LinearFunctional,
    admissible_truncation,
    check_admissible,
    point_evaluation_curves,
)
from .posterior import posterior_weights, risk_decomposition
from .priors import FunctionalMode, PriorFamily, PriorSpec, ScalingRule
from .rng import normal_matrix, substream
from .sequence import (
    CoefficientSequence,
    DEFAULT_TIME_HORIZON,
    default_truncation,
    heat_eigenvalues,
    true_signal_coefficients,
)

class Mu0Kind(enum.Enum):
    TEST_CUBIC = "cubic"          # the 4x(x-1)(8x-5) benchmark signal
    EXPLICIT = "explicit"
    POWER_LAW = "power-law"       # mu_i = i^(-1/2-beta-eps)
    PRIOR_DRAW = "prior-draw"     # fresh draw from the prior per replication


@dataclass(frozen=True)
class Mu0Source:
    kind: Mu0Kind = Mu0Kind.TEST_CUBIC
    coefficients: tuple = ()
    beta: float = 2.0
    eps: float = 0.01

    @staticmethod
    def test_cubic() -> "Mu0Source":
        return Mu0Source(Mu0Kind.TEST_CUBIC)

    @staticmethod
    def explicit(values) -> "Mu0Source":
        return Mu0Source(Mu0Kind.EXPLICIT, coefficients=tuple(float(v) for v in values))

    @staticmethod
    def power_law(beta: float, eps: float = 0.01) -> "Mu0Source":
        return Mu0Source(Mu0Kind.POWER_LAW, beta=beta, eps=eps)

    @staticmethod
    def prior_draw() -> "Mu0Source":
        return Mu0Source(Mu0Kind.PRIOR_DRAW)

    @property
    def is_random(self) -> bool:
        return self.kind is Mu0Kind.PRIOR_DRAW

    def realize(self, truncation_level: int) -> CoefficientSequence:
        """Materialize a deterministic truth at the given truncation."""
        if self.kind is Mu0Kind.TEST_CUBIC:
            return true_signal_coefficients(truncation_level)
        if self.kind is Mu0Kind.EXPLICIT:
            vals = np.zeros(truncation_level)
            m = min(len(self.coefficients), truncation_level)
            vals[:m] = self.coefficients[:m]
            return CoefficientSequence(vals, truncation_level, tail_tol=0.0)
        if self.kind is Mu0Kind.POWER_LAW:
            i = np.arange(1, truncation_level + 1, dtype=float)
            expo = 0.5 + self.beta + self.eps
            vals = i**-expo
            tail = truncation_level ** (-self.beta - self.eps) / math.sqrt(
                2.0 * (self.beta + self.eps))
            return CoefficientSequence(vals, truncation_level, tail_tol=tail)
        raise ValueError("a prior-draw truth is realized per replication, "
                         "not deterministically")


@dataclass(frozen=True)
class ExperimentConfig:
    prior: PriorSpec
    n_grid: tuple
    scaling: ScalingRule = field(default_factory=ScalingRule.fixed)
    gamma: float = 0.05
    replications: int = 1000
    mu0: Mu0Source = field(default_factory=Mu0Source.test_cubic)
    seed: int = 0
    trunc: int | None = None
    # read by no library code since the radii became exact; bench/checks.py
    # still sizes its radius tolerance from it
    mc_draws: int = 200_000
    x_grid_points: int = 201
    time_horizon: float = DEFAULT_TIME_HORIZON

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if any(not n > 0 for n in self.n_grid):
            raise ValueError("all n in the grid must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    def truncation_for(self, n: float, prior_n: PriorSpec) -> int:
        if self.trunc is not None:
            return self.trunc
        return default_truncation(n, prior_n.tau, self.time_horizon)


@dataclass(frozen=True)
class ExperimentReport:
    """Tabular per-n results of one experiment."""

    kind: str
    columns: tuple
    rows: list
    config: ExperimentConfig

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)

    def to_table(self) -> tuple[tuple, list]:
        return self.columns, self.rows


def run_ball_coverage(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequentist coverage of the credible ball along the n grid.

    Per n: the data-free radius once, by inversion of its exact law, then
    per replication the squared error ||muhat - mu0||^2 and the indicator
    that it is at most radius^2.
    At a fixed truth the squared error is drawn from its exact law,
    sum_i (b_i + sqrt(t_i) Z_i)^2 with b = -(1 - g) mu0, and the honest
    frequentist radius and the radius ratio are reported as well.  Prior-
    drawn truths take the end-to-end path (truth, data set and posterior
    mean per replication) and leave those two columns NaN.
    """
    if cfg.replications < 2:
        raise ValueError("replications must be at least 2 for risk_mc_se")
    columns = ("n", "coverage", "coverage_se", "radius", "radius_freq",
               "radius_ratio", "risk_mc", "risk_mc_se")
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        prior_n = cfg.scaling.resolve(cfg.prior, n, FunctionalMode.FULL)
        nn = cfg.truncation_for(n, prior_n)
        kappa = heat_eigenvalues(cfg.time_horizon, nn)
        w = posterior_weights(prior_n, kappa, n)
        form = QuadraticForm.from_weights(CoefficientSequence(w.variance, nn))
        radius = math.sqrt(quadratic_form_quantile(form, 1.0 - cfg.gamma).value)
        if cfg.mu0.is_random:
            mu = np.sqrt(w.lam) * normal_matrix(cfg.seed, ("mu0", idx),
                                                cfg.replications, nn)
            z = normal_matrix(cfg.seed, ("cov", idx), cfg.replications, nn)
            y = mu * kappa.values + z / math.sqrt(n)
            sq_err = ((y * w.mean_weight - mu) ** 2).sum(axis=1)
            r_freq = math.nan
        else:
            mu0 = cfg.mu0.realize(nn)
            r_freq = frequentist_radius(prior_n, kappa, n, mu0, cfg.gamma).value
            sq_err = _form_draws(w.shrink_var, -mu0.values * w.one_minus_gain,
                                 cfg.replications, cfg.seed, ("ball", idx))
        cov = float(np.mean(np.sqrt(sq_err) <= radius))
        se = math.sqrt(cov * (1.0 - cov) / cfg.replications)
        rows.append((n, cov, se, radius, r_freq,
                     radius / r_freq if r_freq == r_freq else math.nan,
                     float(sq_err.mean()),
                     float(sq_err.std(ddof=1) / math.sqrt(cfg.replications))))
    return ExperimentReport("ball-coverage", columns, rows, cfg)


def _resolve_representer(L: LinearFunctional, nn: int) -> LinearFunctional:
    """Re-materialize analytic representers at a new truncation; pad custom
    coefficient lists with zeros (which leaves the functional unchanged)."""
    if L.l.truncation_level == nn:
        return L
    if L.kind is FunctionalKind.POINT_EVALUATION:
        return LinearFunctional.point_evaluation(L.x, nn)
    if L.kind is FunctionalKind.SOBOLEV_REPRESENTER:
        raise ValueError("rebuild sobolev representers explicitly per truncation")
    vals = np.zeros(nn)
    m = min(L.l.truncation_level, nn)
    vals[:m] = L.l.values[:m]
    return LinearFunctional(CoefficientSequence(vals, nn), L.kind, L.q_decay, L.x)


def run_interval_coverage(cfg: ExperimentConfig,
                          L: LinearFunctional) -> ExperimentReport:
    """Frequentist coverage of the credible interval for L mu along the n grid.

    The error Lhat - L mu has an exact law: N(b, t_n^2) at a fixed truth,
    with b = -sum_i l_i (1 - g_i) mu0_i, and N(0, s_n^2) for a truth drawn
    from the prior.  Each replication draws one normal from it.
    """
    columns = ("n", "coverage", "coverage_se", "halfwidth", "spread", "mean_sd")
    z_half = -norm.ppf(cfg.gamma / 2.0)
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        prior_n = cfg.scaling.resolve(cfg.prior, n, FunctionalMode.FUNCTIONAL)
        nn = max(cfg.truncation_for(n, prior_n), admissible_truncation(prior_n))
        kappa = heat_eigenvalues(cfg.time_horizon, nn)
        Ln = _resolve_representer(L, nn)
        check_admissible(Ln, prior_n)
        w = posterior_weights(prior_n, kappa, n)
        l = Ln.l.values
        lsq = l * l
        s_n = math.sqrt(float((lsq * w.variance).sum()))
        t_n = math.sqrt(float((lsq * w.shrink_var).sum()))
        z = substream(cfg.seed, "interval", idx).standard_normal(cfg.replications)
        if cfg.mu0.is_random:
            err = s_n * z
        else:
            b = -float((l * w.one_minus_gain) @ cfg.mu0.realize(nn).values)
            err = b + t_n * z
        cov = np.count_nonzero(np.abs(err) <= z_half * s_n) / cfg.replications
        se = math.sqrt(cov * (1.0 - cov) / cfg.replications)
        rows.append((n, cov, se, z_half * s_n, s_n, t_n))
    return ExperimentReport("interval-coverage", columns, rows, cfg)


def run_risk_curve(cfg: ExperimentConfig) -> ExperimentReport:
    """Posterior risk E||muhat - mu0||^2 + sum s_i along the n grid.

    The exact decomposition (bias/variance/spread) comes from the closed
    forms; a Monte Carlo estimate of the mean-square error, drawn from its
    exact law over the configured replications, is reported alongside.
    """
    if cfg.mu0.is_random:
        raise ValueError("risk curves need a fixed truth")
    if cfg.replications < 2:
        raise ValueError("replications must be at least 2 for risk_mc_se")
    columns = ("n", "sq_bias", "est_var", "spread", "risk_exact",
               "risk_total", "risk_mc", "risk_mc_se")
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        prior_n = cfg.scaling.resolve(cfg.prior, n, FunctionalMode.FULL)
        nn = cfg.truncation_for(n, prior_n)
        kappa = heat_eigenvalues(cfg.time_horizon, nn)
        mu0 = cfg.mu0.realize(nn)
        dec = risk_decomposition(prior_n, kappa, n, mu0)
        w = posterior_weights(prior_n, kappa, n)
        sq_err = _form_draws(w.shrink_var, -mu0.values * w.one_minus_gain,
                             cfg.replications, cfg.seed, ("risk", idx))
        rows.append((n, dec.sq_bias, dec.estimator_variance,
                     dec.posterior_spread,
                     dec.sq_bias + dec.estimator_variance,
                     dec.total, float(sq_err.mean()),
                     float(sq_err.std(ddof=1) / math.sqrt(cfg.replications))))
    return ExperimentReport("risk-curve", columns, rows, cfg)


@dataclass(frozen=True)
class PanelSpec:
    """One figure panel: a prior, a noise level, and a data realization."""

    prior: PriorSpec
    n: float
    data_stream: int
    draws: int = 20
    label: str = ""


@dataclass(frozen=True)
class PanelData:
    label: str
    x: np.ndarray
    truth: np.ndarray
    post_mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    draw_curves: np.ndarray  # (draws, len(x))

    def coverage_fraction(self) -> float:
        """Fraction of grid points whose band contains the true curve."""
        inside = (self.truth >= self.lower) & (self.truth <= self.upper)
        return float(inside.mean())

    def to_table(self) -> tuple[tuple, list]:
        cols = ["x", "truth", "post_mean", "lower", "upper"]
        cols += [f"draw_{j + 1:02d}" for j in range(self.draw_curves.shape[0])]
        rows = []
        for k in range(self.x.size):
            row = [self.x[k], self.truth[k], self.post_mean[k],
                   self.lower[k], self.upper[k]]
            row += list(self.draw_curves[:, k])
            rows.append(tuple(row))
        return tuple(cols), rows


def render_panel(cfg: ExperimentConfig, spec: PanelSpec) -> PanelData:
    """Deterministic dataset for one panel: truth, posterior mean, central
    band, and posterior draw curves on the x grid."""
    prior_n = cfg.scaling.resolve(spec.prior, spec.n, FunctionalMode.FUNCTIONAL)
    nn = max(cfg.truncation_for(spec.n, prior_n), admissible_truncation(prior_n))
    kappa = heat_eigenvalues(cfg.time_horizon, nn)
    mu0 = cfg.mu0.realize(nn)
    z = substream(cfg.seed, "obs", spec.data_stream).standard_normal(nn)
    y = kappa.values * mu0.values + z / math.sqrt(spec.n)
    w = posterior_weights(prior_n, kappa, spec.n)
    x = np.linspace(0.0, 1.0, cfg.x_grid_points)
    streams = [substream(cfg.seed, "panel", spec.data_stream, "draw", j)
               for j in range(spec.draws)]
    mean_x, sd_x, extra, curves = point_evaluation_curves(
        w, y, x, extra_coefficients=mu0.values[:, None], draw_streams=streams)
    z_half = -norm.ppf(cfg.gamma / 2.0)
    return PanelData(
        label=spec.label or f"{prior_n.kind.value}-a{prior_n.alpha:g}-n{spec.n:g}",
        x=x, truth=extra[:, 0], post_mean=mean_x,
        lower=mean_x - z_half * sd_x, upper=mean_x + z_half * sd_x,
        draw_curves=curves,
    )


def emit_figure_data(cfg: ExperimentConfig, panels) -> list[PanelData]:
    """Render every panel of a figure protocol, deterministically from the
    config seed."""
    return [render_panel(cfg, spec) for spec in panels]


def _two_column_protocol(priors_left_right, n: float, reps: int) -> list[PanelSpec]:
    specs = []
    stream = 0
    for prior in priors_left_right:
        for r in range(reps):
            specs.append(PanelSpec(
                prior=prior, n=n, data_stream=stream,
                label=f"{prior.kind.value}-a{prior.alpha:g}-n{n:g}-rep{r}"))
            stream += 1
    return specs


def figure_one_panels() -> list[PanelSpec]:
    """Polynomial priors alpha in {1, 3}, five data realizations each, n=1e4."""
    return _two_column_protocol(
        [PriorSpec.polynomial(1.0), PriorSpec.polynomial(3.0)], 1e4, 5)


def figure_two_panels() -> list[PanelSpec]:
    """Exponential priors alpha in {1, 5}, five data realizations each, n=1e4."""
    return _two_column_protocol(
        [PriorSpec.exponential(1.0), PriorSpec.exponential(5.0)], 1e4, 5)


def _alpha_sweep_protocol(family: PriorFamily) -> list[PanelSpec]:
    specs = []
    stream = 0
    for n in (1e4, 1e8):
        for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
            prior = (PriorSpec.polynomial(alpha)
                     if family is PriorFamily.POLYNOMIAL
                     else PriorSpec.exponential(alpha))
            specs.append(PanelSpec(
                prior=prior, n=n, data_stream=stream,
                label=f"{prior.kind.value}-a{alpha:g}-n{n:g}"))
            stream += 1
    return specs


def figure_three_panels() -> list[PanelSpec]:
    """Polynomial priors alpha in {0.5, 1, 2, 5, 10} at n in {1e4, 1e8}."""
    return _alpha_sweep_protocol(PriorFamily.POLYNOMIAL)


def figure_four_panels() -> list[PanelSpec]:
    """Exponential priors alpha in {0.5, 1, 2, 5, 10} at n in {1e4, 1e8}."""
    return _alpha_sweep_protocol(PriorFamily.EXPONENTIAL)


FIGURE_PROTOCOLS = {
    "fig1": figure_one_panels,
    "fig2": figure_two_panels,
    "fig3": figure_three_panels,
    "fig4": figure_four_panels,
}

