"""Monte Carlo coverage, risk, and figure-data experiments.

Every random number comes from an `rng.substream` path, so results are
independent of execution order and worker count; reports aggregate rows
in grid order.  With k the index of n in the grid, r a replication and b a
draw block, the paths are:

    (seed, "ball", k, b)       ball coverage errors ||muhat - mu0||^2
    (seed, "interval", k)      one normal per interval replication
    (seed, "risk", k, b)       Monte Carlo errors of the risk curve
    (seed, "obs", s)           observations of panel data stream s
    (seed, "panel", s, "draw", j)  posterior draw j of that panel: row j of
                               normal_matrix(seed, ("panel", s, "draw"), ...),
                               the same stream
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .credible import (
    QuadraticForm,
    _form_draws,
    frequentist_radius,
    quadratic_form_quantile,
)
from .functionals import (
    InadmissibleFunctionalError,
    LinearFunctional,
    PriorTail,
    _point_fraction,
    admissible_truncation,
    functional_moments,
    point_evaluation_curves,
)
from .posterior import posterior_weights, risk_decomposition
from .priors import FunctionalMode, PriorFamily, PriorSpec, ScalingRule
from .rng import normal_matrix, substream
from .sequence import (
    CoefficientSequence,
    DEFAULT_TIME_HORIZON,
    active_head,
    bin_range,
    default_truncation,
    heat_eigenvalues,
    power_sums,
    simulate_observations,
    true_signal_coefficients,
    true_signal_sums,
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

    def __post_init__(self):
        if self.kind is Mu0Kind.POWER_LAW and not (
                0 < self.beta + self.eps < math.inf):
            raise ValueError("a power-law truth needs finite beta + eps > 0, "
                             "so that its coefficients are square summable")

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
        if self.kind is Mu0Kind.PRIOR_DRAW:
            raise ValueError("a prior-draw truth is realized per replication, "
                             "not deterministically")
        tail = 0.0 if self.kind is Mu0Kind.EXPLICIT else (
            truncation_level ** (-self.beta - self.eps)
            / math.sqrt(2.0 * (self.beta + self.eps)))
        return CoefficientSequence(self.sums(1, truncation_level),
                                   truncation_level, tail_tol=tail)

    def sums(self, first: int, last: int,
             period: int | None = None) -> np.ndarray:
        """mu0_first..mu0_last of a deterministic truth summed over the
        residues of i mod period (one bin per index when period is None; see
        sequence.bin_range), without an array longer than the period: the
        cubic by parity and zeta(3, .) (even periods only), the power law
        by sequence.power_sums at 1/2 + beta + eps, explicit coefficients
        from their stored values."""
        if self.kind is Mu0Kind.TEST_CUBIC:
            return true_signal_sums(first, last, period)
        if self.kind is Mu0Kind.POWER_LAW:
            return power_sums(0.5 + self.beta + self.eps, first, last, period)
        if self.kind is Mu0Kind.EXPLICIT:
            vals = np.asarray(self.coefficients[first - 1:last], dtype=float)
            if period is None:
                vals = np.concatenate(
                    [vals, np.zeros(last - first + 1 - vals.size)])
            return bin_range(first, vals, period)
        raise ValueError("a prior-draw truth has no deterministic sums")


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
        if any(not 0 < n < math.inf for n in self.n_grid):
            raise ValueError("all n in the grid must be positive and finite")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.x_grid_points < 2:
            raise ValueError("x_grid_points must be at least 2")

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


def _squared_errors(cfg: ExperimentConfig, idx: int, n: float, stream: str):
    """(prior, kappa, weights, mu0, draws) at the idx-th n of the grid: mu0
    is None for prior-drawn truths, and draws are cfg.replications samples
    of ||muhat - mu0||^2 from its exact law, keyed (seed, stream, idx, b).
    At a fixed truth that law is sum_i (b_i + sqrt(t_i) Z_i)^2 with
    b = -(1 - g) mu0.  Under the prior, muhat - mu0 is independent of the
    data and N(0, s_i) in each coordinate: the law is sum_i s_i Z_i^2.
    """
    if cfg.replications < 2:
        raise ValueError("replications must be at least 2 for risk_mc_se")
    prior_n = cfg.scaling.resolve(cfg.prior, n, FunctionalMode.FULL)
    nn = cfg.truncation_for(n, prior_n)
    kappa = heat_eigenvalues(cfg.time_horizon, nn)
    w = posterior_weights(prior_n, kappa, n)
    mu0 = None if cfg.mu0.is_random else cfg.mu0.realize(nn)
    var, bias = ((w.variance, None) if mu0 is None
                 else (w.shrink_var, -mu0.values * w.one_minus_gain))
    return prior_n, kappa, w, mu0, _form_draws(
        var, bias, cfg.replications, cfg.seed, (stream, idx))


def _mean_and_se(draws: np.ndarray) -> tuple[float, float]:
    return (float(draws.mean()),
            float(draws.std(ddof=1) / math.sqrt(draws.size)))


def run_ball_coverage(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequentist coverage of the credible ball along the n grid.

    Per n: the data-free radius once, by inversion of its exact law, then
    per replication the squared error ||muhat - mu0||^2 from its exact law
    (_squared_errors) and the indicator that it is at most radius^2.  For
    prior-drawn truths that law is sum_i s_i Z_i^2, the form whose quantile
    is radius^2, so the coverage is 1 - gamma up to Monte Carlo error, and
    the honest frequentist radius and the radius ratio are NaN.
    """
    columns = ("n", "coverage", "coverage_se", "radius", "radius_freq",
               "radius_ratio", "risk_mc", "risk_mc_se")
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        prior_n, kappa, w, mu0, sq_err = _squared_errors(cfg, idx, n, "ball")
        form = QuadraticForm.from_weights(
            CoefficientSequence(w.variance, kappa.truncation_level))
        radius = math.sqrt(quadratic_form_quantile(form, 1.0 - cfg.gamma).value)
        r_freq = math.nan if mu0 is None else frequentist_radius(
            prior_n, kappa, n, mu0, cfg.gamma).value
        cov = float(np.mean(np.sqrt(sq_err) <= radius))
        se = math.sqrt(cov * (1.0 - cov) / cfg.replications)
        rows.append((n, cov, se, radius, r_freq, radius / r_freq,
                     *_mean_and_se(sq_err)))
    return ExperimentReport("ball-coverage", columns, rows, cfg)


def run_interval_coverage(cfg: ExperimentConfig,
                          L: LinearFunctional) -> ExperimentReport:
    """Frequentist coverage of the credible interval for L mu along the n grid.

    The error Lhat - L mu has an exact law: N(b, t_n^2) at a fixed truth,
    with b = -sum_i l_i (1 - g_i) mu0_i, and N(0, s_n^2) for a truth drawn
    from the prior.  Each replication draws one normal from it.  The sums
    run over the N coordinates of the admissible truncation, doubled where
    x near 0 or 1 needs it: arrays over the active head, closed forms past
    it (_interval_moments).
    """
    columns = ("n", "coverage", "coverage_se", "halfwidth", "spread", "mean_sd")
    z_half = -NormalDist().inv_cdf(cfg.gamma / 2.0)
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        prior_n = cfg.scaling.resolve(cfg.prior, n, FunctionalMode.FUNCTIONAL)
        nn = max(cfg.truncation_for(n, prior_n), admissible_truncation(prior_n))
        s2, t2, bias = _interval_moments(cfg, L, prior_n, n, nn)
        s_n, t_n = math.sqrt(s2), math.sqrt(t2)
        z = substream(cfg.seed, "interval", idx).standard_normal(cfg.replications)
        err = s_n * z if cfg.mu0.is_random else t_n * z + bias
        cov = np.count_nonzero(np.abs(err) <= z_half * s_n) / cfg.replications
        se = math.sqrt(cov * (1.0 - cov) / cfg.replications)
        rows.append((n, cov, se, z_half * s_n, s_n, t_n))
    return ExperimentReport("interval-coverage", columns, rows, cfg)


# the largest truncation an interval doubles to: the longest range
# sequence.power_sums is verified for
_MAX_INTERVAL_TRUNCATION = 10**9


def _interval_moments(cfg: ExperimentConfig, L: LinearFunctional,
                      prior_n: PriorSpec, n: float, nn: int):
    """(s_n^2, t_n^2, bias) of L over N = nn coordinates (functional_moments
    on the active head, closed forms past it).

    Near x = 0 and 1 the per-x admissibility check can fail at the N the
    prior's admissible_truncation picks, since sum l_i^2 lambda_i falls
    like x^2 while the last decade does not.  A point x = p/q, whose tail
    is summed over the residues mod 2q at O(N_h + q) cost, then doubles N
    until the check passes, up to _MAX_INTERVAL_TRUNCATION; past that, and
    for any other x, the check's error stands.
    """
    nh = active_head(cfg.time_horizon, nn)
    w = posterior_weights(prior_n, heat_eigenvalues(cfg.time_horizon, nh), n)
    truth = () if cfg.mu0.is_random else (cfg.mu0.realize(nh).values,
                                          cfg.mu0.sums)
    try:
        return functional_moments(L, w, prior_n, nn, *truth)
    except InadmissibleFunctionalError:
        if (2 * nn > _MAX_INTERVAL_TRUNCATION
                or _point_fraction(L, nn - nh) is None):
            raise
    return _interval_moments(cfg, L, prior_n, n, 2 * nn)


def run_risk_curve(cfg: ExperimentConfig) -> ExperimentReport:
    """Posterior risk E||muhat - mu0||^2 + sum s_i along the n grid.

    The exact decomposition (bias/variance/spread) comes from the closed
    forms; a Monte Carlo estimate of the mean-square error, drawn from its
    exact law (_squared_errors) over the configured replications, is
    reported alongside.
    """
    if cfg.mu0.is_random:
        raise ValueError("risk curves need a fixed truth")
    columns = ("n", "sq_bias", "est_var", "spread", "risk_exact",
               "risk_total", "risk_mc", "risk_mc_se")
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        prior_n, kappa, _, mu0, sq_err = _squared_errors(cfg, idx, n, "risk")
        dec = risk_decomposition(prior_n, kappa, n, mu0)
        rows.append((n, dec.sq_bias, dec.estimator_variance,
                     dec.posterior_spread,
                     dec.sq_bias + dec.estimator_variance,
                     dec.total, *_mean_and_se(sq_err)))
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

    def to_matrix(self) -> tuple[tuple, np.ndarray]:
        """The column names and the (points, 5 + draws) float matrix of x,
        truth, post_mean, lower, upper and the draws, one row a point."""
        cols = ["x", "truth", "post_mean", "lower", "upper"]
        cols += [f"draw_{j + 1:02d}" for j in range(self.draw_curves.shape[0])]
        return tuple(cols), np.column_stack([
            self.x, self.truth, self.post_mean, self.lower, self.upper,
            self.draw_curves.T])

    def to_table(self) -> tuple[tuple, list]:
        """to_matrix() with each row a tuple of Python floats."""
        cols, matrix = self.to_matrix()
        return cols, list(map(tuple, matrix.tolist()))


def render_panel(cfg: ExperimentConfig, spec: PanelSpec) -> PanelData:
    """Deterministic dataset for one panel: truth, posterior mean, central
    band, and posterior draw curves on the x grid."""
    prior_n = cfg.scaling.resolve(spec.prior, spec.n, FunctionalMode.FUNCTIONAL)
    nn = max(cfg.truncation_for(spec.n, prior_n), admissible_truncation(prior_n))
    # arrays for the active head only; the prior-only tail up to N is summed
    # in closed form
    nh = active_head(cfg.time_horizon, nn)
    kappa = heat_eigenvalues(cfg.time_horizon, nh)
    mu0 = cfg.mu0.realize(nh)
    y = simulate_observations(mu0, kappa, spec.n, cfg.seed,
                              spec.data_stream).y.values
    w = posterior_weights(prior_n, kappa, spec.n)
    x = np.linspace(0.0, 1.0, cfg.x_grid_points)
    draws = functools.partial(normal_matrix, cfg.seed,
                              ("panel", spec.data_stream, "draw"), spec.draws)
    mean_x, sd_x, extra, curves = point_evaluation_curves(
        w, y, x, extra_coefficients=mu0.values[:, None], draw_normals=draws,
        tail=PriorTail(prior_n, nn, (cfg.mu0.sums,)))
    z_half = -NormalDist().inv_cdf(cfg.gamma / 2.0)
    return PanelData(
        label=spec.label or f"{prior_n.kind.value}-a{prior_n.alpha:g}-n{spec.n:g}",
        x=x, truth=extra[:, 0], post_mean=mean_x,
        lower=mean_x - z_half * sd_x, upper=mean_x + z_half * sd_x,
        draw_curves=curves,
    )


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

