"""Monte Carlo coverage, risk, and figure-data experiments.

Every experiment reads one model frame per (prior, n) grid point
(_Model): the posterior on the active head 1..N_h, built once, and past
it the prior-only tail (s = lambda, t = 0, bias = -mu0).

Every random number comes from an `rng.substream` path, so results are
independent of execution order and worker count; reports aggregate rows
in grid order.  With k the index of n in the grid, r a replication and b a
draw block, the paths are:

    (seed, "ball", k, b)       ball coverage errors ||muhat - mu0||^2
    (seed, "interval", k)      one normal per interval replication
    (seed, "risk", k, b)       Monte Carlo errors of the risk curve
    (seed, "obs", s)           observations of panel data stream s
    (seed, "panel", s, "draw") that panel's posterior draws, one stream read
                               row-major (rng.normal_matrix), a row a draw
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .credible import _ball_radius, _form_draws
from .functionals import (
    InadmissibleFunctionalError,
    LinearFunctional,
    _curve_data,
    _curve_frame,
    _point_fraction,
    admissible_truncation,
    functional_moments,
)
from .numeric import MAX_HEAD, UNDERFLOW, compensated_sum
from .posterior import posterior_weights
from .priors import FunctionalMode, PriorFamily, PriorSpec, ScalingRule, check_snr
from .rng import normal_matrix, substream
from .sequence import (
    CoefficientSequence,
    DEFAULT_TIME_HORIZON,
    _check_time_horizon,
    active_head,
    default_truncation,
    heat_eigenvalues,
    power_sums,
    simulate_observations,
    true_signal_coefficients,
    true_signal_sums,
)

class Mu0Kind(enum.Enum):
    TEST_CUBIC = "cubic"          # the 4x(x-1)(8x-5) benchmark signal
    POWER_LAW = "power-law"       # mu_i = i^(-1/2-beta-eps)
    PRIOR_DRAW = "prior-draw"     # fresh draw from the prior per replication


@dataclass(frozen=True)
class Mu0Source:
    kind: Mu0Kind = Mu0Kind.TEST_CUBIC
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
        tail = (truncation_level ** (-self.beta - self.eps)
                / math.sqrt(2.0 * (self.beta + self.eps)))
        return CoefficientSequence(self.sums(1, truncation_level),
                                   truncation_level, tail_tol=tail)

    def sums(self, first: int, last: int,
             period: int | None = None) -> np.ndarray:
        """mu0_first..mu0_last of a deterministic truth summed over the
        residues of i mod period (one bin per index when period is None; see
        sequence.bin_range), without an array longer than the period: the
        cubic by parity and zeta(3, .) (even periods only), the power law
        by sequence.power_sums at 1/2 + beta + eps."""
        if self.kind is Mu0Kind.TEST_CUBIC:
            return true_signal_sums(first, last, period)
        if self.kind is Mu0Kind.POWER_LAW:
            return power_sums(0.5 + self.beta + self.eps, first, last, period)
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
        for name, least in (("replications", 1), ("seed", 0), ("trunc", 1),
                            ("mc_draws", 1), ("x_grid_points", 2)):
            value = getattr(self, name)
            if value is None and name == "trunc":
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or not least <= value < (1 << 64)):
                raise ValueError(f"{name} must be an integer in [{least}, 2**64), "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
        grid = tuple(self.n_grid)
        if not grid or any(isinstance(n, bool) or not isinstance(n, numbers.Real)
                           or not 0 < n < math.inf for n in grid):
            raise ValueError(f"n_grid needs positive finite n, got {self.n_grid!r}")
        object.__setattr__(self, "n_grid", tuple(map(float, grid)))
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        _check_time_horizon(self.time_horizon)

    def truncation_for(self, n: float, prior_n: PriorSpec) -> int:
        if self.trunc is not None:
            return self.trunc
        return default_truncation(n, prior_n.tau, self.time_horizon)


@dataclass(frozen=True)
class ExperimentReport:
    """Tabular per-n results of one experiment."""

    columns: tuple
    rows: list

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)

    def to_table(self) -> tuple[tuple, list]:
        return self.columns, self.rows


@dataclass(frozen=True)
class _Model:
    """A grid point's model frame, keyed by the resolved prior, n, the
    truncation N, T and the truth source.  `head` is (kappa, posterior
    weights, truth or None) on 1..N_h, built on first read, or the head of
    the frame `lent` when its N_h is the same."""

    prior: PriorSpec
    n: float
    nn: int
    time_horizon: float
    mu0: Mu0Source
    lent: "_Model | None" = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def head(self) -> tuple:
        nh = active_head(self.time_horizon, self.nn)
        if self.lent is not None and len(self.lent.head[0]) == nh:
            return self.lent.head
        kappa = heat_eigenvalues(self.time_horizon, nh)
        truth = None if self.mu0.is_random else self.mu0.realize(nh)
        return kappa, posterior_weights(self.prior, kappa, self.n), truth


def _model(cfg, prior, n, mode, nn=None, head=None) -> _Model:
    """The frame of (prior, n) under cfg over N = nn coordinates, by
    default cfg.truncation_for's, raised to admissible_truncation in mode
    FUNCTIONAL (point evaluations); `head` lends its head (_Model)."""
    prior_n = cfg.scaling.resolve(prior, n, mode)
    if nn is None:
        nn = cfg.truncation_for(n, prior_n)
        if mode is FunctionalMode.FUNCTIONAL:
            nn = max(nn, admissible_truncation(prior_n))
    return _Model(prior_n, n, nn, cfg.time_horizon, cfg.mu0, head)


def _squared_errors(cfg: ExperimentConfig, idx: int, n: float, stream: str):
    """(s, t, bias) over 1..N at the idx-th n of the grid, and
    cfg.replications draws of ||muhat - mu0||^2 from its exact law, keyed
    (seed, stream, idx, b).  The arrays are the frame's head, then its
    prior-only tail; bias = -(1 - g) mu0, None for a prior-drawn truth.
    At a fixed truth the law is sum_i (b_i + sqrt(t_i) Z_i)^2.  Under the
    prior, muhat - mu0 is independent of the data and N(0, s_i) in each
    coordinate: the law is sum_i s_i Z_i^2.
    """
    if cfg.replications < 2:
        raise ValueError("replications must be at least 2 for risk_mc_se")
    model = _model(cfg, cfg.prior, n, FunctionalMode.FULL)
    kappa, w, truth = model.head
    nh, nn = len(kappa), model.nn
    s = np.concatenate((w.variance, model.prior.variance_sums(nh + 1, nn)))
    t = np.concatenate((w.shrink_var, np.zeros(nn - nh)))
    bias = None if truth is None else -np.concatenate(
        (truth.values * w.one_minus_gain, model.mu0.sums(nh + 1, nn)))
    return s, t, bias, _form_draws(s if bias is None else t, bias,
                                   cfg.replications, cfg.seed, (stream, idx))


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
        s, t, bias, sq_err = _squared_errors(cfg, idx, n, "ball")
        radius = _ball_radius(s, None, cfg.gamma).value
        r_freq = math.nan if bias is None else _ball_radius(t, bias, cfg.gamma).value
        cov = float(np.mean(np.sqrt(sq_err) <= radius))
        se = math.sqrt(cov * (1.0 - cov) / cfg.replications)
        rows.append((n, cov, se, radius, r_freq, radius / r_freq,
                     *_mean_and_se(sq_err)))
    return ExperimentReport(columns, rows)


def run_interval_coverage(cfg: ExperimentConfig,
                          L: LinearFunctional) -> ExperimentReport:
    """Frequentist coverage of the credible interval for L mu along the n grid.

    The error Lhat - L mu has an exact law: N(b, t_n^2) at a fixed truth,
    with b = -sum_i l_i (1 - g_i) mu0_i, and N(0, s_n^2) for a truth drawn
    from the prior.  Each replication draws one normal from it.  For a
    point evaluation the sums run over the N coordinates of the admissible
    truncation, doubled where x near 0 or 1 needs it, and for a
    finite-support functional over its support: arrays over the active
    head, closed forms past it (_interval_moments).
    """
    columns = ("n", "coverage", "coverage_se", "halfwidth", "spread", "mean_sd")
    z_half = -NormalDist().inv_cdf(cfg.gamma / 2.0)
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        s2, t2, bias = _interval_moments(
            cfg, L, _model(cfg, cfg.prior, n, FunctionalMode.FUNCTIONAL))
        s_n, t_n = math.sqrt(s2), math.sqrt(t2)
        z = substream(cfg.seed, "interval", idx).standard_normal(cfg.replications)
        err = s_n * z if cfg.mu0.is_random else t_n * z + bias
        cov = float(np.count_nonzero(np.abs(err) <= z_half * s_n) / cfg.replications)
        se = math.sqrt(cov * (1.0 - cov) / cfg.replications)
        rows.append((n, cov, se, z_half * s_n, s_n, t_n))
    return ExperimentReport(columns, rows)


# the largest truncation an interval doubles to: the longest range
# sequence.power_sums is verified for
_MAX_INTERVAL_TRUNCATION = 10**9


def _interval_moments(cfg: ExperimentConfig, L: LinearFunctional,
                      model: _Model):
    """(s_n^2, t_n^2, bias) of L over the frame's N coordinates
    (functional_moments on the active head, closed forms past it).

    Near x = 0 and 1 the per-x admissibility check can fail at the N the
    prior's admissible_truncation picks, since sum l_i^2 lambda_i falls
    like x^2 while the last decade does not.  A point x = p/q, whose tail
    is summed over the residues mod 2q at O(N_h + q) cost, then doubles N
    until the check passes, up to _MAX_INTERVAL_TRUNCATION; past that, and
    for any other x, the check's error stands.  Each doubled frame borrows
    the head of the last, unless doubling N moved N_h (while N is below it).
    The exponential family sums its tail term by term up to min(N,
    sqrt(746 / alpha)), where exp(-alpha i^2) underflows
    (PriorSpec.variance_sums), so it stops doubling once that sum would pass
    MAX_HEAD terms.
    """
    while True:
        kappa, w, truth = model.head
        nn, prior_n = model.nn, model.prior
        try:
            return functional_moments(L, w, prior_n, nn, *(
                () if truth is None else (truth.values, model.mu0.sums)))
        except InadmissibleFunctionalError:
            if (2 * nn > _MAX_INTERVAL_TRUNCATION
                    or _point_fraction(L, nn - len(kappa)) is None
                    or (prior_n.kind is PriorFamily.EXPONENTIAL and min(
                        2 * nn, math.sqrt(UNDERFLOW / prior_n.alpha)) > MAX_HEAD)):
                raise
        model = _model(cfg, cfg.prior, model.n, FunctionalMode.FUNCTIONAL,
                       2 * nn, model)


def run_risk_curve(cfg: ExperimentConfig) -> ExperimentReport:
    """Posterior risk E||muhat - mu0||^2 + sum s_i along the n grid.

    The exact decomposition is sum b_i^2, sum t_i and sum s_i over the
    arrays of _squared_errors; a Monte Carlo estimate of the mean-square
    error, drawn from its exact law over the configured replications, is
    reported alongside.
    """
    if cfg.mu0.is_random:
        raise ValueError("risk curves need a fixed truth")
    columns = ("n", "sq_bias", "est_var", "spread", "risk_exact",
               "risk_total", "risk_mc", "risk_mc_se")
    rows = []
    for idx, n in enumerate(cfg.n_grid):
        s, t, bias, sq_err = _squared_errors(cfg, idx, n, "risk")
        sq_bias, est_var, spread = map(compensated_sum, (bias**2, t, s))
        rows.append((n, sq_bias, est_var, spread, sq_bias + est_var,
                     sq_bias + est_var + spread, *_mean_and_se(sq_err)))
    return ExperimentReport(columns, rows)


@dataclass(frozen=True)
class PanelSpec:
    """One figure panel: a prior, a noise level, and a data realization."""

    prior: PriorSpec
    n: float
    data_stream: int
    draws: int = 20
    label: str = ""

    def __post_init__(self):
        for name in ("data_stream", "draws"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or not 0 <= value < (1 << 64)):
                raise ValueError(f"{name} must be an integer in [0, 2**64), "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
        if (isinstance(self.n, bool) or not isinstance(self.n, numbers.Real)
                or not 0 < self.n < math.inf):
            raise ValueError(f"n must be positive and finite, got {self.n!r}")
        object.__setattr__(self, "n", float(self.n))


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


@functools.lru_cache(maxsize=1)
def _panel_frame(model: _Model, points: int, gamma: float):
    """render_panel's data-free frame, read-only, keyed on the model's key,
    the grid size and gamma: kappa, truth and w_i on the active head, the
    _curve_frame and the band's half width z_{gamma/2} sd(x)."""
    if model.mu0.is_random:
        raise ValueError("a panel plots one fixed truth, not a prior-draw truth")
    kappa, w, truth = model.head
    curve = _curve_frame(w, np.linspace(0.0, 1.0, points), truth.values[:, None],
                         model.prior, model.nn, (model.mu0.sums,))
    half = -NormalDist().inv_cdf(gamma / 2.0) * curve[4]  # curve[4] is sd(x)
    for a in (kappa.values, truth.values, w.mean_weight, curve[0].x,
              *curve[2:], half):
        a.setflags(write=False)
    return kappa, truth, w.mean_weight, curve, half


def render_panel(cfg: ExperimentConfig, spec: PanelSpec) -> PanelData:
    """Deterministic dataset for one panel: truth, posterior mean, central
    band, and posterior draw curves on the x grid.  Consecutive panels of
    one (prior, n) column share the data-free frame (_panel_frame); the
    output does not depend on whether it was reused."""
    model = _model(cfg, spec.prior, spec.n, FunctionalMode.FUNCTIONAL)
    misses = _panel_frame.cache_info().misses
    kappa, truth, mean_weight, curve, half = _panel_frame(
        model, cfg.x_grid_points, cfg.gamma)
    if _panel_frame.cache_info().misses == misses:  # a miss warned already
        check_snr(model.prior, spec.n)
    y = simulate_observations(truth, kappa, spec.n, cfg.seed,
                              spec.data_stream).y.values
    draws = functools.partial(normal_matrix, cfg.seed,
                              ("panel", spec.data_stream, "draw"), spec.draws)
    mean_x, _, extra, curves = _curve_data(curve, mean_weight * y, draws)
    return PanelData(
        label=spec.label or f"{model.prior.kind.value}-a{model.prior.alpha:g}-n{spec.n:g}",
        x=curve[0].x.copy(), truth=extra[:, 0], post_mean=mean_x,
        lower=mean_x - half, upper=mean_x + half, draw_curves=curves)


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

