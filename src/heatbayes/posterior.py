"""Exact conjugate posterior for the Gaussian sequence model.

With prior mu_i ~ N(0, lambda_i) and observation y_i = kappa_i mu_i +
n^{-1/2} z_i, the posterior factorizes over coordinates as

    mu_i | y  ~  N( n lambda_i kappa_i y_i / (1 + n lambda_i kappa_i^2),
                    lambda_i / (1 + n lambda_i kappa_i^2) ).

Everything is driven by the signal-to-noise products a_i = n lambda_i
kappa_i^2, which span hundreds of orders of magnitude across coordinates;
all factors are formed from log a_i with saturation guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import compensated_sum, log1pexp, shrinkage_factors
from .priors import PriorSpec, check_snr, prior_tail_bound
from .rng import substream
from .sequence import CoefficientSequence, GridSynthesis, ObservationSet


@dataclass(frozen=True)
class PosteriorWeights:
    """Data-free part of the posterior at fixed (prior, kappa, n).

    mean_weight w_i multiplies y_i to give the posterior mean;
    gain g_i = a_i/(1+a_i) is the shrinkage toward the data;
    variance s_i = lambda_i (1-g_i); shrink_var t_i = s_i g_i is the
    sampling variance of the posterior mean, so t_i <= s_i always.
    """

    lam: np.ndarray
    mean_weight: np.ndarray
    gain: np.ndarray
    one_minus_gain: np.ndarray
    variance: np.ndarray
    shrink_var: np.ndarray


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-coordinate posterior means and variances."""

    mean: CoefficientSequence
    variance: CoefficientSequence
    shrink_var: CoefficientSequence

    def __post_init__(self):
        nv = self.variance.values
        nt = self.shrink_var.values
        if not (self.mean.truncation_level == self.variance.truncation_level
                == self.shrink_var.truncation_level):
            raise ValueError("summary components must share a truncation level")
        if np.any(nv < 0) or np.any(nt > nv * (1 + 1e-15) + 1e-300):
            raise ValueError("posterior variances must satisfy 0 <= t_i <= s_i")


@dataclass(frozen=True)
class RiskDecomposition:
    """Bias/variance/spread split of the posterior risk at a known truth.

    sq_bias           sum mu0_i^2 / (1 + a_i)^2
    estimator_variance sum t_i   (sampling variance of the posterior mean)
    posterior_spread  sum s_i    (data-free posterior variance)

    E ||muhat - mu0||^2 = sq_bias + estimator_variance; tail_tol bounds the
    total movement of the three sums under any increase of the truncation.
    """

    sq_bias: float
    estimator_variance: float
    posterior_spread: float
    tail_tol: float | None = None

    @property
    def total(self) -> float:
        """Posterior risk: mean-square error plus spread."""
        return self.sq_bias + self.estimator_variance + self.posterior_spread


def posterior_weights(prior: PriorSpec, kappa: CoefficientSequence,
                      n: float) -> PosteriorWeights:
    """Stable per-coordinate posterior factors at fixed (prior, kappa, n);
    the log-space formulas run only where kappa_i > 0, as elsewhere the
    factors are exactly g = 0, 1 - g = 1, w = 0, s = lambda and t = 0."""
    if not n > 0:
        raise ValueError("signal-to-noise parameter n must be positive")
    check_snr(prior, n)
    nn = kappa.truncation_level
    lam = prior.variance_values(nn)
    g, omg, w, s, t = (np.zeros(nn), np.ones(nn), np.zeros(nn), lam.copy(),
                       np.zeros(nn))
    act = np.flatnonzero(kappa.values > 0.0)
    log_lam = prior.log_variances(int(act.max(initial=0)) + 1)[act]
    log_kap = np.log(kappa.values[act])
    log_a = math.log(n) + log_lam + 2.0 * log_kap
    g[act], omg[act] = shrinkage_factors(log_a)
    s[act] = lam[act] * omg[act]
    t[act] = s[act] * g[act]
    # w_i = n lambda_i kappa_i / (1 + a_i), formed in log space
    w[act] = np.exp(math.log(n) + log_lam + log_kap - log1pexp(log_a))
    return PosteriorWeights(lam=lam, mean_weight=w, gain=g,
                            one_minus_gain=omg, variance=s, shrink_var=t)


def _check_observations(kappa: CoefficientSequence, n: float,
                        y: ObservationSet) -> None:
    """Raises ValueError unless y has kappa's truncation and was drawn at n."""
    if y.y.truncation_level != kappa.truncation_level:
        raise ValueError(f"truncation mismatch: y has {y.y.truncation_level}"
                         f", kappa has {kappa.truncation_level}")
    if y.noise_level_n != n:
        raise ValueError(f"observations were generated at n={y.noise_level_n}"
                         f", posterior requested at n={n}")


def compute_posterior(prior: PriorSpec, kappa: CoefficientSequence, n: float,
                      y: ObservationSet) -> PosteriorSummary:
    """Coordinatewise conjugate posterior given observations y."""
    _check_observations(kappa, n, y)
    w = posterior_weights(prior, kappa, n)
    nn = kappa.truncation_level
    return PosteriorSummary(
        mean=CoefficientSequence(w.mean_weight * y.y.values, nn),
        variance=CoefficientSequence(w.variance, nn),
        shrink_var=CoefficientSequence(w.shrink_var, nn),
    )


def posterior_draw(summary: PosteriorSummary, seed: int,
                   index: int = 0) -> CoefficientSequence:
    """One draw from the posterior; streams keyed (seed, "draw", index)."""
    nn = summary.mean.truncation_level
    z = substream(seed, "draw", index).standard_normal(nn)
    vals = summary.mean.values + np.sqrt(summary.variance.values) * z
    return CoefficientSequence(vals, nn)


def risk_decomposition(prior: PriorSpec, kappa: CoefficientSequence, n: float,
                       mu0: CoefficientSequence) -> RiskDecomposition:
    """Exact bias/variance/spread series at a known truth mu0 (no data)."""
    if mu0.truncation_level != kappa.truncation_level:
        raise ValueError("truncation mismatch between mu0 and kappa")
    w = posterior_weights(prior, kappa, n)
    sq_bias = compensated_sum((mu0.values * w.one_minus_gain) ** 2)
    est_var = compensated_sum(w.shrink_var)
    spread = compensated_sum(w.variance)
    tail = None
    lam_tail = prior_tail_bound(prior, kappa.truncation_level)
    if mu0.tail_tol is not None:
        tail = mu0.tail_tol**2 + 2.0 * lam_tail
    return RiskDecomposition(sq_bias=sq_bias, estimator_variance=est_var,
                             posterior_spread=spread, tail_tol=tail)


def posterior_mean_function(summary: PosteriorSummary, x_grid) -> np.ndarray:
    """Synthesis sum_i mean_i e_i(x) of the posterior mean on a grid."""
    return GridSynthesis(x_grid).series(summary.mean.values)
