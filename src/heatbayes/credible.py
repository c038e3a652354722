"""Credible balls for the full parameter and the quadratic-form quantiles
behind their radii.

Under the posterior, ||mu - muhat||^2 is distributed as U = sum s_i Z_i^2,
a nonnegative-weighted chi-square mixture; the credible radius solves
P(U < r^2) = 1 - gamma.  The honest frequentist radius solves the same
equation for the sampling distribution ||W + bias||^2 with coordinate
variances t_i.  Both quantiles are estimated by Monte Carlo: weight
sequences spanning hundreds of orders of magnitude make characteristic-
function inversion fragile, while the Monte Carlo error is quantifiable
and reported alongside each radius.  The same sampler draws the squared
errors of the fixed-truth coverage and risk experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import compensated_sum
from .posterior import PosteriorSummary, posterior_weights
from .priors import PriorSpec
from .rng import BLOCK, substream
from .sequence import CoefficientSequence


@dataclass(frozen=True)
class QuadraticForm:
    """Distribution of sum w_i Z_i^2 for nonnegative weights w."""

    weights: CoefficientSequence
    mean: float
    sd: float

    @staticmethod
    def from_weights(weights: CoefficientSequence) -> "QuadraticForm":
        w = weights.values
        if np.any(w < 0):
            raise ValueError("quadratic-form weights must be nonnegative")
        return QuadraticForm(
            weights=weights,
            mean=compensated_sum(w),
            sd=math.sqrt(2.0 * compensated_sum(w**2)),
        )


@dataclass(frozen=True)
class QuantileEstimate:
    """Monte Carlo quantile with its standard error."""

    value: float
    stderr: float
    draws: int

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class CredibleBall:
    """Ball of posterior mass 1 - level around the posterior mean."""

    center: CoefficientSequence
    radius: float
    level: float
    radius_stderr: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("credibility level gamma must lie in (0, 1)")
        if not self.radius > 0:
            raise ValueError("credible radius must be positive")

    def contains(self, mu: CoefficientSequence) -> bool:
        return float(np.linalg.norm(mu.values - self.center.values)) <= self.radius


def _form_draws(var: np.ndarray, bias: np.ndarray | None, mc_draws: int,
                seed: int, path: tuple) -> np.ndarray:
    """mc_draws samples of sum_i (b_i + sqrt(v_i) Z_i)^2, block-streamed.

    Only coordinates with v_i >= eps * max v are sampled: the others cannot
    affect double-precision sums through their noise, and each adds b_i^2
    as a fixed mass.  ``bias=None`` is the central form sum v_i Z_i^2.
    Blocks of fixed size are keyed (seed, *path, block); results do not
    depend on how blocks are assigned to workers.
    """
    active = var >= np.finfo(float).eps * var.max()
    w = var[active]
    shift = None if bias is None else bias[active]
    root = np.sqrt(w)
    out = []
    for block_idx, start in enumerate(range(0, mc_draws, BLOCK)):
        m = min(BLOCK, mc_draws - start)
        z = substream(seed, *path, block_idx).standard_normal((m, w.size))
        if shift is None:
            out.append(np.square(z) @ w)
        else:
            out.append(np.square(root * z + shift).sum(axis=1))
    draws = np.concatenate(out)
    if bias is None:
        return draws
    return draws + compensated_sum(bias[~active] ** 2)


def _empirical_quantile(draws: np.ndarray, p: float) -> QuantileEstimate:
    """Type-7 empirical quantile of sorted draws plus an order-statistic
    standard error (spacing of the +-1 sd order statistics)."""
    draws = np.sort(draws)
    m = draws.size
    value = float(np.quantile(draws, p, method="linear"))
    half = math.sqrt(m * p * (1.0 - p))
    k = p * (m - 1)
    k_lo = max(int(math.floor(k - half)), 0)
    k_hi = min(int(math.ceil(k + half)), m - 1)
    stderr = float(draws[k_hi] - draws[k_lo]) / 2.0
    return QuantileEstimate(value=value, stderr=stderr, draws=m)


def quadratic_form_quantile(q: QuadraticForm, p: float, mc_draws: int = 200_000,
                            seed: int = 0) -> QuantileEstimate:
    """x with P(sum w_i Z_i^2 <= x) = p, by Monte Carlo.

    Deterministic given (weights, p, mc_draws, seed).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level p must lie in (0, 1)")
    if mc_draws < 2:
        raise ValueError("mc_draws must be at least 2")
    w = q.weights.values
    if w.size == 0 or w.max() <= 0.0:
        raise ValueError("quadratic form needs at least one positive weight")
    return _empirical_quantile(_form_draws(w, None, mc_draws, seed, ("qf",)), p)


def credible_ball(summary: PosteriorSummary, gamma: float,
                  mc_draws: int = 200_000, seed: int = 0) -> CredibleBall:
    """Credible ball of mass 1 - gamma centered at the posterior mean.

    The radius depends only on (prior, kappa, n) through the posterior
    variances, never on the data.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    form = QuadraticForm.from_weights(summary.variance)
    est = quadratic_form_quantile(form, 1.0 - gamma, mc_draws, seed)
    radius = math.sqrt(est.value)
    return CredibleBall(
        center=summary.mean,
        radius=radius,
        level=gamma,
        radius_stderr=est.stderr / (2.0 * radius) if radius > 0 else 0.0,
    )


def frequentist_radius(prior: PriorSpec, kappa: CoefficientSequence, n: float,
                       mu0: CoefficientSequence, gamma: float,
                       mc_draws: int = 200_000, seed: int = 0) -> QuantileEstimate:
    """Radius giving the ball centered at muhat exact coverage 1 - gamma.

    Solves P(||W + E muhat - mu0|| <= r) = 1 - gamma where W has
    coordinate variances t_i; an oracle quantity (it needs mu0).
    Returns the radius with its rescaled Monte Carlo standard error.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if mu0.truncation_level != kappa.truncation_level:
        raise ValueError("truncation mismatch between mu0 and kappa")
    w = posterior_weights(prior, kappa, n)
    bias = -mu0.values * w.one_minus_gain
    t = w.shrink_var
    if t.max() <= 0.0:
        if not np.any(bias):
            raise ValueError("degenerate sampling distribution: no variance, no bias")
        return QuantileEstimate(value=math.sqrt(compensated_sum(bias**2)),
                                stderr=0.0, draws=0)
    est = _empirical_quantile(_form_draws(t, bias, mc_draws, seed, ("freq",)),
                              1.0 - gamma)
    radius = math.sqrt(est.value)
    return QuantileEstimate(
        value=radius,
        stderr=est.stderr / (2.0 * radius) if radius > 0 else 0.0,
        draws=est.draws,
    )
