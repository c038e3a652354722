"""Prior variance families for the product Gaussian prior.

Two families index smoothness by alpha > 0:

* polynomial: lambda_i = tau^2 i^(-1-2 alpha), with a free scale tau > 0
* exponential: lambda_i = exp(-alpha i^2), no scale (tau fixed to 1)

Rate-matched scaling of tau balances prior smoothness alpha against a
target smoothness beta of the truth.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numeric import LOG_TINY, UNDERFLOW
from .sequence import CoefficientSequence, bin_range, power_sums


class PriorFamily(enum.Enum):
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"


class FunctionalMode(enum.Enum):
    """Whether a scaling targets the full parameter or a linear functional."""
    FULL = "full"
    FUNCTIONAL = "functional"


@dataclass(frozen=True)
class PriorSpec:
    kind: PriorFamily
    alpha: float
    tau: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("prior smoothness alpha must be positive and finite")
        if not 0 < self.tau < math.inf:
            raise ValueError("prior scale tau must be positive and finite")
        if self.kind is PriorFamily.EXPONENTIAL and self.tau != 1.0:
            raise ValueError(
                "the exponential family has no scale parameter; tau must stay 1"
            )

    @staticmethod
    def polynomial(alpha: float, tau: float = 1.0) -> "PriorSpec":
        return PriorSpec(PriorFamily.POLYNOMIAL, alpha, tau)

    @staticmethod
    def exponential(alpha: float) -> "PriorSpec":
        return PriorSpec(PriorFamily.EXPONENTIAL, alpha)

    def log_variances(self, truncation_level: int) -> np.ndarray:
        """log lambda_i, finite even where lambda_i underflows."""
        i = np.arange(1, truncation_level + 1, dtype=float)
        if self.kind is PriorFamily.POLYNOMIAL:
            return 2.0 * math.log(self.tau) - (1.0 + 2.0 * self.alpha) * np.log(i)
        return -self.alpha * i**2

    def variance_values(self, truncation_level: int) -> np.ndarray:
        """lambda_1..lambda_N in linear space, one value per index."""
        return self.variance_sums(1, truncation_level)

    def variance_sums(self, first, last: int,
                      period: int | None = None) -> np.ndarray:
        """lambda_first..lambda_last summed over the residues of i mod period
        (one bin per index when period is None; see sequence.bin_range):
        tau^2 times a Hurwitz-zeta power sum for the polynomial family, and
        for the exponential family a direct sum that stops where
        exp(-alpha i^2) underflows to 0.  With a period, `first` may be a
        sequence of starts, for one row of bins per start (as power_sums)."""
        if self.kind is PriorFamily.POLYNOMIAL:
            return (self.tau * self.tau) * power_sums(
                1.0 + 2.0 * self.alpha, first, last, period)
        if np.ndim(first):
            if period is None:
                raise ValueError("several starts need a period")
            return np.stack([self.variance_sums(f, last, period)
                             for f in first])
        cap = math.sqrt(UNDERFLOW / self.alpha)
        stop = last if period is None or cap >= last else int(cap) + 1
        i = np.arange(first, stop + 1, dtype=float)
        return bin_range(first, np.exp(-self.alpha * i**2), period)

    def with_tau(self, tau: float) -> "PriorSpec":
        return PriorSpec(self.kind, self.alpha, tau)


def prior_variances(spec: PriorSpec, truncation_level: int) -> CoefficientSequence:
    """lambda_1..lambda_N for the family, with an analytic tail-sum bound."""
    if truncation_level < 1:
        raise ValueError("truncation_level must be a positive integer")
    vals = spec.variance_values(truncation_level)
    nn = truncation_level
    if spec.kind is PriorFamily.POLYNOMIAL:
        # integral bound: sum_{i>N} tau^2 i^(-1-2a) <= tau^2 N^(-2a) / (2a)
        tail = spec.tau**2 * nn ** (-2.0 * spec.alpha) / (2.0 * spec.alpha)
    else:
        # geometric-in-i^2 bound
        a = spec.alpha
        tail = math.exp(max(-a * (nn + 1) ** 2, LOG_TINY)) / -math.expm1(-a * (2 * nn + 3))
    return CoefficientSequence(vals, truncation_level, tail_tol=tail)


def rate_matched_tau(alpha: float, beta: float, n: float,
                     mode: FunctionalMode = FunctionalMode.FULL) -> float:
    """Scale tau_n balancing a prior of smoothness alpha against truth in S^beta.

    Full-parameter problem: tau_n = (log n)^((alpha - beta)/2).
    Linear functionals:     tau_n = (log n)^((1/2 + alpha - beta)/2).
    The proportionality constant is fixed to 1 so experiments are
    reproducible; only the order matters for the asymptotics.
    """
    if not alpha > 0 or not beta > 0:
        raise ValueError("alpha and beta must be positive")
    if not n > math.e:
        raise ValueError("rate-matched scaling needs n > e so that log n > 1")
    if mode is FunctionalMode.FULL:
        expo = (alpha - beta) / 2.0
    else:
        expo = (0.5 + alpha - beta) / 2.0
    return math.log(n) ** expo


@dataclass(frozen=True)
class ScalingRule:
    """How the polynomial scale tau is chosen as n varies: fixed without a
    beta_target, else rate_matched_tau against a truth in S^beta_target."""

    beta_target: float | None = None

    def __post_init__(self):
        if self.beta_target is not None and not self.beta_target > 0:
            raise ValueError("rate-matched scaling needs a positive beta_target")

    @staticmethod
    def fixed() -> "ScalingRule":
        return ScalingRule()

    @staticmethod
    def rate_matched(beta_target: float) -> "ScalingRule":
        if beta_target is None:
            raise ValueError("rate-matched scaling needs a positive beta_target")
        return ScalingRule(beta_target)

    def resolve(self, prior: PriorSpec, n: float,
                mode: FunctionalMode = FunctionalMode.FULL) -> PriorSpec:
        """Prior with tau resolved at signal-to-noise n."""
        if self.beta_target is None:
            return prior
        if prior.kind is PriorFamily.EXPONENTIAL:
            raise ValueError("the exponential family cannot be rescaled")
        tau = rate_matched_tau(prior.alpha, self.beta_target, n, mode)
        return prior.with_tau(tau)


def check_snr(spec: PriorSpec, n: float) -> None:
    """Warn when n tau^2 <= 1: the effective signal-to-noise of the scaled
    problem is too small for the asymptotic regime the scalings target."""
    if spec.kind is PriorFamily.POLYNOMIAL and n * spec.tau**2 <= 1.0:
        warnings.warn(
            f"n tau^2 = {n * spec.tau ** 2:.3g} <= 1; posterior is essentially "
            "prior-dominated at this noise level",
            stacklevel=3,
        )
