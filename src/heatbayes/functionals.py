"""Marginal posteriors and credible intervals for linear functionals.

A functional L mu = sum l_i mu_i is admissible under a prior with
variances lambda_i when sum l_i^2 lambda_i converges.  On a finite
truncation that is checked quantitatively: the last decade of stored
coordinates (i > 0.9 N) must contribute less than ADMISSIBLE_TAIL of the
total of l_i^2 lambda_i.  Point evaluation at x has representer
l_i = e_i(x) = sqrt(2) sin(i pi x), bounded, with decay exponent -1/2.

In the infinite model the value L mu is defined prior-almost-surely (and
set to 0 on the null set where the partial sums fail to converge); on a
finite truncation that null set is invisible, so no code path represents
it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta
from scipy.stats import norm

from .numeric import compensated_sum
from .posterior import PosteriorWeights, posterior_weights
from .priors import PriorFamily, PriorSpec
from .sequence import (
    AliasingFold,
    CoefficientSequence,
    ObservationSet,
    basis_columns,
    basis_matrix,
)

# Maximum allowed relative mass of the last decade of l_i^2 lambda_i.
ADMISSIBLE_TAIL = 1e-8

# basis columns per block of the direct (non-uniform grid) synthesis
_CHUNK = 8192


class FunctionalKind(enum.Enum):
    POINT_EVALUATION = "point_evaluation"
    SOBOLEV_REPRESENTER = "sobolev_representer"
    CUSTOM = "custom"


class InadmissibleFunctionalError(ValueError):
    """The representer's prior-weighted series has too much unresolved tail."""


@dataclass(frozen=True)
class LinearFunctional:
    """Representer-based functional L mu = sum l_i mu_i.

    q_decay, when declared, records the exponent q with |l_i| ~ i^(-q-1/2);
    point evaluation has q = -1/2.
    """

    l: CoefficientSequence
    kind: FunctionalKind = FunctionalKind.CUSTOM
    q_decay: float | None = None
    x: float | None = None

    @staticmethod
    def point_evaluation(x: float, truncation_level: int) -> "LinearFunctional":
        vals = basis_matrix([x], truncation_level)[0]
        return LinearFunctional(
            l=CoefficientSequence(vals, truncation_level),
            kind=FunctionalKind.POINT_EVALUATION,
            q_decay=-0.5,
            x=x,
        )

    @staticmethod
    def sobolev_representer(x: float, beta: float,
                            truncation_level: int) -> "LinearFunctional":
        """Riesz representer of point evaluation in the S^beta inner product."""
        i = np.arange(1, truncation_level + 1, dtype=float)
        vals = basis_matrix([x], truncation_level)[0] * i ** (-2.0 * beta)
        return LinearFunctional(
            l=CoefficientSequence(vals, truncation_level),
            kind=FunctionalKind.SOBOLEV_REPRESENTER,
            q_decay=2.0 * beta - 0.5,
            x=x,
        )

    @staticmethod
    def coordinate(index: int, truncation_level: int) -> "LinearFunctional":
        vals = np.zeros(truncation_level)
        vals[index - 1] = 1.0
        return LinearFunctional(l=CoefficientSequence(vals, truncation_level))

    @staticmethod
    def from_coefficients(values, q_decay: float | None = None) -> "LinearFunctional":
        vals = np.asarray(values, dtype=float)
        return LinearFunctional(
            l=CoefficientSequence(vals, vals.size), q_decay=q_decay
        )


@dataclass(frozen=True)
class FunctionalPosterior:
    """One-dimensional Gaussian posterior of L mu.

    spread_sq is the posterior variance s_n^2 = sum l_i^2 s_i; mean_var is
    t_n^2 = sum l_i^2 t_i, the sampling variance of the posterior mean
    under the true model, so mean_var <= spread_sq always.
    """

    mean: float
    spread_sq: float
    mean_var: float

    def __post_init__(self):
        if self.mean_var > self.spread_sq * (1 + 1e-12) + 1e-300:
            raise ValueError("mean_var cannot exceed spread_sq")

    @property
    def spread(self) -> float:
        return math.sqrt(self.spread_sq)


def check_admissible(L: LinearFunctional, prior: PriorSpec,
                     threshold: float = ADMISSIBLE_TAIL) -> float:
    """Validate sum l_i^2 lambda_i against the last-decade tail criterion.

    Returns the total of the series; raises InadmissibleFunctionalError when
    coordinates beyond 0.9 N still hold a relative mass >= threshold.
    A zero series (zero functional) is trivially admissible.
    """
    nn = L.l.truncation_level
    weighted = L.l.values**2 * prior.variance_values(nn)
    total = compensated_sum(weighted)
    if total == 0.0:
        return 0.0
    cut = int(math.floor(0.9 * nn))
    decade = compensated_sum(weighted[cut:])
    if not decade < threshold * total:
        raise InadmissibleFunctionalError(
            f"last-decade mass {decade / total:.3e} of sum l_i^2 lambda_i "
            f"exceeds {threshold:.1e}; raise the truncation level "
            f"(currently {nn}) or smooth the representer"
        )
    return total


def admissible_truncation(prior: PriorSpec, threshold: float = ADMISSIBLE_TAIL,
                          floor: int = 100) -> int:
    """Truncation level at which bounded representers (|l_i| <~ 1, q = -1/2)
    pass the admissibility check under the given prior.

    For the polynomial family the last-decade fraction of sum i^(-1-2a)
    behaves like N^(-2a) (0.9^(-2a) - 1) / (2a zeta(1+2a)); a safety factor
    absorbs the oscillation of actual sin^2 weights.  The exponential
    family passes at the floor.
    """
    if prior.kind is PriorFamily.EXPONENTIAL:
        return floor
    a = prior.alpha
    frac = (0.9 ** (-2.0 * a) - 1.0) * 1.5 / (2.0 * a * zeta(1.0 + 2.0 * a))
    need = (frac / threshold) ** (1.0 / (2.0 * a))
    return max(floor, int(math.ceil(need)))


def functional_posterior(L: LinearFunctional, prior: PriorSpec,
                         kappa: CoefficientSequence, n: float,
                         y: ObservationSet) -> FunctionalPosterior:
    """Marginal posterior N(sum l_i w_i y_i, sum l_i^2 s_i) of L mu."""
    if L.l.truncation_level != kappa.truncation_level:
        raise ValueError("truncation mismatch between representer and kappa")
    check_admissible(L, prior)
    w = posterior_weights(prior, kappa, n)
    lsq = L.l.values**2
    return FunctionalPosterior(
        mean=compensated_sum(L.l.values * w.mean_weight * y.y.values),
        spread_sq=compensated_sum(lsq * w.variance),
        mean_var=compensated_sum(lsq * w.shrink_var),
    )


def credible_interval(fp: FunctionalPosterior, gamma: float) -> tuple[float, float]:
    """Central interval of posterior mass 1 - gamma: mean -+ z_{gamma/2} s_n."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    z = norm.ppf(gamma / 2.0)  # negative
    s = fp.spread
    return (fp.mean + z * s, fp.mean - z * s)


def functional_bias(L: LinearFunctional, prior: PriorSpec,
                    kappa: CoefficientSequence, n: float,
                    mu0: CoefficientSequence) -> float:
    """|sum l_i mu0_i / (1 + a_i)|, the bias of the posterior mean for L mu."""
    if mu0.truncation_level != L.l.truncation_level:
        raise ValueError("truncation mismatch between representer and mu0")
    w = posterior_weights(prior, kappa, n)
    return abs(compensated_sum(L.l.values * mu0.values * w.one_minus_gain))


def point_evaluation_curves(weights: PosteriorWeights, y_values: np.ndarray,
                            x_grid, threshold: float = ADMISSIBLE_TAIL,
                            extra_coefficients: np.ndarray | None = None,
                            draw_streams=()):
    """Fused per-x marginal posterior over a grid, over all N coordinates.

    Returns (mean_x, sd_x, extra_x, draws_x): the point-evaluation posterior
    N(mean(x), sd(x)^2) at every grid point, optional extra coefficient
    columns (the true curve) and one posterior draw per generator in
    draw_streams, all synthesized against the same basis.  On the grid
    linspace(0, 1, M + 1) the coefficients fold exactly onto 2M residue bins
    (AliasingFold); a draw takes one normal per bin, the bin sum being
    N(sum of means, sum of variances), so it is exact in law.  Other grids
    are synthesized directly, with one normal per coordinate.

    Admissibility of the whole family is checked against its envelope: the
    last-decade mass of sum 2 lambda_i (which dominates l(x)_i^2 lambda_i
    uniformly in x) must stay below threshold.  A per-x relative check would
    require unbounded truncations near x = 0 and 1 where the totals vanish
    like x^2 while the tail does not.
    """
    x = np.asarray(x_grid, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    nn = weights.lam.size
    cut = int(math.floor(0.9 * nn))
    total_env = compensated_sum(weights.lam)
    decade_env = compensated_sum(weights.lam[cut:])
    if total_env > 0.0 and not decade_env < threshold * total_env:
        raise InadmissibleFunctionalError(
            f"point-evaluation family inadmissible: last-decade prior mass "
            f"{decade_env / total_env:.3e} exceeds {threshold:.1e}; raise "
            f"the truncation level (currently {nn})"
        )
    extra = [] if extra_coefficients is None else list(extra_coefficients.T)
    m = x.size - 1
    fold = (AliasingFold(m) if m > 0
            and np.array_equal(x, np.linspace(0.0, 1.0, m + 1)) else None)
    bins = np.asarray if fold is None else fold.bins
    mean_b = bins(weights.mean_weight * y_values)
    var_b = bins(weights.variance)
    columns = np.column_stack(
        [mean_b] + [bins(c) for c in extra]
        + [mean_b + np.sqrt(var_b) * g.standard_normal(var_b.size)
           for g in draw_streams])
    if fold is not None:
        curves = fold.table @ columns
        s2_x = (fold.table * fold.table) @ var_b
    else:
        curves = np.zeros((x.size, columns.shape[1]))
        s2_x = np.zeros(x.size)
        for start in range(0, nn, _CHUNK):
            E = basis_columns(x, start, min(start + _CHUNK, nn))
            curves += E @ columns[start:start + _CHUNK]
            s2_x += (E * E) @ var_b[start:start + _CHUNK]
    return (curves[:, 0], np.sqrt(s2_x), curves[:, 1:1 + len(extra)],
            curves[:, 1 + len(extra):].T)


def pointwise_band(prior: PriorSpec, kappa: CoefficientSequence, n: float,
                   y: ObservationSet, x_grid, gamma: float) -> np.ndarray:
    """Central 1 - gamma credible interval of mu(x) at every grid point.

    Returns an (m, 2) array of (lower, upper); bands collapse to (0, 0) at
    x = 0 and x = 1 where every basis function vanishes.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if y.y.truncation_level != kappa.truncation_level:
        raise ValueError("truncation mismatch between y and kappa")
    w = posterior_weights(prior, kappa, n)
    mean_x, sd_x, _, _ = point_evaluation_curves(w, y.y.values, x_grid)
    z = -norm.ppf(gamma / 2.0)
    return np.column_stack((mean_x - z * sd_x, mean_x + z * sd_x))
