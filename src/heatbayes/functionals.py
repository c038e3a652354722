"""Marginal posteriors and credible intervals for linear functionals.

A functional L mu = sum l_i mu_i is admissible under a prior with
variances lambda_i when sum l_i^2 lambda_i converges.  On a truncation N
that is checked quantitatively: the last decade of coordinates
(0.9 N < i <= N) must contribute less than ADMISSIBLE_TAIL of the total of
l_i^2 lambda_i.  Point evaluation at x has representer
l_i = e_i(x) = sqrt(2) sin(i pi x), bounded, with decay exponent -1/2.

Past the active head i <= N_h (sequence.active_head), kappa_i = 0 and the
posterior of mu_i is its prior, so every sum over N_h < i <= N involves
only lambda_i, the truth and l_i.  `point_evaluation_curves` on the grid
x_k = k/M and `functional_moments` for a point evaluation at x = p/q take
those sums, the admissibility totals and last decades among them, over
the residues of i mod 2M or mod 2q, on which l_i depends, in closed form.
They cover the same N coordinates as an N-term sum and equal it up to
rounding, at O(N_h + 2M) or O(N_h + 2q) cost.  Other grids and points
keep one term per coordinate.

In the infinite model the value L mu is defined prior-almost-surely (and
set to 0 on the null set where the partial sums fail to converge); on a
finite truncation that null set is invisible, so no code path represents
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .numeric import compensated_sum, sinpi
from .posterior import PosteriorWeights, posterior_weights
from .priors import PriorFamily, PriorSpec
from .sequence import (
    CoefficientSequence,
    GridSynthesis,
    ObservationSet,
    basis_columns,
    basis_matrix,
    power_sums,
)

# Maximum allowed relative mass of the last decade of l_i^2 lambda_i.
ADMISSIBLE_TAIL = 1e-8

# Least truncation level admissible_truncation returns.
TRUNCATION_FLOOR = 100


class InadmissibleFunctionalError(ValueError):
    """The representer's prior-weighted series has too much unresolved tail."""


@dataclass(frozen=True)
class LinearFunctional:
    """Representer-based functional L mu = sum l_i mu_i.

    x is set for the point evaluation at x, whose representer can be
    rebuilt at any truncation level.
    """

    l: CoefficientSequence
    x: float | None = None

    @staticmethod
    def point_evaluation(x: float, truncation_level: int) -> "LinearFunctional":
        vals = basis_matrix([x], truncation_level)[0]
        return LinearFunctional(CoefficientSequence(vals, truncation_level), x)

    @staticmethod
    def coordinate(index: int, truncation_level: int) -> "LinearFunctional":
        if not 1 <= index <= truncation_level:
            raise ValueError(f"coordinate index must lie in 1..{truncation_level}"
                             f", got {index}")
        vals = np.zeros(truncation_level)
        vals[index - 1] = 1.0
        return LinearFunctional(l=CoefficientSequence(vals, truncation_level))

    @staticmethod
    def from_coefficients(values) -> "LinearFunctional":
        vals = np.asarray(values, dtype=float)
        return LinearFunctional(l=CoefficientSequence(vals, vals.size))


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


@dataclass(frozen=True)
class PriorTail:
    """The coordinates N_h < i <= N past an active head of N_h posterior
    weights, where kappa_i = 0 and the posterior is the prior: g = 0,
    w = 0, s = lambda_i, t = 0.

    `extra` holds, for each extra coefficient column given with the head
    (a truth), the function (first, last, period) -> its sums over
    first <= i <= last, binned as sequence.bin_range bins them.
    """

    prior: PriorSpec
    truncation_level: int
    extra: tuple = ()


def _last_decade(mass, nn: int, what: str) -> float:
    """The total mass(1) of a nonnegative series over i <= N, where
    mass(first) sums it over first <= i <= N; raises
    InadmissibleFunctionalError unless the last decade, i > 0.9 N, holds
    less than ADMISSIBLE_TAIL of a nonzero total."""
    total = mass(1)
    decade = mass(int(math.floor(0.9 * nn)) + 1)
    if total != 0.0 and not decade < ADMISSIBLE_TAIL * total:
        raise InadmissibleFunctionalError(
            f"{what}: last-decade mass {decade / total:.3e} exceeds "
            f"{ADMISSIBLE_TAIL:.1e}; raise the truncation level "
            f"(currently {nn}) or smooth the representer"
        )
    return total


def check_admissible(L: LinearFunctional, prior: PriorSpec) -> float:
    """Validate sum l_i^2 lambda_i against the last-decade tail criterion.

    Returns the total of the series; raises InadmissibleFunctionalError when
    coordinates beyond 0.9 N still hold a relative mass >= ADMISSIBLE_TAIL.
    A zero series (zero functional) is trivially admissible.
    """
    nn = L.l.truncation_level
    weighted = L.l.values**2 * prior.variance_values(nn)
    return _last_decade(lambda first: compensated_sum(weighted[first - 1:]),
                        nn, "sum l_i^2 lambda_i")


def _tail_level(tail: PriorTail, extra_coefficients) -> int:
    """N, once the tail has one sum function per extra coefficient column."""
    columns = 0 if extra_coefficients is None else extra_coefficients.shape[1]
    if len(tail.extra) != columns:
        raise ValueError(f"the tail sums {len(tail.extra)} extra columns, "
                         f"the head has {columns}")
    return tail.truncation_level


def _point_fraction(L: LinearFunctional, tail_length: int) -> Fraction | None:
    """x = p/q for a point evaluation whose x is exactly the double nearest
    p/q with 2q <= tail_length (so that residue bins are no longer than the
    tail they sum), else None."""
    if L.x is None:
        return None
    x = float(L.x)
    f = Fraction(x).limit_denominator(max(1, tail_length // 2))
    return f if float(f) == x else None


def _representer(L: LinearFunctional, first: int, last: int,
                 frac: Fraction | None = None) -> np.ndarray:
    """l_first..l_last binned as sequence.bin_range bins them.  With frac =
    p/q, l_i = sqrt(2) sin(pi i p/q) depends on i only through i mod 2q, and
    the bins hold its 2q residue values; otherwise one value per index,
    custom representers padded with zeros."""
    if frac is not None:
        period = 2 * frac.denominator
        r = np.arange(period)
        return math.sqrt(2.0) * sinpi(r * frac.numerator % period
                                      / frac.denominator)
    if L.x is None:
        vals = L.l.values[first - 1:last]
        return np.concatenate([vals, np.zeros(last - first + 1 - vals.size)])
    return basis_columns(np.array([L.x]), first - 1, last)[0]


def functional_moments(L: LinearFunctional, weights: PosteriorWeights,
                       prior: PriorSpec, truncation_level: int,
                       truth: np.ndarray | None = None, truth_sums=None):
    """(s_n^2, t_n^2, bias) of L over the coordinates i <= N =
    truncation_level, after checking its admissibility
    (InadmissibleFunctionalError).

    s_n^2 = sum l_i^2 s_i is the posterior variance, t_n^2 = sum l_i^2 t_i
    the sampling variance of the posterior mean, and bias
    = -sum l_i (1 - g_i) mu0_i the bias of L muhat at a fixed truth mu0
    (0 without one).  `weights` and `truth` hold the head i <= N_h; past it
    the posterior is the prior (s = lambda, t = 0, g = 0) and
    truth_sums(first, last, period) sums mu0 over first <= i <= last as
    sequence.bin_range bins them.  For a point evaluation at x = p/q the
    tail sums run over the residues of i mod 2q; a custom representer is
    zero past its stored values.
    """
    nh, nn = weights.lam.size, truncation_level
    top = nn if L.x is not None else min(nn, L.l.truncation_level)
    frac = _point_fraction(L, nn - nh)
    period = None if frac is None else 2 * frac.denominator
    l = _representer(L, 1, nh)
    lsq = l * l
    head_mass = lsq * weights.lam
    lt = _representer(L, nh + 1, top, frac) if top > nh else np.zeros(0)

    def mass(first):  # sum of l_i^2 lambda_i over first <= i <= N
        out = compensated_sum(head_mass[first - 1:])
        lo = max(first, nh + 1)
        if top >= lo:
            lb = lt if frac is not None else lt[lo - nh - 1:]
            out += float((lb * lb * prior.variance_sums(
                lo, top, period)).sum())
        return out

    _last_decade(mass, nn, "sum l_i^2 lambda_i")
    s2 = float((lsq * weights.variance).sum())
    t2 = float((lsq * weights.shrink_var).sum())
    bias = 0.0 if truth is None else -float((l * weights.one_minus_gain) @ truth)
    if top > nh:
        s2 += float((lt * lt * prior.variance_sums(nh + 1, top, period)).sum())
        if truth is not None:
            bias -= float(lt @ truth_sums(nh + 1, top, period))
    return s2, t2, bias


def admissible_truncation(prior: PriorSpec) -> int:
    """Truncation level at which bounded representers (|l_i| <~ 1, q = -1/2)
    pass the admissibility check under the given prior.

    For the polynomial family the last-decade fraction of sum i^(-1-2a)
    behaves like N^(-2a) (0.9^(-2a) - 1) / (2a zeta(1+2a)); a safety factor
    absorbs the oscillation of actual sin^2 weights.  The exponential
    family passes at TRUNCATION_FLOOR.
    """
    if prior.kind is PriorFamily.EXPONENTIAL:
        return TRUNCATION_FLOOR
    a = prior.alpha
    zeta = power_sums(1.0 + 2.0 * a, 1, math.inf, 1)[0]
    frac = (0.9 ** (-2.0 * a) - 1.0) * 1.5 / (2.0 * a * zeta)
    need = (frac / ADMISSIBLE_TAIL) ** (1.0 / (2.0 * a))
    return max(TRUNCATION_FLOOR, int(math.ceil(need)))


def functional_posterior(L: LinearFunctional, prior: PriorSpec,
                         kappa: CoefficientSequence, n: float,
                         y: ObservationSet) -> FunctionalPosterior:
    """Marginal posterior N(sum l_i w_i y_i, sum l_i^2 s_i) of L mu; s_n^2,
    t_n^2 and the admissibility check are functional_moments' over the
    full-length weights."""
    if L.l.truncation_level != kappa.truncation_level:
        raise ValueError("truncation mismatch between representer and kappa")
    w = posterior_weights(prior, kappa, n)
    spread_sq, mean_var, _ = functional_moments(L, w, prior,
                                                kappa.truncation_level)
    return FunctionalPosterior(
        mean=compensated_sum(L.l.values * w.mean_weight * y.y.values),
        spread_sq=spread_sq, mean_var=mean_var)


def credible_interval(fp: FunctionalPosterior, gamma: float) -> tuple[float, float]:
    """Central interval of posterior mass 1 - gamma: mean -+ z_{gamma/2} s_n."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    z = NormalDist().inv_cdf(gamma / 2.0)  # negative
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
                            x_grid, extra_coefficients: np.ndarray | None = None,
                            draw_normals=None, tail: PriorTail | None = None):
    """Fused per-x marginal posterior over a grid, over all N coordinates.

    Returns (mean_x, sd_x, extra_x, draws_x): the point-evaluation posterior
    N(mean(x), sd(x)^2) at every grid point, optional extra coefficient
    columns (the true curve) and one posterior draw per row of the draw
    matrix, all synthesized against the same basis (GridSynthesis).
    `draw_normals`, if given, maps the bin count b to a (draws, b) matrix of
    standard normals, for instance functools.partial(rng.normal_matrix,
    seed, path, draws), whose row j is stream (*path, j).
    `weights`, `y_values` and the extra columns cover the head i <= N_h;
    `tail` adds the coordinates N_h < i <= N, where w = 0 (the mean needs
    only the head) and s = lambda.  On the grid linspace(0, 1, M + 1) the
    coefficients fold exactly onto 2M residue bins, and the tail's bins of
    lambda and of the extra columns are closed-form sums; a draw takes one
    normal per bin, the bin sum being N(sum of means, sum of variances), so
    it is exact in law.  Other grids are synthesized directly, with one
    term and one normal per coordinate.

    Admissibility of the whole family is checked against its envelope: the
    last-decade mass of sum 2 lambda_i over i <= N (which dominates
    l(x)_i^2 lambda_i uniformly in x; the sums past N_h in closed form)
    must stay below ADMISSIBLE_TAIL.  A per-x relative check would require
    unbounded truncations near x = 0 and 1 where the totals vanish like x^2
    while the tail does not.
    """
    syn = GridSynthesis(x_grid)
    nh = weights.lam.size
    nn = nh if tail is None else _tail_level(tail, extra_coefficients)

    def prior_mass(first):  # sum of lambda_i over first <= i <= N
        out = compensated_sum(weights.lam[first - 1:])
        if nn > nh:
            lo = max(first, nh + 1)
            out += float(tail.prior.variance_sums(lo, nn, 1)[0])
        return out

    _last_decade(prior_mass, nn, "point-evaluation family, prior mass")
    extra = [] if extra_coefficients is None else list(extra_coefficients.T)
    lam_t = mean_t = None
    extra_t = [None] * len(extra)
    if nn > nh:
        lam_t = tail.prior.variance_sums(nh + 1, nn, syn.period)
        extra_t = [sums(nh + 1, nn, syn.period) for sums in tail.extra]
        if syn.period is None:  # one bin per index; w = 0 past the head
            mean_t = np.zeros(nn - nh)
    mean_b = syn.bins(weights.mean_weight * y_values, mean_t)
    var_b = syn.bins(weights.variance, lam_t)
    sd_b = np.sqrt(var_b)
    z = () if draw_normals is None else draw_normals(var_b.size)
    # one 1-D column per draw keeps the stacked columns C-ordered
    columns = np.column_stack(
        [mean_b] + [syn.bins(c, t) for c, t in zip(extra, extra_t)]
        + [mean_b + sd_b * row for row in z])
    curves, s2_x = syn.curves(columns, var_b)
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
    z = -NormalDist().inv_cdf(gamma / 2.0)
    return np.column_stack((mean_x - z * sd_x, mean_x + z * sd_x))
