"""Marginal posteriors and credible intervals for linear functionals.

A functional L mu = sum l_i mu_i is one of two kinds.  A point evaluation
mu(x) holds only x: its representer l_i = e_i(x) = sqrt(2) sin(i pi x) is
bounded, with decay exponent -1/2, and is formed over whatever range of i a
sum needs.  A finite-support functional holds only its values l_1..l_K,
with l_i = 0 past them, so its sums stop at K whatever the truncation and
it is admissible under every prior.

A point evaluation is admissible under a prior with variances lambda_i when
sum l_i^2 lambda_i converges.  On a truncation N that is checked
quantitatively (`_checked_mass`): the last decade of coordinates
(0.9 N < i <= N) must contribute less than ADMISSIBLE_TAIL of the total of
l_i^2 lambda_i.  Near x = 0 and 1, where it can fail, an interval at
x = p/q doubles N over one head until it passes (`_admissible_moments`).

Past the active head i <= N_h (sequence.active_head), kappa_i = 0 and the
posterior of mu_i is its prior, so every sum over N_h < i <= N involves
only lambda_i, the truth and l_i.  `point_evaluation_curves` on the grid
x_k = k/M and `functional_moments` for a point evaluation at x = p/q take
those sums over the residues of i mod 2M or mod 2q, on which l_i
depends, in closed form.  They cover the same N coordinates as an N-term
sum and equal it up to rounding, at O(N_h + 2M) or O(N_h + 2q) cost.
The prior's tail and its last decade come from one sequence.power_sums
call with two starts (`_checked_mass`), and past the head s_i = lambda_i,
so that tail is also the tail of the posterior variance and of the
admissibility total.  Other grids and points keep one term per
coordinate, the decade being a suffix of the tail.

In the infinite model the value L mu is defined prior-almost-surely (and
set to 0 on the null set where the partial sums fail to converge); on a
finite truncation that null set is invisible, so no code path represents
it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .numeric import MAX_HEAD, UNDERFLOW, compensated_sum, sinpi
from .posterior import PosteriorWeights, _check_observations, posterior_weights
from .priors import PriorFamily, PriorSpec
from .sequence import (
    CoefficientSequence,
    GridSynthesis,
    ObservationSet,
    _grid,
    basis_columns,
    power_sums,
)

# Maximum allowed relative mass of the last decade of l_i^2 lambda_i.
ADMISSIBLE_TAIL = 1e-8

# Least truncation level admissible_truncation returns.
TRUNCATION_FLOOR = 100

# the cap on doubling: the longest range sequence.power_sums is verified for
_MAX_DOUBLED_TRUNCATION = 10**9


class InadmissibleFunctionalError(ValueError):
    """The representer's prior-weighted series has too much unresolved tail."""


@dataclass(frozen=True)
class LinearFunctional:
    """L mu = sum l_i mu_i: the point evaluation mu(x), holding only x, or a
    finite-support functional, holding only its values l_1..l_K (l_i = 0
    for i > K).  Each representer is formed over the range a sum needs.
    """

    x: float | None = None
    values: tuple | None = None

    def __post_init__(self):
        if (self.x is None) == (self.values is None):
            raise ValueError("a functional holds either x or its values")
        if self.x is not None:
            object.__setattr__(self, "x", float(_grid(self.x)))
        elif not all(map(math.isfinite, self.values)):
            raise ValueError("a functional's values must be finite")

    @staticmethod
    def point_evaluation(x: float, truncation_level=None) -> "LinearFunctional":
        """mu(x), x in [0, 1].  truncation_level is ignored, as l is formed
        over the range each sum needs; bench/workloads.py still passes it."""
        return LinearFunctional(x=x)

    @staticmethod
    def coordinate(index: int) -> "LinearFunctional":
        """mu_index, for an integer index >= 1."""
        if (isinstance(index, bool) or not isinstance(index, numbers.Integral)
                or index < 1):
            raise ValueError(f"coordinate index must be an integer of at "
                             f"least 1, got {index!r}")
        return LinearFunctional(values=(0.0,) * (index - 1) + (1.0,))

    @staticmethod
    def from_coefficients(values) -> "LinearFunctional":
        return LinearFunctional(values=tuple(float(v) for v in values))


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


def _check_decade(total: float, decade: float, nn: int, what: str) -> None:
    """Raises InadmissibleFunctionalError unless `decade`, the mass of a
    nonnegative series over the last decade of i <= N, is less than
    ADMISSIBLE_TAIL of its nonzero `total` over i <= N."""
    if total != 0.0 and not decade < ADMISSIBLE_TAIL * total:
        raise InadmissibleFunctionalError(
            f"{what}: last-decade mass {decade / total:.3e} exceeds "
            f"{ADMISSIBLE_TAIL:.1e}; raise the truncation level "
            f"(currently {nn}) or smooth the representer"
        )


def _checked_mass(head_mass: np.ndarray, prior: PriorSpec, weight, nn: int,
                  period: int | None, what: str):
    """(tail bins, tail mass) of a nonnegative series over i <= N = nn, after
    _check_decade on its last decade, i > 0.9 N.  Its terms are `head_mass`
    on the head i <= N_h and weight * lambda_i on the prior-only tail past
    it, `weight` a scalar or one value per bin; the tail bins are lambda_i
    binned at `period` as sequence.bin_range bins them, (None, 0.0) for
    N <= N_h.  With a period the tail and its decade come from one
    variance_sums call with two starts; without one, the decade is a suffix
    of the per-index bins."""
    nh = head_mass.size
    decade = int(math.floor(0.9 * nn)) + 1
    total = compensated_sum(head_mass)
    decade_mass = compensated_sum(head_mass[decade - 1:])
    lam, tail = None, 0.0
    if nn > nh:
        d = max(decade, nh + 1)
        if period is None:
            lam = prior.variance_sums(nh + 1, nn)
            mass = weight * lam
            mass_d = mass[d - nh - 1:]
        else:
            lam, lam_d = prior.variance_sums((nh + 1, d), nn, period)
            mass, mass_d = weight * lam, weight * lam_d
        tail, tail_decade = float(mass.sum()), float(mass_d.sum())
        total += tail
        decade_mass += tail_decade
    _check_decade(total, decade_mass, nn, what)
    return lam, tail


# no active head: the posterior of every coordinate is its prior
_NO_HEAD = PosteriorWeights(*(np.zeros(0),) * 6)


def check_admissible(L: LinearFunctional, prior: PriorSpec,
                     truncation_level: int) -> float:
    """The total of sum l_i^2 lambda_i over the coordinates L reaches: the
    posterior variance of functional_moments with no active head, so over
    i <= N = truncation_level for a point evaluation, whose last-decade
    check may raise InadmissibleFunctionalError, and over the whole support
    of a finite-support functional, admissible under every prior."""
    return functional_moments(L, _NO_HEAD, prior, truncation_level)[0]


def _point_fraction(L: LinearFunctional, tail_length: int) -> Fraction | None:
    """x = p/q for a point evaluation whose x is exactly the double nearest
    p/q with 2q <= tail_length (so that residue bins are no longer than the
    tail they sum), else None."""
    if L.x is None:
        return None
    f = Fraction(L.x).limit_denominator(max(1, tail_length // 2))
    return f if float(f) == L.x else None


def _representer(L: LinearFunctional, first: int, last: int,
                 frac: Fraction | None = None) -> np.ndarray:
    """l_first..l_last binned as sequence.bin_range bins them.  With frac =
    p/q, l_i = sqrt(2) sin(pi i p/q) depends on i only through i mod 2q, and
    the bins hold its 2q residue values; otherwise one value per index,
    finite-support values padded with zeros."""
    if frac is not None:
        period = 2 * frac.denominator
        r = np.arange(period)
        return math.sqrt(2.0) * sinpi(r * frac.numerator % period
                                      / frac.denominator)
    if L.x is None:
        vals = np.array(L.values[first - 1:last])
        return np.concatenate([vals, np.zeros(last - first + 1 - vals.size)])
    return basis_columns(np.array([L.x]), first - 1, last)[0]


def functional_moments(L: LinearFunctional, weights: PosteriorWeights,
                       prior: PriorSpec, truncation_level: int,
                       truth: np.ndarray | None = None, truth_sums=None):
    """(s_n^2, t_n^2, bias) of L over the coordinates it reaches: i <= N =
    truncation_level for a point evaluation, after checking its
    admissibility (InadmissibleFunctionalError), and the whole support
    i <= K of a finite-support functional, whatever N.

    s_n^2 = sum l_i^2 s_i is the posterior variance, t_n^2 = sum l_i^2 t_i
    the sampling variance of the posterior mean, and bias
    = -sum l_i (1 - g_i) mu0_i the bias of L muhat at a fixed truth mu0
    (0 without one).  `weights` and `truth` hold the head i <= N_h; past it
    the posterior is the prior (s = lambda, t = 0, g = 0) and
    truth_sums(first, last, period) sums mu0 over first <= i <= last as
    sequence.bin_range bins them.  For a point evaluation at x = p/q the
    tail sums run over the residues of i mod 2q.
    """
    nh = weights.lam.size
    top = truncation_level if L.values is None else len(L.values)
    frac = _point_fraction(L, top - nh)
    period = None if frac is None else 2 * frac.denominator
    l = _representer(L, 1, nh)
    lsq = l * l
    s2 = float((lsq * weights.variance).sum())
    t2 = float((lsq * weights.shrink_var).sum())
    # past the head s_i = lambda_i: the tail of s_n^2 is its mass
    lt = _representer(L, nh + 1, top, frac) if top > nh else None
    if L.values is None:
        s2 += _checked_mass(lsq * weights.lam, prior,
                            None if lt is None else lt * lt, top, period,
                            "sum l_i^2 lambda_i")[1]
    elif lt is not None:
        s2 += float((lt * lt * prior.variance_sums(nh + 1, top)).sum())
    bias = 0.0 if truth is None else -float((l * weights.one_minus_gain) @ truth)
    if truth is not None and lt is not None:
        bias -= float(lt @ truth_sums(nh + 1, top, period))
    return s2, t2, bias


def _admissible_moments(L: LinearFunctional, weights: PosteriorWeights,
                        prior: PriorSpec, truncation_level: int,
                        truth: np.ndarray | None = None, truth_sums=None):
    """functional_moments at the first of N, 2N, 4N, ... (N =
    truncation_level) whose admissibility check passes, over one head.

    Near x = 0 and 1 the check can fail at the prior's
    admissible_truncation, since sum l_i^2 lambda_i falls like x^2 while
    its last decade does not.  A point x = p/q, whose tail costs O(N_h + q)
    over the residues mod 2q, then doubles N up to _MAX_DOUBLED_TRUNCATION
    while 2q <= N - N_h; otherwise the check's error stands.  So N > N_h at
    every doubling, where sequence.active_head no longer depends on N, and
    the head `weights` serves them all.  The exponential family sums its
    tail term by term up to min(N, sqrt(746 / alpha)), where
    exp(-alpha i^2) underflows (PriorSpec.variance_sums), so it stops
    doubling once that sum would pass MAX_HEAD terms.
    """
    nn = truncation_level
    while True:
        try:
            return functional_moments(L, weights, prior, nn, truth, truth_sums)
        except InadmissibleFunctionalError:
            if (2 * nn > _MAX_DOUBLED_TRUNCATION
                    or _point_fraction(L, nn - weights.lam.size) is None
                    or (prior.kind is PriorFamily.EXPONENTIAL and min(
                        2 * nn, math.sqrt(UNDERFLOW / prior.alpha)) > MAX_HEAD)):
                raise
        nn *= 2


@functools.lru_cache(maxsize=8)
def _zeta(s: float) -> float:
    """zeta(s) = sum_{i >= 1} i^-s, s > 1, once per exponent in use."""
    return power_sums(s, 1, math.inf, 1)[0]


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
    zeta = _zeta(1.0 + 2.0 * a)
    frac = (0.9 ** (-2.0 * a) - 1.0) * 1.5 / (2.0 * a * zeta)
    need = (frac / ADMISSIBLE_TAIL) ** (1.0 / (2.0 * a))
    return max(TRUNCATION_FLOOR, int(math.ceil(need)))


def functional_posterior(L: LinearFunctional, prior: PriorSpec,
                         kappa: CoefficientSequence, n: float,
                         y: ObservationSet) -> FunctionalPosterior:
    """Marginal posterior N(sum l_i w_i y_i, sum l_i^2 s_i) of L mu; s_n^2,
    t_n^2 and the admissibility check are functional_moments' over the
    full-length weights, so a finite support longer than kappa's
    truncation adds the prior variances of the coordinates past it."""
    _check_observations(kappa, n, y)
    w = posterior_weights(prior, kappa, n)
    nn = kappa.truncation_level
    spread_sq, mean_var, _ = functional_moments(L, w, prior, nn)
    return FunctionalPosterior(
        mean=compensated_sum(_representer(L, 1, nn) * w.mean_weight
                             * y.y.values),
        spread_sq=spread_sq, mean_var=mean_var)


def credible_interval(fp: FunctionalPosterior, gamma: float) -> tuple[float, float]:
    """Central interval of posterior mass 1 - gamma: mean -+ z_{gamma/2} s_n."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    z = NormalDist().inv_cdf(gamma / 2.0)  # negative
    s = fp.spread
    return (fp.mean + z * s, fp.mean - z * s)


def point_evaluation_curves(weights: PosteriorWeights, y_values: np.ndarray,
                            x_grid, extra_coefficients: np.ndarray | None = None,
                            draw_normals=None, *, prior: PriorSpec | None = None,
                            truncation_level: int | None = None, extra_sums=()):
    """Fused per-x marginal posterior over a grid, over all N coordinates.

    Returns (mean_x, sd_x, extra_x, draws_x): the point-evaluation posterior
    N(mean(x), sd(x)^2) at every grid point, optional extra coefficient
    columns (the true curve) and one posterior draw per row of the draw
    matrix, all synthesized against the same basis (GridSynthesis).
    `draw_normals`, if given, maps the bin count b (M - 1 on the uniform
    grid below) to a (draws, b) matrix of standard normals, for instance
    functools.partial(rng.normal_matrix, seed, path, draws), the stream
    (seed, *path) read row-major, a row a draw.
    `weights`, `y_values` and the extra columns cover the head i <= N_h; a
    `truncation_level` N adds the coordinates N_h < i <= N, where w = 0
    (the mean needs only the head) and s = lambda_i of `prior`, and then
    `extra_sums` holds, per extra column, the function (first, last,
    period) -> its sums as sequence.bin_range bins them (ValueError without
    a prior or unless one per column).  On the grid linspace(0, 1, M + 1)
    the coefficients fold exactly onto 2M residue bins, whose tail bins of
    lambda and of the extra columns are closed-form sums, and those onto
    the M - 1 interior residues (GridSynthesis.bins); a draw takes one
    normal per interior residue r, the folded bin being N(its mean,
    v_r + v_(2M-r)), so it is exact in law.  Other grids are synthesized
    directly, with one term and one normal per coordinate.

    Admissibility of the whole family is checked against its envelope: the
    last-decade mass of sum 2 lambda_i over i <= N (which dominates
    l(x)_i^2 lambda_i uniformly in x; the sums past N_h in closed form)
    must stay below ADMISSIBLE_TAIL.  A per-x relative check would require
    unbounded truncations near x = 0 and 1 where the totals vanish like x^2
    while the tail does not.
    """
    frame = _curve_frame(weights, x_grid, extra_coefficients, prior,
                         truncation_level, extra_sums)
    return _curve_data(frame, weights.mean_weight * y_values, draw_normals)


def _curve_frame(weights, x_grid, extra, prior, truncation_level, extra_sums):
    """point_evaluation_curves' data-free half: (synthesis, mean tail bins,
    variance bins, sd bins, sd curve or None off the uniform grid, extra bins)."""
    syn = GridSynthesis(x_grid)
    nh = weights.lam.size
    extra = [] if extra is None else list(extra.T)
    nn = nh if truncation_level is None else truncation_level
    if truncation_level is not None and (
            prior is None or len(extra_sums) != len(extra)):
        raise ValueError("a tail needs a prior and one sum per extra column")
    lam_t, _ = _checked_mass(weights.lam, prior, 1.0, nn, syn.period,
                             "point-evaluation family, prior mass")
    extra_t = ([sums(nh + 1, nn, syn.period) for sums in extra_sums]
               if nn > nh else [None] * len(extra))
    # off the uniform grid one bin per index; w = 0 past the head
    mean_t = np.zeros(nn - nh) if nn > nh and syn.period is None else None
    var_b = syn.bins(weights.variance, lam_t, squared=True)
    sd_x = None if syn.fold is None else np.sqrt(syn.curves(variances=var_b)[1])
    return (syn, mean_t, var_b, np.sqrt(var_b), sd_x,
            np.array([syn.bins(c, t) for c, t in zip(extra, extra_t)]))


def _curve_data(frame, weighted_y, draw_normals=None):
    """Its data half: the bins of w_i y_i, the draws and one synthesis of all
    columns, off the uniform grid with the sd curve in the same chunk pass."""
    syn, mean_t, var_b, sd_b, sd_x, extra_b = frame
    mean_b = syn.bins(weighted_y, mean_t)
    z = (np.zeros((0, var_b.size)) if draw_normals is None
         else draw_normals(var_b.size))
    # mean, extra and draw columns side by side in one C-ordered matrix
    columns = np.empty((var_b.size, 1 + len(extra_b) + z.shape[0]))
    columns[:, 0] = mean_b
    columns[:, 1:1 + len(extra_b)] = extra_b.T
    draws = columns[:, 1 + len(extra_b):]
    np.multiply(sd_b[:, None], z.T, out=draws)
    draws += mean_b[:, None]
    curves, s2_x = syn.curves(columns, var_b if sd_x is None else None)
    return (curves[:, 0], sd_x if s2_x is None else np.sqrt(s2_x),
            curves[:, 1:1 + len(extra_b)], curves[:, 1 + len(extra_b):].T)


def pointwise_band(prior: PriorSpec, kappa: CoefficientSequence, n: float,
                   y: ObservationSet, x_grid, gamma: float) -> np.ndarray:
    """Central 1 - gamma credible interval of mu(x) at every grid point.

    Returns an (m, 2) array of (lower, upper); bands collapse to (0, 0) at
    x = 0 and x = 1 where every basis function vanishes.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    _check_observations(kappa, n, y)
    w = posterior_weights(prior, kappa, n)
    mean_x, sd_x, _, _ = point_evaluation_curves(w, y.y.values, x_grid)
    z = -NormalDist().inv_cdf(gamma / 2.0)
    return np.column_stack((mean_x - z * sd_x, mean_x + z * sd_x))
