"""Numerical probes of the series asymptotics that drive the posterior
rates: crossover indices, damped-series envelopes, Sobolev-ball suprema,
weighted-sum bounds, and the Gaussian-tail integral estimates.

Every series over i >= 1 is an exact head plus a closed form.  Past the
head length K = floor(sqrt((max(log N, 0) + 746)/p)) + 1 the damping
N i^-u e^{-p i^2} is below e^-746, which underflows to exactly 0, so each
term equals i^-t e^{-r i^2} in double precision.  For r > 0 K is raised to
at least floor(sqrt(746/r)) + 1, past which those terms underflow too; for
r = 0 they sum to the Hurwitz zeta(t, K + 1).  No truncation error is
dropped.  Envelope comparisons are reported as RatioTrace tables over a
grid of N values.  The quantitative surrogates
("within a factor 4", "monotone over the top grid points") are calibration
choices of this artifact, not sharp mathematical statements; reports label
them as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import lambertw, zeta

from .numeric import LOG_TINY, log1pexp
from .sequence import CoefficientSequence

DEFAULT_N_GRID = (1e4, 1e8, 1e12, 1e16)

_CHUNK = 262144
# e^-746 rounds to exactly 0 in double precision
_UNDERFLOW = 746.0


@dataclass(frozen=True)
class LemmaParams:
    """Exponents of the damped series i^-t e^{-r i^2} (1 + N i^-u e^{-p i^2})^-v
    and the Sobolev weight i^{-2q}."""

    t: float = 0.0
    u: float = 0.0
    v: float = 1.0
    r: float = 0.0
    p: float = 1.0
    q: float = 0.0
    N_grid: tuple = DEFAULT_N_GRID

    def __post_init__(self):
        if any(not 1 < N < math.inf for N in self.N_grid):
            raise ValueError("every N grid value must be finite and exceed 1")

    def validate_series(self) -> None:
        if self.t < 0 or self.u < 0 or self.v < 0:
            raise ValueError("series constraints require t, u, v >= 0")
        if not self.p > 0:
            raise ValueError("series constraints require p > 0")
        if not 0 <= self.r < self.v * self.p:
            raise ValueError("series constraints require 0 <= r < v p")
        if self.r == 0 and not self.t > 1:
            raise ValueError("undamped series (r = 0) diverges unless t > 1")

    def validate_norm(self) -> None:
        if self.u < 0 or self.v < 0:
            raise ValueError("norm constraints require u, v >= 0")
        if self.t < -2 * self.q:
            raise ValueError("norm constraints require t >= -2q")
        if not self.p > 0:
            raise ValueError("norm constraints require p > 0")
        if not 0 <= self.r < self.v * self.p:
            raise ValueError("norm constraints require 0 <= r < v p")

    def validate_csbound(self) -> None:
        if self.t < 0:
            raise ValueError("weighted-sum constraints require t >= 0")
        if not (self.u > 0 and self.p > 0):
            raise ValueError("weighted-sum constraints require u, p > 0")
        if not self.q > -self.t / 2:
            raise ValueError("weighted-sum constraints require q > -t/2")


@dataclass(frozen=True)
class RatioTrace:
    """Exact values against a predicted envelope along a grid.

    exact or predicted may overflow to inf individually; ratio is always
    formed in a representable way.
    """

    grid: np.ndarray
    exact: np.ndarray
    predicted: np.ndarray
    ratio: np.ndarray
    label: str = ""

    def band(self) -> float:
        """max/min of the ratio over the grid."""
        return float(self.ratio.max() / self.ratio.min())

    def decreasing_over_top(self, k: int = 3) -> bool:
        top = self.ratio[-k:]
        return bool(np.all(np.diff(top) < 0))


def crossover_index(N: float, u: float, p: float) -> float:
    """Unique positive root of N i^-u e^{-p i^2} = 1, to 1e-12 relative.

    Bisection on the strictly decreasing h(i) = log N - u log i - p i^2;
    the closed Lambert-W form is used only as a cross-check in tests.
    """
    if not N > 1:
        raise ValueError("crossover index needs N > 1")
    if u < 0 or not p > 0:
        raise ValueError("crossover index needs u >= 0 and p > 0")
    logN = math.log(N)

    def h(i: float) -> float:
        return logN - u * math.log(i) - p * i * i

    lo, hi = 1e-12, math.sqrt(logN / p) + u + 10.0
    if h(hi) >= 0:
        raise ArithmeticError("bisection bracket failed to cover the root")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossover_index_lambertw(N: float, u: float, p: float) -> float:
    """Closed form via the Lambert W function; cross-check only."""
    if u == 0:
        return math.sqrt(math.log(N) / p)
    z = (2.0 * p / u) * N ** (2.0 / u)
    return math.sqrt(u / (2.0 * p) * float(lambertw(z).real))


def _log_terms(i: np.ndarray, params: LemmaParams, logN: float) -> np.ndarray:
    logi = np.log(i)
    x = logN - params.u * logi - params.p * i * i
    return -params.t * logi - params.r * i * i - params.v * log1pexp(x)


def _head(params: LemmaParams, logN: float) -> int:
    """K past which the damping N i^-u e^{-p i^2} underflows to exactly 0,
    so that every term past K is exactly i^-t e^{-r i^2}."""
    return int(math.sqrt((max(logN, 0.0) + _UNDERFLOW) / params.p)) + 1


def _blocks(K: int):
    """The indices 1..K as float arrays of at most _CHUNK entries."""
    for start in range(1, K + 1, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, K + 1), dtype=float)


def _trace(label: str, params: LemmaParams, value, envelope) -> RatioTrace:
    """value(N) against envelope(N) along params.N_grid."""
    grid = np.asarray(params.N_grid, dtype=float)
    exact = np.array([value(N) for N in grid])
    pred = np.array([envelope(N) for N in grid])
    return RatioTrace(grid=grid, exact=exact, predicted=pred,
                      ratio=exact / pred, label=label)


def lemma_series_value(params: LemmaParams, N: float) -> float:
    """sum_{i>=1} i^-t e^{-r i^2} / (1 + N i^-u e^{-p i^2})^v.

    The head i <= K is summed directly in blocks combined by fsum; the
    rest is 0 for r > 0 and zeta(t, K + 1) for r = 0.
    """
    params.validate_series()
    if not N > 0:
        raise ValueError("N must be positive")
    logN = math.log(N)
    K = _head(params, logN)
    if params.r > 0:  # past sqrt(746/r) the terms underflow to 0 as well
        K = max(K, int(math.sqrt(_UNDERFLOW / params.r)) + 1)
    parts = []
    for i in _blocks(K):
        lt = _log_terms(i, params, logN)
        parts.append(float(np.sum(np.exp(lt[lt > LOG_TINY]))))
    if params.r == 0:
        parts.append(float(zeta(params.t, K + 1)))
    return math.fsum(parts)


def series_envelope(params: LemmaParams, N: float) -> float:
    """Predicted envelope N^{-r/p} (log N)^{-t/2 + u r/(2p)}, or the
    (log N)^{-(t+1)/2} form for the undamped case r = 0."""
    logN = math.log(N)
    if params.r == 0:
        return logN ** (-(params.t + 1.0) / 2.0)
    return (math.exp(-params.r / params.p * logN)
            * logN ** (-params.t / 2.0 + params.u * params.r / (2.0 * params.p)))


def lemma_series_trace(params: LemmaParams) -> RatioTrace:
    return _trace("series", params, lambda N: lemma_series_value(params, N),
                  lambda N: series_envelope(params, N))


def lemma_norm_sup(params: LemmaParams, N: float) -> float:
    """sup over the Sobolev ball ||xi||_q <= 1 of
    sum xi_i^2 i^-t e^{-r i^2} / (1 + N i^-u e^{-p i^2})^v.

    The quadratic objective concentrates on one coordinate, so the sup is
    exactly max_i i^{-t-2q} e^{-r i^2} / (1 + N i^-u e^{-p i^2})^v.  Past
    the head the terms are i^{-t-2q} e^{-r i^2} with t + 2q >= 0, which do
    not increase, so the max over i <= K + 1 is the sup (1 when r = 0 and
    t + 2q = 0: the terms climb to 1 as the damping dies out).
    """
    params.validate_norm()
    if not N > 1:
        raise ValueError("N must exceed 1")
    shifted = replace(params, t=params.t + 2.0 * params.q)
    logN = math.log(N)
    return math.exp(max(float(_log_terms(i, shifted, logN).max())
                        for i in _blocks(_head(shifted, logN) + 1)))


def norm_sup_envelope(params: LemmaParams, N: float) -> float:
    logN = math.log(N)
    return (math.exp(-params.r / params.p * logN)
            * logN ** (-params.t / 2.0 - params.q
                       + params.u * params.r / (2.0 * params.p)))


def lemma_norm_trace(params: LemmaParams) -> RatioTrace:
    return _trace("norm-sup", params, lambda N: lemma_norm_sup(params, N),
                  lambda N: norm_sup_envelope(params, N))


def lemma_fixed_sequence_trace(params: LemmaParams, decay: float) -> RatioTrace:
    """Normalized series for the fixed sequence xi_i = i^-decay: the value
    times the reciprocal envelope, expected to decrease toward zero when
    xi lies strictly inside S^q."""
    shifted = replace(params, t=params.t + 2.0 * decay)
    return _trace("fixed-sequence", params,
                  lambda N: lemma_series_value(shifted, N),
                  lambda N: norm_sup_envelope(params, N))


def sobolev_blocks_decreasing(mu: CoefficientSequence, t: float) -> bool:
    """Dyadic-block surrogate for mu in S^{t/2} on a finite truncation.

    Sums mu_i^2 i^t over blocks [2^k, 2^{k+1}) and requires the top three
    complete blocks to be nonincreasing.  Detects polynomial-boundary
    violations; sequences exactly at the membership boundary can defeat
    any finite test.
    """
    i = np.arange(1, mu.truncation_level + 1, dtype=float)
    weighted = mu.values**2 * i**t
    k_max = int(math.floor(math.log2(mu.truncation_level + 1))) - 1
    if k_max < 3:
        return True  # too short to judge; accept
    blocks = []
    for k in range(k_max + 1):
        lo, hi = 2**k, min(2 ** (k + 1), mu.truncation_level + 1)
        blocks.append(float(weighted[lo - 1:hi - 1].sum()))
    b1, b2, b3 = blocks[-3], blocks[-2], blocks[-1]
    return b3 <= b2 <= b1


def lemma_csbound_value(mu: CoefficientSequence, params: LemmaParams,
                        N: float) -> float:
    """sum_i |mu_i| i^{-q-1/2} / (1 + N i^-u e^{-p i^2}) over the truncation."""
    i = np.arange(1, mu.truncation_level + 1, dtype=float)
    weights = replace(params, t=params.q + 0.5, r=0.0, v=1.0)
    terms = np.abs(mu.values) * np.exp(_log_terms(i, weights, math.log(N)))
    return float(terms.sum())


def lemma_csbound_check(mu: CoefficientSequence, params: LemmaParams) -> RatioTrace:
    """Trace of the weighted sum times (log N)^{t/2+q} along the N grid.

    Precondition: mu passes the dyadic S^{t/2} membership surrogate.
    """
    params.validate_csbound()
    if not sobolev_blocks_decreasing(mu, params.t):
        raise ValueError(
            f"coefficients fail the S^{params.t / 2:g} membership check "
            "(dyadic block sums of mu_i^2 i^t are increasing)"
        )
    power = params.t / 2.0 + params.q
    return _trace("weighted-sum", params,
                  lambda N: lemma_csbound_value(mu, params, N),
                  lambda N: math.log(N) ** -power)


@dataclass(frozen=True)
class IntegralBoundReport:
    """Quadrature checks of the two Gaussian-tail integral estimates."""

    part1: RatioTrace  # ratio of int_1^K e^{z x^2} x^g dx to its envelope -> 1
    part2: RatioTrace  # ratio of int_K^inf e^{-z x^2} x^-g dx to its bound, <= 1


def integral_bound_check(gamma: float, zeta_: float, K_grid) -> IntegralBoundReport:
    """Adaptive quadrature of both integral estimates on a grid of K.

    Both integrals are evaluated after factoring out e^{+-zeta K^2}, so the
    reported ratios stay representable far beyond the overflow range of the
    raw integrals.
    """
    if not zeta_ > 0:
        raise ValueError("zeta must be positive")
    if not gamma > 0:
        raise ValueError("the tail estimate needs gamma > 0")
    grid = np.asarray(K_grid, dtype=float)
    if np.any(grid <= 1.0):
        raise ValueError("K grid values must exceed 1")
    r1, r2 = [], []
    e1, e2 = [], []
    for K in grid:
        width = max(50.0 / (2.0 * zeta_ * K), 1e-3)

        def grow(y, K=K):
            # e^{zeta((K-y)^2 - K^2)} (1 - y/K)^gamma
            return math.exp(zeta_ * (y * y - 2.0 * K * y)) * (1.0 - y / K) ** gamma

        upper = K - 1.0
        cut = min(width, upper)
        j1 = quad(grow, 0.0, cut, epsabs=0.0, epsrel=1e-11)[0]
        if cut < upper:
            j1 += quad(grow, cut, upper, epsabs=1e-300, epsrel=1e-11)[0]
        r1.append(2.0 * zeta_ * K * j1)
        with np.errstate(over="ignore"):
            e1.append(float(np.exp(zeta_ * K * K)) * K**gamma * j1)

        def decay(y, K=K):
            # e^{-zeta((K+y)^2 - K^2)} (1 + y/K)^-gamma
            return math.exp(-zeta_ * (y * y + 2.0 * K * y)) * (1.0 + y / K) ** -gamma

        j2 = quad(decay, 0.0, np.inf, epsabs=0.0, epsrel=1e-11)[0]
        r2.append(2.0 * zeta_ * K * j2)
        e2.append(float(np.exp(-zeta_ * K * K)) * K**-gamma * j2)
    with np.errstate(over="ignore"):  # raw integrals may exceed double range
        pred1 = np.array([float(np.exp(zeta_ * K * K)) * K ** (gamma - 1.0)
                          / (2.0 * zeta_) for K in grid])
        pred2 = np.array([float(np.exp(-zeta_ * K * K)) * K ** (-gamma - 1.0)
                          / (2.0 * zeta_) for K in grid])
    part1 = RatioTrace(grid=grid, exact=np.array(e1), predicted=pred1,
                       ratio=np.array(r1), label="growth-integral")
    part2 = RatioTrace(grid=grid, exact=np.array(e2), predicted=pred2,
                       ratio=np.array(r2), label="tail-integral")
    return IntegralBoundReport(part1=part1, part2=part2)


# Parameter sets exercised by the verification suite and the CLI.
SERIES_DAMPED = LemmaParams(t=2.0, r=1.0, u=1.0, p=2.0, v=2.0)
SERIES_UNDAMPED = LemmaParams(t=3.0, r=0.0, u=1.0, p=2.0, v=1.0)
NORM_SUP_SET = LemmaParams(q=1.0, t=0.0, r=0.0, u=1.0, p=2.0, v=2.0)
CSBOUND_SET = LemmaParams(t=2.0, q=0.5, u=1.0, p=2.0, v=1.0)
CSBOUND_TRUNC = 10_000
INTEGRAL_K_GRID = (2.0, 5.0, 10.0, 30.0)


@dataclass(frozen=True)
class LemmaSuiteReport:
    """All standard checks in one tabular report."""

    traces: list          # (name, RatioTrace)
    crossover_rows: list  # (N, u, p, root, residual, asymptote_ratio)
    integral: IntegralBoundReport

    def to_table(self) -> tuple[tuple, list]:
        columns = ("check", "grid_value", "exact", "predicted", "ratio",
                   "residual")
        rows = []
        for name, trace in (*self.traces,
                            ("integral-growth", self.integral.part1),
                            ("integral-tail", self.integral.part2)):
            for k in range(trace.grid.size):
                rows.append((name, trace.grid[k], trace.exact[k],
                             trace.predicted[k], trace.ratio[k], ""))
        for N, u, p, root, resid, ratio in self.crossover_rows:
            rows.append((f"crossover(u={u:g},p={p:g})", N, root,
                         math.sqrt(math.log(N) / p), ratio, resid))
        return columns, rows


def crossover_residual(N: float, u: float, p: float) -> tuple[float, float]:
    """(root, |N root^-u e^{-p root^2} - 1|) for the crossover equation."""
    root = crossover_index(N, u, p)
    resid = abs(math.exp(math.log(N) - u * math.log(root) - p * root * root) - 1.0)
    return root, resid


def standard_lemma_suite(N_grid=DEFAULT_N_GRID) -> LemmaSuiteReport:
    """Run every standard check on one N grid."""
    grid = tuple(float(N) for N in N_grid)
    damped = replace(SERIES_DAMPED, N_grid=grid)
    undamped = replace(SERIES_UNDAMPED, N_grid=grid)
    norm_set = replace(NORM_SUP_SET, N_grid=grid)
    cs_set = replace(CSBOUND_SET, N_grid=grid)
    i = np.arange(1, CSBOUND_TRUNC + 1, dtype=float)
    mu = CoefficientSequence(i ** (-(cs_set.t + 1.0) / 2.0 - 0.01), CSBOUND_TRUNC)
    traces = [
        ("series-damped", lemma_series_trace(damped)),
        ("series-undamped", lemma_series_trace(undamped)),
        ("norm-sup", lemma_norm_trace(norm_set)),
        ("norm-fixed-sequence", lemma_fixed_sequence_trace(norm_set, norm_set.q + 1.0)),
        ("weighted-sum", lemma_csbound_check(mu, cs_set)),
    ]
    crossover_rows = []
    for N in grid:
        for u, p in ((0.0, 1.0), (1.0, 1.0), (1.0, 2.0)):
            root, resid = crossover_residual(N, u, p)
            crossover_rows.append(
                (N, u, p, root, resid, root / math.sqrt(math.log(N) / p)))
    integral = integral_bound_check(1.0, 1.0, INTEGRAL_K_GRID)
    return LemmaSuiteReport(traces=traces, crossover_rows=crossover_rows,
                            integral=integral)
