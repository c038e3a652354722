"""Sequence-space model: sine basis, heat forward operator, test signal,
and white-noise observation simulation.

The unknown is a function on [0,1] identified with its coefficients
mu = (mu_i), i >= 1, in the orthonormal basis e_i(x) = sqrt(2) sin(i pi x).
Observations are y_i = kappa_i mu_i + n^{-1/2} z_i with kappa_i the heat
semigroup eigenvalues exp(-i^2 pi^2 T) and z_i independent standard normal.

Head and tail.  kappa_i underflows to exactly 0 past a few dozen indices
(i > 27 at T = 0.1), and past that the data carry nothing: the posterior
of mu_i is its prior.  A truncation N therefore splits into the active
head i <= N_h (`active_head`), the only coordinates that need arrays, and
the tail N_h < i <= N, whose sums over the residues i mod P of a sine
grid are finite Hurwitz-zeta differences (`power_sums`) or, for terms that
underflow, short direct sums.  Both are exact sums over the same N
coordinates, equal to the N-term sums up to rounding.  `bin_range` is the
one residue binning of explicit terms, for the head and the tail alike.
`power_sums` takes every residue, and several starts that share an end,
through one Euler-Maclaurin evaluation (`_shifted_power_sums`), whose
cost is a fixed number of array operations whatever the number of sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numeric import LOG_TINY, UNDERFLOW, compensated_sum, sinpi
from .rng import substream

DEFAULT_TIME_HORIZON = 0.1

# basis columns per block of the direct (non-uniform grid) synthesis
_CHUNK = 8192


@dataclass(frozen=True)
class CoefficientSequence:
    """Finite truncation of an l^2 coefficient sequence (index starts at 1).

    tail_tol, when set, bounds the mass of the discarded tail: the l^2 norm
    of the dropped coefficients for signal-like sequences, or the plain sum
    of the dropped entries for nonnegative weight sequences (variances,
    eigenvalues).  Downstream scalar summaries move by at most tail_tol
    when the truncation level is raised.
    """

    values: np.ndarray
    truncation_level: int
    tail_tol: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("coefficient values must be one-dimensional")
        if self.truncation_level < 1:
            raise ValueError("truncation_level must be a positive integer")
        if vals.size != self.truncation_level:
            raise ValueError(
                f"expected {self.truncation_level} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficient values must be finite")
        if self.tail_tol is not None and not self.tail_tol >= 0:
            raise ValueError("tail_tol must be nonnegative")

    def __len__(self) -> int:
        return self.truncation_level


@dataclass(frozen=True)
class ObservationSet:
    """Noisy transformed coefficients y_i at noise level 1/n."""

    y: CoefficientSequence
    noise_level_n: float
    seed: int

    def __post_init__(self):
        if not self.noise_level_n > 0:
            raise ValueError("signal-to-noise parameter n must be positive")


def default_truncation(n: float, tau: float = 1.0,
                       time_horizon: float = DEFAULT_TIME_HORIZON) -> int:
    """Default truncation level for a problem at signal-to-noise n.

    The solver-side damping exp(-2 pi^2 T i^2) makes contributions beyond
    about twice the signal/noise crossover index negligible at double
    precision; the floor of 100 guards small-n and prior-only series.
    """
    if not n > 0 or not tau > 0:
        raise ValueError("n and tau must be positive")
    _check_time_horizon(time_horizon)
    eff = max(n * tau * tau, n)
    if eff <= 1.0:
        return 100
    return max(100, math.ceil(4.0 * math.sqrt(
        math.log(eff) / (math.pi**2 * time_horizon))))


def _check_time_horizon(time_horizon: float) -> None:
    if not time_horizon > 0:
        raise ValueError("time horizon T must be positive")


def heat_log_eigenvalues(time_horizon: float, truncation_level: int) -> np.ndarray:
    """log kappa_i = -i^2 pi^2 T, i = 1..N: finite where kappa_i underflows."""
    _check_time_horizon(time_horizon)
    if truncation_level < 1:
        raise ValueError("truncation_level must be a positive integer")
    i = np.arange(1, truncation_level + 1, dtype=float)
    return -(i**2) * math.pi**2 * time_horizon


def heat_eigenvalues(time_horizon: float, truncation_level: int) -> CoefficientSequence:
    """kappa_i = exp(-i^2 pi^2 T), i = 1..N, strictly decreasing in i.

    Entries below the double-precision underflow threshold come out as
    exact zeros; heat_log_eigenvalues keeps the full information.
    """
    vals = np.exp(heat_log_eigenvalues(time_horizon, truncation_level))
    p = math.pi**2 * time_horizon
    nn = truncation_level
    # geometric-in-i^2 bound on the discarded sum of eigenvalues
    tail = math.exp(max(-(nn + 1) ** 2 * p, LOG_TINY)) / -math.expm1(-(2 * nn + 3) * p)
    return CoefficientSequence(vals, truncation_level, tail_tol=tail)


def active_head(time_horizon: float, truncation_level: int) -> int:
    """N_h = min(N, number of kappa_i > 0), at least 1.

    kappa_i decreases in i and is an exact zero once i^2 pi^2 T exceeds
    about 745 (the log of the least subnormal), so only the first
    sqrt(746 / (pi^2 T)) + 2 eigenvalues are evaluated, exactly as
    heat_eigenvalues forms them.
    """
    _check_time_horizon(time_horizon)  # before dividing by T
    last = math.sqrt(UNDERFLOW / (math.pi**2 * time_horizon)) + 2.0
    head = truncation_level if last >= truncation_level else int(last)
    logs = heat_log_eigenvalues(time_horizon, head)  # validates N
    return max(1, int(np.count_nonzero(np.exp(logs))))


def bin_range(first: int, values, period: int | None = None) -> np.ndarray:
    """Sums of values[k], the term of index i = first + k, over the residues
    i mod period: entry r sums the terms with i = r (mod period).  The
    values themselves, one bin per index, when period is None.

    The terms are laid out as rows of `period` columns, after first mod
    period leading zeros so that column r holds residue r, and the rows
    are added as a pairwise tree, halving their number at each step (an
    empty range is one zero row).  Rounding then grows like log(rows), not
    rows: the cubic's coefficients from i = 28 to 10,132,119 bin to within
    1.3e-15 relative of their closed form at periods 4 to 400, where a
    running sum per residue drifts to 3.4e-11 at period 4.
    """
    values = np.asarray(values, dtype=float)
    if period is None:
        return values
    lead = first % period
    a = np.zeros(max(1, -(-(lead + values.size) // period)) * period)
    a[lead:lead + values.size] = values
    a = a.reshape(-1, period)
    while a.shape[0] > 1:
        h = a.shape[0] // 2
        s = a[:h] + a[h:2 * h]
        if a.shape[0] % 2:
            s[-1] += a[-1]
        a = s
    return a[0]


def power_sums(s: float, first, last: float,
               period: int | None = None) -> np.ndarray:
    """Sums of i^-s over first <= i <= last, binned as bin_range bins them.

    The indices of residue r run i_r, i_r + P, ..., j_r, so their sum is
    P^-s [zeta(s, i_r / P) - zeta(s, (j_r + P) / P)] with the Hurwitz zeta,
    taken by _shifted_power_sums: O(P) work for any range, and for last =
    math.inf, which needs a period, each sum is P^-s zeta(s, i_r / P).
    Ranges shorter than P, and period None, are summed term by term.
    With a period, `first` may also be a sequence of starts that share last:
    the result then has one row of bins per start, all from one
    _shifted_power_sums call (or from one run of terms, when even the
    longest range is shorter than P).
    """
    single = isinstance(first, (int, np.integer))
    lead = first if single else min(first)
    if period is None or last - lead + 1 < period:
        if math.isinf(last):
            raise ValueError("an infinite range needs a period")
        terms = np.arange(lead, last + 1, dtype=float) ** -s
        if single:
            return bin_range(first, terms, period)
        if period is None:
            raise ValueError("several starts need a period")
        return np.stack([bin_range(f, terms[f - lead:], period)
                         for f in first])
    first = np.asarray(first)[..., None]
    lo = first + (np.arange(period) - first) % period
    count = (np.full(lo.shape, math.inf) if math.isinf(last)
             else (last - lo) // period + 1)
    return period ** -s * _shifted_power_sums(s, lo / period, count)


# leading terms of _shifted_power_sums summed directly
_EM_DIRECT = 16
# offsets from q of those terms, then twice of the expansion's start a, the
# second shifted on to its end b
_OFFSETS = np.minimum(np.arange(_EM_DIRECT + 2.0), _EM_DIRECT)
# B_2j / (2j)! for j = 1..6, the weights of the Euler-Maclaurin corrections
_BERNOULLI = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
     -691.0 / 2730.0), start=1))


def _shifted_power_sums(s: float, q: np.ndarray, count: np.ndarray) -> np.ndarray:
    """sum_{k < count} (q + k)^-s = zeta(s, q) - zeta(s, q + count) for
    q > 0 and integer or infinite counts (infinite for s > 1 only), any
    real s.

    A difference of two library Hurwitz zeta values is NaN for s < 1 and
    infinite at s = 1; near the pole both terms grow like 1/(s - 1), and
    for a short range at large q their difference is off by up to 2e-10
    of the sum.  The expansion below has none of these problems.

    The first _EM_DIRECT terms are summed directly; the rest, from
    a = q + _EM_DIRECT to b - 1 with b = q + max(count, _EM_DIRECT), is
    zeta(s, a) - zeta(s, b) by the Euler-Maclaurin expansion
        (b^(1-s) - a^(1-s)) / (1 - s) + E(a) - E(b),
        E(x) = x^-s / 2 + sum_j c_j x^(1-s-2j),
        c_j = B_2j / (2j)! s (s+1) ... (s+2j-2),
    whose first term, a^(1-s) expm1((1-s) log(b/a)) / (1-s), tends to
    log(b/a) at s = 1.  The direct terms and both ends a and b sit in one
    array and take one power x^-s; E(x) = x^-s (1/2 + C(x^-2) / x) with the
    six corrections in C(y) = c_1 + c_2 y + ... + c_6 y^5, in Horner form.
    With a >= 16 the remainder of the expansion lies below rounding:
    against 40-digit values (tests/test_tails.py) the sums agree to 2e-15
    relative (1.9e-15 at worst) for s from -1 to 11, q from 0.0025 to 2.5e6
    and counts up to 1e9, and infinite counts for s > 1.
    """
    q = np.asarray(q, dtype=float)
    count = np.asarray(count)
    rest = np.maximum(count - _EM_DIRECT, 0)
    x = q[..., None] + _OFFSETS
    x[..., -1] += rest
    p = x ** -s
    out = np.add.reduce(p[..., :_EM_DIRECT], axis=-1,
                        where=_OFFSETS[:_EM_DIRECT] < count[..., None])
    ends, p_ends = x[..., _EM_DIRECT:], p[..., _EM_DIRECT:]
    weights, rising = [], s  # rising = s (s+1) ... (s+2j-2)
    for j, bern in enumerate(_BERNOULLI, start=1):
        weights.append(bern * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    y = 1.0 / (ends * ends)
    e = weights[5] * y
    for c in weights[4:0:-1]:
        e += c
        e *= y
    e += weights[0]
    e /= ends
    e += 0.5
    e *= p_ends
    a = ends[..., 0]
    log_ratio = np.log1p(rest / a)
    u = 1.0 - s
    tail = a * p_ends[..., 0] * (log_ratio if u == 0.0
                                 else np.expm1(u * log_ratio) / u)
    return out + (tail + (e[..., 0] - e[..., 1]))


def _grid(x_grid) -> np.ndarray:
    x = np.asarray(x_grid, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    return x


def basis_matrix(x_grid, truncation_level: int) -> np.ndarray:
    """Matrix E with E[k, i-1] = e_i(x_k); grid values must lie in [0, 1]."""
    return basis_columns(_grid(x_grid), 0, truncation_level)


def basis_columns(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of basis_matrix, on an already validated grid."""
    i = np.arange(start + 1, stop + 1, dtype=float)
    return math.sqrt(2.0) * sinpi(np.outer(x, i))


class AliasingFold:
    """The sine table of the uniform grid x_k = k/M on its interior residues.

    sin(i pi k/M) depends on i only through r = i mod 2M, vanishes at r = 0
    and r = M, and changes sign from r to 2M - r.  So for any number of
    coefficients sum_i c_i e_i(x_k) = (table @ interior(b))[k], b =
    bin_range(1, c, 2M), with table[k, r - 1] = sqrt(2) sin(pi (r k mod
    2M)/M), r = 1..M-1, gathered from 2M sine values at exact integer
    residues, so that its rows at x = 0 and x = 1 are exact zeros.
    `square` is table * table, the basis squared for variances.  Both are
    read-only: GridSynthesis shares one fold per M (`_shared_fold`).
    """

    def __init__(self, m: int):
        self.period = 2 * m
        values = math.sqrt(2.0) * sinpi(np.arange(self.period) / m)
        k, r = np.arange(m + 1), np.arange(1, m)  # points, interior residues
        self.table = values[np.outer(k, r) % self.period]
        self.square = self.table * self.table
        self.table.setflags(write=False)
        self.square.setflags(write=False)

    def interior(self, bins: np.ndarray, squared: bool = False) -> np.ndarray:
        """b_r - b_(2M-r), r = 1..M-1, of 2M residue bins b; b_r + b_(2M-r)
        for the bins of squared basis terms (variances)."""
        m = self.period // 2
        return (np.add if squared else np.subtract)(bins[1:m], bins[:m:-1])


@functools.lru_cache(maxsize=4)
def _shared_fold(m: int) -> AliasingFold:
    """The fold of M, built once for the few grid sizes in use; table and
    square hold 16 (M + 1) (M - 1) bytes, 0.64 MB at M = 200."""
    return AliasingFold(m)


class GridSynthesis:
    """Sine series sum_i c_i e_i(x) on a grid in [0, 1], for any number N of
    coefficients, without a grid x N basis matrix.

    On the grid linspace(0, 1, M + 1) the coefficients fold exactly onto
    their 2M residue bins (bin_range), and those onto the M - 1 interior
    residues (AliasingFold.interior); a series is the sine table times the
    folded bins.  That fold, table and square, is built once per M and
    shared read-only by every synthesis on the grid.  On other grids the
    bins are the coefficients themselves and the series is summed over
    blocks of _CHUNK basis columns.
    """

    def __init__(self, x_grid):
        self.x = _grid(x_grid)
        m = self.x.size - 1
        self.fold = (_shared_fold(m) if m > 0 and np.array_equal(
            self.x, np.linspace(0.0, 1.0, m + 1)) else None)
        # the period of the bins: 2M on the uniform grid, else None
        self.period = None if self.fold is None else self.fold.period

    def bins(self, coefficients, tail=None, squared=False) -> np.ndarray:
        """Bins of c_1..c_h, plus `tail`, the bins (at self.period) of the
        coefficients h < i <= N; on the uniform grid folded, with a plus
        sign when `squared` (variances)."""
        b = bin_range(1, coefficients, self.period)
        if self.fold is None:
            return b if tail is None else np.concatenate([b, tail])
        return self.fold.interior(b if tail is None else b + tail, squared)

    def curves(self, columns=None, variances: np.ndarray | None = None):
        """(E @ columns, (E * E) @ variances) from binned columns and binned
        variances, E the basis on the grid; either part is None without its
        input, and off the uniform grid each basis chunk serves both."""
        if self.fold is not None:
            fold = self.fold
            return (None if columns is None else fold.table @ columns,
                    None if variances is None else fold.square @ variances)
        nn = len(variances if columns is None else columns)
        out = None if columns is None else np.zeros((self.x.size, columns.shape[1]))
        s2 = None if variances is None else np.zeros(self.x.size)
        for start in range(0, nn, _CHUNK):
            E = basis_columns(self.x, start, min(start + _CHUNK, nn))
            if out is not None:
                out += E @ columns[start:start + _CHUNK]
            if s2 is not None:
                s2 += (E * E) @ variances[start:start + _CHUNK]
        return out, s2

    def series(self, coefficients) -> np.ndarray:
        """sum_i c_i e_i(x) at every grid point."""
        return self.curves(self.bins(coefficients)[:, None])[0][:, 0]


def true_signal_coefficients(truncation_level: int) -> CoefficientSequence:
    """Coefficients of the cubic test signal 4x(x-1)(8x-5).

    mu_i = 8 sqrt(2) (13 + 11 (-1)^i) / (pi^3 i^3); the sequence lies in
    S^beta for every beta < 2.5.
    """
    if truncation_level < 1:
        raise ValueError("truncation_level must be a positive integer")
    vals = true_signal_sums(1, truncation_level)
    # l^2 tail: mu_i^2 <= C^2 i^-6 with C = 192 sqrt(2)/pi^3
    c = 8.0 * math.sqrt(2.0) * 24.0 / math.pi**3
    tail = c * math.sqrt(1.0 / (5.0 * truncation_level**5))
    return CoefficientSequence(vals, truncation_level, tail_tol=tail)


def _cubic(i: np.ndarray) -> np.ndarray:
    sign = np.where(i % 2 == 0, 1.0, -1.0)
    i = i.astype(float)
    return 8.0 * math.sqrt(2.0) * (13.0 + 11.0 * sign) / (math.pi**3 * i**3)


def true_signal_sums(first: int, last: int,
                     period: int | None = None) -> np.ndarray:
    """Sums of the cubic signal's coefficients mu_first..mu_last, binned as
    bin_range bins them.  The period must be even (the 2M of a grid, the 2q
    of x = p/q): then the parity, and so the factor 13 + 11 (-1)^i, is
    fixed within a residue, leaving a zeta(3, .) sum."""
    if period is not None and period % 2:
        raise ValueError(f"the cubic's sums need an even period, got {period}")
    if period is None or last - first + 1 < period:
        return bin_range(first, _cubic(np.arange(first, last + 1)), period)
    c = 8.0 * math.sqrt(2.0) / math.pi**3
    parity = np.where(np.arange(period) % 2 == 0, 24.0 * c, 2.0 * c)
    return parity * power_sums(3.0, first, last, period)


def true_signal_function(x_grid) -> np.ndarray:
    """The cubic test signal evaluated directly: 4x(x-1)(8x-5)."""
    x = np.asarray(x_grid, dtype=float)
    return 4.0 * x * (x - 1.0) * (8.0 * x - 5.0)


def forward_solution(mu: CoefficientSequence, t: float, x_grid) -> np.ndarray:
    """Heat evolution of mu at time t on a grid in [0, 1].

    u(x, t) = sum_i mu_i exp(-i^2 pi^2 t) e_i(x), truncated at the level
    of mu; t = 0 reproduces the plain basis synthesis.
    """
    if not t >= 0:
        raise ValueError("time t must be nonnegative")
    i = np.arange(1, mu.truncation_level + 1, dtype=float)
    return GridSynthesis(x_grid).series(
        mu.values * np.exp(-(i**2) * math.pi**2 * t))


def simulate_observations(mu0: CoefficientSequence, kappa: CoefficientSequence,
                          n: float, seed: int,
                          replication: int = 0) -> ObservationSet:
    """Draw y_i = kappa_i mu0_i + n^{-1/2} z_i, reproducible from seed.

    Replications index independent streams keyed (seed, "obs", replication),
    so parallel experiments regenerate any replication in isolation.  A
    stream's first k normals do not depend on how many are drawn, so the
    observations of an active head are the first N_h of those at N.
    """
    if mu0.truncation_level != kappa.truncation_level:
        raise ValueError(
            f"truncation mismatch: mu0 has {mu0.truncation_level}, "
            f"kappa has {kappa.truncation_level}"
        )
    if not n > 0:
        raise ValueError("signal-to-noise parameter n must be positive")
    z = substream(seed, "obs", replication).standard_normal(mu0.truncation_level)
    y = kappa.values * mu0.values + z / math.sqrt(n)
    return ObservationSet(
        y=CoefficientSequence(y, mu0.truncation_level),
        noise_level_n=n,
        seed=seed,
    )


def sobolev_norm(mu: CoefficientSequence, beta: float) -> float:
    """||mu||_beta = sqrt(sum mu_i^2 i^{2 beta}), exact on the truncation."""
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    i = np.arange(1, mu.truncation_level + 1, dtype=float)
    return math.sqrt(compensated_sum(mu.values**2 * i ** (2.0 * beta)))
