"""Sequence-space model: sine basis, heat forward operator, test signal,
and white-noise observation simulation.

The unknown is a function on [0,1] identified with its coefficients
mu = (mu_i), i >= 1, in the orthonormal basis e_i(x) = sqrt(2) sin(i pi x).
Observations are y_i = kappa_i mu_i + n^{-1/2} z_i with kappa_i the heat
semigroup eigenvalues exp(-i^2 pi^2 T) and z_i independent standard normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import compensated_sum, sinpi
from .rng import substream

DEFAULT_TIME_HORIZON = 0.1


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
        if self.tail_tol is not None and self.tail_tol < 0:
            raise ValueError("tail_tol must be nonnegative")

    def __len__(self) -> int:
        return self.truncation_level

    @property
    def indices(self) -> np.ndarray:
        return np.arange(1, self.truncation_level + 1)

    def norm(self) -> float:
        return math.sqrt(compensated_sum(self.values**2))


@dataclass(frozen=True)
class HeatOperator:
    """Diagonal forward operator of the heat semigroup at time T > 0.

    Eigenvalue i is exp(-i^2 pi^2 T); log_eigenvalues carries the exact
    logs, which stay finite where the values themselves underflow.
    """

    time_horizon: float
    truncation_level: int

    def __post_init__(self):
        if not self.time_horizon > 0:
            raise ValueError("time horizon T must be positive")
        if self.truncation_level < 1:
            raise ValueError("truncation_level must be a positive integer")

    def log_eigenvalues(self) -> np.ndarray:
        i = np.arange(1, self.truncation_level + 1, dtype=float)
        return -(i**2) * math.pi**2 * self.time_horizon

    def eigenvalues(self) -> CoefficientSequence:
        return heat_eigenvalues(self.time_horizon, self.truncation_level)


@dataclass(frozen=True)
class ObservationSet:
    """Noisy transformed coefficients y_i at noise level 1/n."""

    y: CoefficientSequence
    noise_level_n: float
    seed: int

    def __post_init__(self):
        if not self.noise_level_n > 0:
            raise ValueError("signal-to-noise parameter n must be positive")


@dataclass(frozen=True)
class SobolevNorm:
    beta: float
    value: float


def default_truncation(n: float, tau: float = 1.0,
                       time_horizon: float = DEFAULT_TIME_HORIZON) -> int:
    """Default truncation level for a problem at signal-to-noise n.

    The solver-side damping exp(-2 pi^2 T i^2) makes contributions beyond
    about twice the signal/noise crossover index negligible at double
    precision; the floor of 100 guards small-n and prior-only series.
    """
    if not n > 0 or not tau > 0:
        raise ValueError("n and tau must be positive")
    eff = max(n * tau * tau, n)
    if eff <= 1.0:
        return 100
    return max(100, math.ceil(4.0 * math.sqrt(
        math.log(eff) / (math.pi**2 * time_horizon))))


def heat_eigenvalues(time_horizon: float, truncation_level: int) -> CoefficientSequence:
    """kappa_i = exp(-i^2 pi^2 T), i = 1..N, strictly decreasing in i.

    Entries below the double-precision underflow threshold come out as
    exact zeros; HeatOperator.log_eigenvalues keeps the full information.
    """
    op = HeatOperator(time_horizon, truncation_level)
    vals = np.exp(op.log_eigenvalues())
    p = math.pi**2 * time_horizon
    nn = truncation_level
    # geometric-in-i^2 bound on the discarded sum of eigenvalues
    tail = math.exp(max(-(nn + 1) ** 2 * p, -745.0)) / -math.expm1(-(2 * nn + 3) * p)
    return CoefficientSequence(vals, truncation_level, tail_tol=tail)


def sine_basis_eval(i: int, x: float) -> float:
    """e_i(x) = sqrt(2) sin(i pi x) for x in [0, 1]."""
    if i < 1:
        raise ValueError("basis index must be a positive integer")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return math.sqrt(2.0) * float(sinpi(i * x))


def basis_matrix(x_grid, truncation_level: int) -> np.ndarray:
    """Matrix E with E[k, i-1] = e_i(x_k); grid values must lie in [0, 1]."""
    x = np.asarray(x_grid, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("grid points must lie in [0, 1]")
    return basis_columns(x, 0, truncation_level)


def basis_columns(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of basis_matrix, on an already validated grid."""
    i = np.arange(start + 1, stop + 1, dtype=float)
    return math.sqrt(2.0) * sinpi(np.outer(x, i))


def _tree_sum_rows(a: np.ndarray) -> np.ndarray:
    """Row sum by repeated halving: a pairwise tree whose rounding grows like
    log(rows), where numpy's leading-axis sum accumulates row by row."""
    while a.shape[0] > 1:
        h = a.shape[0] // 2
        s = a[:h] + a[h:2 * h]
        if a.shape[0] % 2:
            s[-1] += a[-1]
        a = s
    return a[0]


class AliasingFold:
    """Exact synthesis of sine series on the uniform grid x_k = k/M.

    sin(i pi k/M) depends on i only through i mod 2M, so for any number of
    coefficients sum_i c_i e_i(x_k) = (table @ bins(c))[k]: bins(c)[r] sums
    c_i over i = r (mod 2M), and table[k, r] = sqrt(2) sin(pi (r k mod 2M)/M)
    is gathered from 2M sine values at exact integer residues, so its rows
    at x = 0 and x = 1 are exact zeros.
    """

    def __init__(self, m: int):
        self.period = 2 * m
        r = np.arange(self.period)
        values = math.sqrt(2.0) * sinpi(r / m)
        self.table = values[np.outer(np.arange(m + 1), r) % self.period]

    def bins(self, coefficients) -> np.ndarray:
        """Residue sums of c_1..c_N, added as a pairwise tree over blocks."""
        c = np.asarray(coefficients, dtype=float)
        p = self.period
        rows = c.size // p
        full = c[:rows * p].reshape(rows, p)
        step = max(1, (1 << 16) // p)  # rows per block that stays in cache
        out = _tree_sum_rows(np.array(
            [np.zeros(p)] + [_tree_sum_rows(full[k:k + step])
                             for k in range(0, rows, step)]))
        out[:c.size - rows * p] += c[rows * p:]
        # position q holds coefficient i = q + 1, i.e. residue (q + 1) mod 2M
        return np.roll(out, 1)


def true_signal_coefficients(truncation_level: int) -> CoefficientSequence:
    """Coefficients of the cubic test signal 4x(x-1)(8x-5).

    mu_i = 8 sqrt(2) (13 + 11 (-1)^i) / (pi^3 i^3); the sequence lies in
    S^beta for every beta < 2.5.
    """
    if truncation_level < 1:
        raise ValueError("truncation_level must be a positive integer")
    i = np.arange(1, truncation_level + 1, dtype=float)
    sign = np.where(np.arange(1, truncation_level + 1) % 2 == 0, 1.0, -1.0)
    vals = 8.0 * math.sqrt(2.0) * (13.0 + 11.0 * sign) / (math.pi**3 * i**3)
    # l^2 tail: mu_i^2 <= C^2 i^-6 with C = 192 sqrt(2)/pi^3
    c = 8.0 * math.sqrt(2.0) * 24.0 / math.pi**3
    tail = c * math.sqrt(1.0 / (5.0 * truncation_level**5))
    return CoefficientSequence(vals, truncation_level, tail_tol=tail)


def true_signal_function(x_grid) -> np.ndarray:
    """The cubic test signal evaluated directly: 4x(x-1)(8x-5)."""
    x = np.asarray(x_grid, dtype=float)
    return 4.0 * x * (x - 1.0) * (8.0 * x - 5.0)


def forward_solution(mu: CoefficientSequence, t: float, x_grid) -> np.ndarray:
    """Heat evolution of mu at time t on a grid in [0, 1].

    u(x, t) = sum_i mu_i exp(-i^2 pi^2 t) e_i(x), truncated at the level
    of mu; t = 0 reproduces the plain basis synthesis.
    """
    if t < 0:
        raise ValueError("time t must be nonnegative")
    E = basis_matrix(x_grid, mu.truncation_level)
    i = np.arange(1, mu.truncation_level + 1, dtype=float)
    damped = mu.values * np.exp(-(i**2) * math.pi**2 * t)
    return E @ damped


def simulate_observations(mu0: CoefficientSequence, kappa: CoefficientSequence,
                          n: float, seed: int,
                          replication: int = 0) -> ObservationSet:
    """Draw y_i = kappa_i mu0_i + n^{-1/2} z_i, reproducible from seed.

    Replications index independent streams keyed (seed, "obs", replication),
    so parallel experiments regenerate any replication in isolation.
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


def sobolev_norm(mu: CoefficientSequence, beta: float) -> SobolevNorm:
    """||mu||_beta with value^2 = sum mu_i^2 i^{2 beta}, exact on the truncation."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    i = np.arange(1, mu.truncation_level + 1, dtype=float)
    sq = compensated_sum(mu.values**2 * i ** (2.0 * beta))
    return SobolevNorm(beta=beta, value=math.sqrt(sq))
