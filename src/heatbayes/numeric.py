"""Low-level numerics shared across the package.

Everything here is double precision.  Series with huge dynamic range are
handled in log space; long sums use pairwise (numpy) blocks accumulated
with exact ``math.fsum`` so that partial sums carry ~1e-15 relative error
regardless of term count.
"""

from __future__ import annotations

import math

import numpy as np

# exp underflows to 0 below this; used for early exits in log-space sums.
LOG_TINY = -745.0
# |log a| beyond which a/(1+a) saturates at double precision.
_SATURATION = 40.0


def sinpi(z):
    """sin(pi * z) with exact zeros at integer z.

    ``np.sin(np.pi * z)`` loses all accuracy near large integer z because
    pi*z is rounded before the sine; here the argument is reduced modulo 2
    first (exact for binary floats), so basis functions vanish identically
    at grid endpoints.
    """
    z = np.asarray(z, dtype=float)
    m = np.mod(z, 2.0)           # exact: fmod of binary floats
    sign = np.where(m < 1.0, 1.0, -1.0)
    r = np.where(m < 1.0, m, m - 1.0)      # in [0, 1), exact by Sterbenz
    r = np.where(r <= 0.5, r, 1.0 - r)     # fold to [0, 0.5]
    out = sign * np.sin(np.pi * r) + 0.0   # +0.0 clears negative zeros
    if out.ndim == 0:
        return float(out)
    return out


def log1pexp(x):
    """log(1 + e^x), stable for any real x."""
    x = np.asarray(x, dtype=float)
    out = np.where(
        x > _SATURATION, x, np.log1p(np.exp(np.minimum(x, _SATURATION)))
    )
    if out.ndim == 0:
        return float(out)
    return out


def shrinkage_factors(log_a):
    """Return (g, 1-g) for g = a/(1+a) given log a, elementwise stable.

    Both outputs are accurate to relative machine precision across
    a in (0, inf); log_a = -inf yields (0, 1).
    """
    log_a = np.asarray(log_a, dtype=float)
    g = np.empty_like(log_a)
    omg = np.empty_like(log_a)
    hi = log_a > _SATURATION
    lo = log_a < -_SATURATION
    mid = ~(hi | lo)
    g[hi] = 1.0
    omg[hi] = np.exp(-log_a[hi])
    g[lo] = np.exp(log_a[lo])
    omg[lo] = 1.0
    a = np.exp(log_a[mid])
    g[mid] = a / (1.0 + a)
    omg[mid] = 1.0 / (1.0 + a)
    return g, omg


class BlockSum:
    """Accumulates numpy blocks; total = fsum of pairwise block sums."""

    def __init__(self):
        self._parts: list[float] = []

    def add(self, block) -> None:
        if np.ndim(block) == 0:
            self._parts.append(float(block))
        else:
            self._parts.append(float(np.sum(block)))

    @property
    def value(self) -> float:
        return math.fsum(self._parts)


def compensated_sum(values) -> float:
    """Sum of a 1-d array: numpy pairwise inside fsum-combined chunks."""
    values = np.asarray(values, dtype=float)
    if values.size <= 65536:
        return float(np.sum(values))
    acc = BlockSum()
    for start in range(0, values.size, 65536):
        acc.add(values[start:start + 65536])
    return acc.value

