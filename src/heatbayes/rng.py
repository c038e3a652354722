"""Deterministic random-stream construction.

Every random quantity in the package is drawn from a Philox (counter-based)
generator keyed by ``(seed, *path)`` through numpy's SeedSequence.  Streams
for distinct paths are independent, and a computation partitioned across
workers by replication or block index produces bit-identical results in any
execution order.  A batch of normals, such as a panel's posterior draws, is
one stream read row-major (`normal_matrix`).
"""

from __future__ import annotations

import functools

import numpy as np

# Draw-block size for Monte Carlo loops; fixed so that the blocked stream
# layout (and hence every sampled value) is independent of worker count.
BLOCK = 65536


@functools.lru_cache(maxsize=64)
def _fnv1a(part: str) -> int:
    # stable 64-bit FNV-1a; hash() is salted per process, unusable here.
    # Stream keys use a handful of names, so each is hashed once.
    h = 0xCBF29CE484222325
    for b in part.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        if not 0 <= int(part) < 1 << 64:  # no two keys may share a stream
            raise ValueError(f"stream key part {part} lies outside [0, 2**64)")
        return int(part)
    if isinstance(part, str):
        return _fnv1a(part)
    raise TypeError(f"stream path parts must be int or str, got {part!r}")


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the stream keyed by (seed, *path)."""
    entropy = [_encode(seed)] + [_encode(p) for p in path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def normal_matrix(seed: int, path: tuple, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) standard normals: the stream (seed, *path), read
    row-major."""
    return substream(seed, *path).standard_normal((n_rows, n_cols))
