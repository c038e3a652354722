"""Deterministic random-stream construction.

Every random quantity in the package is drawn from a Philox (counter-based)
generator keyed by ``(seed, *path)`` through numpy's SeedSequence.  Streams
for distinct paths are independent, and a computation partitioned across
workers by replication or block index produces bit-identical results in any
execution order.

`normal_matrix` draws many streams that share a path prefix, row r being
the stream ``(*path, r)``, at a fraction of the cost of building each one.
A Philox stream's only state is its 128-bit key (its counter starts at
zero), and the key is ``generate_state(2, uint64)`` of the stream's
SeedSequence, so only the key needs computing.  SeedSequence hashes each
32-bit entropy word into its 4-word pool.  The first 4 words fill the pool,
every pool word is then mixed into every other, and each later word is mixed
into the pool words one after another; every one of these hashmix steps
multiplies the running hash constant by MULT_A.  Past the pool the mixing
is therefore sequential: the state after a prefix of m >= 4 words is that
prefix's pool and the constant INIT_A * MULT_A^(4m) mod 2^32, and the row
index words continue from it exactly.  A prefix of fewer than 4 words puts
the row index inside the initial pool, so each such row gets its own
SeedSequence.  One Philox is then reset to each key in turn (its state
setter costs a few microseconds, against tens for a new SeedSequence and
Philox).  ``Philox(key=...)`` is avoided: without a seed it still draws
OS entropy through a fresh SeedSequence, which costs as much.
"""

from __future__ import annotations

import functools

import numpy as np

# Draw-block size for Monte Carlo loops; fixed so that the blocked stream
# layout (and hence every sampled value) is independent of worker count.
BLOCK = 65536

# numpy SeedSequence's pool size and hash constants
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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


def _word_count(entropy) -> int:
    """Number of 32-bit words SeedSequence makes of these ints (0 is one)."""
    return sum(max(1, -(-v.bit_length() // 32)) for v in entropy)


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """(2, count) uint32: the constant before and after each of `count`
    consecutive hashmix steps from `start`."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK)
    return np.array([out[:-1], out[1:]], dtype=np.uint32)


# generate_state's constants, one hashmix per pool word
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, _POOL)


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _continued_keys(pool: np.ndarray, n_words: int, rows: np.ndarray) -> np.ndarray:
    """(n, 2) uint64 Philox keys, row j that of SeedSequence(prefix + words
    rows[j]), from the prefix's `pool` and its word count n_words >= 4;
    rows is (n, k) uint32."""
    hash_const = _INIT_A * pow(_MULT_A, _POOL * n_words, 1 << 32) & _MASK
    mixer = pool
    for word in rows.T:  # each word is mixed into the pool words in turn
        before, after = _hash_constants(hash_const, _MULT_A, _POOL)
        hash_const = int(after[-1])
        mixer = _MIX_L * mixer - _MIX_R * _hashmix(word[:, None], before, after)
        mixer ^= mixer >> 16
    # generate_state(2, np.uint64): the pool's 4 words hashed in order, then
    # read as two little-endian uint64
    state = _hashmix(mixer, *_STATE_HASH)
    return state.astype("<u4", copy=False).view("<u8")


def normal_matrix(seed: int, path: tuple, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) standard normals; row r comes from stream (*path, r).

    Row r equals ``substream(seed, *path, r).standard_normal(n_cols)`` bit
    for bit, so any subset of rows can be regenerated in isolation
    (parallel replications merge deterministically).  The rows share one
    mix of the prefix and one Philox (module docstring).
    """
    prefix = [_encode(seed)] + [_encode(p) for p in path]
    out = np.empty((n_rows, n_cols))
    if out.size == 0:
        return out
    seq = np.random.SeedSequence(prefix)
    n_words = _word_count(prefix)
    if n_words >= _POOL:
        # out.size > 0 keeps n_rows far below 2**32: one word per row index
        keys = _continued_keys(seq.pool, n_words,
                               np.arange(n_rows, dtype=np.uint32)[:, None])
    else:  # the row index lies inside the initial pool
        keys = [np.random.SeedSequence(prefix + [r]).generate_state(2, np.uint64)
                for r in range(n_rows)]
    bit_gen = np.random.Philox(seq)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state  # zero counter, empty buffer
    for row, key in zip(out, keys):
        state["state"]["key"] = key
        bit_gen.state = state
        gen.standard_normal(out=row)
    return out
