"""Dataset serialization and run manifests.

Datasets are CSV with a header row, UTF-8, LF line endings, and as many
cells in every row as the header has columns.  A column name must hold no
",", "\n" or "\r".  A table is (columns, rows) or (columns, matrix).  In
rows, a cell that is a str is written verbatim and must hold no "\n" or
"\r" (a "," is let through: the lemma suite's labels carry one); a
non-bool int is written as str(value), and anything else as
"%.17g" % value, i.e. format(float(value), ".17g"): 17 significant digits,
so a reparse reproduces every float bit-exactly (numpy scalars, bools, nan,
+-inf and -0.0 included).  A matrix is a 2-D floating ndarray with one
column per header column, and its cells are written as those rows' floats.

The cells of a matrix are formatted together, as 17-digit integers turned
into digit bytes, and the result is exactly format(float(v), ".17g").
That needs 1e-4 <= |v| < 1e17, where "%.17g" writes fixed notation: the
digits of D = round(|v| 10^(16 - E)), E = floor(log10 |v|) in [-4, 16],
the point after the first E + 1 of them (after "0." and -E - 1 zeros for
E < 0), and trailing fraction zeros dropped.  There p = 10^(16 - E) is an exact
double, and Dekker's two-product (Veltkamp's split into 26-bit halves;
numpy has no fused multiply-add) gives hi + lo = |v| p exactly; hi >= 2^53
is an even integer, so D = hi + rint(lo) is correctly rounded, ties to
even.  A D outside [1e16, 1e17) means that log10 misplaced E by one or
that the rounding carried into an 18th digit.  A misplaced E never gives
a D inside: that needs |v| within 5e-17 (relative) below a power of ten,
and the nearest doubles below 1e-3 ... 1e17 lie at least 8.3e-17 below.
The cells with D outside, and 0, -0.0, nan, +-inf and |v| outside the
range, take their text from "%.17g" % v.

Every CLI run that writes files also writes a manifest recording the
config digest, seed, and a checksum per output.

Datasets, plots and manifests are overwritten in place, not truncated
first (freeing a file's blocks and allocating them again costs a rewrite
several times as much), and a regular file is then trimmed to the payload;
/dev/null and pipes are written as they are.  A failed write leaves the
prefix written, and its OSError names the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__

# 10^k for k = 0 ... 20, each an exact double
_POW10 = np.array([float(10 ** k) for k in range(21)])
# the ASCII digits of 0000 ... 9999, four bytes in one uint32 each
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None]
          // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# a matrix cell's text is one column of 25 bytes: row 0 the sign, rows 1-5
# "0.000", rows 6-23 the 17 digits with the point among them, row 24 the
# separator; the bytes kept of each of these blocks are a prefix
_LEAD = np.arange(1, 6)[:, None]
_PLACE = np.arange(18)[:, None]  # places of digits and point, from row 6
_NTH = np.arange(17, dtype=np.uint8)[:, None]


def _cell_format(value) -> str:
    if isinstance(value, str):
        return "%s"
    if isinstance(value, int) and not isinstance(value, bool):
        return "%d"
    return "%.17g"


def _write_bytes(path, payload: bytes, what: str) -> str:
    """Write payload to path as the module docstring says; returns its
    sha256."""
    written = regular = 0
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            while written < len(payload):
                written += os.write(fd, payload[written:])
        finally:
            try:
                if regular:  # a failed write leaves its prefix, not the old tail
                    os.ftruncate(fd, written)
            finally:
                os.close(fd)
    except OSError as exc:
        raise OSError(f"failed writing {what} to {path}: {exc}") from exc
    return hashlib.sha256(payload).hexdigest()


def _check_text(text: str, where: str, separators: str) -> None:
    if any(c in text for c in separators):
        raise ValueError(f"{where} holds a CSV separator: {text!r}")


def _split(a: np.ndarray):
    """Veltkamp's split: a = high + low, each of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _counts(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """D = round(a 10^(16 - e)), ties to even, for 1e-4 <= a < 1e17 and e
    within one of floor(log10 a) (see the module docstring)."""
    p = _POW10[16 - e]
    hi = a * p
    ah, al = _split(a)
    ph, pl = _split(p)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl  # hi + lo = a p
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digits(d: np.ndarray, text: np.ndarray) -> None:
    """Write the 17 ASCII digits of each d in [1e16, 1e17) down its column
    of text, rows 0 ... 16."""
    n = d.size
    # d = d0 1e16 + (q0 1e4 + q1) 1e8 + q2 1e4 + q3, halves below 1e8, so
    # that a float quotient by 1e4 floors exactly
    top = d // 10 ** 8
    d0 = top // 10 ** 8
    halves = np.empty((2, n))
    halves[0] = top - d0 * 10 ** 8
    halves[1] = d - top * 10 ** 8
    high = np.floor(halves / 1e4)
    quads = np.empty((n, 2, 2), dtype=np.intp)
    quads[..., 0] = high.T
    quads[..., 1] = (halves - 1e4 * high).T
    text[0] = d0 + ord("0")
    text[1:17] = _QUADS[quads.reshape(n, 4)].view(np.uint8).T


def _matrix_lines(m: np.ndarray) -> bytes:
    """The data lines of a float64 matrix: its cells as
    format(float(v), ".17g"), row by row (see the module docstring)."""
    n = m.size
    v = m.ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    d = _counts(a, e)
    fixed &= (d >= 10 ** 16) & (d < 10 ** 17)
    text = np.empty((25, n), dtype=np.uint8)
    _digits(d, text[6:23])
    last = (_NTH * (text[6:23] != ord("0"))).max(axis=0)  # nonzero digit
    # the point follows the first E + 1 digits of v >= 1, and the digits
    # after it move one row on; v < 1 has it in "0." and puts it after all
    # digits, unkept
    point = np.where(e >= 0, e + 1, 17)
    np.copyto(text[7:24], text[6:23].copy(), where=_PLACE[1:] > point)
    text[6 + point, np.arange(n)] = ord(".")
    text[0] = ord("-")
    text[1:6] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
    text[24] = ord(",")
    text[24].reshape(m.shape)[:, -1] = ord("\n")
    keep = np.empty(text.shape, dtype=bool)
    keep[0] = np.signbit(v)
    keep[1:6] = _LEAD <= np.where(e < 0, 1 - e, 0)  # "0." and -E - 1 zeros
    # the integer digits, and the point and fraction up to its last
    # nonzero digit if it has one
    keep[6:24] = _PLACE <= np.where(last > e, last + (e >= 0), e)
    keep[24] = True
    slow = np.flatnonzero(~fixed)
    # "%.17g" text is at most 24 bytes: "-2.2250738585072014e-308"
    cells = np.array(["%.17g" % u for u in v[slow].tolist()], dtype="S24")
    cells = cells.view(np.uint8).reshape(-1, 24).T
    text[:24, slow] = cells
    keep[:24, slow] = cells != 0
    return text.T[keep.T].tobytes()


def _row_lines(columns: list, rows) -> bytes:
    """The data lines of rows, one printf template per row type signature:
    a table has few of them; with it, the positions of its str cells."""
    lines = []
    templates = {}
    for r, row in enumerate(rows):
        row = tuple(row)
        if len(row) != len(columns):
            raise ValueError(f"row {r} has {len(row)} cells, the header "
                             f"{len(columns)} columns")
        key = tuple(map(type, row))
        if key not in templates:
            templates[key] = (",".join(map(_cell_format, row)) + "\n",
                              [j for j, v in enumerate(row)
                               if isinstance(v, str)])
        template, texts = templates[key]
        for j in texts:
            _check_text(row[j], f"row {r}, column {columns[j]!r}", "\n\r")
        lines.append(template % row)
    return "".join(lines).encode("utf-8")


def write_dataset(table, path) -> str:
    """Write (columns, rows), (columns, matrix) or an object exposing
    to_matrix() or to_table(); returns the sha256 checksum of the written
    bytes.  A row whose length differs from the header's, or a separator
    in a column name or a line break in a str cell, raises ValueError
    naming the row or the column; so does a matrix that is not 2-D with
    the header's width, naming its shape, or not floating, naming its
    dtype.  Nothing is written then."""
    if hasattr(table, "to_matrix"):
        columns, rows = table.to_matrix()
    elif hasattr(table, "to_table"):
        columns, rows = table.to_table()
    else:
        columns, rows = table
    columns = [str(c) for c in columns]
    for c in columns:
        _check_text(c, f"column name {c!r}", ",\n\r")
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != len(columns) or not columns:
            raise ValueError(f"a matrix of shape {rows.shape} does not fit "
                             f"a header of {len(columns)} columns")
        if rows.dtype.kind != "f":
            raise ValueError(f"a matrix of dtype {rows.dtype} is not "
                             "floating")
        body = _matrix_lines(rows.astype(np.float64, copy=False))
    else:
        body = _row_lines(columns, rows)
    return _write_bytes(path, (",".join(columns) + "\n").encode("utf-8")
                        + body, "dataset")


def read_dataset(path) -> tuple[list, list]:
    """Reparse a dataset written by write_dataset; numeric cells become floats."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(tuple(cells))
    return columns, rows


def config_digest(payload: dict) -> str:
    """sha256 of the canonical JSON encoding of a config mapping."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance record tying every emitted dataset to its producing run."""

    config: dict
    seed: int | None  # None for runs that draw nothing
    artifact_version: str = __version__
    outputs: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def record(self, path, checksum: str) -> None:
        self.outputs.append({"path": str(path), "sha256": checksum})

    def write(self, path) -> str:
        self.wall_clock_s = time.perf_counter() - self._t0
        payload = {
            "artifact_version": self.artifact_version,
            "config_digest": config_digest(self.config),
            "config": self.config,
            "seed": self.seed,
            "wall_clock_s": self.wall_clock_s,
            "outputs": self.outputs,
        }
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return _write_bytes(path, body.encode("utf-8"), "manifest")
