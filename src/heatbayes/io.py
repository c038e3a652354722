"""Dataset serialization and run manifests.

Datasets are CSV with a header row of at least one column, UTF-8, LF
line endings, and as many cells in every row as the header has columns.
A column name must hold no ",", "\n" or "\r".  A table is (columns, rows)
or (columns, matrix), a matrix being a 2-D floating ndarray.  One cell
rule holds for both: a str carries its own text, written verbatim and
holding no "\n" or "\r" (a "," is let through: the lemma suite's labels
carry one), and so does a non-bool int, written as str(value); any other
cell is written as "%.17g" % value, i.e. format(float(value), ".17g"):
17 significant digits, so a reparse reproduces every float bit-exactly
(numpy scalars and ints, bools, nan, +-inf and -0.0 included).
table_cells turns a table into one form, a float64 matrix plus the cells
with their own text, of any width, which one routine writes.

The cells of the matrix are formatted together, as 17-digit integers turned
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
range, take their text from "%.17g" % v, as cells with their own text
take theirs: byte strings kept by their length, so that a NUL stays.
A cell's text is one column of a byte array: the digits are written in
quads of four, a row below their place, and the integer digits of
|v| >= 1 then move back a row to make room for the point.

Every CLI run that writes files also writes a manifest recording the
config digest, seed, the versions of python, numpy and heatbayes, and a
checksum per output.

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
import platform
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
# a matrix cell's text is one column of bytes: row 0 the sign, rows 1-5
# "0.000", rows 6-23 the 17 digits with the point among them, the last row
# the separator (row 24, or further down if some text is wider than 24
# bytes); the bytes kept of each of these blocks are a prefix
_LEAD = np.arange(1, 6)[:, None]
_PLACE = np.arange(18)[:, None]  # places of digits and point, from row 6
_NTH = np.arange(17, dtype=np.uint8)[:, None]


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
    of text, rows 0 ... 16 of a C-contiguous block."""
    n = d.size
    # d = d0 1e16 + q0 1e12 + q1 1e8 + q2 1e4 + q3, the quads below 1e4
    quads = np.empty((4, n), dtype=np.intp)
    for j in (3, 2, 1, 0):
        high = d // 10 ** 4
        quads[j] = d - high * 10 ** 4
        d = high
    text[0] = d + ord("0")
    # quad j's four bytes go down rows 4 j + 1 ... 4 j + 4
    text[1:17].reshape(4, 4, n)[...] = _QUADS[quads].view(np.uint8).reshape(
        4, n, 4).transpose(0, 2, 1)


def _matrix_lines(m: np.ndarray, own: dict) -> bytes:
    """The data lines of a float64 matrix: each cell as its own text, keyed
    by flat index in own, if it has one, else as format(float(v), ".17g"),
    row by row (see the module docstring)."""
    n = m.size
    v = m.ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    d = _counts(a, e)
    fixed &= (d >= 10 ** 16) & (d < 10 ** 17)
    mine = np.fromiter(own, dtype=np.intp, count=len(own))
    fixed[mine] = True  # written with their own text, not "%.17g"'s
    slow = np.flatnonzero(~fixed)
    cells = ["%.17g" % u for u in v[slow].tolist()] + list(own.values())
    cells = [c.encode() for c in cells]
    verbatim = np.concatenate([slow, mine])  # their text is in cells
    size = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    # "%.17g" text is at most 24 bytes: "-2.2250738585072014e-308"
    width = max(24, size.max(initial=0))
    text = np.empty((width + 1, n), dtype=np.uint8)
    _digits(d, text[7:24])
    last = (_NTH * (text[7:24] != ord("0"))).max(axis=0)  # nonzero digit
    # the digits sit a row down, so that the first E + 1 of v >= 1 move back
    # a row and the point follows them; v < 1 has its point in "0."
    for p in np.flatnonzero(np.bincount(e[e >= 0], minlength=1)):
        group = np.flatnonzero(e == p)
        text[6:7 + p, group] = text[7:8 + p, group]
        text[7 + p, group] = ord(".")
    text[0] = ord("-")
    text[1:6] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
    text[-1] = ord(",")
    text[-1].reshape(m.shape)[:, -1] = ord("\n")
    keep = np.empty(text.shape, dtype=bool)
    keep[0] = np.signbit(v)
    keep[1:6] = _LEAD <= np.where(e < 0, 1 - e, 0)  # "0." and -E - 1 zeros
    # the integer digits, and the point and fraction up to its last
    # nonzero digit if it has one; row 6 is empty below 1
    keep[6:24] = _PLACE <= np.where(last > e, last + 1, e)
    keep[6] = e >= 0
    keep[24:-1] = False  # the rows of wider own text
    keep[-1] = True
    # kept by length: a cell's own text may hold NULs
    text[:width, verbatim] = np.array(cells, dtype=f"S{width}").view(
        np.uint8).reshape(-1, width).T
    keep[:width, verbatim] = np.arange(width)[:, None] < size
    return text.T[keep.T].tobytes()


def table_cells(table) -> tuple[list, np.ndarray, dict]:
    """A table in the one form that write_dataset formats: its column names,
    a 2-D float64 matrix, and the text of the cells that carry their own,
    keyed by flat index (their matrix entries are 0).  Raises ValueError
    as write_dataset says."""
    if hasattr(table, "to_matrix"):
        columns, rows = table.to_matrix()
    elif hasattr(table, "to_table"):
        columns, rows = table.to_table()
    else:
        columns, rows = table
    columns = [str(c) for c in columns]
    width, own = len(columns), {}
    header = "\n".join(columns)  # one scan; then name the bad column
    if "," in header or "\r" in header or header.count("\n") != width - 1:
        for c in columns:
            _check_text(c, f"column name {c!r}", ",\n\r")
    if not isinstance(rows, np.ndarray):
        cells, r = [], -1
        for r, row in enumerate(rows):
            row = tuple(row)
            if len(row) != width:
                raise ValueError(f"row {r} has {len(row)} cells, the header "
                                 f"{width} columns")
            cells += row
        # most cells are floats, so that test comes first
        own = {k: str(v) for k, v in enumerate(cells)
               if not isinstance(v, float) and isinstance(v, (str, int))
               and not isinstance(v, bool)}
        for k, text in own.items():
            if "\n" in text or "\r" in text:  # never in an int's text
                _check_text(text, f"row {k // width}, column "
                            f"{columns[k % width]!r}", "\n\r")
            cells[k] = 0.0
        rows = np.array(cells, dtype=np.float64).reshape(r + 1, width)
    if rows.ndim != 2 or rows.shape[1] != width or not columns:
        raise ValueError(f"a matrix of shape {rows.shape} does not fit "
                         f"a header of {width} columns")
    if rows.dtype.kind != "f":
        raise ValueError(f"a matrix of dtype {rows.dtype} is not floating")
    return columns, rows.astype(np.float64, copy=False), own


def write_dataset(table, path) -> str:
    """Write (columns, rows), (columns, matrix) or an object exposing
    to_matrix() or to_table(); returns the sha256 checksum of the written
    bytes.  A row whose length differs from the header's, or a separator
    in a column name or a line break in a str cell, raises ValueError
    naming the row or the column; so does a table with no columns, or a
    matrix that is not 2-D with the header's width, naming its shape, or
    not floating, naming its dtype.  Nothing is written then."""
    columns, matrix, own = table_cells(table)
    return _write_bytes(path, (",".join(columns) + "\n").encode("utf-8")
                        + _matrix_lines(matrix, own), "dataset")


def read_dataset(path) -> tuple[list, list]:
    """Reparse a dataset written by write_dataset; numeric cells become floats."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        text = fh.read()
    if not text:
        raise ValueError(f"{path} is empty")
    # lines end in "\n" alone: a str cell may hold "\f", "\x85", "\u2028" ...
    lines = text.removesuffix("\n").split("\n")
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
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__, "heatbayes": __version__},
            "wall_clock_s": self.wall_clock_s,
            "outputs": self.outputs,
        }
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return _write_bytes(path, body.encode("utf-8"), "manifest")
