"""Dataset serialization and run manifests.

Datasets are CSV with a header row, UTF-8, LF line endings; floats are
rendered with 17 significant digits so a reparse reproduces every value
bit-exactly.  Every CLI run that writes files also writes a manifest
recording the config digest, seed, and a checksum per output.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from . import __version__


def _render(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")


def write_dataset(table, path) -> str:
    """Write (columns, rows) or an object exposing to_table(); returns the
    sha256 checksum of the written bytes."""
    if hasattr(table, "to_table"):
        columns, rows = table.to_table()
    else:
        columns, rows = table
    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(_render(v) for v in row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"failed writing dataset to {path}: {exc}") from exc
    return hashlib.sha256(payload).hexdigest()


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
    seed: int
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
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(body)
        except OSError as exc:
            raise OSError(f"failed writing manifest to {path}: {exc}") from exc
        return hashlib.sha256(body.encode()).hexdigest()
