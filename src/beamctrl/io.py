"""CSV, binary snapshot, and manifest writers for experiment outputs."""

from __future__ import annotations

import csv
import struct
from itertools import islice
from pathlib import Path

import numpy as np

from .dynamics import BeamTrajectory
from .torus import SpatialGrid

SNAPSHOT_MAGIC = b"BEAMSNAP"
FIELD_MAGIC = b"BEAMFLD1"
SNAPSHOT_VERSION = 1


def write_csv(path: Path, header: list[str], rows) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_field_csv(path: Path, columns: dict[str, np.ndarray]) -> Path:
    """Named columns broadcast to one shape, one row per entry, row-major.

    Space-time fields take shape (n_t, n_x) and give one row per (t, x)
    node, time-major: pass the time nodes as t[:, None] and the space nodes
    as x[None, :].  Values are written as repr(float), so reading them back
    with float() is exact.  A column is formatted before it is broadcast, so
    each time or space node is formatted once, not once per row; rows are
    written in blocks, so no full copy of the text is held in memory.
    """
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    cols = []
    for a in arrays:
        text = map(repr, a.ravel().tolist())
        if a.shape != shape:
            text = np.broadcast_to(np.array(list(text), dtype=object)
                                   .reshape(a.shape), shape).ravel().tolist()
        cols.append(text)
    rows = map(",".join, zip(*cols))
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        while block := list(islice(rows, 256)):
            fh.write("\r\n".join(block) + "\r\n")
    return path


def _write_blocks(path: Path, magic: bytes, grid: SpatialGrid,
                  times: np.ndarray, blocks) -> Path:
    """Header, time nodes, then the (n_t, n_x) blocks, all little-endian.

    The header is the 8-byte magic, uint32 version, uint32 n_t, uint32 n_x,
    float64 circumference and float64 x0; each block is row-major,
    time-major float64.
    """
    path = Path(path)
    n_t, n_x = blocks[0].shape
    with path.open("wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, n_t, n_x))
        fh.write(struct.pack("<dd", grid.circumference, grid.x0))
        for arr in (times, *blocks):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return path


def _read_blocks(path: Path, magic: bytes, kind: str, n_blocks: int):
    """(grid, times, *blocks) of a file written by `_write_blocks`."""
    with Path(path).open("rb") as fh:
        if fh.read(8) != magic:
            raise ValueError(f"not a {kind} snapshot: {path}")
        version, n_t, n_x = struct.unpack("<III", fh.read(12))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        circumference, x0 = struct.unpack("<dd", fh.read(16))
        times = np.frombuffer(fh.read(8 * n_t), dtype="<f8").copy()
        blocks = [np.frombuffer(fh.read(8 * n_t * n_x),
                                dtype="<f8").reshape(n_t, n_x).copy()
                  for _ in range(n_blocks)]
    return (SpatialGrid(n_x, circumference, x0), times, *blocks)


def write_snapshot(path: Path, traj: BeamTrajectory) -> Path:
    """Binary trajectory snapshot: magic "BEAMSNAP", then beta and beta_t
    as the two blocks of the shared layout (`_write_blocks`)."""
    return _write_blocks(path, SNAPSHOT_MAGIC, traj.grid, traj.times,
                         (traj.beta, traj.beta_t))


def read_snapshot(path: Path) -> BeamTrajectory:
    return BeamTrajectory(*_read_blocks(path, SNAPSHOT_MAGIC, "trajectory", 2))


def write_field_snapshot(path: Path, grid: SpatialGrid, times: np.ndarray,
                         values: np.ndarray) -> Path:
    """Single space-time field: magic "BEAMFLD1", then one value block."""
    return _write_blocks(path, FIELD_MAGIC, grid, times, (values,))


def read_field_snapshot(path: Path):
    return _read_blocks(path, FIELD_MAGIC, "field", 1)


def write_flat_report(path: Path, items) -> Path:
    """Flat  key = value  text file, one pair per line."""
    path = Path(path)
    with path.open("w") as fh:
        for key, value in items:
            fh.write(f"{key} = {value}\n")
    return path


def read_flat_report(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
