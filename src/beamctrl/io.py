"""CSV, binary snapshot, and manifest writers for experiment outputs."""

from __future__ import annotations

import csv
import struct
from itertools import islice
from pathlib import Path

import numpy as np

from .dynamics import BeamTrajectory, trajectory_energy
from .torus import SpatialGrid

SNAPSHOT_MAGIC = b"BEAMSNAP"
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


def write_snapshot(path: Path, traj: BeamTrajectory) -> Path:
    """Compact binary trajectory snapshot.

    Layout (all little-endian): 8-byte magic "BEAMSNAP", uint32 version,
    uint32 n_t, uint32 n_x, float64 circumference, float64 x0, then the time
    nodes (n_t float64), then beta and beta_t as row-major time-major blocks
    of n_t * n_x float64 each.
    """
    path = Path(path)
    n_t, n_x = traj.beta.shape
    with path.open("wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, n_t, n_x))
        fh.write(struct.pack("<dd", traj.grid.circumference, traj.grid.x0))
        fh.write(np.ascontiguousarray(traj.times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(traj.beta, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(traj.beta_t, dtype="<f8").tobytes())
    return path


def read_snapshot(path: Path) -> BeamTrajectory:
    with Path(path).open("rb") as fh:
        magic = fh.read(8)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a trajectory snapshot: {path}")
        version, n_t, n_x = struct.unpack("<III", fh.read(12))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        circumference, x0 = struct.unpack("<dd", fh.read(16))
        times = np.frombuffer(fh.read(8 * n_t), dtype="<f8").copy()
        beta = np.frombuffer(fh.read(8 * n_t * n_x),
                             dtype="<f8").reshape(n_t, n_x).copy()
        beta_t = np.frombuffer(fh.read(8 * n_t * n_x),
                               dtype="<f8").reshape(n_t, n_x).copy()
    grid = SpatialGrid(n_x, circumference, x0)
    E, D = trajectory_energy(grid, beta, beta_t)
    return BeamTrajectory(grid=grid, times=times, beta=beta, beta_t=beta_t,
                          energy=E, dissipation=D)


FIELD_MAGIC = b"BEAMFLD1"


def write_field_snapshot(path: Path, grid: SpatialGrid, times: np.ndarray,
                         values: np.ndarray) -> Path:
    """Single space-time field in the snapshot layout (one value block)."""
    path = Path(path)
    n_t, n_x = values.shape
    with path.open("wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, n_t, n_x))
        fh.write(struct.pack("<dd", grid.circumference, grid.x0))
        fh.write(np.ascontiguousarray(times, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return path


def read_field_snapshot(path: Path):
    with Path(path).open("rb") as fh:
        if fh.read(8) != FIELD_MAGIC:
            raise ValueError(f"not a field snapshot: {path}")
        version, n_t, n_x = struct.unpack("<III", fh.read(12))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        circumference, x0 = struct.unpack("<dd", fh.read(16))
        times = np.frombuffer(fh.read(8 * n_t), dtype="<f8").copy()
        values = np.frombuffer(fh.read(8 * n_t * n_x),
                               dtype="<f8").reshape(n_t, n_x).copy()
    return SpatialGrid(n_x, circumference, x0), times, values


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
