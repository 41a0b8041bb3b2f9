"""Writers and readers of experiment outputs.

Each space-time field is recorded once, in the binary field snapshot
format (`write_field_snapshot`); `export_field_csv` turns such a file into
exact CSV text on request.  Small tables are written as CSV, manifests and
reports as flat  key = value  text.  `StageClock` takes the stage laps a
manifest records.
"""

from __future__ import annotations

import csv
import struct
import time
from itertools import islice
from pathlib import Path

import numpy as np

from .torus import SpatialGrid

FIELD_MAGIC = b"BEAMFLD1"
FIELD_VERSION = 2
# version, n_t, n_x, field count, name bytes, circumference, x0
_HEADER = "<IIIIIdd"


class StageClock:
    """Wall and CPU seconds of consecutive stages, from the clock's start.

    `lap(stage)` closes the stage begun at the previous lap, `merge` or
    the start, records its wall seconds as `timing[stage]` and its CPU
    seconds, summed over the process's threads, as `timing[stage_cpu]`,
    and returns the wall seconds since the start.
    """

    def __init__(self):
        self.timing: dict[str, float] = {}
        self._start = self._mark = (time.perf_counter(), time.process_time())

    def lap(self, stage: str) -> float:
        now = time.perf_counter(), time.process_time()
        self.timing[stage] = now[0] - self._mark[0]
        self.timing[f"{stage}_cpu"] = now[1] - self._mark[1]
        self._mark = now
        return now[0] - self._start[0]

    def merge(self, laps: dict[str, float]) -> None:
        """Record the laps of a callee's own clock, which timed the call
        made since the previous lap, and begin the next stage now."""
        self.timing.update(laps)
        self._mark = (time.perf_counter(), time.process_time())


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Rows of cells written with str(); for Python and numpy floats alike
    that is repr(float(x)), so reading a number back with float() is exact."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_field_csv(path: Path, columns: dict[str, np.ndarray]) -> Path:
    """Named columns broadcast to one shape, one row per entry, row-major.

    Values are written as repr(float), so reading them back with float()
    is exact.  A column is formatted before it is broadcast, so each time or
    space node is formatted once, not once per row; rows are written in
    blocks, so no full copy of the text is held in memory.
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


def write_field_snapshot(path: Path, grid: SpatialGrid, times: np.ndarray,
                         fields: dict[str, np.ndarray]) -> Path:
    """Named (times.size, grid.n) fields as one little-endian binary file:
    the magic, the `_HEADER` values, the comma-joined UTF-8 field names, the
    time nodes, then one row-major, time-major float64 block per field."""
    shape = (times.size, grid.n)
    for name, values in fields.items():
        if np.shape(values) != shape:
            raise ValueError(f"field {name!r} has shape {np.shape(values)}, "
                             f"not {shape}")
    names = ",".join(fields).encode()
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(FIELD_MAGIC + struct.pack(
            _HEADER, FIELD_VERSION, *shape, len(fields), len(names),
            grid.circumference, grid.x0) + names)
        for arr in (times, *fields.values()):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return path


def read_field_snapshot(path: Path):
    """(grid, times, {name: field}) of a file written by
    `write_field_snapshot`; raises ValueError on any other file."""
    data = Path(path).read_bytes()
    start = len(FIELD_MAGIC) + struct.calcsize(_HEADER)
    if not data.startswith(FIELD_MAGIC) or len(data) < start:
        raise ValueError(f"not a field snapshot: {path}")
    version, n_t, n_x, n_fields, n_names, circumference, x0 = \
        struct.unpack_from(_HEADER, data, len(FIELD_MAGIC))
    if version != FIELD_VERSION:
        raise ValueError(f"unsupported field snapshot version {version}")
    names = data[start:start + n_names].decode().split(",") if n_names else []
    if len(names) != n_fields or \
            len(data) != start + n_names + 8 * n_t * (1 + n_fields * n_x):
        raise ValueError(f"truncated or malformed field snapshot: {path}")
    values = np.frombuffer(data, "<f8", offset=start + n_names).copy()
    blocks = values[n_t:].reshape(n_fields, n_t, n_x)
    return (SpatialGrid(n_x, circumference, x0), values[:n_t],
            dict(zip(names, blocks)))


def export_field_csv(path: Path) -> Path:
    """Write the fields of a binary snapshot to the CSV next to it: columns
    t, x and then the fields, one row per (t, x) node, time-major."""
    grid, times, fields = read_field_snapshot(path)
    return write_field_csv(Path(path).with_suffix(".csv"), {
        "t": times[:, None], "x": grid.nodes[None, :], **fields})


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
