"""File formats for grids and sequences, written atomically.

Binary ``.tsdf`` layout: magic ``TSDF``, version byte 1, resolution as a
little-endian u16, tau as a little-endian float32, then resolution^3
float32 samples with x varying fastest.  ``.grid`` is a whitespace text
dump of the same data for debugging.  Sequence files are the canonical
token text plus a trailing newline.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .kernel import GridSpec, TSDFGrid
from .sequence import ConstructionSequence, parse_sequence, serialize_sequence

MAGIC = b"TSDF"
VERSION = 1


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def tsdf_bytes(grid: TSDFGrid) -> bytes:
    header = MAGIC + struct.pack("<BHf", VERSION, grid.spec.resolution, grid.spec.tau)
    payload = np.ascontiguousarray(grid.values.ravel(order="F"), dtype="<f4").tobytes()
    return header + payload


def write_tsdf(path: str, grid: TSDFGrid) -> None:
    _atomic_write(path, tsdf_bytes(grid))


def read_tsdf(path: str) -> TSDFGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a tsdf file")
    offset = 4 + struct.calcsize("<BHf")
    if len(data) < offset:
        raise ValueError(f"{path}: truncated header")
    version, resolution, tau = struct.unpack_from("<BHf", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    size = offset + 4 * resolution**3
    if len(data) < size:
        raise ValueError(f"{path}: truncated payload")
    if len(data) > size:
        raise ValueError(f"{path}: {len(data) - size} trailing bytes after the payload")
    values = np.frombuffer(data, dtype="<f4", offset=offset)
    cube = values.reshape((resolution, resolution, resolution), order="F")
    return TSDFGrid(GridSpec(resolution=resolution, tau=float(tau)), cube)


def write_grid_text(path: str, grid: TSDFGrid) -> None:
    lines = [f"{grid.spec.resolution} {grid.spec.tau:.9g}"]
    flat = grid.values.ravel(order="F")
    for row in range(0, len(flat), grid.spec.resolution):
        lines.append(" ".join(f"{v:.9g}" for v in flat[row : row + grid.spec.resolution]))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_grid_text(path: str) -> TSDFGrid:
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) < 2:
            raise ValueError(f"{path}: header needs a resolution and a tau")
        resolution, tau = int(head[0]), float(head[1])
        with np.errstate(over="ignore"):  # out-of-range samples become inf, which TSDFGrid rejects
            values = np.array(fh.read().split(), dtype=np.float32)
    if values.size != resolution**3:
        raise ValueError(f"{path}: expected {resolution**3} samples for resolution {resolution}, found {values.size}")
    cube = values.reshape((resolution, resolution, resolution), order="F")
    return TSDFGrid(GridSpec(resolution=resolution, tau=tau), cube)


def write_sequence_file(path: str, seq: ConstructionSequence) -> None:
    write_text_atomic(path, serialize_sequence(seq) + "\n")


def read_sequence_file(path: str) -> ConstructionSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence(fh.read())
