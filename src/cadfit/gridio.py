"""File formats for grids and sequences, written atomically.

Binary ``.tsdf`` layout: magic ``TSDF``, version byte 1, resolution as a
little-endian u16, tau as a little-endian float32, then resolution^3
float32 samples with x varying fastest.  ``.grid`` is a whitespace text
dump of the same data for debugging; ``read_grid`` and ``write_grid`` pick
the form by that suffix.  Sequence files are the canonical token text plus
a trailing newline.  Every read error names the file.
"""

from __future__ import annotations

import contextlib
import errno
import os
import struct
import tempfile

import numpy as np

from .errors import CadfitError
from .kernel import GridSpec, TSDFGrid
from .sequence import ConstructionSequence, parse_sequence, serialize_sequence

MAGIC = b"TSDF"
VERSION = 1


@contextlib.contextmanager
def _naming(path):
    """Re-raise an error from reading ``path`` as ``path: message``, of the
    same class, or a ValueError for a decode error."""
    try:
        yield
    except (CadfitError, ValueError) as err:
        kind = ValueError if isinstance(err, UnicodeError) else type(err)
        raise kind(f"{path}: {err}") from err


def check_outputs(*paths: str) -> None:
    """Raise if ``write_atomic`` could not write these paths: a
    ``ValueError`` for two paths that name one file, since the later would
    replace the earlier, else the ``OSError`` ``open(path, "wb")`` raises
    for a path that is empty, ends in a separator or is a directory, whose
    parent is not a directory this process can write and search, or whose
    name is longer than the parent's file system takes.  Each error names
    the caller's path as a plain string.  A command calls this before its
    work, so a bad output fails at once and not after the run."""
    seen = set()
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{os.fspath(path)}: named by two outputs")
        seen.add(real)
        if not os.fspath(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
        if os.path.isdir(path) and not os.path.islink(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), os.fspath(path))  # the subclass for the code
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        if not os.path.basename(path):  # a trailing separator: open() takes the path for a directory
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        if len(os.fsencode(os.path.basename(path))) > os.pathconf(parent, "PC_NAME_MAX"):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), os.fspath(path))


def write_atomic(*outputs: tuple[str, bytes]) -> None:
    """Write the ``(path, data)`` outputs: every path passes
    ``check_outputs`` and each is staged beside its path before the first is
    replaced, so a failure ``check_outputs`` can predict writes nothing.  A
    replace refused later, by a full disk for one, can leave the earlier
    outputs replaced.  Each output gets the mode ``open()`` would give a new
    file, 0o666 less the umask.  An ``OSError`` names the caller's path."""
    check_outputs(*(path for path, _ in outputs))
    os.umask(umask := os.umask(0))  # POSIX reads the umask only by setting it
    staged = []
    try:
        for path, data in outputs:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-", suffix="~")
            staged.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fd, 0o666 & ~umask)  # mkstemp makes 0o600
                fh.write(data)
        for tmp, (path, _) in zip(staged, outputs):
            os.replace(tmp, path)
    except OSError as err:
        raise type(err)(err.errno, err.strerror, os.fspath(path)) from err
    finally:
        for tmp in filter(os.path.exists, staged):  # replaced ones are gone
            os.unlink(tmp)


def write_text_atomic(path: str, text: str) -> None:
    write_atomic((path, text.encode("utf-8")))


def tsdf_bytes(grid: TSDFGrid) -> bytes:
    header = MAGIC + struct.pack("<BHf", VERSION, grid.spec.resolution, grid.spec.tau)
    payload = np.ascontiguousarray(grid.values.ravel(order="F"), dtype="<f4").tobytes()
    return header + payload


def write_tsdf(path: str, grid: TSDFGrid) -> None:
    write_atomic((path, tsdf_bytes(grid)))


def read_tsdf(path: str) -> TSDFGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    with _naming(path):
        if data[:4] != MAGIC:
            raise ValueError("not a tsdf file")
        offset = 4 + struct.calcsize("<BHf")
        if len(data) < offset:
            raise ValueError("truncated header")
        version, resolution, tau = struct.unpack_from("<BHf", data, 4)
        if version != VERSION:
            raise ValueError(f"unsupported version {version}")
        size = offset + 4 * resolution**3
        if len(data) < size:
            raise ValueError("truncated payload")
        if len(data) > size:
            raise ValueError(f"{len(data) - size} trailing bytes after the payload")
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
    with open(path, "r", encoding="utf-8") as fh, _naming(path):
        head = fh.readline().split()
        if len(head) < 2:
            raise ValueError("header needs a resolution and a tau")
        resolution, tau = int(head[0]), float(head[1])
        with np.errstate(over="ignore"):  # out-of-range samples become inf, which TSDFGrid rejects
            values = np.array(fh.read().split(), dtype=np.float32)
        if values.size != resolution**3:
            raise ValueError(f"expected {resolution**3} samples for resolution {resolution}, found {values.size}")
        cube = values.reshape((resolution, resolution, resolution), order="F")
        return TSDFGrid(GridSpec(resolution=resolution, tau=tau), cube)


def read_grid(path: str) -> TSDFGrid:
    """A ``.grid`` text file, or else a binary ``.tsdf`` file."""
    return read_grid_text(path) if os.fspath(path).endswith(".grid") else read_tsdf(path)


def write_grid(path: str, grid: TSDFGrid) -> None:
    """Write ``grid`` as text to a ``.grid`` path, or else as binary ``.tsdf``."""
    (write_grid_text if os.fspath(path).endswith(".grid") else write_tsdf)(path, grid)


def sequence_bytes(seq: ConstructionSequence) -> bytes:
    return (serialize_sequence(seq) + "\n").encode("utf-8")


def write_sequence_file(path: str, seq: ConstructionSequence) -> None:
    write_atomic((path, sequence_bytes(seq)))


def read_sequence_file(path: str) -> ConstructionSequence:
    with open(path, "r", encoding="utf-8") as fh, _naming(path):
        return parse_sequence(fh.read())
