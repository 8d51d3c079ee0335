"""Property tests at the file and text boundaries.

Every failure on hostile input must be one of the classes the CLI reports
as ``ErrorClass: message`` (CadfitError, ValueError, OSError), never
something that would surface as a traceback.
"""

import os
import struct
import tempfile

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from helpers import cell_points

from cadfit.errors import CadfitError
from cadfit.gridio import read_grid_text, read_tsdf, tsdf_bytes, write_grid_text
from cadfit.kernel import GridSpec, TSDFGrid
from cadfit.sequence import parse_sequence, serialize_sequence
from cadfit.synth import random_sequence

REPORTED = (CadfitError, ValueError, OSError)

TOKENS = st.sampled_from(
    ["SOL", "SEP", "EOS", "MASK", "L", "A", "C", "E", "0", "1", "2", "128", "255", "256", "-1", "3.5", "1e3", "x"]
)

_STREAMS = [serialize_sequence(random_sequence(np.random.default_rng(s))).split() for s in range(8)]


def _edit_tokens(draw, toks, alphabet):
    """Up to four random deletions, insertions and replacements."""
    toks = list(toks)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(toks)))
        op = draw(st.integers(0, 2))
        if op == 0 and i < len(toks):
            del toks[i]
        elif op == 1:
            toks.insert(i, draw(alphabet))
        elif i < len(toks):
            toks[i] = draw(alphabet)
    return toks


@st.composite
def streams(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=120))
    if kind == 1:
        return " ".join(draw(st.lists(TOKENS, max_size=60)))
    return " ".join(_edit_tokens(draw, draw(st.sampled_from(_STREAMS)), TOKENS))


@given(streams())
def test_parse_sequence_raises_only_cadfit_errors(text):
    try:
        seq = parse_sequence(text)
    except CadfitError:
        return
    assert parse_sequence(serialize_sequence(seq)) == seq


_SPEC = GridSpec(resolution=8, tau=0.2)
_VALUES = np.clip(np.linalg.norm(cell_points(_SPEC), axis=1) - 0.3, -0.2, 0.2).reshape(8, 8, 8)
_GRID = TSDFGrid(_SPEC, _VALUES)
_HEADER = struct.calcsize("<4sBHf")


def _grid_text(grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base.grid")
        write_grid_text(path, grid)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


_GRID_TEXT = _grid_text(_GRID)


@st.composite
def tsdf_files(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(tsdf_bytes(_GRID))
    if draw(st.booleans()):
        version = draw(st.integers(0, 255))
        resolution = draw(st.integers(0, 65535))
        tau = draw(st.floats(width=32))
        data[4:_HEADER] = struct.pack("<BHf", version, resolution, tau)
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        return bytes(data)
    return bytes(data[: draw(st.integers(0, len(data)))]) + draw(st.binary(max_size=8))


@st.composite
def grid_text_files(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.binary(max_size=120))
    if kind == 1:
        return draw(st.text(max_size=200)).encode()
    lines = [line.split() for line in _GRID_TEXT.splitlines()]
    numbers = st.one_of(
        st.sampled_from(["8", "0", "0.05", "-0.1", "-8", "9", "x", "nan", "inf", "1e400", "99999999999999999999"]),
        st.floats().map(repr),
    )
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(lines) - 1))
        lines[row] = _edit_tokens(draw, lines[row], numbers)
    if draw(st.integers(0, 3)) == 0:
        del lines[draw(st.integers(1, len(lines) - 1)) :]
    return "\n".join(" ".join(line) for line in lines).encode()


def _read_reports_only(reader, path, data):
    path.write_bytes(data)
    try:
        grid = reader(str(path))
    except REPORTED:
        return
    assert isinstance(grid, TSDFGrid)


@given(tsdf_files())
def test_read_tsdf_raises_only_reported_errors(tmp_path_factory, data):
    _read_reports_only(read_tsdf, tmp_path_factory.getbasetemp() / "fuzz.tsdf", data)


@given(grid_text_files())
def test_read_grid_text_raises_only_reported_errors(tmp_path_factory, data):
    _read_reports_only(read_grid_text, tmp_path_factory.getbasetemp() / "fuzz.grid", data)
