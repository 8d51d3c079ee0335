"""Round trips for the binary grid format, the text debug format, and sequence files."""

import struct
from pathlib import Path

import numpy as np
import pytest

from helpers import cylinder_sequence

from cadfit.errors import SequenceSyntaxError, StructureError
from cadfit.gridio import (
    MAGIC,
    read_grid,
    read_grid_text,
    read_sequence_file,
    read_tsdf,
    tsdf_bytes,
    write_atomic,
    write_grid,
    write_grid_text,
    write_sequence_file,
    write_tsdf,
)
from cadfit.kernel import GridSpec, render
from cadfit.sequence import parse_sequence, serialize_sequence


@pytest.fixture
def grid():
    return render(cylinder_sequence(), GridSpec(resolution=16, tau=0.15))


def test_tsdf_header_layout(grid):
    blob = tsdf_bytes(grid)
    assert blob[:4] == b"TSDF"
    version, resolution, tau = struct.unpack_from("<BHf", blob, 4)
    assert version == 1
    assert resolution == 16
    assert tau == np.float32(0.15)
    assert len(blob) == 4 + 7 + 16**3 * 4


def test_tsdf_payload_is_x_fastest(grid):
    blob = tsdf_bytes(grid)
    flat = np.frombuffer(blob, dtype="<f4", offset=11)
    assert flat[0] == grid.values[0, 0, 0]
    assert flat[1] == grid.values[1, 0, 0]
    assert flat[16] == grid.values[0, 1, 0]
    assert flat[16 * 16] == grid.values[0, 0, 1]


def test_tsdf_round_trip_bit_exact(grid, tmp_path):
    path = tmp_path / "shape.tsdf"
    write_tsdf(path, grid)
    back = read_tsdf(path)
    assert back.spec == grid.spec
    assert np.array_equal(back.values, grid.values)
    assert back.values.dtype == np.float32


def test_tsdf_write_is_deterministic(grid, tmp_path):
    p1, p2 = tmp_path / "a.tsdf", tmp_path / "b.tsdf"
    write_tsdf(p1, grid)
    write_tsdf(p2, grid)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_text_round_trip(grid, tmp_path):
    path = tmp_path / "shape.grid"
    write_grid_text(path, grid)
    back = read_grid_text(path)
    assert back.spec == grid.spec
    assert np.array_equal(back.values, grid.values)


@pytest.mark.parametrize("suffix, writer", [(".grid", write_grid_text), (".tsdf", write_tsdf), (".bin", write_tsdf)])
def test_grid_files_take_their_form_from_the_suffix(grid, tmp_path, suffix, writer):
    path, twin = tmp_path / f"shape{suffix}", tmp_path / "twin"
    write_grid(path, grid)
    writer(twin, grid)
    assert path.read_bytes() == twin.read_bytes()
    back = read_grid(path)
    assert back.spec == grid.spec
    assert np.array_equal(back.values.view(np.uint32), grid.values.view(np.uint32))


@pytest.mark.parametrize("second", ["./out", "link"])
def test_outputs_that_name_one_file_write_nothing(tmp_path, monkeypatch, second):
    monkeypatch.chdir(tmp_path)
    Path("out").write_bytes(b"old")
    Path("link").symlink_to("out")
    with pytest.raises(ValueError, match=f"^{second}: named by two outputs$"):
        write_atomic(("new", b"first"), ("out", b"second"), (second, b"third"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "out"]
    assert Path("out").read_bytes() == b"old"


def test_sequence_file_round_trip(tmp_path):
    seq = cylinder_sequence()
    path = tmp_path / "model.txt"
    write_sequence_file(path, seq)
    assert read_sequence_file(path) == seq
    assert path.read_text(encoding="utf-8") == serialize_sequence(seq) + "\n"


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("SOL X", SequenceSyntaxError, "expected a primitive token, got 'X'"),
        ("", StructureError, "empty stream"),
    ],
)
def test_a_sequence_file_error_names_the_file_and_keeps_its_class(tmp_path, text, kind, message):
    path = tmp_path / "model.seq"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(kind) as err:
        read_sequence_file(path)
    assert type(err.value) is kind
    assert str(err.value) == f"{path}: {message}"


def test_a_sequence_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "model.seq"
    path.write_bytes(b"SOL \xff")
    with pytest.raises(ValueError) as err:
        read_sequence_file(path)
    assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def test_sequence_file_accepts_multiline(tmp_path):
    seq = cylinder_sequence()
    path = tmp_path / "model.txt"
    path.write_text(serialize_sequence(seq).replace(" ", "\n"), encoding="utf-8")
    assert read_sequence_file(path) == seq


def test_read_tsdf_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tsdf"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError):
        read_tsdf(path)


def test_read_tsdf_rejects_truncated_payload(grid, tmp_path):
    path = tmp_path / "short.tsdf"
    blob = tsdf_bytes(grid)
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        read_tsdf(path)


def test_read_tsdf_rejects_truncated_header(grid, tmp_path):
    path = tmp_path / "short.tsdf"
    path.write_bytes(tsdf_bytes(grid)[:7])
    with pytest.raises(ValueError):
        read_tsdf(path)


def test_read_tsdf_rejects_trailing_bytes(grid, tmp_path):
    path = tmp_path / "long.tsdf"
    path.write_bytes(tsdf_bytes(grid) + b"\0")
    with pytest.raises(ValueError):
        read_tsdf(path)


def test_read_tsdf_rejects_an_infinite_tau(grid, tmp_path):
    path = tmp_path / "wide.tsdf"
    blob = bytearray(tsdf_bytes(grid))
    struct.pack_into("<f", blob, 7, np.inf)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="tau inf is not positive and finite"):
        read_tsdf(path)


@pytest.mark.parametrize("text", ["", "\n", "16\n"])
def test_read_grid_text_rejects_short_header(tmp_path, text):
    path = tmp_path / "bad.grid"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        read_grid_text(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("samples", [0, 5])
def test_read_grid_text_counts_missing_samples(tmp_path, samples):
    path = tmp_path / "short.grid"
    path.write_text("8 0.2\n" + " 0.1" * samples + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_grid_text(path)
    assert str(err.value) == f"{path}: expected 512 samples for resolution 8, found {samples}"


def _write_raw(path, resolution, tau, sample):
    """A grid file whose header and resolution^3 equal samples are as given,
    whether or not they are valid."""
    count = resolution**3 if isinstance(resolution, int) else 1
    if path.suffix == ".tsdf":
        payload = np.full(count, float(sample), dtype="<f4").tobytes()
        path.write_bytes(MAGIC + struct.pack("<BHf", 1, resolution, tau) + payload)
    else:
        path.write_text(f"{resolution} {tau}\n" + " ".join([sample] * count) + "\n", encoding="utf-8")


_BAD_GRIDS = [
    (4, 0.2, "0.1", "resolution 4 below the minimum of 8"),
    (8, 0.2, "nan", "values must be finite"),
    (8, 0.2, "5.0", "values exceed the truncation band"),
    (8, np.inf, "0.1", "truncation tau inf is not positive and finite in float32"),
]


@pytest.mark.parametrize(
    "suffix, resolution, tau, sample, message",
    [(s, *case) for s in (".tsdf", ".grid") for case in _BAD_GRIDS]
    + [
        (".grid", "x", 0.2, "0.1", "invalid literal for int() with base 10: 'x'"),
        (".grid", 8, 0.2, "abc", "could not convert string to float: 'abc'"),
    ],
)
def test_every_grid_read_error_names_the_file(tmp_path, suffix, resolution, tau, sample, message):
    path = tmp_path / f"bad{suffix}"
    _write_raw(path, resolution, tau, sample)
    reader = read_tsdf if suffix == ".tsdf" else read_grid_text
    with pytest.raises(ValueError) as err:
        reader(path)
    assert str(err.value) == f"{path}: {message}"


def test_a_text_grid_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "bin.grid"
    path.write_bytes(b"\xff8 0.2\n")
    with pytest.raises(ValueError) as err:
        read_grid_text(path)
    assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def test_parse_serialize_identity_through_files(tmp_path):
    text = serialize_sequence(cylinder_sequence())
    assert serialize_sequence(parse_sequence(text)) == text
