"""Property tests at the file and text boundaries.

Every failure on hostile input must be one of the classes the CLI reports
as ``ErrorClass: message`` (CadfitError, ValueError, OSError), never
something that would surface as a traceback.
"""

import dataclasses
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cell_points, circle_pair, cylinder_sequence

from cadfit.cli import main
from cadfit.errors import CadfitError
from cadfit.gridio import read_grid_text, read_tsdf, tsdf_bytes, write_grid_text
from cadfit.kernel import GridSpec, TSDFGrid, render
from cadfit.sequence import BoolOp, ConstructionSequence, parse_sequence, serialize_sequence
from cadfit.synth import SynthSpec, random_sequence, save_corpus, synth

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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A saved 2-triplet resolution-16 corpus, its manifest lines, and a
    directory for eval's report."""
    path = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(corpus_size=2, seed=5, grid=GridSpec(resolution=16, tau=0.1))
    save_corpus(path, synth(spec), spec)
    return path, (path / "manifest").read_text(encoding="utf-8").splitlines(), tmp_path_factory.mktemp("out")


@st.composite
def damaged_manifests(draw, lines):
    """The manifest with one line dropped, duplicated, swapped or rewritten,
    or one header value rewritten."""
    lines = list(lines)
    words = sorted({word for line in lines for word in line.split()} | {"bogus-class", "0002", "../0000"})
    # counted from the end, so the simplest draws damage the triplet lines
    i, kind = len(lines) - 1 - draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, 4))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind == 2:
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        lines[i] = draw(st.one_of(st.lists(st.sampled_from(words), max_size=4).map(" ".join), st.text(max_size=30)))
    else:
        values = st.sampled_from(["-3", "0", "1", "2", "7", "12", "16", "0.1", "nan", "1e39", "x", "", "param-jitter,bogus-class"])
        i = draw(st.integers(0, 5))
        lines[i] = lines[i].partition(" ")[0] + " " + draw(st.one_of(values, st.text(max_size=8)))
    return lines


@settings(max_examples=25, derandomize=True)
@given(data=st.data())
def test_eval_on_a_damaged_manifest_runs_or_fails_in_one_line(corpus, data):
    path, lines, out = corpus
    (path / "manifest").write_text("\n".join(data.draw(damaged_manifests(lines))) + "\n", encoding="utf-8")
    report = out / "report.txt"
    res = CliRunner().invoke(main, ["eval", str(path), "--report", str(report), "--rounds", "1", "--n", "1"])
    if res.exit_code == 0:
        assert res.stderr == ""
        report.unlink()
        return
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert re.fullmatch(r"[A-Z]\w*: [^\n]*\n", res.stderr)
    assert not report.exists()


@pytest.fixture(scope="module")
def scoring_inputs(tmp_path_factory):
    """A directory holding a sequence file, and its resolution-16 render."""
    path = tmp_path_factory.mktemp("scoring")
    seq = cylinder_sequence()
    (path / "cyl.seq").write_text(serialize_sequence(seq) + "\n", encoding="utf-8")
    return path, render(seq, GridSpec(resolution=16))


@st.composite
def damaged_targets(draw, grid):
    """``grid`` as a ``.tsdf`` or ``.grid`` file, truncated or with one
    sample made NaN, an infinity or the next float32 past tau, of either
    sign."""
    suffix = draw(st.sampled_from((".tsdf", ".grid")))
    damage = draw(st.sampled_from(("truncated", "nan", "inf", "-inf", "past-tau")))
    past = np.nextafter(np.float32(grid.spec.tau), np.float32(np.inf)) * draw(st.sampled_from((1, -1)))
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "past-tau": past}.get(damage)
    k = draw(st.integers(0, grid.values.size - 1))
    if suffix == ".tsdf":
        data = bytearray(tsdf_bytes(grid))
        if damage == "truncated":
            return suffix, damage, bytes(data[: draw(st.integers(_HEADER, len(data) - 1))])
        data[_HEADER + 4 * k : _HEADER + 4 * k + 4] = np.float32(bad).astype("<f4").tobytes()
        return suffix, damage, bytes(data)
    lines = _grid_text(grid).splitlines()
    if damage == "truncated":
        return suffix, damage, ("\n".join(lines[: draw(st.integers(1, len(lines) - 1))]) + "\n").encode()
    tokens = "\n".join(lines[1:]).split()
    tokens[k] = f"{np.float32(bad):.9g}"
    return suffix, damage, (lines[0] + "\n" + " ".join(tokens) + "\n").encode()


@settings(max_examples=30, derandomize=True)
@given(data=st.data())
def test_scoring_a_damaged_target_fails_in_one_line_and_writes_nothing(scoring_inputs, data):
    """The file boundary rejects what the kernel's own grids skip: a target
    that is truncated, not finite or out of the band."""
    path, grid = scoring_inputs
    suffix, damage, raw = data.draw(damaged_targets(grid))
    target = path / f"target{suffix}"
    target.write_bytes(raw)
    before = sorted(os.listdir(path))
    seq = str(path / "cyl.seq")
    for args in (
        ["metrics", seq, str(target), "--res", "16"],
        ["edit", seq, str(target), "-o", str(path / "out.seq"), "--report", str(path / "r.txt"), "--rounds", "1"],
    ):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), (damage, args[0], res.output)
        assert re.fullmatch(rf"ValueError: {re.escape(str(target))}: [^\n]*\n", res.stderr), res.stderr
        assert res.stdout == ""
        assert sorted(os.listdir(path)) == before


# a circle of radius bin 255 swept through the domain: every cell is inside
_FILL = parse_sequence("SOL C 128 128 255 E 0 0 0 128 128 0 255 255 0 0 0 SEP EOS").pairs[0]
# a body whose every point lies outside the domain
_OUTSIDE = circle_pair(origin=(255, 255, 255), r=30)
_NO_INTERIOR, _NO_EXTERIOR = "no interior voxels", "no exterior voxels"


@st.composite
def surfaceless_sequences(draw):
    """A valid sequence whose render has no surface, and the message that
    says why: the filling body or the outside one alone, or a random
    sequence joined with the filling body, cut by it, or intersected with
    the outside body."""
    kind = draw(st.sampled_from(("fill", "outside", "join-fill", "cut-fill", "intersect-outside")))
    if kind == "fill":
        return ConstructionSequence((_FILL,)), _NO_EXTERIOR
    if kind == "outside":
        return ConstructionSequence((_OUTSIDE,)), _NO_INTERIOR
    (sketch, ext), op = {
        "join-fill": (_FILL, BoolOp.JOIN),
        "cut-fill": (_FILL, BoolOp.CUT),
        "intersect-outside": (_OUTSIDE, BoolOp.INTERSECT),
    }[kind]
    seq = random_sequence(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    pairs = seq.pairs + ((sketch, dataclasses.replace(ext, bool_op=op)),)
    return ConstructionSequence(pairs), _NO_EXTERIOR if kind == "join-fill" else _NO_INTERIOR


@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_sequence_without_a_surface_exits_two_or_scores_invalid(scoring_inputs, data):
    """``render``, ``edit`` and ``inspect`` exit 2 in one line and write
    nothing; ``metrics`` scores the sequence invalid, against a grid and
    against another sequence."""
    path, grid = scoring_inputs
    seq, why = data.draw(surfaceless_sequences())
    src, target = path / "surfaceless.seq", path / "target.tsdf"
    src.write_text(serialize_sequence(seq) + "\n", encoding="utf-8")
    target.write_bytes(tsdf_bytes(grid))
    before = sorted(os.listdir(path))
    for args in (
        ["render", str(src), "-o", str(path / "out.tsdf"), "--res", "16"],
        ["edit", str(src), str(target), "-o", str(path / "out.seq"), "--report", str(path / "r.txt"), "--rounds", "1"],
        ["inspect", str(src), str(target)],
    ):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), (args[0], res.output)
        assert res.stderr == f"RenderInvalidError: composed field has {why}\n"
        assert res.stdout == ""
        assert sorted(os.listdir(path)) == before
    res = CliRunner().invoke(main, ["metrics", str(src), str(target)])
    assert (res.exit_code, res.stderr, res.stdout) == (0, "", "invalid True\n")
    res = CliRunner().invoke(main, ["metrics", str(src), str(path / "cyl.seq"), "--res", "16"])
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout.splitlines()[0] == "invalid True" and "objective inf" in res.stdout.splitlines()
