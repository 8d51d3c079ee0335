"""Property tests at the file and text boundaries.

Every failure on hostile input must be one of the classes the CLI reports
as ``ErrorClass: message`` (CadfitError, ValueError, OSError), never
something that would surface as a traceback.
"""

import dataclasses
import functools
import os
import re
import shlex
import shutil
import struct
import sys
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cell_points, circle_pair, cylinder_sequence
from test_generator import DYING_STUB, EARLY_END_STUB, FLOOD_STUB, GARBAGE_STUB, STALL_STUB

from cadfit import kernel
from cadfit.cli import main
from cadfit.errors import CadfitError
from cadfit.generator import ExternalGenerator
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


@pytest.fixture(scope="module")
def one_triplet_corpus(tmp_path_factory):
    """A saved 1-triplet resolution-16 corpus and its grid spec."""
    path = tmp_path_factory.mktemp("one-triplet")
    spec = SynthSpec(corpus_size=1, seed=5, grid=GridSpec(resolution=16, tau=0.1))
    save_corpus(path, synth(spec), spec)
    return path, spec.grid


def _surfaceless_bytes(suffix, spec, value):
    """A ``.tsdf`` or ``.grid`` file's bytes, every sample ``value``."""
    n = spec.resolution
    if suffix == ".tsdf":
        return b"TSDF" + struct.pack("<BHf", 1, n, spec.tau) + np.full(n**3, value, dtype="<f4").tobytes()
    row = " ".join([f"{np.float32(value):.9g}"] * n)
    return (f"{n} {spec.tau:.9g}\n" + "\n".join([row] * n * n) + "\n").encode()


def _tree(path):
    """Every entry under ``path``: a directory, a symlink's target or a
    file's bytes, by relative path; symlinks are not followed."""
    out = {}
    for root, dirs, files in os.walk(path):
        for name in dirs + files:
            full = os.path.join(root, name)
            key = os.path.relpath(full, path)
            if os.path.islink(full):
                out[key] = ("link", os.readlink(full))
            elif os.path.isdir(full):
                out[key] = ("dir",)
            else:
                with open(full, "rb") as fh:
                    out[key] = ("file", fh.read())
    return out


@pytest.mark.parametrize("suffix", [".tsdf", ".grid"])
@pytest.mark.parametrize(
    "value, which",
    [(0.1, "no"), (-0.1, "every"), (0.0, "no"), (-0.0, "no")],
    ids=["tau", "minus-tau", "zero", "minus-zero"],
)
def test_a_target_with_no_surface_fails_every_command_before_any_render(
    one_triplet_corpus, tmp_path, monkeypatch, suffix, value, which
):
    """``metrics``, ``inspect`` and ``edit`` against such a file, and, for
    ``.tsdf``, the form a corpus holds, ``eval`` on a corpus whose target it
    replaces, exit 1 with one line that names the file, print nothing, write
    nothing and never reach the kernel."""
    corpus, spec = one_triplet_corpus
    work = tmp_path / "corpus"
    shutil.copytree(corpus, work)
    target = work / ("0000.target.tsdf" if suffix == ".tsdf" else "target.grid")
    target.write_bytes(_surfaceless_bytes(suffix, spec, value))
    calls, real = [], {name: getattr(kernel, name) for name in ("render", "attribute")}
    for mod in [m for key, m in sys.modules.items() if key.partition(".")[0] == "cadfit"]:
        for name, fn in real.items():
            if vars(mod).get(name) is fn:  # wherever the name is bound
                monkeypatch.setattr(mod, name, lambda *a, _name=name, **k: calls.append(_name))
    seq = str(work / "0000.orig.seq")
    commands = [
        ["metrics", seq, str(target)],
        ["inspect", seq, str(target)],
        ["edit", seq, str(target), "-o", str(work / "out.seq"), "--report", str(work / "r.txt"), "--rounds", "1"],
    ]
    if suffix == ".tsdf":
        commands.append(["eval", str(work), "--report", str(work / "eval.txt"), "--rounds", "1", "--n", "1"])
    before = _tree(work)
    for args in commands:
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), (args[0], res.output)
        assert res.stderr == f"EmptySurfaceError: {target}: grid has no surface: {which} cell is inside\n", args[0]
        assert res.stdout == ""
        assert _tree(work) == before
    assert calls == []


@pytest.fixture(scope="module")
def output_inputs(tmp_path_factory, one_triplet_corpus):
    """A directory of every command's inputs, intact and damaged, and of the
    entries the outputs below collide with or cannot be written to."""
    path = tmp_path_factory.mktemp("output-inputs")
    corpus, spec = one_triplet_corpus
    for name in ("corpus", "garbage-corpus", "surfaceless-corpus"):
        shutil.copytree(corpus, path / name)
    (path / "garbage-corpus" / "manifest").write_text("junk\n", encoding="utf-8")
    (path / "surfaceless-corpus" / "0000.target.tsdf").write_bytes(_surfaceless_bytes(".tsdf", spec, spec.tau))
    (path / "cyl.seq").write_text(serialize_sequence(cylinder_sequence()) + "\n", encoding="utf-8")
    (path / "garbage.seq").write_text("SOL X\n", encoding="utf-8")
    surfaceless = ConstructionSequence((_OUTSIDE,))
    (path / "surfaceless.seq").write_text(serialize_sequence(surfaceless) + "\n", encoding="utf-8")
    (path / "target.tsdf").write_bytes(tsdf_bytes(render(cylinder_sequence(), spec)))
    (path / "garbage.tsdf").write_bytes(b"TSDF junk")
    (path / "surfaceless.tsdf").write_bytes(_surfaceless_bytes(".tsdf", spec, -spec.tau))
    (path / "recipe").write_text("corpus_size 1\nresolution 16\ntau 0.1\nseed 5\n", encoding="utf-8")
    (path / "garbage.recipe").write_text("corpus_size x\n", encoding="utf-8")
    (path / "a-dir").mkdir()
    (path / "alias").symlink_to("out-o")  # names edit's -o output
    (path / "corpus-with-dir" / "manifest").mkdir(parents=True)
    (path / "corpus-with-alias").mkdir()
    (path / "corpus-with-alias" / "0000.truth.seq").symlink_to("0000.orig.seq")
    return path


# output paths in the inputs' directory that cannot be written: a
# directory, under a missing directory, under a file, a name too long
_BAD_OUTPUTS = ("a-dir", "missing/out", "cyl.seq/out", "x" * 300)
# and synth's: a file, under a file, a name too long, a corpus holding a
# directory where the manifest goes, or a link that makes two files one
_BAD_SYNTH_OUTPUTS = ("cyl.seq", "cyl.seq/corpus", "x" * 300, "corpus-with-dir", "corpus-with-alias")
# each command's input: intact, missing, garbage and, but for synth's recipe, with no surface
_INPUTS = {
    "render": ("cyl.seq", "none.seq", "garbage.seq", "surfaceless.seq"),
    "edit": ("target.tsdf", "none.tsdf", "garbage.tsdf", "surfaceless.tsdf"),
    "synth": ("recipe", "none.recipe", "garbage.recipe"),
    "eval": ("corpus", "none", "garbage-corpus", "surfaceless-corpus"),
}


@st.composite
def bad_output_commands(draw, base):
    """Each command's arguments, with one of its inputs in ``base`` intact or
    damaged and at least one of its outputs a path that collides or cannot
    be written."""
    bad = st.sampled_from(_BAD_OUTPUTS)
    inputs = {cmd: f"{base}/{draw(st.sampled_from(names))}" for cmd, names in _INPUTS.items()}
    out, report = draw(st.sampled_from([("ok", "bad"), ("bad", "ok"), ("bad", "bad"), ("ok", "collide")]))
    out = "out-o" if out == "ok" else draw(bad)
    if report == "collide":
        report = draw(st.sampled_from([out, "./" + out, "alias"]))
    else:
        report = "out-r" if report == "ok" else draw(bad)
    rounds = ["--rounds", "1", "--n", "1"]
    return [
        ["render", inputs["render"], "-o", f"{base}/{draw(bad)}", "--res", "16"],
        ["edit", f"{base}/cyl.seq", inputs["edit"], "-o", f"{base}/{out}", "--report", f"{base}/{report}", *rounds],
        ["synth", "--spec", inputs["synth"], "-o", f"{base}/{draw(st.sampled_from(_BAD_SYNTH_OUTPUTS))}"],
        ["eval", inputs["eval"], "--report", f"{base}/{draw(bad)}", *rounds],
    ]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_an_output_that_collides_or_cannot_be_written_fails_in_one_line_and_writes_nothing(output_inputs, data):
    """``render``, ``edit``, ``synth`` and ``eval``, each with an output
    that is a directory, under a missing directory or a file, too long a
    name, or another output's file, beside intact or damaged inputs."""
    before = _tree(output_inputs)
    for args in data.draw(bad_output_commands(output_inputs)):
        res = CliRunner().invoke(main, args)
        assert res.exit_code in (1, 2) and isinstance(res.exception, SystemExit), (args, res.output)
        assert re.fullmatch(r"[A-Z]\w*: [^\n]*\n", res.stderr), (args, res.stderr)
        assert res.stdout == ""
        assert _tree(output_inputs) == before, args


def test_an_edit_whose_report_cannot_be_replaced_writes_nothing(output_inputs, tmp_path):
    """A report name too long for the file system fails ``check_outputs``
    before the edit, so ``-o`` is not replaced ahead of it."""
    base = tmp_path / "inputs"
    shutil.copytree(output_inputs, base, symlinks=True)
    before = _tree(base)
    args = ["edit", f"{base}/cyl.seq", f"{base}/target.tsdf", "-o", f"{base}/out-o", "--report", f"{base}/{'x' * 300}"]
    res = CliRunner().invoke(main, args + ["--rounds", "1", "--n", "1"])
    assert res.exit_code == 1 and re.fullmatch(r"OSError: [^\n]*\n", res.stderr), res.output
    assert _tree(base) == before


# stubs that fail in every way an endpoint can, each started with its pid
# file as its one argument
_PID_LINE = "import os, sys\nwith open(sys.argv[1], 'a') as fh:\n    fh.write(f'{os.getpid()}\\n')\n"
_FAILING_ENDPOINTS = {
    "floods": FLOOD_STUB,
    "goes-silent": STALL_STUB,
    "closes-mid-response": DYING_STUB,
    "exits-at-once": "",
    "ends-early": EARLY_END_STUB,
    "answers-garbage": GARBAGE_STUB,
}


@pytest.fixture(scope="module")
def endpointless_edit(one_triplet_corpus, tmp_path_factory):
    """A two-round edit's arguments, and its stdout, ``-o`` bytes and
    ``--report`` bytes with no endpoint."""
    corpus, _ = one_triplet_corpus
    path = tmp_path_factory.mktemp("endpointless")
    args = ["edit", str(corpus / "0000.orig.seq"), str(corpus / "0000.target.tsdf"), "--rounds", "2", "--n", "2"]
    res = CliRunner().invoke(main, args + ["-o", str(path / "out.seq"), "--report", str(path / "r.txt")])
    assert res.exit_code == 0, res.output
    return args, res.stdout, (path / "out.seq").read_bytes(), (path / "r.txt").read_bytes()


@pytest.mark.parametrize("body", _FAILING_ENDPOINTS.values(), ids=_FAILING_ENDPOINTS.keys())
def test_an_edit_whose_endpoint_fails_writes_what_it_writes_without_one(endpointless_edit, tmp_path, monkeypatch, body):
    """Every round falls back to the surrogate, so the edit exits 0 with the
    endpointless edit's stdout and bytes, and every stub it started is
    gone when it returns."""
    args, stdout, out, report = endpointless_edit
    stub, pids = tmp_path / "stub.py", tmp_path / "pids"
    stub.write_text(_PID_LINE + body)
    monkeypatch.setattr("cadfit.cli.ExternalGenerator", functools.partial(ExternalGenerator, timeout=0.3))
    outputs = ["-o", str(tmp_path / "out.seq"), "--report", str(tmp_path / "r.txt")]
    cmd = shlex.join([sys.executable, str(stub), str(pids)])
    res = CliRunner().invoke(main, args + outputs + ["--generator-cmd", cmd])
    assert (res.exit_code, res.stderr, res.stdout) == (0, "", stdout)
    assert ((tmp_path / "out.seq").read_bytes(), (tmp_path / "r.txt").read_bytes()) == (out, report)
    started = [int(pid) for pid in pids.read_text().split()]
    assert started
    for pid in started:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
