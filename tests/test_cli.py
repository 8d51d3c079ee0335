"""Command-line behavior: file round-trips, exit codes, report structure."""

import hashlib
import math
import os
import statistics
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import circle_pair, cylinder_sequence

from cadfit import engine
from cadfit.cli import main
from cadfit.engine import EngineConfig
from cadfit.gridio import read_sequence_file, read_tsdf, write_sequence_file
from cadfit.kernel import GridSpec, render
from cadfit.report import fmt
from cadfit.sequence import ConstructionSequence
from cadfit.synth import EDIT_CLASSES, load_corpus


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def environment(request, monkeypatch):
    """Unset, then set as the test's parameter asks, the variables that once
    gave ``--res`` and ``--seed`` their defaults."""
    for name in ("CADFIT_RESOLUTION", "CADFIT_SEED"):
        monkeypatch.delenv(name, raising=False)
    for name, value in request.param.items():
        monkeypatch.setenv(name, value)


# a pinned output must not move with the environment
in_any_environment = pytest.mark.parametrize(
    "environment", [{}, {"CADFIT_RESOLUTION": "16", "CADFIT_SEED": "9"}], ids=["clean-env", "cadfit-env"], indirect=True
)


def _write_models():
    write_sequence_file("cyl.seq", cylinder_sequence())
    write_sequence_file("big.seq", cylinder_sequence(r=90))
    write_sequence_file(
        "bad.seq", ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    )


def _parse_kv(text: str) -> dict:
    sections: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
            sections[current] = {}
        elif line and current is not None:
            key, _, value = line.partition(" ")
            sections[current].setdefault(key, []).append(value)
    return sections


# -- render ------------------------------------------------------------------


def test_render_writes_binary_and_text_forms(runner):
    with runner.isolated_filesystem():
        _write_models()
        assert runner.invoke(main, ["render", "cyl.seq", "-o", "a.tsdf"]).exit_code == 0
        assert runner.invoke(main, ["render", "cyl.seq", "-o", "a.grid"]).exit_code == 0
        direct = render(cylinder_sequence(), GridSpec())
        assert (read_tsdf("a.tsdf").values == direct.values).all()


def test_render_empty_solid_exits_two(runner):
    with runner.isolated_filesystem():
        _write_models()
        res = runner.invoke(main, ["render", "bad.seq", "-o", "x.tsdf"])
        assert res.exit_code == 2
        assert res.stderr.startswith("RenderInvalidError:")


@pytest.mark.parametrize("tau", ["inf", "1e39"])
def test_render_rejects_a_tau_that_is_infinite_in_float32(runner, tau):
    with runner.isolated_filesystem():
        _write_models()
        res = runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf", "--tau", tau])
        assert res.exit_code == 1
        assert res.stderr.startswith("ValueError: truncation tau")
        assert len(res.stderr.splitlines()) == 1
        assert not Path("t.tsdf").exists()


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private subclass, which a test must not provoke:
    under overcommit a huge allocation can be killed instead of raising."""


@pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
def test_render_out_of_memory_prints_one_line(runner, monkeypatch, error):
    message = "Unable to allocate 1.25 PiB for an array with shape (70000, 70000, 70000) and data type float32"

    def render(*_):
        raise error(message)

    monkeypatch.setattr("cadfit.cli.render", render)
    with runner.isolated_filesystem():
        _write_models()
        res = runner.invoke(main, ["render", "cyl.seq", "-o", "out.tsdf", "--res", "70000"])
        assert res.exit_code == 1
        assert res.stderr == f"MemoryError: {message}\n"
        assert not Path("out.tsdf").exists()


@pytest.mark.parametrize("command", ["render", "edit"])
def test_write_error_names_the_path_given_not_the_temporary_file(runner, command):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        args = {
            "render": ["render", "cyl.seq", "-o", "missing/x.tsdf"],
            "edit": ["edit", "cyl.seq", "t.tsdf", "-o", "out.seq", "--report", "missing/x.tsdf", "--n", "0"],
        }[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stderr == "FileNotFoundError: [Errno 2] No such file or directory: 'missing/x.tsdf'\n"
        assert not list(Path(".").glob(".tmp-*"))


@pytest.mark.parametrize(
    "args, missing",
    [
        (["render", "nope.seq", "-o", "x.tsdf"], "nope.seq"),
        (["edit", "nope.seq", "t.tsdf", "-o", "x.seq", "--report", "r.txt"], "nope.seq"),
        (["inspect", "cyl.seq", "nope.tsdf"], "nope.tsdf"),
        (["metrics", "cyl.seq", "nope.tsdf"], "nope.tsdf"),
        (["synth", "--spec", "nope", "-o", "c"], "nope"),
        (["eval", "nope", "--report", "r.txt"], "nope/manifest"),
    ],
)
def test_missing_input_file_exits_one_naming_it(runner, args, missing):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stderr == f"FileNotFoundError: [Errno 2] No such file or directory: '{missing}'\n"
        assert not any(Path(p).exists() for p in ("x.tsdf", "x.seq", "r.txt", "c"))


_IS_A_DIRECTORY = "IsADirectoryError: [Errno 21] Is a directory: 'adir'"
_NO_PARENT = "FileNotFoundError: [Errno 2] No such file or directory: 'missing/%s'"
_TWICE = "ValueError: r.txt: named by two outputs"
_LOCKED = "PermissionError: [Errno 13] Permission denied: 'locked/%s'"
_LONG = "x" * 300  # past any file system's NAME_MAX
_TOO_LONG = f"OSError: [Errno 36] File name too long: '{_LONG}'"
# what a command reads or runs after it has checked its outputs
_THE_WORK = ("read_sequence_file", "read_grid", "load_corpus", "render", "run", "run_corpus", "synth")


def _tree() -> dict:
    return {str(p): p.read_bytes() for p in Path(".").rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "args, message",
    [
        (["render", "cyl.seq", "-o", "adir"], _IS_A_DIRECTORY),
        (["render", "cyl.seq", "-o", "missing/x.tsdf"], _NO_PARENT % "x.tsdf"),
        (["edit", "cyl.seq", "t.tsdf", "-o", "adir", "--report", "r.txt", "--n", "0"], _IS_A_DIRECTORY),
        (["edit", "cyl.seq", "t.tsdf", "-o", "x.seq", "--report", "adir", "--n", "0"], _IS_A_DIRECTORY),
        (["edit", "cyl.seq", "t.tsdf", "-o", "missing/x.seq", "--report", "r.txt", "--n", "0"], _NO_PARENT % "x.seq"),
        (["edit", "cyl.seq", "t.tsdf", "-o", "x.seq", "--report", "missing/r.txt", "--n", "0"], _NO_PARENT % "r.txt"),
        (["edit", "cyl.seq", "t.tsdf", "-o", "afile/x.seq", "--report", "r.txt", "--n", "0"],
         "NotADirectoryError: [Errno 20] Not a directory: 'afile/x.seq'"),
        (["edit", "cyl.seq", "t.tsdf", "-o", "r.txt", "--report", "r.txt", "--n", "0"], _TWICE),
        (["eval", "corpus", "--report", "adir", "--n", "0"], _IS_A_DIRECTORY),
        (["eval", "corpus", "--report", "missing/r.txt", "--n", "0"], _NO_PARENT % "r.txt"),
        (["synth", "--spec", "recipe", "-o", "afile"], "FileExistsError: [Errno 17] File exists: 'afile'"),
        (["render", "cyl.seq", "-o", "locked/x.tsdf"], _LOCKED % "x.tsdf"),
        (["edit", "cyl.seq", "t.tsdf", "-o", "x.seq", "--report", "locked/r.txt", "--n", "0"], _LOCKED % "r.txt"),
        (["eval", "corpus", "--report", "locked/r.txt", "--n", "0"], _LOCKED % "r.txt"),
        (["synth", "--spec", "recipe", "-o", "locked"], _LOCKED % "0000.orig.seq"),
        (["render", "cyl.seq", "-o", _LONG], _TOO_LONG),
        (["edit", "cyl.seq", "t.tsdf", "-o", _LONG, "--report", "r.txt", "--n", "0"], _TOO_LONG),
        (["edit", "cyl.seq", "t.tsdf", "-o", "x.seq", "--report", _LONG, "--n", "0"], _TOO_LONG),
        (["eval", "corpus", "--report", _LONG, "--n", "0"], _TOO_LONG),
        (["render", "cyl.seq", "-o", ""], "FileNotFoundError: [Errno 2] No such file or directory: ''"),
        (["render", "cyl.seq", "-o", "cyl.seq/"], "IsADirectoryError: [Errno 21] Is a directory: 'cyl.seq/'"),
        (["edit", "cyl.seq", "t.tsdf", "-o", "out.seq", "--report", "x/", "--n", "0"],
         "IsADirectoryError: [Errno 21] Is a directory: 'x/'"),
        (["eval", "corpus", "--report", "missing/x/", "--n", "0"], _NO_PARENT % "x/"),
    ],
    ids=[
        "render-o",
        "render-o-parent",
        "edit-o",
        "edit-report",
        "edit-o-parent",
        "edit-report-parent",
        "edit-o-parent-is-a-file",
        "edit-o-is-report",
        "eval-report",
        "eval-report-parent",
        "synth-o",
        "render-o-parent-locked",
        "edit-report-parent-locked",
        "eval-report-parent-locked",
        "synth-o-locked",
        "render-o-too-long",
        "edit-o-too-long",
        "edit-report-too-long",
        "eval-report-too-long",
        "render-o-empty",
        "render-o-file-with-separator",
        "edit-report-separator",
        "eval-report-separator-parent",
    ],
)
def test_output_path_that_cannot_be_written_exits_one_naming_it(runner, monkeypatch, args, message):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        if args[0] == "eval":
            _tiny_corpus(runner)
        Path("recipe").write_text("corpus_size 1\nclasses param-jitter\n")
        Path("adir").mkdir()
        Path("locked").mkdir()
        Path("afile").write_text("")
        Path("x.seq").write_text("old sequence\n")
        Path("r.txt").write_text("old report\n")
        before = _tree()
        # root passes every mode check, so only a patched os.access can deny `locked`
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: os.path.basename(path) != "locked" and access(path, mode))

        def work(*_args, **_kwargs):
            raise RuntimeError("reached the work before the output check")

        for name in _THE_WORK:  # a bad output fails before any of them
            monkeypatch.setattr(f"cadfit.cli.{name}", work)
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stderr == message + "\n"
        assert not list(Path(".").glob(".tmp-*~"))
        # no output is new or changed, and no temporary file is left anywhere
        assert _tree() == before


def test_malformed_option_value_is_a_usage_error(runner):
    with runner.isolated_filesystem():
        _write_models()
        res = runner.invoke(main, ["render", "cyl.seq", "-o", "x.tsdf", "--res", "abc"])
        assert res.exit_code == 2
        assert res.stderr.startswith("Usage:")
        assert not Path("x.tsdf").exists()


def test_corrupt_grid_file_reports_error_class(runner):
    with runner.isolated_filesystem():
        _write_models()
        with open("junk.tsdf", "wb") as fh:
            fh.write(b"not a grid")
        res = runner.invoke(main, ["metrics", "cyl.seq", "junk.tsdf"])
        assert res.exit_code == 1
        assert res.stderr.startswith("ValueError:")


def test_empty_text_grid_reports_error_class(runner):
    with runner.isolated_filesystem():
        _write_models()
        open("empty.grid", "w").close()
        res = runner.invoke(main, ["metrics", "cyl.seq", "empty.grid"])
        assert res.exit_code == 1
        assert res.stderr.startswith("ValueError:")
        assert "Traceback" not in res.output


@pytest.mark.filterwarnings("error")
def test_header_only_text_grid_reports_the_sample_count(runner):
    with runner.isolated_filesystem():
        _write_models()
        with open("body.grid", "w", encoding="utf-8") as fh:
            fh.write("8 0.2\n")
        res = runner.invoke(main, ["metrics", "cyl.seq", "body.grid"])
        assert res.exit_code == 1
        assert res.stderr == "ValueError: body.grid: expected 512 samples for resolution 8, found 0\n"


# -- inspect and metrics -----------------------------------------------------


def test_inspect_prints_influence_table(runner):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(main, ["inspect", "big.seq", "t.tsdf"])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("influence p0.l0.c0 ")
        assert lines[-1] == "selected p0.l0.c0"
        res = runner.invoke(main, ["inspect", "big.seq", "t.tsdf", "--granularity", "pair"])
        assert "influence p0 " in res.stdout


def test_inspect_unrenderable_sequence_exits_two(runner):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(main, ["inspect", "bad.seq", "t.tsdf"])
        assert res.exit_code == 2
        assert res.stderr.startswith("RenderInvalidError:")
        assert res.stdout == ""


def test_metrics_against_grid_omits_structure_fields(runner):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(main, ["metrics", "big.seq", "t.tsdf"])
        keys = [line.split()[0] for line in res.stdout.splitlines()]
        assert keys == ["invalid", "iou", "chamfer_mean", "jsd"]


def test_metrics_against_sequence_includes_structure_fields(runner):
    with runner.isolated_filesystem():
        _write_models()
        res = runner.invoke(main, ["metrics", "big.seq", "cyl.seq"])
        parsed = dict(line.split(maxsplit=1) for line in res.stdout.splitlines())
        assert parsed["edit_distance"] == "1"
        assert float(parsed["objective"]) > 0


# -- edit --------------------------------------------------------------------


def test_edit_fixed_point_round_trips_the_input(runner):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(
            main, ["edit", "cyl.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt"]
        )
        assert res.exit_code == 0
        assert read_sequence_file("out.seq") == cylinder_sequence()
        sections = _parse_kv(Path("run.txt").read_text())
        assert sections["engine"]["rounds_used"] == ["1"]
        assert sections["engine"]["stop_reason"] == ["empty-mask"]
        assert sections["round 1"]["selected"] == ["-"]
        assert sections["final"]["iou"] == ["1"]


@in_any_environment
def test_edit_report_engine_section_is_pinned(runner, environment):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(
            main, ["edit", "cyl.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt"]
        )
        assert res.exit_code == 0
        head = Path("run.txt").read_text().split("\n\n")[0]
    assert head.splitlines() == [
        "[engine]",
        "seed 0",
        "max_rounds 10",
        "candidates_per_round 8",
        "queue_capacity 5",
        "pool_res 8",
        "epsilon 0.001",
        "patience 3",
        "lam 0.1",
        "ablate none",
        "rounds_used 1",
        "stop_reason empty-mask",
    ]


def test_edit_unrenderable_original_exits_two(runner):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(
            main, ["edit", "bad.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt"]
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("RenderInvalidError:")


@pytest.mark.parametrize("sign", [1, -1], ids=["all-outside", "all-inside"])
def test_edit_against_a_target_with_no_surface_fails_before_round_one(runner, monkeypatch, sign):
    spec = GridSpec()
    header = b"TSDF" + struct.pack("<BHf", 1, spec.resolution, spec.tau)
    raw = header + np.full(spec.resolution**3, sign * spec.tau, dtype="<f4").tobytes()
    attributed, real = [], engine.attribute

    def attribute(*args, **kwargs):
        attributed.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "attribute", attribute)
    with runner.isolated_filesystem():
        _write_models()
        Path("t.tsdf").write_bytes(raw)
        res = runner.invoke(main, ["edit", "cyl.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt"])
        assert res.exit_code == 1
        assert res.stdout == ""
        which = "no" if sign > 0 else "every"
        assert res.stderr == f"EmptySurfaceError: t.tsdf: grid has no surface: {which} cell is inside\n"
        assert not os.path.exists("out.seq") and not os.path.exists("run.txt")
    assert attributed == []


def test_edit_recovers_a_radius_change(runner):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(
            main,
            ["edit", "big.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt", "--seed", "3"],
        )
        assert res.exit_code == 0
        sections = _parse_kv(Path("run.txt").read_text())
        assert float(sections["final"]["iou"][0]) >= 0.85
        rounds = [k for k in sections if k.startswith("round ")]
        assert len(rounds) == int(sections["engine"]["rounds_used"][0])
        # every round section carries the full inspect table and queue state
        for name in rounds:
            assert "influence" in sections[name]
            assert "queue_digest" in sections[name]
            assert "best_distance" in sections[name]


def test_edit_with_echo_generator_endpoint(runner, tmp_path):
    stub = tmp_path / "echo.py"
    stub.write_text(
        "import sys\n"
        "while True:\n"
        "    head = sys.stdin.readline()\n"
        "    if not head:\n"
        "        break\n"
        "    n = int(head.split()[1])\n"
        "    stream = sys.stdin.readline().rstrip('\\n')\n"
        "    for _ in range(n):\n"
        "        print(stream.replace('MASK', '63', 1) if 'MASK' in stream else stream)\n"
        "    print('END')\n"
        "    sys.stdout.flush()\n"
    )
    import sys

    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        res = runner.invoke(
            main,
            [
                "edit", "big.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt",
                "--generator-cmd", f"{sys.executable} {stub}", "--rounds", "2",
            ],
        )
        assert res.exit_code == 0


def test_metrics_names_a_grid_file_that_fails_validation(runner):
    with runner.isolated_filesystem():
        _write_models()
        with open("nan.grid", "w", encoding="utf-8") as fh:
            fh.write("8 0.2\n" + " nan" * 512 + "\n")
        res = runner.invoke(main, ["metrics", "cyl.seq", "nan.grid"])
        assert res.exit_code == 1
        assert res.stderr == "ValueError: nan.grid: values must be finite\n"


def test_edit_inspect_and_metrics_read_a_text_grid_as_its_binary_twin(runner):
    with runner.isolated_filesystem():
        _write_models()
        outputs = {}
        for suffix in ("tsdf", "grid"):
            target = f"t.{suffix}"
            assert runner.invoke(main, ["render", "big.seq", "-o", target, "--res", "16"]).exit_code == 0
            edit = runner.invoke(
                main, ["edit", "cyl.seq", target, "-o", f"{suffix}.seq", "--report", f"{suffix}.txt", "--rounds", "2"]
            )
            inspect = runner.invoke(main, ["inspect", "cyl.seq", target])
            metrics = runner.invoke(main, ["metrics", "cyl.seq", target])
            assert edit.exit_code == inspect.exit_code == metrics.exit_code == 0, edit.stderr + inspect.stderr
            files = Path(f"{suffix}.seq").read_bytes(), Path(f"{suffix}.txt").read_bytes()
            outputs[suffix] = (edit.stdout, inspect.stdout, metrics.stdout) + files
        assert Path("t.grid").read_bytes()[:4] != b"TSDF"
        assert outputs["grid"] == outputs["tsdf"]


@pytest.mark.parametrize(
    "content, line",
    [
        ("SOL X\n", "SequenceSyntaxError: bad.seq: expected a primitive token, got 'X'"),
        ("", "StructureError: bad.seq: empty stream"),
    ],
)
def test_metrics_names_the_sequence_file_it_rejects(runner, content, line):
    with runner.isolated_filesystem():
        _write_models()
        Path("bad.seq").write_text(content, encoding="utf-8")
        res = runner.invoke(main, ["metrics", "cyl.seq", "bad.seq"])
        assert res.exit_code == 1
        assert res.stderr == line + "\n"


def test_metrics_names_a_sequence_file_that_is_not_utf8(runner):
    with runner.isolated_filesystem():
        _write_models()
        Path("bad.seq").write_bytes(b"SOL \xff")
        res = runner.invoke(main, ["metrics", "bad.seq", "cyl.seq"])
        assert res.exit_code == 1
        assert res.stderr.startswith("ValueError: bad.seq: 'utf-8' codec can't decode byte 0xff")
        assert len(res.stderr.splitlines()) == 1


# -- synth and eval ----------------------------------------------------------


def _tiny_corpus(runner, out="corpus", seed=7, extra=""):
    with open("recipe", "w") as fh:
        fh.write(f"corpus_size 2\nclasses param-jitter\nseed {seed}\n" + extra)
    res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", out])
    assert res.exit_code == 0, res.stderr


def test_synth_emits_documented_layout(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        names = sorted(os.listdir("corpus"))
        assert names == [
            "0000.orig.seq", "0000.target.tsdf", "0000.truth.seq",
            "0001.orig.seq", "0001.target.tsdf", "0001.truth.seq",
            "manifest",
        ]
        manifest = Path("corpus/manifest").read_text()
        assert "seed 7" in manifest
        assert "triplet 0000 param-jitter" in manifest
        # the target re-renders from the truth bit-identically
        truth = read_sequence_file("corpus/0000.truth.seq")
        target = read_tsdf("corpus/0000.target.tsdf")
        assert (render(truth, target.spec).values == target.values).all()


def test_a_failed_synth_leaves_the_old_corpus_whole(runner, monkeypatch):
    with runner.isolated_filesystem():
        _tiny_corpus(runner, out="c", seed=0)
        old = load_corpus("c")
        Path("c/0002.orig.seq").mkdir()
        Path("recipe").write_text("corpus_size 3\nclasses param-jitter\nseed 1\n")
        before = _tree()

        def draw(_spec):
            raise RuntimeError("drew before every corpus file was checked")

        monkeypatch.setattr("cadfit.cli.synth", draw)
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c"])
        assert res.exit_code == 1
        assert res.stderr == "IsADirectoryError: [Errno 21] Is a directory: 'c/0002.orig.seq'\n"
        assert _tree() == before
        assert not list(Path("c").glob(".tmp-*~"))
        new = load_corpus("c")
        assert [(t.original, t.truth) for t in new] == [(t.original, t.truth) for t in old]
        assert all(np.array_equal(a.target.values, b.target.values) for a, b in zip(new, old))


def test_a_recipe_tau_below_two_voxels_gives_a_corpus_that_edits(runner):
    # at resolution 32, two voxels are 0.0625: the planner's band stops at tau
    with runner.isolated_filesystem():
        _tiny_corpus(runner, extra="tau 0.05\n")
        assert read_tsdf("corpus/0000.target.tsdf").spec.tau == np.float32(0.05)
        res = runner.invoke(main, ["eval", "corpus", "--report", "r.txt", "--rounds", "2"])
        assert res.exit_code == 0, res.stderr
        assert float(_parse_kv(Path("r.txt").read_text())["aggregate"]["edit_distance_mean"][0]) > 0


def test_synth_rejects_unknown_recipe_key(runner):
    with runner.isolated_filesystem():
        with open("recipe", "w") as fh:
            fh.write("corpus_sizes 2\n")
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c"])
        assert res.exit_code == 1
        assert res.stderr.startswith("ValueError:")


@pytest.mark.parametrize(
    "line, message",
    [
        # settings every corpus shares are not recipe keys
        ("max_attempts 3", "unknown recipe key 'max_attempts'"),
        ("edits_per_triplet 1", "unknown recipe key 'edits_per_triplet'"),
        ("corpus_size x", "corpus_size: invalid literal for int() with base 10: 'x'"),
        ("corpus_size", "corpus_size: invalid literal for int() with base 10: ''"),
        ("tau abc", "tau: could not convert string to float: 'abc'"),
        # a recipe and a manifest header build their GridSpec value by value
        ("resolution 4", "resolution: resolution 4 below the minimum of 8"),
        ("tau 0", "tau: truncation tau 0.0 is not positive and finite in float32"),
        ("seed 3\ncorpus_size 1\nseed 4", "seed: given twice"),
    ],
)
def test_synth_names_the_recipe_and_key_it_rejects(runner, line, message):
    with runner.isolated_filesystem():
        with open("recipe", "w") as fh:
            fh.write(line + "\n")
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c"])
        assert res.exit_code == 1
        assert res.stderr == f"ValueError: recipe: {message}\n"


def test_synth_rejects_a_resolution_the_engine_cannot_pool(runner):
    with runner.isolated_filesystem():
        Path("recipe").write_text("corpus_size 2\nclasses param-jitter\nresolution 12\n")
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c"])
        assert res.exit_code == 1
        assert res.stderr == "ValueError: resolution must be a multiple of 8, got 12\n"
        assert not Path("c").exists()


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--res", "16"]], ids=["seed", "res"])
def test_synth_takes_its_settings_from_the_recipe_alone(runner, flag):
    with runner.isolated_filesystem():
        Path("recipe").write_text("corpus_size 1\nclasses param-jitter\n")
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c", *flag])
        assert res.exit_code == 2
        assert res.stderr.startswith("Usage:")
        assert f"No such option '{flag[0]}'" in res.stderr
        assert not Path("c").exists()


@pytest.mark.parametrize(
    "recipe, message",
    [
        ("corpus_size 0\n", "corpus_size must be positive, got 0"),
        ("classes param-jitter,bogus-class\n", f"classes must be a nonempty subset of {EDIT_CLASSES}"),
        ("min_pairs 3\nmax_pairs 2\n", "need 1 <= min_pairs <= max_pairs"),
    ],
    ids=["corpus-size", "classes", "pairs"],
)
def test_synth_rejects_a_recipe_that_makes_no_synth_spec(runner, recipe, message):
    with runner.isolated_filesystem():
        Path("recipe").write_text(recipe)
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c"])
        assert res.exit_code == 1
        assert res.stderr == f"ValueError: {message}\n"
        assert not Path("c").exists()


def test_eval_report_structure_and_determinism(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        args = ["eval", "corpus", "--report", "r1.txt", "--rounds", "3", "--seed", "5"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.stderr
        assert res.stdout.startswith("[aggregate]")
        sections = _parse_kv(Path("r1.txt").read_text())
        assert sections["eval"]["seed"] == ["5"]
        assert sections["eval"]["triplets"] == ["2"]
        assert "triplet 0000" in sections and "triplet 0001" in sections
        for key in ("iou_mean", "chamfer_mean", "chamfer_median", "jsd",
                    "invalid_rate", "edit_distance_mean"):
            assert key in sections["aggregate"]
        res2 = runner.invoke(main, ["eval", "corpus", "--report", "r2.txt",
                                    "--rounds", "3", "--seed", "5"])
        assert res2.exit_code == 0
        assert Path("r1.txt").read_bytes() == Path("r2.txt").read_bytes()


# sha256 of `cadfit eval` reports over _tiny_corpus: any change to how a
# triplet is seeded or run, or to the report's header, rows or aggregate,
# moves them
EVAL_REPORT_PINS = {
    ("--rounds", "3", "--seed", "5"): "b31012b82bf025a2cdb26abdff95888c4e9e752090046f556d48f46b5bf218c0",
    ("--rounds", "2", "--ablate", "plan"): "6a896ead9be1d1cc806b1aa9b84a8451e1df8e8e609d0256af2c79a6715d94d1",
    ("--rounds", "2", "--granularity", "loop"): "bd46941ae336c93e3217d9e10d2b0374087b8bcf7f2fdeb6240dd67c18f8edac",
}


@in_any_environment
@pytest.mark.parametrize("args, pin", EVAL_REPORT_PINS.items())
def test_eval_reports_are_pinned(runner, environment, args, pin):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        res = runner.invoke(main, ["eval", "corpus", "--report", "r.txt", *args])
        assert res.exit_code == 0, res.stderr
        assert hashlib.sha256(Path("r.txt").read_bytes()).hexdigest() == pin


def test_eval_aggregate_recomputes_from_triplet_rows(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        runner.invoke(main, ["eval", "corpus", "--report", "r.txt", "--rounds", "2"])
        sections = _parse_kv(Path("r.txt").read_text())
        ious = [float(sections[f"triplet {k:04d}"]["iou"][0]) for k in range(2)]
        dists = [float(sections[f"triplet {k:04d}"]["edit_distance"][0]) for k in range(2)]
        agg = sections["aggregate"]
        assert math.isclose(float(agg["iou_mean"][0]), statistics.fmean(ious), rel_tol=1e-8)
        assert math.isclose(
            float(agg["edit_distance_mean"][0]), statistics.fmean(dists), rel_tol=1e-8
        )
        flags = [sections[f"triplet {k:04d}"]["invalid"][0] == "True" for k in range(2)]
        assert agg["invalid_rate"] == [fmt(statistics.fmean(flags))]


def test_eval_names_a_truth_sequence_it_cannot_parse(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        Path("corpus/0001.truth.seq").write_text("SOL X\n", encoding="utf-8")
        res = runner.invoke(main, ["eval", "corpus", "--report", "r.txt", "--rounds", "1"])
        assert res.exit_code == 1
        assert res.stderr == (
            f"SequenceSyntaxError: {Path('corpus/0001.truth.seq')}: expected a primitive token, got 'X'\n"
        )


@pytest.mark.parametrize(
    "triplet, message",
    [
        ("triplet 0001", "8: expected 'triplet <stem> <class>', got 'triplet 0001'"),
        ("triplet 0001 param-jitter x", "8: expected 'triplet <stem> <class>', got 'triplet 0001 param-jitter x'"),
        ("triplet 0001 bogus-class", "8: class 'bogus-class' is not in the header's classes"),
        ("triplet 0001 pair-add-remove", "8: class 'pair-add-remove' is not in the header's classes"),
        ("tripelt 0001 param-jitter", "8: expected 'triplet <stem> <class>', got 'tripelt 0001 param-jitter'"),
        ("triplet ../corpus/0001 param-jitter", "8: stem '../corpus/0001' is not a plain file name"),
        ("", "1: corpus_size 2 but 0 triplet lines"),
    ],
)
def test_eval_names_the_manifest_line_it_rejects(runner, triplet, message):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        manifest = Path("corpus/manifest")
        lines = manifest.read_text(encoding="utf-8").splitlines()
        assert lines[7] == "triplet 0001 param-jitter"
        if triplet:
            lines[7] = triplet
        else:
            lines = [line for line in lines if not line.startswith("triplet ")]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        res = runner.invoke(main, ["eval", "corpus", "--report", "r.txt", "--rounds", "1"])
        assert res.exit_code == 1
        assert res.stderr == f"ValueError: {manifest}:{message}\n"
        assert not Path("r.txt").exists()


def test_eval_ablation_toggle_runs(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        res = runner.invoke(main, ["eval", "corpus", "--report", "r.txt",
                                   "--rounds", "2", "--ablate", "plan"])
        assert res.exit_code == 0
        assert "ablate plan" in Path("r.txt").read_text()


@pytest.mark.parametrize("command", ["edit", "eval", "synth"])
def test_negative_seed_is_rejected_before_any_work(runner, command):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        _tiny_corpus(runner)
        Path("negative").write_text("corpus_size 1\nseed -1\n")
        args = {
            "edit": ["edit", "big.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt", "--n", "0", "--seed", "-1"],
            "eval": ["eval", "corpus", "--report", "r.txt", "--rounds", "1", "--seed", "-1"],
            "synth": ["synth", "--spec", "negative", "-o", "c2"],
        }[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stderr == "ValueError: seed must be non-negative, got -1\n"
        assert "Traceback" not in res.output
        assert not any(Path(p).exists() for p in ("out.seq", "run.txt", "r.txt", "c2"))


@pytest.mark.parametrize("command", ["edit", "eval"])
def test_engine_flags_default_to_the_engine_config_defaults(command):
    flags = {p.name: p.default for p in main.commands[command].params}
    made = EngineConfig(max_rounds=flags["rounds"], n=flags["n"], seed=flags["seed"], granularity=flags["granularity"])
    assert made == EngineConfig()


@pytest.mark.parametrize("command", ["edit", "eval"])
@pytest.mark.parametrize(
    "flag, value, least", [("--rounds", "0", 1), ("--n", "-1", 0)]
)
def test_bad_engine_flag_is_named_in_the_error(runner, command, flag, value, least):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        _tiny_corpus(runner)
        args = {
            "edit": ["edit", "big.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt"],
            "eval": ["eval", "corpus", "--report", "r.txt"],
        }[command]
        res = runner.invoke(main, args + [flag, value])
        assert res.exit_code == 1
        assert res.stderr == f"ValueError: {flag} must be at least {least}, got {value}\n"
        assert not any(Path(p).exists() for p in ("out.seq", "run.txt", "r.txt"))


# The child runs each command that never scores a shape, and one that fails
# before its first score, then one chamfer; it prints the scipy modules loaded
# before that chamfer and whether the chamfer loaded scipy.spatial.
_LAZY_SCIPY_CHILD = """
import sys
from pathlib import Path
from click.testing import CliRunner
from cadfit import metrics
from cadfit.cli import main
from cadfit.synth import load_corpus

def cli(*args, code=0):
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code == code, res.output

cli("--help")
Path("recipe").write_text("corpus_size 1\\nclasses param-jitter\\nresolution 16\\n")
cli("synth", "--spec", "recipe", "-o", "corpus")
assert len(load_corpus("corpus")) == 1
cli("render", "corpus/0000.orig.seq", "-o", "orig.tsdf", "--res", "16")
cli("inspect", "corpus/0000.orig.seq", "corpus/0000.target.tsdf")
cli("metrics", "corpus/0000.orig.seq", "missing.tsdf", code=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
metrics.chamfer(([[0.0, 0.0, 0.0]], [0]), ([[1.0, 0.0, 0.0]], [0]))
print("scipy.spatial" in sys.modules)
"""


def test_only_a_score_loads_scipy(tmp_path):
    """Start-up, --help, synth, render, inspect and a failed metrics import no scipy;
    the first chamfer does.  A fresh process, as scipy may already be loaded
    in this one."""
    src = Path(engine.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_CHILD], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]


# -- report formatting -------------------------------------------------------


def test_fmt_uses_compact_nine_digit_floats():
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.333333333"
    assert fmt(math.inf) == "inf"
    assert fmt(7) == "7"
    assert fmt(True) == "True"
    assert fmt("pair") == "pair"
