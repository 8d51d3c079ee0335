"""Command-line behavior: file round-trips, exit codes, report structure."""

import math
import statistics
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import circle_pair, cylinder_sequence

from cadfit.cli import main
from cadfit.gridio import read_sequence_file, read_tsdf, write_sequence_file
from cadfit.kernel import GridSpec, render
from cadfit.report import fmt
from cadfit.sequence import ConstructionSequence


@pytest.fixture
def runner():
    return CliRunner()


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


def test_render_resolution_env_override(runner):
    with runner.isolated_filesystem():
        _write_models()
        res = runner.invoke(
            main, ["render", "cyl.seq", "-o", "s.tsdf"], env={"CADFIT_RESOLUTION": "16"}
        )
        assert res.exit_code == 0
        assert read_tsdf("s.tsdf").spec.resolution == 16


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


def test_edit_report_engine_section_is_pinned(runner):
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


# -- synth and eval ----------------------------------------------------------


def _tiny_corpus(runner, out="corpus", seed="7"):
    with open("recipe", "w") as fh:
        fh.write("corpus_size 2\nclasses param-jitter\n")
    res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", out, "--seed", seed])
    assert res.exit_code == 0, res.stderr


def test_synth_emits_documented_layout(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        import os

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


def test_synth_rejects_unknown_recipe_key(runner):
    with runner.isolated_filesystem():
        with open("recipe", "w") as fh:
            fh.write("corpus_sizes 2\n")
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c"])
        assert res.exit_code == 1
        assert res.stderr.startswith("ValueError:")


@pytest.mark.parametrize("where", ["flag", "recipe"])
def test_synth_rejects_a_resolution_the_engine_cannot_pool(runner, where):
    with runner.isolated_filesystem():
        with open("recipe", "w") as fh:
            fh.write("corpus_size 2\nclasses param-jitter\n" + ("resolution 12\n" if where == "recipe" else ""))
        extra = ["--res", "12"] if where == "flag" else []
        res = runner.invoke(main, ["synth", "--spec", "recipe", "-o", "c"] + extra)
        assert res.exit_code == 1
        assert res.stderr == "ValueError: resolution must be a multiple of 8, got 12\n"
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


def test_eval_ablation_toggle_runs(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        res = runner.invoke(main, ["eval", "corpus", "--report", "r.txt",
                                   "--rounds", "2", "--ablate", "plan"])
        assert res.exit_code == 0
        assert "ablate plan" in Path("r.txt").read_text()


def test_eval_seed_env_override(runner):
    with runner.isolated_filesystem():
        _tiny_corpus(runner)
        res = runner.invoke(main, ["eval", "corpus", "--report", "r.txt", "--rounds", "1"],
                            env={"CADFIT_SEED": "9"})
        assert res.exit_code == 0
        assert "seed 9" in Path("r.txt").read_text()


@pytest.mark.parametrize("command", ["edit", "eval", "synth"])
def test_negative_seed_is_rejected_before_any_work(runner, command):
    with runner.isolated_filesystem():
        _write_models()
        runner.invoke(main, ["render", "cyl.seq", "-o", "t.tsdf"])
        _tiny_corpus(runner)
        args = {
            "edit": ["edit", "big.seq", "t.tsdf", "-o", "out.seq", "--report", "run.txt", "--n", "0"],
            "eval": ["eval", "corpus", "--report", "r.txt", "--rounds", "1"],
            "synth": ["synth", "--spec", "recipe", "-o", "c2"],
        }[command]
        res = runner.invoke(main, args + ["--seed", "-1"])
        assert res.exit_code == 1
        assert res.stderr == "ValueError: seed must be non-negative, got -1\n"
        assert "Traceback" not in res.output
        assert not any(Path(p).exists() for p in ("out.seq", "run.txt", "r.txt", "c2"))


@pytest.mark.parametrize("command", ["edit", "eval"])
@pytest.mark.parametrize(
    "flag, value, least", [("--rounds", "0", 1), ("--n", "-1", 0), ("--queue", "0", 1)]
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


# -- report formatting -------------------------------------------------------


def test_fmt_uses_compact_nine_digit_floats():
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.333333333"
    assert fmt(math.inf) == "inf"
    assert fmt(7) == "7"
    assert fmt(True) == "True"
    assert fmt("pair") == "pair"
