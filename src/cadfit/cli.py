"""Command-line surface.

Every failure prints ``ErrorClass: message`` on stderr; the exit code is 2 when
a render found no solid, or nothing but solid, and 1 for everything else, a
missing input file, an unwritable output path, one whose name is too long for
its file system and two outputs that name one file included.  Such an output
fails before the work: ``render``, ``edit`` and ``eval`` check theirs with
``check_outputs`` before they read an input, and ``synth`` checks every file of
its corpus as soon as it has made its directory, before it draws.  ``edit`` and
``synth`` write all of their outputs through one ``write_atomic`` call, which
checks every path and stages every output before the first replace: a failure
``check_outputs`` can predict writes no file, so an existing corpus stays whole
(a failed ``synth`` may leave a new output directory, empty), but a replace
refused later, by a full disk for one, can leave the earlier outputs replaced.
An ``edit --generator-cmd`` endpoint that fails is no failure: the surrogate
fills its rounds, so the edit writes what it writes without one.  A malformed
command line, such as ``--res abc``, is a click usage error and exits 2.  Every
output depends on the command line and the input files alone; every objective
weighs edit distance by ``metrics.LAMBDA``.
"""

from __future__ import annotations

import contextlib
import functools
import shlex
from pathlib import Path

import click

from .engine import ABLATION_MODES, EngineConfig, run, run_corpus
from .errors import CadfitError, RenderInvalidError
from .generator import ExternalGenerator
from .gridio import (
    check_outputs,
    read_grid,
    read_sequence_file,
    sequence_bytes,
    write_atomic,
    write_grid,
    write_text_atomic,
)
from .kernel import GridSpec, attribute, render
from .metrics import report_for
from .planner import relative_scores, select_segments
from .report import eval_report, influence_lines, metrics_lines, run_report
from .sequence import Granularity
from .synth import corpus_files, load_corpus, read_recipe, save_corpus, synth

_res_option = click.option(
    "--res",
    type=int,
    default=GridSpec.resolution,
    show_default=True,
    help="Grid resolution per axis.",
)
_granularity_option = click.option(
    "--granularity",
    type=click.Choice(sorted(g.value for g in Granularity)),
    default=EngineConfig.granularity.value,
    show_default=True,
    help="Segment size the planner scores and masks.",
)


def _engine_options(fn):
    """--rounds, --n and --seed, each defaulting to its EngineConfig field."""
    fn = click.option("--seed", type=int, default=EngineConfig.seed, show_default=True, help="Run seed.")(fn)
    fn = click.option("--n", type=int, default=EngineConfig.n, show_default=True, help="Candidates per round.")(fn)
    return click.option("--rounds", type=int, default=EngineConfig.max_rounds, show_default=True)(fn)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (CadfitError, OSError, ValueError, MemoryError) as err:
            # numpy raises a private subclass of MemoryError
            name = "MemoryError" if isinstance(err, MemoryError) else type(err).__name__
            click.echo(f"{name}: {err}", err=True)
            raise SystemExit(2 if isinstance(err, RenderInvalidError) else 1)

    return wrapper


@click.group()
def main() -> None:
    """Edit sketch-extrude construction sequences against voxel SDF targets."""


@main.command("render")
@click.argument("seq_file")
@click.option("-o", "--out", required=True)
@_res_option
@click.option("--tau", type=float, default=GridSpec.tau, show_default=True, help="Truncation distance.")
@_guarded
def render_cmd(seq_file: str, out: str, res: int, tau: float) -> None:
    """Render a sequence file to a grid file (.grid suffix for text form)."""
    check_outputs(out)
    write_grid(out, render(read_sequence_file(seq_file), GridSpec(resolution=res, tau=tau)))
    click.echo(f"wrote {out}")


def _engine_config(rounds, n, seed, granularity, ablate) -> EngineConfig:
    for flag, value, least in (("--rounds", rounds, 1), ("--n", n, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    return EngineConfig(max_rounds=rounds, n=n, seed=seed, granularity=granularity, ablate=ablate)


@main.command("edit")
@click.argument("seq_file")
@click.argument("target_file")
@click.option("-o", "--out", required=True)
@_engine_options
@click.option("--generator-cmd", default=None, help="External infill endpoint command line.")
@click.option("--report", "report_file", required=True)
@_granularity_option
@_guarded
def edit_cmd(seq_file, target_file, out, rounds, n, seed, generator_cmd, report_file, granularity):
    """Update a sequence toward a target grid and write the run report."""
    cfg = _engine_config(rounds, n, seed, granularity, None)
    check_outputs(out, report_file)
    original = read_sequence_file(seq_file)
    target = read_grid(target_file)
    with (contextlib.nullcontext() if generator_cmd is None else ExternalGenerator(shlex.split(generator_cmd))) as gen:
        result = run(original, target, cfg, endpoint=gen)
    write_atomic((out, sequence_bytes(result.final)), (report_file, run_report(result, cfg).encode("utf-8")))
    click.echo(f"rounds_used {result.rounds_used}")
    click.echo(f"stop_reason {result.stop_reason}")
    for line in metrics_lines(result.report):
        click.echo(line)


@main.command("inspect")
@click.argument("seq_file")
@click.argument("target_file")
@_granularity_option
@_guarded
def inspect_cmd(seq_file, target_file, granularity):
    """Print the per-segment influence table against a target grid."""
    seq = read_sequence_file(seq_file)
    target = read_grid(target_file)
    iv = relative_scores(attribute(seq, target.spec), target, Granularity(granularity))
    for line in influence_lines(iv.entries):
        click.echo(line)
    selected = select_segments(iv)
    click.echo("selected " + (" ".join(s.label() for s in selected) or "-"))


@main.command("metrics")
@click.argument("seq_file")
@click.argument("other_file")
@_res_option
@_guarded
def metrics_cmd(seq_file, other_file, res):
    """Score a sequence against a grid file, or against another sequence.

    A second sequence is rendered first and also serves as the structure
    reference, so edit distance and the composite objective appear;
    against a bare grid only shape metrics are defined.
    """
    seq = read_sequence_file(seq_file)
    if other_file.endswith((".tsdf", ".grid")):
        rep = report_for(seq, read_grid(other_file))
    else:
        other = read_sequence_file(other_file)
        target = render(other, GridSpec(resolution=res))
        rep = report_for(seq, target, other)
    for line in metrics_lines(rep):
        click.echo(line)


@main.command("synth")
@click.option("--spec", "spec_file", required=True)
@click.option("-o", "--out", required=True)
@_guarded
def synth_cmd(spec_file, out):
    """Generate a benchmark corpus from a recipe file of ``key value`` lines.

    Keys and their defaults: corpus_size 50, min_pairs 1, max_pairs 4, seed
    0, resolution 32, tau 0.2, and classes (comma-separated) all of
    param-jitter, primitive-substitute, loop-add-remove, pair-add-remove.
    """
    spec = read_recipe(spec_file)
    Path(out).mkdir(parents=True, exist_ok=True)
    check_outputs(*corpus_files(out, spec.corpus_size))
    triplets = synth(spec)
    save_corpus(out, triplets, spec)
    click.echo(f"wrote {len(triplets)} triplets to {out}")


@main.command("eval")
@click.argument("corpus_dir")
@click.option("--report", "report_file", required=True)
@click.option("--ablate", type=click.Choice(ABLATION_MODES), default=None)
@_engine_options
@_granularity_option
@_guarded
def eval_cmd(corpus_dir, report_file, ablate, rounds, n, seed, granularity):
    """Run the engine over every triplet in a corpus and aggregate metrics."""
    cfg = _engine_config(rounds, n, seed, granularity, ablate)
    check_outputs(report_file)
    triplets = load_corpus(corpus_dir)
    results = [result for _, result in run_corpus(triplets, cfg)]
    text = eval_report(cfg, triplets, results)
    write_text_atomic(report_file, text)
    click.echo(text[text.index("[aggregate]") :].rstrip("\n"))


if __name__ == "__main__":
    main()
