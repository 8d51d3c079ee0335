"""Command-line surface.

Every failure prints ``ErrorClass: message`` on stderr; the exit code is 2
when rendering found no solid and 1 for everything else.  ``--res`` and
``--seed`` defaults can come from CADFIT_RESOLUTION and CADFIT_SEED.
"""

from __future__ import annotations

import functools
import shlex
from pathlib import Path

import click
import numpy as np

from .engine import EngineConfig, run
from .errors import CadfitError, RenderInvalidError
from .generator import ExternalGenerator, GenPolicy
from .gridio import (
    read_grid_text,
    read_sequence_file,
    read_tsdf,
    write_grid_text,
    write_sequence_file,
    write_tsdf,
)
from .kernel import GridSpec, render
from .metrics import jsd, occupancy_histogram, report_for
from .planner import PlanConfig, relative_scores, select_segments
from .report import (
    eval_report,
    influence_lines,
    metrics_lines,
    run_report,
    write_report,
)
from .sequence import Granularity
from .synth import SynthSpec, load_corpus, save_corpus, synth

_GRANULARITIES = {
    "primitive": Granularity.PRIMITIVE,
    "loop": Granularity.LOOP,
    "pair": Granularity.PAIR,
}

_res_option = click.option(
    "--res",
    type=int,
    default=32,
    envvar="CADFIT_RESOLUTION",
    show_default=True,
    help="Grid resolution per axis.",
)
_seed_option = click.option(
    "--seed",
    type=int,
    default=0,
    envvar="CADFIT_SEED",
    show_default=True,
    help="Run seed.",
)
_granularity_option = click.option(
    "--granularity",
    type=click.Choice(sorted(_GRANULARITIES)),
    default="primitive",
    show_default=True,
    help="Segment size the planner scores and masks.",
)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (CadfitError, OSError, ValueError) as err:
            click.echo(f"{type(err).__name__}: {err}", err=True)
            raise SystemExit(2 if isinstance(err, RenderInvalidError) else 1)

    return wrapper


@click.group()
def main() -> None:
    """Edit sketch-extrude construction sequences against voxel SDF targets."""


@main.command("render")
@click.argument("seq_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
@_res_option
@click.option("--tau", type=float, default=0.2, show_default=True, help="Truncation distance.")
@_guarded
def render_cmd(seq_file: str, out: str, res: int, tau: float) -> None:
    """Render a sequence file to a grid file (.grid suffix for text form)."""
    grid = render(read_sequence_file(seq_file), GridSpec(resolution=res, tau=tau))
    if out.endswith(".grid"):
        write_grid_text(out, grid)
    else:
        write_tsdf(out, grid)
    click.echo(f"wrote {out}")


def _engine_config(rounds, n, queue, seed) -> EngineConfig:
    return EngineConfig(max_rounds=rounds, n=n, queue_capacity=queue, seed=seed)


@main.command("edit")
@click.argument("seq_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("target_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
@click.option("--rounds", type=int, default=10, show_default=True)
@click.option("--n", type=int, default=8, show_default=True, help="Candidates per round.")
@click.option("--queue", type=int, default=5, show_default=True, help="Queue capacity.")
@_seed_option
@click.option("--generator-cmd", default=None, help="External infill endpoint command line.")
@click.option("--report", "report_file", required=True, type=click.Path(dir_okay=False))
@_granularity_option
@_guarded
def edit_cmd(seq_file, target_file, out, rounds, n, queue, seed, generator_cmd, report_file, granularity):
    """Update a sequence toward a target grid and write the run report."""
    original = read_sequence_file(seq_file)
    target = read_tsdf(target_file)
    cfg = _engine_config(rounds, n, queue, seed)
    plan_cfg = PlanConfig(granularity=_GRANULARITIES[granularity])
    if generator_cmd is None:
        result = run(original, target, cfg, plan_cfg)
    else:
        with ExternalGenerator(shlex.split(generator_cmd)) as endpoint:
            result = run(original, target, cfg, plan_cfg, endpoint=endpoint)
    write_sequence_file(out, result.final)
    write_report(report_file, run_report(result, cfg))
    click.echo(f"rounds_used {result.rounds_used}")
    click.echo(f"stop_reason {result.stop_reason}")
    for line in metrics_lines(result.report):
        click.echo(line)


@main.command("inspect")
@click.argument("seq_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("target_file", type=click.Path(exists=True, dir_okay=False))
@_granularity_option
@_guarded
def inspect_cmd(seq_file, target_file, granularity):
    """Print the per-segment influence table against a target grid."""
    seq = read_sequence_file(seq_file)
    target = read_tsdf(target_file)
    cfg = PlanConfig(granularity=_GRANULARITIES[granularity])
    iv = relative_scores(seq, target, cfg)
    for line in influence_lines(iv.entries):
        click.echo(line)
    selected = select_segments(iv, cfg)
    click.echo("selected " + (" ".join(s.label() for s in selected) or "-"))


@main.command("metrics")
@click.argument("seq_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("other_file", type=click.Path(exists=True, dir_okay=False))
@_res_option
@click.option("--lam", type=float, default=0.1, show_default=True)
@_guarded
def metrics_cmd(seq_file, other_file, res, lam):
    """Score a sequence against a grid file, or against another sequence.

    A second sequence is rendered first and also serves as the structure
    reference, so edit distance and the composite objective appear;
    against a bare grid only shape metrics are defined.
    """
    seq = read_sequence_file(seq_file)
    if other_file.endswith(".tsdf") or other_file.endswith(".grid"):
        reader = read_tsdf if other_file.endswith(".tsdf") else read_grid_text
        rep = report_for(seq, reader(other_file), lam=lam)
    else:
        other = read_sequence_file(other_file)
        target = render(other, GridSpec(resolution=res))
        rep = report_for(seq, target, other, lam=lam)
    for line in metrics_lines(rep):
        click.echo(line)


def _parse_synth_spec(path: str, seed: int, res: int) -> SynthSpec:
    fields: dict[str, object] = {"seed": seed}
    grid_kw = {"resolution": res}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key == "classes":
            fields["classes"] = tuple(value.split(","))
        elif key in ("corpus_size", "edits_per_triplet", "min_pairs", "max_pairs",
                     "seed", "min_voxel_delta", "min_band_departure", "max_attempts"):
            fields[key] = int(value)
        elif key == "resolution":
            grid_kw["resolution"] = int(value)
        elif key == "tau":
            grid_kw["tau"] = float(value)
        else:
            raise ValueError(f"{path}: unknown recipe key {key!r}")
    return SynthSpec(grid=GridSpec(**grid_kw), **fields)


@main.command("synth")
@click.option("--spec", "spec_file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(file_okay=False))
@_seed_option
@_res_option
@_guarded
def synth_cmd(spec_file, out, seed, res):
    """Generate a benchmark corpus from a recipe file.

    The recipe is ``key value`` lines; keys it omits fall back to --seed,
    --res, and the built-in defaults.
    """
    spec = _parse_synth_spec(spec_file, seed, res)
    triplets = synth(spec)
    Path(out).mkdir(parents=True, exist_ok=True)
    save_corpus(out, triplets, spec)
    click.echo(f"wrote {len(triplets)} triplets to {out}")


@main.command("eval")
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--report", "report_file", required=True, type=click.Path(dir_okay=False))
@click.option("--ablate", type=click.Choice(["plan", "verify", "queue"]), default=None)
@click.option("--rounds", type=int, default=10, show_default=True)
@click.option("--n", type=int, default=8, show_default=True, help="Candidates per round.")
@click.option("--queue", type=int, default=5, show_default=True, help="Queue capacity.")
@_seed_option
@_granularity_option
@_guarded
def eval_cmd(corpus_dir, report_file, ablate, rounds, n, queue, seed, granularity):
    """Run the engine over every triplet in a corpus and aggregate metrics."""
    triplets = load_corpus(corpus_dir)
    plan_cfg = PlanConfig(granularity=_GRANULARITIES[granularity])
    rows = []
    final_grids = []
    target_grids = []
    for k, t in enumerate(triplets):
        cfg = _engine_config(
            rounds, n, queue, int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        )
        result = run(t.original, t.target, cfg, plan_cfg, ablate=ablate)
        rows.append((f"{k:04d}", t.edit_class, result, t.truth_edit_distance))
        if not result.report.invalid:
            final_grids.append(result.report.grid)
            target_grids.append(t.target)
    corpus_jsd = jsd(occupancy_histogram(final_grids), occupancy_histogram(target_grids)) if final_grids else None
    header = [
        ("seed", seed),
        ("rounds", rounds),
        ("candidates_per_round", n),
        ("queue_capacity", queue),
        ("granularity", granularity),
        ("ablate", ablate or "none"),
    ]
    text = eval_report(header, rows, corpus_jsd)
    write_report(report_file, text)
    tail = text[text.index("[aggregate]") :]
    click.echo(tail.rstrip("\n"))


if __name__ == "__main__":
    main()
