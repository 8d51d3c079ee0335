"""The timed loops: one client, one operation after another, in one process.

Each operation is checked after its clock stops.  An edit fails if it
raises, if its final sequence does not validate or round-trip through
``parse_sequence``, or if the IoU in its report differs from one recomputed
from ``render(final)``.  A corpus command fails if it exits non-zero, if a
file it wrote does not read back as valid, or if a score it printed differs
from one recomputed from the files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cadfit.cli import main as cli_main
from cadfit.engine import EngineConfig, run
from cadfit.errors import CadfitError, RenderInvalidError
from cadfit.gridio import read_sequence_file, read_tsdf
from cadfit.kernel import GridSpec, render
from cadfit.metrics import iou
from cadfit.report import fmt, run_report
from cadfit.sequence import parse_sequence, serialize_sequence, validate_sequence
from cadfit.synth import Triplet

import workloads


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def engine_config(workload: workloads.EditWorkload, seed: int, slot: int) -> EngineConfig:
    """Acceptance-style config: the per-triplet seed derives from (seed, slot)."""
    run_seed = int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])
    return EngineConfig(max_rounds=workload.max_rounds, seed=run_seed)


@dataclass
class Edit:
    slot: int
    wall: float
    rounds: int
    stop: str
    digest: str
    iou: float | None
    edit_ratio: float
    error: str | None
    scaled: float = math.nan  # wall at reference host speed, when metered


def _edit_problem(trip: Triplet, result) -> str | None:
    final = result.final
    if validate_sequence(final):
        return "final sequence does not validate"
    if parse_sequence(serialize_sequence(final)) != final:
        return "final sequence does not round-trip"
    try:
        recomputed = iou(render(final, trip.target.spec), trip.target)
    except RenderInvalidError:
        recomputed = None
    if result.report.invalid != (recomputed is None) or result.report.iou != recomputed:
        return f"report iou {result.report.iou} but render(final) gives {recomputed}"
    return None


def edit(trip: Triplet, cfg: EngineConfig, slot: int, span=None, meter=None) -> Edit:
    """One timed edit: the engine run plus its text report."""
    span = span or contextlib.nullcontext
    t0 = time.perf_counter()
    try:
        with span("bench.edit"):
            result = run(trip.original, trip.target, cfg)
            text = run_report(result, cfg)
    except Exception as err:  # an edit that raises fails; the run goes on
        wall = time.perf_counter() - t0
        return Edit(slot, wall, 0, "error", "", None, math.nan, f"{type(err).__name__}: {err}")
    wall = time.perf_counter() - t0
    scaled = meter.scaled(wall) if meter else math.nan
    ratio = result.report.edit_distance / max(trip.truth_edit_distance, 1)
    return Edit(
        slot, wall, result.rounds_used, result.stop_reason, sha256(text),
        result.report.iou, ratio, _edit_problem(trip, result), scaled,
    )


# -- corpus-io ---------------------------------------------------------------


@dataclass
class Command:
    kind: str  # "synth" or "score"
    wall: float
    output: str
    error: str | None
    scaled: float = math.nan  # wall at reference host speed, when metered


def cli(args: list[str], span=None, meter=None) -> Command:
    """One in-process ``cadfit`` command with its stdout captured."""
    span = span or contextlib.nullcontext
    out = io.StringIO()
    t0 = time.perf_counter()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            with span("cli"):
                cli_main.main(args=args, standalone_mode=False)
        except SystemExit as stop:
            if stop.code not in (0, None):
                error = f"exit {stop.code}: {out.getvalue()}"
        except Exception as err:  # a command that raises fails; the run goes on
            error = f"{type(err).__name__}: {err}"
    wall = time.perf_counter() - t0
    scaled = meter.scaled(wall) if meter else math.nan
    return Command("synth" if args[0] == "synth" else "score", wall, out.getvalue(), error, scaled)


def _score_problem(cmd: Command, shape_a, shape_b) -> str | None:
    lines = dict(line.split(" ", 1) for line in cmd.output.splitlines() if " " in line)
    want = fmt(iou(shape_a, shape_b))
    if lines.get("iou") != want:
        return f"printed iou {lines.get('iou')} but the files give {want}"
    return None


def score(stem: Path, span=None, meter=None) -> list[Command]:
    """Both `cadfit metrics` forms for one written triplet: against its target grid and its truth."""
    orig, target, truth = (str(stem) + s for s in (".orig.seq", ".target.tsdf", ".truth.seq"))
    cmds = [cli(["metrics", orig, target], span, meter), cli(["metrics", orig, truth], span, meter)]
    # checks run after both clocks stopped
    try:
        seq, truth_seq = read_sequence_file(orig), read_sequence_file(truth)
        if validate_sequence(seq) or validate_sequence(truth_seq):
            raise ValueError("a written sequence does not validate")
        if Path(orig).read_text(encoding="utf-8") != serialize_sequence(seq) + "\n":
            raise ValueError("a written sequence does not round-trip")
        grid = read_tsdf(target)
        mine = render(seq, grid.spec)
        cmds[0].error = cmds[0].error or _score_problem(cmds[0], mine, grid)
        cmds[1].error = cmds[1].error or _score_problem(
            cmds[1], render(seq, GridSpec()), render(truth_seq, GridSpec())
        )
    except (CadfitError, ValueError, OSError) as err:
        cmds[1].error = f"{type(err).__name__}: {err}"
    return cmds


def corpus_batch(work: Path, seed: int, batch: int, size: int, span=None, meter=None) -> list[Command]:
    """`cadfit synth` of one small corpus, then both `cadfit metrics` forms per triplet."""
    recipe = work / f"recipe-{batch}.txt"
    recipe.write_text(workloads.corpus_recipe(seed, batch, size), encoding="utf-8")
    out = work / f"batch-{batch}"
    cmds = [cli(["synth", "--spec", str(recipe), "-o", str(out)], span, meter)]
    if cmds[0].error:
        return cmds
    for k in range(size):
        cmds += score(out / f"{k:04d}", span, meter)
    return cmds


def batch_digest(work: Path, batch: int, cmds: list[Command]) -> str:
    h = hashlib.sha256(workloads.tree_digest(work / f"batch-{batch}").encode())
    for cmd in cmds[1:]:
        h.update(cmd.output.encode())
    return h.hexdigest()


def output_digest(cmds: list[Command]) -> str:
    return sha256("".join(cmd.output for cmd in cmds))
