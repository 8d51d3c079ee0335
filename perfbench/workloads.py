"""Seeded inputs for the benchmark workloads.

An edit workload is a fixed suite of slots.  A slot fixes the structure of
its original (how many pairs, their boolean operations, and how many lines,
arcs and circles each sketch holds) and the edit class; the seed draws every
number: positions, radii, extrusion distances, which primitive the edit
touches and the engine seed.  Kernel cost follows structure, so fixing it
keeps the work of a run the same from seed to seed while the geometry, the
edit and the search path all change.  The slot structures follow the
acceptance recipe: one to four pairs, about half circles, chains of three to
six primitives with some arcs.

Triplets are drawn with the package's own generators (``random_sequence``
for single pairs, ``mutate`` for the edit, ``render`` for the checks) and
pass the same filters ``synth`` applies.  Every triplet must also pass them
with all its pairs tilted, so ``edit-axis32`` and ``edit-tilted32`` edit the
same triplets seen in two placements.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cadfit.errors import RenderInvalidError
from cadfit.kernel import GridSpec, TSDFGrid, render
from cadfit.sequence import Arc, BoolOp, Circle, ConstructionSequence, Line, edit_distance
from cadfit.synth import SynthSpec, Triplet, mutate, random_sequence, save_corpus

JITTER = "param-jitter"
SUBSTITUTE = "primitive-substitute"

# phi bin of the tilted workload: a quarter turn stands every sketch plane
# upright.  It sits far from bin 0, so the generator's orientation jitter
# almost never brings a candidate back onto the z axis.
TILT_PHI_BIN = 64

# one pair: (boolean op, lines, arcs, circles); holes are extra circles
Pair = tuple[BoolOp, int, int, int]

NEW, JOIN, CUT = BoolOp.NEW, BoolOp.JOIN, BoolOp.CUT


@dataclass(frozen=True)
class Slot:
    edit_class: str
    pairs: tuple[Pair, ...]


SUITE32 = (
    Slot(JITTER, ((NEW, 0, 0, 1),)),
    Slot(SUBSTITUTE, ((NEW, 3, 1, 0),)),
    Slot(JITTER, ((NEW, 0, 0, 2),)),
    Slot(SUBSTITUTE, ((NEW, 4, 0, 0),)),
    Slot(JITTER, ((NEW, 0, 0, 1), (JOIN, 4, 0, 0))),
    Slot(SUBSTITUTE, ((NEW, 3, 1, 0), (CUT, 0, 0, 1))),
    Slot(JITTER, ((NEW, 3, 0, 0), (CUT, 0, 0, 1))),
    Slot(SUBSTITUTE, ((NEW, 0, 0, 1), (JOIN, 5, 1, 0))),
    Slot(JITTER, ((NEW, 0, 0, 2), (JOIN, 4, 1, 0), (CUT, 0, 0, 1))),
    Slot(SUBSTITUTE, ((NEW, 5, 0, 0), (JOIN, 0, 0, 1), (JOIN, 3, 0, 0))),
    Slot(JITTER, ((NEW, 4, 1, 0), (CUT, 0, 0, 1), (JOIN, 0, 0, 1))),
    Slot(SUBSTITUTE, ((NEW, 0, 0, 1), (JOIN, 3, 0, 0), (CUT, 0, 0, 1))),
    Slot(JITTER, ((NEW, 0, 0, 1), (JOIN, 4, 0, 0), (CUT, 0, 0, 1), (JOIN, 3, 1, 0))),
    Slot(SUBSTITUTE, ((NEW, 4, 1, 0), (JOIN, 0, 0, 1), (CUT, 5, 0, 0), (JOIN, 0, 0, 1))),
    Slot(JITTER, ((NEW, 0, 0, 1), (JOIN, 0, 0, 1), (CUT, 3, 1, 0), (JOIN, 4, 0, 0))),
    Slot(SUBSTITUTE, ((NEW, 3, 0, 0), (JOIN, 0, 0, 1), (JOIN, 4, 0, 0), (CUT, 0, 0, 1))),
)

# at resolution 64 a render costs about fifteen renders at 32, so that suite
# keeps the one-pair slots.  Each comes twice: a slot's index seeds its draw,
# so the copies hold different triplets, and eight distinct edits average
# out the seed's geometry better than four.
SUITE64 = SUITE32[:4] * 2

# the filters synth applies to every triplet, at their SynthSpec defaults
_FILTERS = SynthSpec()
_CHECK_GRID = GridSpec(resolution=32)
_MAX_DRAWS = 5000


@dataclass(frozen=True)
class EditWorkload:
    name: str
    suite: tuple[Slot, ...]
    resolution: int
    tilted: bool
    max_rounds: int


EDIT_WORKLOADS = {
    w.name: w
    for w in (
        EditWorkload("edit-axis32", SUITE32, 32, False, 2),
        EditWorkload("edit-tilted32", SUITE32, 32, True, 2),
        EditWorkload("edit-axis64", SUITE64, 64, False, 1),
    )
}


def signature(sketch) -> tuple[int, int, int]:
    prims = [p for loop in sketch.loops for p in loop.primitives]
    return (
        sum(isinstance(p, Line) for p in prims),
        sum(isinstance(p, Arc) for p in prims),
        sum(isinstance(p, Circle) for p in prims),
    )


def tilt(seq: ConstructionSequence, phi_bin: int = TILT_PHI_BIN) -> ConstructionSequence:
    """Every pair's sketch plane turned to the same fixed phi bin."""
    return ConstructionSequence(
        tuple(
            (sketch, dataclasses.replace(ext, orientation=(0, phi_bin, 0)))
            for sketch, ext in seq.pairs
        )
    )


def _pair(rng, op: BoolOp, want: tuple[int, int, int]):
    for _ in range(_MAX_DRAWS):
        sketch, ext = random_sequence(rng, 1, 1).pairs[0]
        if signature(sketch) == want:
            return sketch, dataclasses.replace(ext, bool_op=op)
    raise RuntimeError(f"no pair with signature {want} in {_MAX_DRAWS} draws")


def _grid(seq: ConstructionSequence, spec: GridSpec) -> TSDFGrid | None:
    try:
        return render(seq, spec)
    except RenderInvalidError:
        return None


def _visible(base: TSDFGrid | None, target: TSDFGrid | None) -> bool:
    """synth's acceptance test: the edit moves voxels and the surface band."""
    if base is None or target is None:
        return False
    delta = int((base.occupancy() ^ target.occupancy()).sum())
    band = 2 * base.spec.pitch
    departed = (np.abs(base.values) < band) & ~(np.abs(target.values) < band)
    return delta >= _FILTERS.min_voxel_delta and int(departed.sum()) >= _FILTERS.min_band_departure


def draw_slot(slot: Slot, seed: int, index: int):
    """(original, truth, truth's grids) for one slot; deterministic in (seed, index).

    Both sequences are untilted.  The grids are the truth rendered at 32,
    keyed by whether it is tilted, as the filters already rendered them.
    """
    rng = np.random.default_rng([seed, index])
    for _ in range(_FILTERS.max_attempts):
        original = ConstructionSequence(tuple(_pair(rng, p[0], p[1:]) for p in slot.pairs))
        truth = mutate(original, slot.edit_class, rng, _CHECK_GRID)
        if truth is None:
            continue
        grids = {False: _grid(truth, _CHECK_GRID)}
        if _visible(_grid(original, _CHECK_GRID), grids[False]):
            grids[True] = _grid(tilt(truth), _CHECK_GRID)
            if _visible(_grid(tilt(original), _CHECK_GRID), grids[True]):
                return original, truth, grids
    raise RuntimeError(f"slot {index}: no usable triplet in {_FILTERS.max_attempts} attempts")


def edit_triplets(workload: EditWorkload, seed: int, slots=None) -> list[Triplet]:
    """The workload's triplets, targets rendered at its resolution."""
    spec = GridSpec(resolution=workload.resolution)
    out = []
    for k in slots if slots is not None else range(len(workload.suite)):
        slot = workload.suite[k]
        original, truth, grids = draw_slot(slot, seed, k)
        if workload.tilted:
            original, truth = tilt(original), tilt(truth)
        target = grids[workload.tilted] if spec == _CHECK_GRID else render(truth, spec)
        out.append(Triplet(original, target, truth, slot.edit_class, edit_distance(original, truth)))
    return out


def write_inputs(path: Path, workload: EditWorkload, seed: int, triplets: list[Triplet]) -> None:
    spec = SynthSpec(
        corpus_size=len(triplets),
        classes=tuple(sorted({t.edit_class for t in triplets})),
        seed=seed,
        grid=GridSpec(resolution=workload.resolution),
    )
    path.mkdir(parents=True, exist_ok=True)
    save_corpus(path, triplets, spec)


def tree_digest(path: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\0")
        h.update(file.read_bytes())
    return h.hexdigest()


def corpus_recipe(seed: int, batch: int, size: int) -> str:
    """Recipe of one corpus-io batch: all four edit classes, pair count cycling 1..4."""
    pairs = 1 + batch % 4
    return (
        f"corpus_size {size}\n"
        f"seed {int(np.random.SeedSequence([seed, batch]).generate_state(1)[0])}\n"
        "classes param-jitter,primitive-substitute,loop-add-remove,pair-add-remove\n"
        f"min_pairs {pairs}\nmax_pairs {pairs}\n"
    )
