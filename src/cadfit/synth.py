"""Synthetic benchmark triplets: random models plus known-good edits.

Each triplet pairs an original sequence with a target grid rendered from a
mutated copy, so recovery quality can be scored against the mutation that
produced it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .engine import POOL_RES
from .errors import ExhaustedAttemptsError, RenderInvalidError
from .gridio import read_sequence_file, read_tsdf, sequence_bytes, tsdf_bytes, write_atomic
from .kernel import GridSpec, TSDFGrid, render
from .planner import band
from .quant import BIN_MAX, Channel, quantize
from .sequence import (
    Arc,
    BoolOp,
    Circle,
    ConstructionSequence,
    Extent,
    Extrusion,
    Granularity,
    Line,
    Loop,
    Sketch,
    edit_distance,
    replace_segment,
    segments,
    validate_sequence,
)

EDIT_CLASSES = ("param-jitter", "primitive-substitute", "loop-add-remove", "pair-add-remove")

_RENDER_ATTEMPTS = 200  # random sequences drawn before random_renderable gives up
_ARC_SHARE = 0.25  # chance that a chain primitive is an arc rather than a line


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one benchmark corpus."""

    corpus_size: int = 50
    classes: tuple[str, ...] = EDIT_CLASSES
    min_pairs: int = 1
    max_pairs: int = 4
    seed: int = 0
    grid: GridSpec = field(default_factory=GridSpec)

    # fixed for every corpus, so not part of the recipe: one edit per
    # triplet, the band filter an edit must pass, and the draws per triplet
    edits_per_triplet: ClassVar[int] = 1
    min_band_departure: ClassVar[int] = 8
    max_attempts: ClassVar[int] = 500

    @property
    def min_voxel_delta(self) -> int:
        """Cells an edit must flip: 40 at resolution 32, and the same share
        of the grid, rounded up, at any other resolution."""
        return math.ceil(40 * self.grid.resolution**3 / 32**3)

    def __post_init__(self) -> None:
        if self.corpus_size < 1:
            raise ValueError(f"corpus_size must be positive, got {self.corpus_size}")
        if not self.classes or set(self.classes) - set(EDIT_CLASSES):
            raise ValueError(f"classes must be a nonempty subset of {EDIT_CLASSES}")
        if not 1 <= self.min_pairs <= self.max_pairs:
            raise ValueError("need 1 <= min_pairs <= max_pairs")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.grid.resolution % POOL_RES:
            # the engine embeds a target by pooling it to POOL_RES per axis
            raise ValueError(f"resolution must be a multiple of {POOL_RES}, got {self.grid.resolution}")


@dataclass(frozen=True)
class Triplet:
    original: ConstructionSequence
    target: TSDFGrid
    truth: ConstructionSequence
    edit_class: str
    truth_edit_distance: int


# -- random models ----------------------------------------------------------


def _rand_bin(rng, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _circle_loop(rng) -> Loop:
    center = (_rand_bin(rng, 80, 176), _rand_bin(rng, 80, 176))
    return Loop((Circle(center, _rand_bin(rng, 25, 70)),))


def _chain_loop(rng) -> Loop:
    """Star-shaped chain of 3-6 lines/arcs around a random center."""
    while True:
        nv = _rand_bin(rng, 3, 6)
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, nv))
        gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * np.pi]))
        if gaps.min() < 0.35:
            continue
        center = rng.uniform(-0.1, 0.1, 2)
        radii = rng.uniform(0.1, 0.28, nv)
        verts = [
            (
                quantize(center[0] + r * np.cos(a), Channel.COORD_2D),
                quantize(center[1] + r * np.sin(a), Channel.COORD_2D),
            )
            for a, r in zip(angles, radii)
        ]
        if any(verts[i] == verts[(i + 1) % nv] for i in range(nv)):
            continue
        prims = []
        for v in verts:
            if rng.random() < _ARC_SHARE:
                prims.append(Arc(v, _rand_bin(rng, 25, 80), bool(rng.integers(2))))
            else:
                prims.append(Line(v))
        return Loop(tuple(prims))


def _hole_inside(rng, outer: Circle) -> Loop:
    radius = _rand_bin(rng, 13, max(14, outer.radius - 30))
    room = outer.radius - radius - 8
    dist = rng.uniform(0.0, max(room, 0))
    ang = rng.uniform(0.0, 2 * np.pi)
    cx = int(np.clip(outer.center[0] + round(dist * np.cos(ang)), 0, BIN_MAX))
    cy = int(np.clip(outer.center[1] + round(dist * np.sin(ang)), 0, BIN_MAX))
    return Loop((Circle((cx, cy), radius),))


def _random_pair(rng, first: bool) -> tuple[Sketch, Extrusion]:
    loop = _circle_loop(rng) if rng.random() < 0.45 else _chain_loop(rng)
    loops = [loop]
    outer = loop.primitives[0]
    if isinstance(outer, Circle) and outer.radius >= 55 and rng.random() < 0.3:
        loops.append(_hole_inside(rng, outer))
    if first:
        op = BoolOp.NEW
    else:
        op = BoolOp.JOIN if rng.random() < 0.65 else BoolOp.CUT
    ext = Extrusion(
        orientation=(0, 0, 0),
        origin=(_rand_bin(rng, 104, 152), _rand_bin(rng, 104, 152), _rand_bin(rng, 64, 140)),
        scale=BIN_MAX,
        dist_pos=_rand_bin(rng, 45, 130),
        dist_neg=0,
        bool_op=op,
        extent=Extent.ONE_SIDED,
    )
    return Sketch(tuple(loops)), ext


def random_sequence(rng, min_pairs: int = 1, max_pairs: int = 4) -> ConstructionSequence:
    """A grammar-valid sequence; rendering may still come up empty."""
    count = _rand_bin(rng, min_pairs, max_pairs)
    return ConstructionSequence(tuple(_random_pair(rng, i == 0) for i in range(count)))


def random_renderable(rng, spec: GridSpec, min_pairs: int = 1, max_pairs: int = 4):
    """``(sequence, grid)`` for the first of ``random_sequence``'s draws that renders."""
    for _ in range(_RENDER_ATTEMPTS):
        seq = random_sequence(rng, min_pairs, max_pairs)
        try:
            return seq, render(seq, spec)
        except RenderInvalidError:
            continue
    raise ExhaustedAttemptsError(f"no renderable sequence in {_RENDER_ATTEMPTS} attempts")


# -- mutations --------------------------------------------------------------


def _jitter(rng, value: int, lo: int, hi: int, spread=(20, 48), floor: int = 16):
    """Shifted bin, or None when clamping eats the move."""
    delta = _rand_bin(rng, spread[0], spread[1]) * (1 if rng.random() < 0.5 else -1)
    out = int(np.clip(value + delta, lo, hi))
    return None if abs(out - value) < floor else out


def _param_jitter(seq, rng):
    # jitter only parameters wholly owned by one segment; a line's endpoint
    # is shared with the next primitive in the chain, so moving it edits two
    # curves and ground truth stops being attributable
    eligible = [s for s in segments(seq) if isinstance(s.part, (Circle, Arc, Extrusion))]
    if not eligible:
        return None
    seg = eligible[int(rng.integers(len(eligible)))]
    part = seg.part
    if isinstance(part, Extrusion):
        dist = _jitter(rng, part.dist_pos, 20, 200)
        if dist is None:
            return None
        new = dataclasses.replace(part, dist_pos=dist)
    elif isinstance(part, Circle):
        if rng.random() < 0.5:
            cx = _jitter(rng, part.center[0], 30, 225)
            cy = _jitter(rng, part.center[1], 30, 225)
            if cx is None or cy is None:
                return None
            new = Circle((cx, cy), part.radius)
        else:
            radius = _jitter(rng, part.radius, 14, 110)
            if radius is None:
                return None
            new = Circle(part.center, radius)
    else:
        # the bulge barely moves for small sweep shifts; push hard enough
        # to displace the curve by a couple of voxels
        sweep = _jitter(rng, part.sweep, 15, 240, spread=(64, 128), floor=40)
        if sweep is None:
            return None
        new = Arc(part.end, sweep, part.ccw)
    return replace_segment(seq, seg.id, new)


def _primitive_substitute(seq, rng):
    spots = [s for s in segments(seq) if isinstance(s.part, (Line, Arc))]
    if not spots:
        return None
    seg = spots[int(rng.integers(len(spots)))]
    if isinstance(seg.part, Line):
        new = Arc(seg.part.end, _rand_bin(rng, 30, 85), bool(rng.integers(2)))
    else:
        new = Line(seg.part.end)
    return replace_segment(seq, seg.id, new)


def _loop_add_remove(seq, rng):
    choices = []
    for seg in segments(seq, Granularity.PAIR):
        sketch = seg.part[0]
        if len(sketch.loops) >= 2:
            choices.append(("remove", seg))
        outer = sketch.loops[0].primitives[0]
        if isinstance(outer, Circle) and outer.radius >= 55:
            choices.append(("add", seg))
    if not choices:
        return None
    action, seg = choices[int(rng.integers(len(choices)))]
    sketch, ext = seg.part
    if action == "remove":
        loops = sketch.loops[:-1]
    else:
        loops = sketch.loops + (_hole_inside(rng, sketch.loops[0].primitives[0]),)
    return replace_segment(seq, seg.id, (Sketch(loops), ext))


def _pair_add_remove(seq, rng):
    can_remove = len(seq.pairs) >= 2
    can_add = len(seq.pairs) <= 5
    if can_remove and (not can_add or rng.random() < 0.5):
        i = 1 + int(rng.integers(len(seq.pairs) - 1))
        return ConstructionSequence(seq.pairs[:i] + seq.pairs[i + 1 :])
    return ConstructionSequence(tuple(seq.pairs) + (_random_pair(rng, first=False),))


_MUTATORS = {
    "param-jitter": _param_jitter,
    "primitive-substitute": _primitive_substitute,
    "loop-add-remove": _loop_add_remove,
    "pair-add-remove": _pair_add_remove,
}


def _mutated(seq: ConstructionSequence, edit_class: str, rng, spec: GridSpec):
    """``mutate``'s edit with its grid, or None."""
    for _ in range(24):
        cand = _MUTATORS[edit_class](seq, rng)
        if cand is None or validate_sequence(cand):
            continue
        try:
            return cand, render(cand, spec)
        except RenderInvalidError:
            continue
    return None


def mutate(seq: ConstructionSequence, edit_class: str, rng, spec: GridSpec | None = None):
    """One edit of the given class, or None when the class cannot apply here.

    The result always validates and renders; candidates that fail either
    check are resampled internally.
    """
    edit = _mutated(seq, edit_class, rng, spec or GridSpec())
    return None if edit is None else edit[0]


# -- corpus assembly --------------------------------------------------------


def synth(spec: SynthSpec) -> list[Triplet]:
    """Deterministic corpus: triplet index seeds its own generator stream."""
    out: list[Triplet] = []
    for index in range(spec.corpus_size):
        rng = np.random.default_rng([spec.seed, index])
        for _ in range(spec.max_attempts):
            try:
                base, base_grid = random_renderable(rng, spec.grid, spec.min_pairs, spec.max_pairs)
            except ExhaustedAttemptsError:
                continue
            edit_class = spec.classes[int(rng.integers(len(spec.classes)))]
            edit = _mutated(base, edit_class, rng, spec.grid)
            if edit is None:
                continue
            truth, target = edit
            delta = int((base_grid.occupancy() ^ target.occupancy()).sum())
            if delta < spec.min_voxel_delta:
                continue
            # a surface-band representation must be able to see the edit:
            # some of the old near-surface shell has to end up far from the
            # new surface, or the change is pure growth into free space
            departed = (np.abs(base_grid.values) < band(spec.grid)) & (np.abs(target.values) >= band(spec.grid))
            if int(departed.sum()) < spec.min_band_departure:
                continue
            out.append(Triplet(base, target, truth, edit_class, edit_distance(base, truth)))
            break
        else:
            raise ExhaustedAttemptsError(
                f"triplet {index}: no usable {'/'.join(spec.classes)} edit "
                f"within {spec.max_attempts} attempts"
            )
    return out


# how each recipe key's value converts; resolution and tau are the GridSpec's
_RECIPE_KEYS = {
    **dict.fromkeys(("corpus_size", "min_pairs", "max_pairs", "seed", "resolution"), int),
    "classes": lambda text: tuple(text.split(",")),
    "tau": float,
}


# how each header line that save_corpus writes converts, in its order;
# resolution and tau as a GridSpec holds them, so a bad one fails on its line
_HEADER_KEYS = {
    **{key: _RECIPE_KEYS[key] for key in ("corpus_size", "seed", "classes")},
    "edits_per_triplet": int,
    "resolution": lambda text: GridSpec(resolution=int(text)).resolution,
    "tau": lambda text: GridSpec(tau=float(text)).tau,
}


def save_corpus(path, triplets: list[Triplet], spec: SynthSpec) -> None:
    """Write every triplet's files and then the manifest, all or none."""
    path = Path(path)
    lines = [
        f"corpus_size {len(triplets)}",
        f"seed {spec.seed}",
        f"classes {','.join(spec.classes)}",
        f"edits_per_triplet {spec.edits_per_triplet}",
        f"resolution {spec.grid.resolution}",
        f"tau {spec.grid.tau:.9g}",
    ]
    outputs = []
    for k, t in enumerate(triplets):
        stem = f"{k:04d}"
        outputs += [
            (path / f"{stem}.orig.seq", sequence_bytes(t.original)),
            (path / f"{stem}.target.tsdf", tsdf_bytes(t.target)),
            (path / f"{stem}.truth.seq", sequence_bytes(t.truth)),
        ]
        lines.append(f"triplet {stem} {t.edit_class}")
    write_atomic(*outputs, (path / "manifest", ("\n".join(lines) + "\n").encode("utf-8")))


def load_corpus(path) -> list[Triplet]:
    """The triplets a corpus manifest lists, checked against its header.

    A manifest holds the ``key value`` header lines ``save_corpus`` writes,
    each once, and then ``triplet <stem> <class>`` lines, each stem a plain
    file name.  Each class must be one of the header's ``classes``, each
    target must have its ``resolution`` and ``tau``, and there must be
    ``corpus_size`` triplets.  Any other line, and any mismatch, is a
    ValueError that names the manifest line.
    """
    path = Path(path)
    manifest = path / "manifest"
    header: dict[str, tuple[int, object]] = {}
    grid, out = None, []
    for number, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        where = f"{manifest}:{number}"
        key, _, text = line.partition(" ")
        if key in _HEADER_KEYS and grid is None:
            if key in header:
                raise ValueError(f"{where}: {key} given twice")
            try:
                header[key] = (number, _HEADER_KEYS[key](text))
            except ValueError as err:
                raise ValueError(f"{where}: {key}: {err}") from err
            continue
        if key != "triplet":
            raise ValueError(f"{where}: expected a header line or 'triplet <stem> <class>', got {line!r}")
        if grid is None:
            missing = [k for k in _HEADER_KEYS if k not in header]
            if missing:
                raise ValueError(f"{where}: no {missing[0]} line before the triplets")
            grid = GridSpec(header["resolution"][1], header["tau"][1])
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"{where}: expected 'triplet <stem> <class>', got {line!r}")
        _, stem, edit_class = fields
        if Path(stem).name != stem:
            raise ValueError(f"{where}: stem {stem!r} is not a plain file name")
        if edit_class not in EDIT_CLASSES:
            raise ValueError(f"{where}: unknown edit class {edit_class!r}")
        if edit_class not in header["classes"][1]:
            raise ValueError(f"{where}: class {edit_class!r} is not in the header's classes")
        original = read_sequence_file(path / f"{stem}.orig.seq")
        truth = read_sequence_file(path / f"{stem}.truth.seq")
        target = read_tsdf(path / f"{stem}.target.tsdf")
        if target.spec != grid:
            raise ValueError(
                f"{where}: target has resolution {target.spec.resolution} and tau {target.spec.tau:.9g}, "
                f"the header {grid.resolution} and {grid.tau:.9g}"
            )
        out.append(Triplet(original, target, truth, edit_class, edit_distance(original, truth)))
    if not out:
        raise ValueError(f"{manifest}: no triplets")
    number, size = header["corpus_size"]
    if len(out) != size:
        raise ValueError(f"{manifest}:{number}: corpus_size {size} but {len(out)} triplet lines")
    return out


def read_recipe(path, seed: int, resolution: int) -> SynthSpec:
    """The SynthSpec of a recipe file: ``key value`` lines, ``#`` comments.

    ``seed`` and ``resolution`` stand in for those keys when the recipe
    omits them; other omitted keys keep their SynthSpec or GridSpec default.
    A key may appear once.
    """
    given: dict[str, object] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, text = line.strip().partition(" ")
        if not key or key.startswith("#"):
            continue
        if key not in _RECIPE_KEYS:
            raise ValueError(f"{path}: unknown recipe key {key!r}")
        if key in given:
            raise ValueError(f"{path}: {key}: given twice")
        try:
            given[key] = _RECIPE_KEYS[key](text)
        except ValueError as err:
            raise ValueError(f"{path}: {key}: {err}") from err
    grid = GridSpec(given.pop("resolution", resolution), given.pop("tau", GridSpec.tau))
    return SynthSpec(grid=grid, **{"seed": seed, **given})
