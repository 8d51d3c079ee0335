"""Scores each segment's contribution mismatch and picks which ones to mask.

A segment's contribution M to a shape is measured by how much of its owned
near-surface voxel set lies in the shape's own near-surface band; masking
candidates are the segments whose contribution changes most between the
current rendering and the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyListError
from .kernel import AttributionGrid, TSDFGrid, attribute
from .sequence import (
    ConstructionSequence,
    Granularity,
    Segment,
    SegmentId,
    SegmentKind,
    segments,
)


@dataclass(frozen=True)
class PlanConfig:
    granularity: Granularity = Granularity.PRIMITIVE
    band_width: float = 2.0
    min_mask: int = 0

    def __post_init__(self) -> None:
        if self.band_width < 1:
            raise ValueError("band_width must be at least one voxel")
        if self.min_mask < 0:
            raise ValueError("min_mask must be non-negative")


@dataclass(frozen=True)
class InfluenceEntry:
    segment: Segment
    m_current: float
    m_target: float
    j: float

    def __post_init__(self) -> None:
        if self.j != abs(self.m_target - self.m_current):
            raise ValueError("j must equal |m_target - m_current|")


@dataclass(frozen=True)
class InfluenceVector:
    entries: tuple[InfluenceEntry, ...]


def _segment_index(seq: ConstructionSequence, granularity: Granularity):
    segs = segments(seq, granularity)
    index = {(s.id.pair, s.id.kind, s.id.loop, s.id.prim): k for k, s in enumerate(segs)}
    return segs, index


def _lift_owners(ag: AttributionGrid, granularity: Granularity, index) -> np.ndarray:
    """Map attribution's primitive/extrusion ids onto cfg-granularity slots."""
    lifted = []
    for sid in ag.segment_ids:
        if granularity is Granularity.PAIR:
            key = (sid.pair, SegmentKind.PAIR, None, None)
        elif granularity is Granularity.LOOP and sid.kind is SegmentKind.PRIMITIVE:
            key = (sid.pair, SegmentKind.LOOP, sid.loop, None)
        else:
            key = (sid.pair, sid.kind, sid.loop, sid.prim)
        lifted.append(index[key])
    return np.array(lifted, dtype=np.int64)


def _band_m(ag, lifted, shape: TSDFGrid, cfg: PlanConfig, n_segments: int) -> np.ndarray:
    band = cfg.band_width * ag.spec.pitch
    in_band = np.abs(ag.values) < band
    near = np.abs(shape.values) < band
    mapped = lifted[ag.owner]
    sizes = np.bincount(mapped[in_band].ravel(), minlength=n_segments)
    inter = np.bincount(mapped[in_band & near].ravel(), minlength=n_segments)
    # the +1 keeps segments with no banded voxels at zero instead of 0/0
    return inter / (sizes + 1)


def relative_scores(
    seq: ConstructionSequence,
    s_target: TSDFGrid,
    cfg: PlanConfig | None = None,
    *,
    bodies: dict | None = None,
) -> InfluenceVector:
    """Contribution change of every segment between seq's shape and the target.

    One attribution pass yields both the owners and the current shape: its
    composed field is the one render would produce.  ``bodies`` is a body
    store the attribution reads and then fills with seq's bodies.
    """
    cfg = cfg or PlanConfig()
    ag = attribute(seq, s_target.spec, bodies=bodies)
    segs, index = _segment_index(seq, cfg.granularity)
    lifted = _lift_owners(ag, cfg.granularity, index)
    m_cur = _band_m(ag, lifted, ag.grid(), cfg, len(segs))
    m_tgt = _band_m(ag, lifted, s_target, cfg, len(segs))
    entries = tuple(
        InfluenceEntry(seg, float(mc), float(mt), abs(float(mt) - float(mc)))
        for seg, mc, mt in zip(segs, m_cur, m_tgt)
    )
    return InfluenceVector(entries)


def select_segments(iv: InfluenceVector, cfg: PlanConfig | None = None) -> tuple[SegmentId, ...]:
    """Segments strictly above the mean score, in document order.

    An empty result is the engine's termination signal unless min_mask forces
    a top-k fallback.
    """
    cfg = cfg or PlanConfig()
    if not iv.entries:
        raise EmptyListError("influence vector has no entries")
    # exact rational comparison: "all equal" must select nothing even when
    # the float mean rounds below the shared value
    js = [Fraction(e.j) for e in iv.entries]
    total = sum(js)
    count = len(js)
    chosen = tuple(e.segment.id for e, j in zip(iv.entries, js) if j * count > total)
    if chosen or cfg.min_mask == 0:
        return chosen
    ranked = sorted(range(count), key=lambda k: (-js[k], k))[: cfg.min_mask]
    return tuple(iv.entries[k].segment.id for k in sorted(ranked))
