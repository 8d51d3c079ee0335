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


# half-width of the near-surface band, in voxels
BAND_WIDTH = 2.0


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
    """Map attribution's primitive/extrusion ids onto granularity slots."""
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


def _band_m(ag, lifted, shape: TSDFGrid, n_segments: int) -> np.ndarray:
    band = BAND_WIDTH * ag.spec.pitch
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
    granularity: Granularity = Granularity.PRIMITIVE,
    *,
    bodies: dict | None = None,
) -> InfluenceVector:
    """Contribution change of every segment between seq's shape and the target.

    One attribution pass yields both the owners and the current shape: its
    composed field is the one render would produce.  ``bodies`` is a body
    store the attribution reads and then fills with seq's bodies.
    """
    ag = attribute(seq, s_target.spec, bodies=bodies)
    segs, index = _segment_index(seq, granularity)
    lifted = _lift_owners(ag, granularity, index)
    m_cur = _band_m(ag, lifted, ag.grid(), len(segs))
    m_tgt = _band_m(ag, lifted, s_target, len(segs))
    entries = tuple(
        InfluenceEntry(seg, float(mc), float(mt), abs(float(mt) - float(mc)))
        for seg, mc, mt in zip(segs, m_cur, m_tgt)
    )
    return InfluenceVector(entries)


def select_segments(iv: InfluenceVector) -> tuple[SegmentId, ...]:
    """Segments strictly above the mean score, in document order.

    An empty result is the engine's termination signal.
    """
    if not iv.entries:
        raise EmptyListError("influence vector has no entries")
    # exact rational comparison: "all equal" must select nothing even when
    # the float mean rounds below the shared value
    js = [Fraction(e.j) for e in iv.entries]
    total = sum(js)
    count = len(js)
    return tuple(e.segment.id for e, j in zip(iv.entries, js) if j * count > total)
