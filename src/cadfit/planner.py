"""Scores each segment's contribution mismatch and picks which ones to mask.

The planner reads one map, the attribution of the current sequence (see
``cadfit.kernel.attribute``), which gives the current shape and the owner of
every voxel in the truncation band.  A segment's contribution M to a shape
is measured by how much of its owned near-surface voxel set lies in the
shape's own near-surface band, ``band`` wide; masking candidates are the
segments whose contribution changes most between the current rendering and
the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import AttributionGrid, GridSpec, TSDFGrid
from .sequence import Granularity, SegmentId, holder

BAND_WIDTH = 2.0  # half-width of the near-surface band, in voxels, up to tau


def band(spec: GridSpec) -> float:
    """Half-width of the near-surface band, which stops at tau: a truncated field holds no distance
    past tau, so a wider band would hold every clamped voxel of both shapes and make every score 0."""
    return min(BAND_WIDTH * spec.pitch, spec.tau)


@dataclass(frozen=True)
class InfluenceEntry:
    segment: SegmentId
    m_current: float
    m_target: float

    @property
    def j(self) -> float:
        return abs(self.m_target - self.m_current)


@dataclass(frozen=True)
class InfluenceVector:
    entries: tuple[InfluenceEntry, ...]


def relative_scores(
    ag: AttributionGrid, s_target: TSDFGrid, granularity: Granularity = Granularity.PRIMITIVE
) -> InfluenceVector:
    """Contribution change of every segment between ag's shape and the target.

    Entries follow ``segments(seq, granularity)`` of the attributed
    sequence: attribution ids are the ids of ``segments(seq)``, and both
    lists are the holders of those ids, deduplicated in order.
    """
    # each holder's slot, numbered in first-seen order; lifted maps an
    # attribution id's index to its holder's slot
    slots: dict[SegmentId, int] = {}
    lifted = np.empty(len(ag.segment_ids), dtype=np.int64)
    for k, sid in enumerate(ag.segment_ids):
        lifted[k] = slots.setdefault(holder(sid, granularity), len(slots))
    width = band(ag.spec)
    in_band = np.abs(ag.values) < width
    held = lifted[ag.owner[in_band]]  # holder slot of each banded voxel
    sizes = np.bincount(held, minlength=len(slots))
    inter = np.bincount(held[np.abs(s_target.values[in_band]) < width], minlength=len(slots))
    # the current shape's own band holds every banded voxel, so its
    # intersection is sizes itself; the +1 keeps segments with no banded
    # voxels at zero instead of 0/0
    m_cur = sizes / (sizes + 1)
    m_tgt = inter / (sizes + 1)
    return InfluenceVector(
        tuple(InfluenceEntry(sid, float(mc), float(mt)) for sid, mc, mt in zip(slots, m_cur, m_tgt))
    )


def select_segments(iv: InfluenceVector) -> tuple[SegmentId, ...]:
    """Segments strictly above the mean score, in document order.

    An empty result is the engine's termination signal.
    """
    if not iv.entries:
        raise ValueError("influence vector has no entries")
    # exact rational comparison: "all equal" must select nothing even when
    # the float mean rounds below the shared value
    js = [Fraction(e.j) for e in iv.entries]
    total = sum(js)
    count = len(js)
    return tuple(e.segment for e, j in zip(iv.entries, js) if j * count > total)
