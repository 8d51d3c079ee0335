"""Shape and structure metrics for comparing edits against a target.

A metric reads ``TSDFGrid`` values without checking them again: a kernel
grid is built inside the band, and a grid from a file was checked where
``gridio`` read it.

scipy is imported inside ``chamfer``, its only user, so a command that
never scores a shape starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RenderInvalidError
from .kernel import AttributionGrid, TSDFGrid, render, surface_points
from .sequence import ConstructionSequence, edit_distance, sequence_tokens

LAMBDA = 0.1
HISTOGRAM_BINS = 28


def iou(a: TSDFGrid, b: TSDFGrid) -> float:
    """Occupancy intersection over union; every grid has an inside cell."""
    if a.spec != b.spec:
        raise ValueError("grids use different specs")
    occ_a, occ_b = a.occupancy(), b.occupancy()
    return int(np.count_nonzero(occ_a & occ_b)) / int(np.count_nonzero(occ_a | occ_b))


def chamfer(a, b) -> float:
    """Symmetric mean squared nearest-neighbor distance between point sets.

    ``a`` and ``b`` are (points, keys) pairs as ``surface_points`` gives
    them, one key per point; raw point sets may pass
    ``np.arange(len(points))``.  A sample is shared when the other set holds
    one with the same key and equal coordinates, which ``np.searchsorted``
    finds in the other set's increasing keys.  Its nearest distance is 0.0,
    the exact value a tree query gives a duplicate, so only the unshared
    samples are queried, against a tree over the whole other set, and the
    result is bit for bit the one querying every sample gives.  A shared
    sample the keys miss is queried, which costs time only.
    """
    (pa, ka), (pb, kb) = ((np.asarray(p, dtype=float), np.asarray(k)) for p, k in (a, b))
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("chamfer needs two nonempty point sets")
    if ka.shape != pa.shape[:1] or kb.shape != pb.shape[:1]:
        raise ValueError("chamfer needs one key per point")
    from scipy.spatial import cKDTree

    def nearest(p, k, q, kq):
        j = np.searchsorted(kq, k).clip(max=len(kq) - 1)
        ask = (kq[j] != k) | (q[j] != p).any(axis=1)
        d = np.zeros(len(p))
        # unbalanced, uncompacted trees build faster and find the same nearest distances
        d[ask] = cKDTree(q, balanced_tree=False, compact_nodes=False).query(p[ask])[0]
        return d

    d_ab, d_ba = nearest(pa, ka, pb, kb), nearest(pb, kb, pa, ka)
    return 0.5 * float(np.mean(d_ab**2)) + 0.5 * float(np.mean(d_ba**2))


def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if (p < 0).any() or not math.isclose(float(p.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("histogram must be non-negative and sum to 1")
    return p


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in nats; symmetric, at most ln 2."""
    p = _check_distribution(p)
    q = _check_distribution(q)
    if p.shape != q.shape:
        raise ValueError("histograms must share a shape")
    m = (p + q) / 2
    term = np.empty_like(m)

    def kl(a):  # sum of a * log(a / m), where 0 * log(0 / m) contributes 0
        term.fill(0.0)
        at = a > 0  # there m > 0 too
        np.divide(a, m, out=term, where=at)
        np.log(term, out=term, where=at)
        return float(np.sum(np.multiply(term, a, out=term)))

    return 0.5 * kl(p) + 0.5 * kl(q)


def occupancy_histogram(grids) -> np.ndarray:
    """Aggregate occupied-voxel centers of several grids into one normalized histogram.

    A fixed spatial binning makes the divergence comparable across grid
    resolutions.  Each axis's n cell centers are binned once, by the rule
    ``np.histogramdd`` applies (a bin holds its left edge), so the counts
    equal histogramdd's on the n^3 centers; every center lies strictly
    inside [-0.5, 0.5], so none falls outside a bin or on the last edge.
    """
    bins = HISTOGRAM_BINS
    edges = np.linspace(-0.5, 0.5, bins + 1)
    total = np.zeros(bins**3)
    for grid in grids:
        k = np.searchsorted(edges, grid.spec.centers(), side="right") - 1
        ix, iy, iz = np.unravel_index(np.flatnonzero(grid.occupancy()), grid.values.shape)
        total += np.bincount((k[ix] * bins + k[iy]) * bins + k[iz], minlength=bins**3)
    mass = total.sum()
    if mass == 0:
        raise ValueError("no occupied voxels to histogram")
    return (total / mass).reshape(bins, bins, bins)


@dataclass(frozen=True)
class MetricsReport:
    """Flat record of every metric for one candidate; absent fields stay None.

    An invalid candidate keeps only the structure fields: there is no shape
    to measure.  ``grid`` holds the rendering the shape metrics were taken
    from, so callers need not render again; comparisons ignore it.
    """

    invalid: bool
    iou: float | None = None
    chamfer_mean: float | None = None
    jsd: float | None = None
    edit_distance: int | None = None
    objective: float | None = None
    grid: TSDFGrid | None = field(default=None, compare=False, repr=False)

    def to_fields(self) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = [("invalid", self.invalid)]
        for key in ("iou", "chamfer_mean", "jsd", "edit_distance", "objective"):
            value = getattr(self, key)
            if value is not None:
                out.append((key, value))
        return out


def report_for(
    candidate: ConstructionSequence,
    target: TSDFGrid,
    original: ConstructionSequence | None = None,
    *,
    base: AttributionGrid | None = None,
) -> MetricsReport:
    """Assemble the full report for a candidate against a target grid.

    The objective is the chamfer distance between surface samples of the
    candidate's rendering and of the target, plus ``LAMBDA`` times the
    edit distance normalized by the original's token count; a candidate that
    fails to render, empty or filling the domain, scores infinite rather
    than raising.  The render reuses the bodies ``base`` holds.
    """
    dist = edit_distance(candidate, original) if original is not None else None
    try:
        rendered = render(candidate, target.spec, base=base)
    except RenderInvalidError:
        objective = math.inf if original is not None else None
        return MetricsReport(invalid=True, edit_distance=dist, objective=objective)
    geometry = chamfer(surface_points(rendered), surface_points(target))
    objective = None
    if original is not None:
        objective = geometry + LAMBDA * (dist / len(sequence_tokens(original)))
    return MetricsReport(
        invalid=False,
        iou=iou(rendered, target),
        chamfer_mean=geometry,
        jsd=jsd(occupancy_histogram([rendered]), occupancy_histogram([target])),
        edit_distance=dist,
        objective=objective,
        grid=rendered,
    )
