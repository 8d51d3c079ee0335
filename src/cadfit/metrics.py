"""Shape and structure metrics for comparing edits against a target."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptyListError,
    EmptySetError,
    NormalizationError,
    RenderInvalidError,
    SpecMismatchError,
)
from .kernel import TSDFGrid, render, surface_points
from .sequence import ConstructionSequence, edit_distance, sequence_tokens

DEFAULT_LAMBDA = 0.1
HISTOGRAM_BINS = 28


def iou(a: TSDFGrid, b: TSDFGrid) -> float:
    """Occupancy intersection over union; two empty shapes count as equal."""
    if a.spec != b.spec:
        raise SpecMismatchError("grids use different specs")
    occ_a, occ_b = a.occupancy(), b.occupancy()
    union = int((occ_a | occ_b).sum())
    if union == 0:
        return 1.0
    return int((occ_a & occ_b).sum()) / union


def chamfer(a, b) -> float:
    """Symmetric mean squared nearest-neighbor distance between point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise EmptySetError("chamfer needs two nonempty point sets")
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return 0.5 * float(np.mean(d_ab**2)) + 0.5 * float(np.mean(d_ba**2))


def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if (p < 0).any() or not math.isclose(float(p.sum()), 1.0, abs_tol=1e-9):
        raise NormalizationError("histogram must be non-negative and sum to 1")
    return p


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in nats; symmetric, at most ln 2."""
    p = _check_distribution(p)
    q = _check_distribution(q)
    if p.shape != q.shape:
        raise NormalizationError("histograms must share a shape")
    m = (p + q) / 2
    # 0·log(0/m) terms contribute nothing
    kl_pm = float(np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1) / np.where(m > 0, m, 1)), 0.0)))
    kl_qm = float(np.sum(np.where(q > 0, q * np.log(np.where(q > 0, q, 1) / np.where(m > 0, m, 1)), 0.0)))
    return 0.5 * kl_pm + 0.5 * kl_qm


def occupancy_histogram(grids, bins: int = HISTOGRAM_BINS) -> np.ndarray:
    """Aggregate occupied-voxel centers of several grids into one normalized histogram.

    A fixed spatial binning makes the divergence comparable across grid
    resolutions.  Each axis's n cell centers are binned once, by the rule
    ``np.histogramdd`` applies (a bin holds its left edge, the last bin its
    right edge too), so the counts equal histogramdd's on the n^3 centers.
    """
    edges = np.linspace(-0.5, 0.5, bins + 1)
    total = np.zeros(bins**3)
    for grid in grids:
        c = grid.spec.centers()
        k = np.searchsorted(edges, c, side="right") - (c == edges[-1]) - 1
        inside = (k >= 0) & (k < bins)
        ix, iy, iz = np.nonzero(grid.occupancy())
        keep = inside[ix] & inside[iy] & inside[iz]
        total += np.bincount(((k[ix] * bins + k[iy]) * bins + k[iz])[keep], minlength=bins**3)
    mass = total.sum()
    if mass == 0:
        raise NormalizationError("no occupied voxels to histogram")
    return (total / mass).reshape(bins, bins, bins)


def invalid_rate(invalid_flags) -> float:
    """Fraction of outcomes that failed to parse or render."""
    flags = list(invalid_flags)
    if not flags:
        raise EmptyListError("no outcomes to rate")
    return sum(bool(f) for f in flags) / len(flags)


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
    lam: float = DEFAULT_LAMBDA,
    *,
    bodies: dict | None = None,
) -> MetricsReport:
    """Assemble the full report for a candidate against a target grid.

    The objective is the chamfer distance between surface samples of the
    candidate's rendering and of the target, plus lam times the edit
    distance normalized by the original's token count; a candidate that
    fails to render scores infinite rather than raising.  ``bodies`` is a
    body store the render reads.
    """
    dist = edit_distance(candidate, original) if original is not None else None
    try:
        rendered = render(candidate, target.spec, bodies=bodies)
    except RenderInvalidError:
        objective = math.inf if original is not None else None
        return MetricsReport(invalid=True, edit_distance=dist, objective=objective)
    geometry = chamfer(surface_points(rendered), surface_points(target))
    objective = None
    if original is not None:
        objective = geometry + lam * (dist / len(sequence_tokens(original)))
    return MetricsReport(
        invalid=False,
        iou=iou(rendered, target),
        chamfer_mean=geometry,
        jsd=jsd(occupancy_histogram([rendered]), occupancy_histogram([target])),
        edit_distance=dist,
        objective=objective,
        grid=rendered,
    )
