"""Metric checks: brute-force chamfer, hand-computed divergence, analytic overlap."""

import hashlib
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from helpers import cell_points, circle_pair, cylinder_sequence

from cadfit.errors import (
    EmptyListError,
    EmptySetError,
    NormalizationError,
    SpecMismatchError,
)
from cadfit.kernel import GridSpec, TSDFGrid, render, surface_points
from cadfit.metrics import (
    MetricsReport,
    chamfer,
    invalid_rate,
    iou,
    jsd,
    occupancy_histogram,
    report_for,
)
from cadfit.sequence import ConstructionSequence
from cadfit.synth import random_renderable


def _box_grid(x_lo, x_hi, spec=None):
    """Indicator-style grid for a box spanning [x_lo, x_hi] x [-0.3, 0.3]^2."""
    spec = spec or GridSpec()
    pts = cell_points(spec)
    inside = (
        (pts[:, 0] > x_lo)
        & (pts[:, 0] < x_hi)
        & (np.abs(pts[:, 1]) < 0.3)
        & (np.abs(pts[:, 2]) < 0.3)
    )
    n = spec.resolution
    vals = np.where(inside, -0.1, 0.1).astype(np.float32).reshape(n, n, n)
    return TSDFGrid(spec, vals)


# -- iou --------------------------------------------------------------------


def test_iou_identical_is_one():
    g = render(cylinder_sequence())
    assert iou(g, g) == 1.0


def test_iou_disjoint_is_zero():
    a = _box_grid(-0.4, -0.1)
    b = _box_grid(0.1, 0.4)
    assert iou(a, b) == 0.0


def test_iou_half_overlap_matches_analytic():
    # equal boxes shifted by half their width: intersection V/2, union 3V/2
    a = _box_grid(-0.3, 0.0)
    b = _box_grid(-0.15, 0.15)
    assert iou(a, b) == pytest.approx(1 / 3, abs=0.05)


def test_iou_symmetric_and_empty_union():
    a = _box_grid(-0.3, 0.0)
    b = _box_grid(-0.15, 0.15)
    assert iou(a, b) == iou(b, a)
    spec = GridSpec()
    n = spec.resolution
    empty = TSDFGrid(spec, np.full((n, n, n), 0.1, dtype=np.float32))
    assert iou(empty, empty) == 1.0
    assert iou(empty, a) == 0.0


def test_iou_rejects_mismatched_specs():
    a = render(cylinder_sequence(), GridSpec(resolution=16))
    b = render(cylinder_sequence(), GridSpec(resolution=32))
    with pytest.raises(SpecMismatchError):
        iou(a, b)


# -- chamfer ----------------------------------------------------------------


def _brute_chamfer(a, b):
    d_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    return 0.5 * d_ab.min(1).mean() + 0.5 * d_ab.min(0).mean()


def test_chamfer_identical_zero():
    pts = np.random.default_rng(3).uniform(-1, 1, size=(50, 3))
    assert chamfer(pts, pts) == 0.0


def test_chamfer_single_points():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.1, 0.0, 0.0]])
    assert chamfer(a, b) == pytest.approx(0.01)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-1, 1, size=(rng.integers(1, 40), 3))
        b = rng.uniform(-1, 1, size=(rng.integers(1, 40), 3))
        assert chamfer(a, b) == pytest.approx(_brute_chamfer(a, b), abs=1e-12)
        assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-12)


def _default_tree_chamfer(a, b):
    """``chamfer`` on scipy's default balanced, compacted trees."""
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return 0.5 * float(np.mean(d_ab**2)) + 0.5 * float(np.mean(d_ba**2))


def test_chamfer_equals_the_default_trees_bit_for_bit():
    rng = np.random.default_rng(151)
    sizes = ((1, 7), (40, 3000), (2500, 2500))
    cases = [(rng.uniform(-0.5, 0.5, (k, 3)), rng.uniform(-0.5, 0.5, (m, 3))) for k, m in sizes]
    # lattice sets with exact ties: every cube center is equidistant from its
    # eight corners, and every corner from its eight nearest centers
    lattice = np.stack(np.meshgrid(*[np.arange(12) / 16] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    cases += [(lattice, lattice[::3] + 1 / 32), (lattice + 1 / 32, lattice), (lattice, rng.permutation(lattice))]
    spec = GridSpec(resolution=32)
    surfaces = [surface_points(render(cylinder_sequence(r=r, dist=d), spec)) for r, d in ((64, 128), (50, 90))]
    cases.append(tuple(surfaces))
    for a, b in cases:
        assert chamfer(a, b) == _default_tree_chamfer(a, b)


def test_chamfer_empty_raises():
    pts = np.zeros((3, 3))
    with pytest.raises(EmptySetError):
        chamfer(pts, np.zeros((0, 3)))
    with pytest.raises(EmptySetError):
        chamfer(np.zeros((0, 3)), pts)


# -- jsd --------------------------------------------------------------------


def test_jsd_equal_is_zero():
    p = np.array([0.25, 0.25, 0.5])
    assert jsd(p, p) == 0.0


def test_jsd_disjoint_is_ln2():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert jsd(p, q) == pytest.approx(math.log(2))


def test_jsd_two_bin_hand_case():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    m = (p + q) / 2
    expect = 0.5 * (1.0 * math.log(1.0 / m[0])) + 0.5 * (
        0.5 * math.log(0.5 / m[0]) + 0.5 * math.log(0.5 / m[1])
    )
    assert jsd(p, q) == pytest.approx(expect, abs=1e-12)
    assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)


def test_jsd_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        jsd(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(NormalizationError):
        jsd(np.array([1.5, -0.5]), np.array([0.5, 0.5]))


def test_occupancy_histogram_normalized_and_usable():
    g = render(cylinder_sequence())
    h = occupancy_histogram([g])
    assert h.shape == (28, 28, 28)
    assert h.sum() == pytest.approx(1.0)
    assert jsd(h, h) == 0.0
    shifted = render(ConstructionSequence((circle_pair(cx=180, cy=180, origin=(90, 90, 64)),)))
    h2 = occupancy_histogram([shifted])
    assert jsd(h, h2) > 0.1


@pytest.mark.parametrize("resolution", [8, 13, 14, 16, 17, 28, 32, 42, 56, 64])
def test_occupancy_histogram_matches_histogramdd_bitwise(resolution):
    # at 13, 14, 17 and 42 some cell centers fall exactly on a bin edge
    rng = np.random.default_rng(resolution)
    spec = GridSpec(resolution=resolution)
    edges = np.linspace(-0.5, 0.5, 29)
    grids = []
    for _ in range(5):
        vals = np.where(rng.random((resolution,) * 3) < rng.random(), -0.1, 0.1).astype(np.float32)
        grids.append(TSDFGrid(spec, vals))
    # one grid alone and several pooled
    for batch in [grids[:1], grids[1:2], grids[2:]]:
        total = np.zeros((28, 28, 28))
        for g in batch:
            total += np.histogramdd(cell_points(spec)[g.occupancy().ravel()], bins=(edges, edges, edges))[0]
        expected = total / total.sum()
        got = occupancy_histogram(batch)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# sha256 of surface_points, with the default and with a subsampling
# max_points, and of occupancy_histogram over the grids below
SURFACE_PIN = "a3b6fe68c05e74e38b90321410a4bd4c583dc3af6e6ee2ace87158125e31b72d"


def _pin_grids():
    """Seeded grids at 16, 17, 32 and 64: a render, a union of balls and,
    at 17, a z-invariant column with no crossing along z."""
    for resolution in (16, 17, 32, 64):
        spec = GridSpec(resolution=resolution)
        rng = np.random.default_rng([resolution, 113])
        yield random_renderable(rng, spec)[1]
        pts = cell_points(spec)
        balls = [np.linalg.norm(pts - rng.uniform(-0.3, 0.3, 3), axis=1) - rng.uniform(0.08, 0.2) for _ in range(3)]
        vals = np.clip(np.minimum.reduce(balls), -spec.tau, spec.tau)
        yield TSDFGrid(spec, vals.reshape((resolution,) * 3))
    spec = GridSpec(resolution=17)
    pts = cell_points(spec)
    vals = np.clip(np.hypot(pts[:, 0] - 0.05, pts[:, 1] + 0.1) - 0.21, -spec.tau, spec.tau)
    yield TSDFGrid(spec, vals.reshape((17,) * 3))


def test_surface_points_and_histograms_are_pinned():
    digest = hashlib.sha256()
    grids = list(_pin_grids())
    for seed, grid in enumerate(grids):
        for arr in (surface_points(grid), surface_points(grid, max_points=97, seed=seed), occupancy_histogram([grid])):
            digest.update(arr.tobytes())
    digest.update(occupancy_histogram(grids).tobytes())
    column = grids[-1]
    assert np.isin(surface_points(column, max_points=10**6)[:, 2], column.spec.centers()).all()
    assert digest.hexdigest() == SURFACE_PIN


def test_occupancy_histogram_empty_raises():
    spec = GridSpec()
    n = spec.resolution
    empty = TSDFGrid(spec, np.full((n, n, n), 0.1, dtype=np.float32))
    with pytest.raises(NormalizationError):
        occupancy_histogram([empty])


# -- invalid rate -----------------------------------------------------------


def test_invalid_rate_counting():
    assert invalid_rate([False] * 4) == 0.0
    assert invalid_rate([True] * 4) == 1.0
    assert invalid_rate([True, True, True] + [False] * 7) == pytest.approx(0.3)
    with pytest.raises(EmptyListError):
        invalid_rate([])


# -- objective --------------------------------------------------------------


def test_objective_zero_at_fixed_point():
    seq = cylinder_sequence()
    target = render(seq)
    for lam in (0.0, 0.1, 5.0):
        assert report_for(seq, target, seq, lam).objective == pytest.approx(0.0, abs=1e-12)


def test_objective_lambda_zero_ignores_original():
    seq = cylinder_sequence()
    other = ConstructionSequence((circle_pair(r=40),))
    target = render(ConstructionSequence((circle_pair(r=80),)))
    a = report_for(seq, target, seq, 0.0)
    b = report_for(seq, target, other, 0.0)
    assert a.objective == b.objective == a.chamfer_mean


def test_objective_grows_with_distance_error():
    target = render(cylinder_sequence())
    base = cylinder_sequence()
    vals = []
    # stay under bin 191 so the taller candidates still fit in the domain
    for dist in (128, 144, 160, 184):
        cand = ConstructionSequence((circle_pair(dist_pos=dist, origin=(128, 128, 64)),))
        vals.append(report_for(cand, target, base, 0.1).objective)
    assert vals == sorted(vals)
    assert vals[0] < vals[1] < vals[2] < vals[3]


def test_objective_invalid_render_is_infinite():
    bad = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    target = render(cylinder_sequence())
    assert report_for(bad, target, cylinder_sequence(), 0.1).objective == math.inf


# -- report assembly --------------------------------------------------------


def test_report_for_valid_candidate():
    seq = cylinder_sequence()
    target = render(seq)
    rep = report_for(seq, target, original=seq)
    assert isinstance(rep, MetricsReport)
    assert rep.invalid is False
    assert rep.iou == 1.0
    assert rep.chamfer_mean == pytest.approx(0.0, abs=1e-12)
    assert rep.edit_distance == 0
    assert rep.jsd == pytest.approx(0.0, abs=1e-12)
    assert rep.objective == pytest.approx(0.0, abs=1e-12)


def test_report_for_invalid_candidate_drops_geometry_fields():
    bad = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    target = render(cylinder_sequence())
    rep = report_for(bad, target, original=cylinder_sequence())
    assert rep.invalid is True
    assert rep.iou is None and rep.chamfer_mean is None and rep.jsd is None
    assert rep.objective == math.inf
    assert rep.edit_distance > 0


def test_report_without_original_skips_structure_fields():
    seq = cylinder_sequence()
    rep = report_for(seq, render(seq))
    assert rep.edit_distance is None
    assert rep.objective is None
    fields = dict(rep.to_fields())
    assert "edit_distance" not in fields
    assert fields["iou"] == 1.0
