"""Geometry kernel checks against independent oracles."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    cell_points,
    circle_pair,
    cube_sequence,
    cylinder_sequence,
    extrusion,
    raises_exactly,
    square_loop,
    star_polygon_loop,
)

from cadfit import kernel
from cadfit.errors import EmptySurfaceError, RenderInvalidError
from cadfit.kernel import (
    DOMAIN_MIN,
    GridSpec,
    TSDFGrid,
    _extrude,
    arc_center_radius,
    attribute,
    body_sdf,
    extent_interval,
    placement_frame,
    render,
    sdf_difference,
    sdf_intersection,
    sdf_union,
    surface_points,
)
from cadfit.quant import Channel, dequantize, quantize
from cadfit.sequence import (
    Arc,
    BoolOp,
    Circle,
    ConstructionSequence,
    Extent,
    Line,
    Loop,
    SegmentId,
    SegmentKind,
    Sketch,
    chain_vertices,
)
from cadfit.synth import random_renderable, random_sequence


# -- dense-sampling oracle for 2D loops -------------------------------------


def _dense_polyline(loop, samples_per_prim=4000):
    """Boundary of a chain loop as a dense point polyline."""
    from cadfit.sequence import chain_vertices

    verts = [
        np.array([dequantize(x, Channel.COORD_2D), dequantize(y, Channel.COORD_2D)])
        for x, y in chain_vertices(loop)
    ]
    pts = []
    n = len(loop.primitives)
    for k, prim in enumerate(loop.primitives):
        a, b = verts[k], verts[(k + 1) % n]
        if isinstance(prim, Line):
            t = np.linspace(0.0, 1.0, samples_per_prim, endpoint=False)
            pts.append(a + t[:, None] * (b - a))
        else:
            sweep = dequantize(prim.sweep, Channel.ANGLE)
            center, radius = arc_center_radius(a, b, sweep, prim.ccw)
            start = math.atan2(a[1] - center[1], a[0] - center[0])
            sign = 1.0 if prim.ccw else -1.0
            ang = start + sign * np.linspace(0.0, sweep, samples_per_prim, endpoint=False)
            pts.append(center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1))
    return np.concatenate(pts, axis=0)


def _even_odd_inside(poly, pts):
    """Ray-cast point-in-polygon on a closed dense polyline."""
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(len(pts), dtype=bool)
    for i, (px, py) in enumerate(pts):
        straddle = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside[i] = (np.count_nonzero(straddle & (px < xs)) % 2) == 1
    return inside


def _check_loop_against_oracle(loop, rng, tol=1e-4):
    poly = _dense_polyline(loop)
    # uniform points, then points level with each vertex, where the half-open
    # crossing rule decides; the second set comes from a child stream, so the
    # first set and the loops drawn after it stay as they were
    level = [dequantize(v[1], Channel.COORD_2D) for v in chain_vertices(loop)]
    xs = rng.spawn(1)[0].uniform(-0.5, 0.5, size=30 * len(level))
    pts = np.concatenate([rng.uniform(-0.5, 0.5, size=(250, 2)), np.stack([xs, np.repeat(level, 30)], axis=-1)])
    brute = np.array([np.linalg.norm(poly - p, axis=1).min() for p in pts])
    keep = brute > 2e-3  # stay clear of the boundary so sampling error is negligible
    sdf = kernel._loop_eval(loop, *pts[keep].T)[0]
    inside = _even_odd_inside(poly, pts[keep])
    assert np.abs(np.abs(sdf) - brute[keep]).max() < tol
    assert np.array_equal(sdf < 0, inside)


def test_square_loop_sdf_values():
    loop = square_loop()  # bins 51/204 decode to exactly -0.3/0.3
    f, _ = kernel._loop_eval(loop, np.array([0.0, 0.45, 0.45]), np.array([0.0, 0.0, 0.45]))
    assert f == pytest.approx([-0.3, 0.15, math.hypot(0.15, 0.15)])


def test_circle_loop_sdf_is_exact():
    loop = Loop((Circle((128, 128), 51),))
    c = dequantize(128, Channel.COORD_2D)
    f, _ = kernel._loop_eval(loop, np.array([c, c + 0.5, c]), np.array([c, c, c - 0.2]))
    assert f == pytest.approx([-0.2, 0.3, 0.0], abs=1e-12)


def test_polygon_loops_match_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(8):
        _check_loop_against_oracle(star_polygon_loop(rng), rng)


def test_arc_loops_match_dense_oracle():
    rng = np.random.default_rng(29)
    for _ in range(8):
        _check_loop_against_oracle(star_polygon_loop(rng, arc_prob=0.6), rng)


def test_lens_loop_of_two_arcs():
    # two arcs between the same endpoints bound a lens; its widest point
    # sits on the symmetry axis
    a, b = (quantize(-0.2, Channel.COORD_2D), 128), (quantize(0.2, Channel.COORD_2D), 128)
    lens = Loop((Arc(b, 85, True), Arc(a, 85, True)))
    rng = np.random.default_rng(31)
    _check_loop_against_oracle(lens, rng)
    f, _ = kernel._loop_eval(lens, np.array([0.0]), np.array([dequantize(128, Channel.COORD_2D)]))
    assert f[0] < 0


@pytest.mark.parametrize("ccw", [True, False])
def test_an_arc_is_nearest_in_the_sector_between_its_end_radii(ccw):
    """The arc turns ccw from the radius ``lo`` to ``hi``.  Off those radii by
    more than 1e-9 rad, its distance is the ring's exactly where the point's
    ccw turn from ``lo``, taken with math.atan2, is within the sweep, and the
    nearer end's elsewhere; a point on an end radius itself is in the
    sector."""
    rng = np.random.default_rng(19)
    a, b = (np.array([dequantize(u, Channel.COORD_2D), dequantize(v, Channel.COORD_2D)]) for u, v in ((90, 100), (170, 140)))
    for sweep in (dequantize(k, Channel.ANGLE) for k in (1, 64, 127, 128, 200, 254)):
        center, radius = arc_center_radius(a, b, sweep, ccw)
        lo, hi = (a - center, b - center) if ccw else (b - center, a - center)
        first = math.atan2(lo[1], lo[0])
        # directions spread over the circle and crowded about both end radii
        turn = np.concatenate([rng.uniform(0, 2 * math.pi, 4000), rng.normal(0, 1e-6, 4000), sweep + rng.normal(0, 1e-6, 4000)])
        rho = radius * rng.uniform(0, 2, turn.size)
        x, y = center[0] + rho * np.cos(first + turn), center[1] + rho * np.sin(first + turn)
        dx, dy = x - center[0], y - center[1]
        turned = np.array([(math.atan2(q, p) - first) % (2 * math.pi) for p, q in zip(dx, dy)])
        clear = np.minimum.reduce([turned, 2 * math.pi - turned, np.abs(turned - sweep)]) > 1e-9
        ring = np.abs(np.sqrt(dx**2 + dy**2) - radius)
        caps = np.minimum(np.sqrt((x - a[0]) ** 2 + (y - a[1]) ** 2), np.sqrt((x - b[0]) ** 2 + (y - b[1]) ** 2))
        want = np.where(turned <= sweep, ring, caps)
        got = kernel._arc(a, b, sweep, ccw, x, y)[0]
        assert np.array_equal(got[clear], want[clear])
        assert np.count_nonzero(clear & (turned <= sweep)) > 100 and np.count_nonzero(clear & (turned > sweep)) > 100
        t = 2.0 ** np.arange(-30, 31)  # powers of two keep t * lo on the radius exactly
        for end in (lo, hi):
            assert kernel._in_sector(lo, hi, sweep, t * end[0], t * end[1]).all()


_CHORD_CASES = {
    # (loop, index of its arc, whether the chord is horizontal)
    "-x, bulge in": (Loop((Line((64, 64)), Line((192, 64)), Line((192, 192)), Arc((64, 192), 40, False))), 3, True),
    "-x, bulge out": (Loop((Line((64, 64)), Line((192, 64)), Line((192, 192)), Arc((64, 192), 40, True))), 3, True),
    "+x, bulge in": (Loop((Line((64, 192)), Arc((192, 192), 40, True), Line((192, 64)), Line((64, 64)))), 1, True),
    "+x, bulge out": (Loop((Line((64, 192)), Arc((192, 192), 40, False), Line((192, 64)), Line((64, 64)))), 1, True),
    "vertical, bulge in": (Loop((Line((192, 64)), Arc((192, 192), 40, False), Line((64, 192)), Line((64, 64)))), 1, False),
    "vertical, bulge out": (Loop((Line((192, 64)), Arc((192, 192), 40, True), Line((64, 192)), Line((64, 64)))), 1, False),
}


@pytest.mark.parametrize("case", _CHORD_CASES)
def test_a_point_on_an_arcs_chord_has_the_sign_of_its_neighbors(case):
    """An arc's chord is no boundary: a point on its open chord, at least
    1e-3 from the arc, is inside exactly where the points 1e-6 to either
    side of the chord are, whichever way the chord runs."""
    loop, arc, horizontal = _CHORD_CASES[case]
    along = np.array([dequantize(k, Channel.COORD_2D) for k in range(65, 192)])
    across = np.full(along.shape, dequantize(192, Channel.COORD_2D))
    x, y = (along, across) if horizontal else (across, along)
    f, rows = kernel._loop_eval(loop, x, y)
    clear = rows[arc] >= 1e-3
    assert np.count_nonzero(clear) > 100
    for nudge in (1e-6, -1e-6):
        g = kernel._loop_eval(loop, x, y + nudge)[0] if horizontal else kernel._loop_eval(loop, x + nudge, y)[0]
        assert np.array_equal(f[clear] < 0, g[clear] < 0)
    assert np.all((f[clear] < 0) == ("out" in case))


def test_degenerate_chain_raises():
    """Two equal consecutive vertices, at any step of the chain, the closing
    one included, and whether a line or an arc ends at the repeat."""
    for repeat in range(5):
        for arc in (False, True):
            ends = [(60, 60), (200, 60), (200, 200), (60, 200)]
            ends.insert(repeat, ends[repeat - 1])
            prims = [Line(e) for e in ends]
            if arc:
                prims[repeat] = Arc(ends[repeat], 40, True)
            loop = Loop(tuple(prims))
            with raises_exactly(ValueError, "zero-length chain step"):
                kernel._loop_eval(loop, np.zeros(1), np.zeros(1))
            with raises_exactly(ValueError, "zero-length chain step"):
                render(ConstructionSequence(((Sketch((loop,)), extrusion()),)), GridSpec(resolution=8))


def test_profile_with_hole_annulus():
    sketch = Sketch((Loop((Circle((128, 128), 102),)), Loop((Circle((128, 128), 51),))))
    c = dequantize(128, Channel.COORD_2D)
    # outer radius decodes to exactly 0.4, hole to 0.2
    f, _ = kernel._profile_eval(sketch, c + np.array([0.0, 0.3, 0.45]), np.full(3, c))
    assert f == pytest.approx([0.2, -0.1, 0.05])


# -- bodies -----------------------------------------------------------------


def _cylinder_mesh_oracle(radius, z_lo, z_hi, pts):
    """Signed distance via a densely meshed cylinder surface."""
    ang = np.linspace(0.0, 2 * np.pi, 600, endpoint=False)
    zs = np.linspace(z_lo, z_hi, 240)
    side = np.stack(
        [
            np.repeat(radius * np.cos(ang), len(zs)),
            np.repeat(radius * np.sin(ang), len(zs)),
            np.tile(zs, len(ang)),
        ],
        axis=-1,
    )
    rr = np.sqrt(np.linspace(0.0, radius**2, 120))
    disk_ang = ang[::6]
    cap_pts = []
    for z in (z_lo, z_hi):
        ga, gr = np.meshgrid(disk_ang, rr)
        cap_pts.append(np.stack([gr.ravel() * np.cos(ga.ravel()), gr.ravel() * np.sin(ga.ravel()), np.full(gr.size, z)], axis=-1))
    mesh = np.concatenate([side] + cap_pts, axis=0)
    dist = np.array([np.linalg.norm(mesh - p, axis=1).min() for p in pts])
    inside = (np.hypot(pts[:, 0], pts[:, 1]) < radius) & (pts[:, 2] > z_lo) & (pts[:, 2] < z_hi)
    return np.where(inside, -dist, dist)


def test_body_sdf_matches_cylinder_mesh_oracle():
    seq = cylinder_sequence()
    sketch, ext = seq.pairs[0]
    radius = dequantize(64, Channel.DISTANCE)
    z_lo = dequantize(64, Channel.COORD_3D)
    z_hi = z_lo + dequantize(128, Channel.DISTANCE)
    rng = np.random.default_rng(37)
    pts = rng.uniform(-0.5, 0.5, size=(150, 3))
    got = body_sdf(sketch, ext, pts)
    want = _cylinder_mesh_oracle(radius, z_lo, z_hi, pts)
    pitch = GridSpec().pitch
    assert np.abs(got - want).max() < 2 * pitch


def _circle_axis_xy(center_bin=128, origin_bin=128, scale=1.0):
    # a circle's world axis carries both the plane-center and origin decodes
    c = dequantize(center_bin, Channel.COORD_2D)
    o = dequantize(origin_bin, Channel.COORD_3D)
    return o + scale * c


def test_body_sdf_axis_values():
    seq = cylinder_sequence()
    sketch, ext = seq.pairs[0]
    radius = dequantize(64, Channel.DISTANCE)
    z_lo = dequantize(64, Channel.COORD_3D)
    height = dequantize(128, Channel.DISTANCE)
    ax = _circle_axis_xy()
    mid = z_lo + height / 2
    assert body_sdf(sketch, ext, np.array([ax, ax, mid])) == pytest.approx(-min(radius, height / 2))
    assert body_sdf(sketch, ext, np.array([ax, ax, z_lo + height + 0.1])) == pytest.approx(0.1)
    on_cap = body_sdf(sketch, ext, np.array([ax, ax, z_lo + height]))
    assert on_cap == pytest.approx(0.0, abs=1e-12)


def test_in_plane_rotations_compose():
    sk, _ = circle_pair()
    rng = np.random.default_rng(41)
    pts = rng.uniform(-0.5, 0.5, size=(200, 3))
    # the two z rotations flank the tilt; with zero tilt they add bin-wise
    a = body_sdf(sk, extrusion(orientation=(37, 0, 19), origin=(128, 128, 64)), pts)
    b = body_sdf(sk, extrusion(orientation=(56, 0, 0), origin=(128, 128, 64)), pts)
    c = body_sdf(sk, extrusion(orientation=(0, 0, 56), origin=(128, 128, 64)), pts)
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(a, c, atol=1e-12)


def test_tilted_body_is_the_upright_body_in_rotated_coordinates():
    from cadfit.kernel import placement_frame

    sk, _ = circle_pair(r=80)
    tilted = extrusion(orientation=(31, 77, 205), origin=(140, 120, 100))
    upright = extrusion(orientation=(0, 0, 0), origin=(140, 120, 100))
    rot, origin = placement_frame(tilted)
    rng = np.random.default_rng(47)
    pts = rng.uniform(-0.5, 0.5, size=(300, 3))
    mapped = (pts - origin) @ rot + origin
    assert np.allclose(body_sdf(sk, tilted, pts), body_sdf(sk, upright, mapped), atol=1e-9)


def test_body_scale_shrinks_profile():
    sk, _ = circle_pair(r=102)
    half = extrusion(scale=128, origin=(128, 128, 64))  # scale bin 128 ~ 0.502
    s = dequantize(128, Channel.SCALE)
    r_world = dequantize(102, Channel.DISTANCE) * s
    ax = _circle_axis_xy(scale=s)
    z_lo = dequantize(64, Channel.COORD_3D)
    mid = z_lo + dequantize(128, Channel.DISTANCE) / 2
    got = body_sdf(sk, half, np.array([ax + r_world + 0.05, ax, mid]))
    assert got == pytest.approx(0.05)


def test_extent_interval_symmetric_and_two_sided():
    sk, _ = circle_pair()
    ax = _circle_axis_xy()
    oz = dequantize(128, Channel.COORD_3D)
    sym = extrusion(extent=Extent.SYMMETRIC, origin=(128, 128, 128), dist_pos=102)
    d = dequantize(102, Channel.DISTANCE)
    top = body_sdf(sk, sym, np.array([ax, ax, oz + d / 2 + 0.05]))
    bot = body_sdf(sk, sym, np.array([ax, ax, oz - d / 2 - 0.05]))
    assert top == pytest.approx(0.05) and bot == pytest.approx(0.05)
    two = extrusion(extent=Extent.TWO_SIDED, origin=(128, 128, 128), dist_pos=51, dist_neg=102)
    up, dn = dequantize(51, Channel.DISTANCE), dequantize(102, Channel.DISTANCE)
    assert body_sdf(sk, two, np.array([ax, ax, oz + up + 0.03])) == pytest.approx(0.03)
    assert body_sdf(sk, two, np.array([ax, ax, oz - dn - 0.07])) == pytest.approx(0.07)


def test_zero_extent_raises():
    sk, _ = circle_pair()
    bad = extrusion(dist_pos=0, dist_neg=0)
    with raises_exactly(ValueError, "both extrusion distances are zero"):
        body_sdf(sk, bad, np.zeros(3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: arc_center_radius((0.1, 0.2), (0.1, 0.2), 1.0, True), "arc with empty chord or degenerate sweep"),
        (lambda: arc_center_radius((0.1, 0.2), (0.3, 0.2), 0.0, True), "arc with empty chord or degenerate sweep"),
        (
            lambda: render(ConstructionSequence((circle_pair(scale=0),)), GridSpec(resolution=8)),
            "extrusion scale dequantizes to zero",
        ),
    ],
    ids=["empty-chord", "zero-sweep", "scale-bin-0"],
)
def test_a_guard_behind_validation_is_a_value_error(call, message):
    """Guards behind validate_sequence, reached only by an unvalidated sequence or a direct call."""
    with raises_exactly(ValueError, message):
        call()


# -- boolean algebra --------------------------------------------------------


def test_boolean_identities_on_random_fields():
    rng = np.random.default_rng(43)
    f = rng.normal(size=1000)
    g = rng.normal(size=1000)
    assert np.array_equal(sdf_union(f, g), np.minimum(f, g))
    assert np.array_equal(sdf_difference(f, g), sdf_intersection(f, -g))
    assert np.array_equal(-sdf_union(f, g), sdf_intersection(-f, -g))
    assert np.array_equal(sdf_union(f, f), f)


# -- rendering --------------------------------------------------------------


def _grid_volume(grid):
    # fractional coverage per voxel; plain center counting can be off by a
    # whole voxel layer per face, which swamps a 5% check at this resolution
    frac = np.clip(0.5 - grid.values / grid.spec.pitch, 0.0, 1.0)
    return float(frac.sum()) * grid.spec.pitch**3


def test_render_cylinder_volume():
    grid = render(cylinder_sequence())
    radius = dequantize(64, Channel.DISTANCE)
    height = dequantize(128, Channel.DISTANCE)
    expect = math.pi * radius**2 * height
    assert _grid_volume(grid) == pytest.approx(expect, rel=0.05)


def test_render_cube_volume():
    grid = render(cube_sequence())
    assert _grid_volume(grid) == pytest.approx(0.6**3, rel=0.05)


def test_render_cube_minus_cylinder_volume():
    seq = ConstructionSequence(
        cube_sequence().pairs + (circle_pair(op=BoolOp.CUT, r=38, dist_pos=153, origin=(128, 128, 51)),)
    )
    grid = render(seq)
    r = dequantize(38, Channel.DISTANCE)
    expect = 0.6**3 - math.pi * r**2 * 0.6
    assert _grid_volume(grid) == pytest.approx(expect, rel=0.05)


def test_render_values_stay_in_band_and_deterministic():
    spec = GridSpec(resolution=32, tau=0.2)
    a = render(cylinder_sequence(), spec)
    b = render(cylinder_sequence(), spec)
    assert np.array_equal(a.values, b.values)
    assert a.values.max() <= np.float32(spec.tau)
    assert a.values.min() >= -np.float32(spec.tau)
    assert a.values.dtype == np.float32


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_values(bad):
    spec = GridSpec(resolution=8)
    vals = np.zeros((8, 8, 8), dtype=np.float32)
    vals[3, 4, 5] = bad
    with pytest.raises(ValueError):
        TSDFGrid(spec, vals)


def _resolution_8(*values, rest=None):
    """An (8, 8, 8) float32 grid of ``rest``, or of the first value, with the
    given values in its first cells."""
    vals = np.full(8**3, values[0] if rest is None else rest, dtype=np.float32)
    vals[: len(values)] = values
    return vals.reshape(8, 8, 8)


@pytest.mark.parametrize(
    "vals, which",
    [
        (_resolution_8(0.2), "no"),
        (_resolution_8(0.0), "no"),
        (_resolution_8(-0.0), "no"),
        (_resolution_8(0.0, -0.0, 1e-30, rest=0.2), "no"),
        (_resolution_8(-0.2), "every"),
        (_resolution_8(-1e-30, -0.1, rest=-0.2), "every"),
    ],
    ids=[
        "no-cell-inside-tau",
        "all-zero",
        "all-negative-zero",
        "no-cell-inside-mixed",
        "every-cell-inside-tau",
        "every-cell-inside-mixed",
    ],
)
def test_a_grid_with_no_surface_is_rejected(vals, which):
    """A grid needs a cell inside, below zero, and one that is not; -0.0 is
    not inside, as occupancy is ``values < 0``."""
    with pytest.raises(EmptySurfaceError, match=f"^grid has no surface: {which} cell is inside$"):
        TSDFGrid(GridSpec(resolution=8), vals)


@pytest.mark.parametrize(
    "vals",
    [
        _resolution_8(-1e-30, rest=0.2),
        _resolution_8(-0.2, rest=0.0),
        _resolution_8(0.0, rest=-0.2),
        _resolution_8(-0.0, rest=-0.1),
    ],
    ids=["one-cell-inside", "one-cell-inside-of-zeros", "one-cell-outside", "one-negative-zero-outside"],
)
def test_a_grid_with_one_cell_either_side_is_accepted(vals):
    grid = TSDFGrid(GridSpec(resolution=8), vals)
    assert 0 < np.count_nonzero(grid.occupancy()) < grid.values.size


@pytest.mark.parametrize(
    "vals",
    [_resolution_8(np.nan, rest=-0.1), _resolution_8(-0.3, rest=-0.1), np.full((8, 8, 7), 0.1, dtype=np.float32)],
    ids=["nan-all-inside", "past-minus-tau-all-inside", "shape"],
)
def test_a_damaged_grid_with_no_surface_is_a_value_error(vals):
    """Shape, NaN and band come before the surface, so a damaged file with
    no surface still reads as damaged: a ValueError, not EmptySurfaceError
    (``test_grid_rejects_non_finite_values`` holds no cell inside)."""
    with pytest.raises(ValueError):
        TSDFGrid(GridSpec(resolution=8), vals)


def test_render_out_of_domain_profile_is_invalid():
    seq = ConstructionSequence((circle_pair(origin=(255, 255, 255), r=30),))
    with pytest.raises(RenderInvalidError):
        render(seq)


def test_join_grows_and_cut_shrinks_occupancy():
    base = cylinder_sequence()
    joined = ConstructionSequence(base.pairs + (circle_pair(op=BoolOp.JOIN, cx=90, cy=90, r=40, origin=(128, 128, 90)),))
    cut = ConstructionSequence(base.pairs + (circle_pair(op=BoolOp.CUT, cx=128, cy=128, r=30, origin=(128, 128, 80)),))
    occ = render(base).occupancy()
    assert (render(joined).occupancy() | occ).sum() == render(joined).occupancy().sum()
    assert (render(cut).occupancy() & occ).sum() == render(cut).occupancy().sum()


def test_render_respects_resolution_and_tau():
    spec = GridSpec(resolution=16, tau=0.1)
    grid = render(cylinder_sequence(), spec)
    assert grid.values.shape == (16, 16, 16)
    assert grid.values.max() <= np.float32(0.1)


# -- attribution ------------------------------------------------------------


def test_attribution_single_pair_owns_everything():
    ag = attribute(cylinder_sequence())
    assert (ag.owner >= 0).all()
    pairs = {ag.segment_ids[i].pair for i in np.unique(ag.owner)}
    assert pairs == {0}
    kinds = {ag.segment_ids[i].kind for i in np.unique(ag.owner)}
    assert kinds == {SegmentKind.PRIMITIVE, SegmentKind.EXTRUSION}


def _tilted(seq, rng):
    """Every pair's sketch plane turned to a random non-zero phi bin."""
    pairs = []
    for sketch, ext in seq.pairs:
        theta, _, gamma = ext.orientation
        phi = int(rng.integers(1, 256))
        pairs.append((sketch, dataclasses.replace(ext, orientation=(theta, phi, gamma))))
    return ConstructionSequence(tuple(pairs))


def _turned(seq, rng, tilt_share=0.0):
    """Every pair at random non-zero theta and gamma bins; about ``tilt_share``
    of them also tilted to a random non-zero phi bin, the rest z-aligned."""
    pairs = []
    for sketch, ext in seq.pairs:
        theta, gamma = (int(b) for b in rng.integers(1, 256, size=2))
        phi = int(rng.integers(1, 256)) if rng.random() < tilt_share else 0
        pairs.append((sketch, dataclasses.replace(ext, orientation=(theta, phi, gamma))))
    return ConstructionSequence(tuple(pairs))


def test_attribution_matches_render_values():
    seq = ConstructionSequence(
        cylinder_sequence().pairs + (circle_pair(op=BoolOp.CUT, r=30, origin=(128, 128, 80)),)
    )
    ag = attribute(seq)
    assert np.array_equal(ag.values, render(seq).values)
    # the planner reads the current shape off attribution instead of a
    # render, so the two must agree on random sequences, tilted ones and
    # z-aligned ones turned in their plane too
    rng = np.random.default_rng(61)
    spec = GridSpec()
    for _ in range(12):
        drawn = random_renderable(rng, spec)[0]
        for seq in (drawn, _tilted(drawn, rng), _turned(drawn, rng)):
            assert np.array_equal(attribute(seq, spec).values, render(seq, spec).values)


def test_attribution_disjoint_union_against_field_oracle():
    a = circle_pair(cx=80, cy=128, r=30, origin=(103, 128, 90), dist_pos=64)
    b = circle_pair(op=BoolOp.JOIN, cx=176, cy=128, r=30, origin=(154, 128, 90), dist_pos=64)
    seq = ConstructionSequence((a, b))
    spec = GridSpec()
    ag = attribute(seq, spec)
    pts = cell_points(spec)
    fa = body_sdf(*a, pts).reshape(ag.owner.shape)
    fb = body_sdf(*b, pts).reshape(ag.owner.shape)
    band = np.abs(ag.values) < 2 * spec.pitch
    owner_pair = np.vectorize(lambda i: ag.segment_ids[i].pair)(ag.owner[band])
    assert np.array_equal(owner_pair, (fb[band] < fa[band]).astype(int))


def _h(f, spec):
    """h(f) = clip(float32(f), -tau, tau), what the kernel folds and stores
    in place of a body's field."""
    tau = np.float32(spec.tau)
    return np.clip(np.asarray(f).astype(np.float32), -tau, tau)


def _dense_fold(seq, spec):
    """Field and owner grid of a strict-comparison chain in float32 over
    every cell center: each body h(``body_sdf``), its cap mask and nearest
    primitive from the same dense per-point evaluation."""
    pts = cell_points(spec)
    scene, owner, first = None, np.zeros(len(pts), dtype=np.int32), 0
    for sketch, ext in seq.pairs:
        f = _h(body_sdf(sketch, ext, pts), spec)
        d, slab, rows = _extrude(sketch, ext, *kernel._local(*pts.T, *placement_frame(ext)))
        cap, nearest = slab > d, np.argmin(np.stack(rows), axis=0)
        if scene is None:
            takes, scene = np.ones(len(pts), dtype=bool), f
        elif ext.bool_op is BoolOp.CUT:
            takes, scene = -f > scene, np.maximum(scene, -f)
        elif ext.bool_op is BoolOp.INTERSECT:
            takes, scene = f > scene, np.maximum(scene, f)
        else:
            takes, scene = f < scene, np.minimum(scene, f)
        ext_id = first + sum(len(loop.primitives) for loop in sketch.loops)
        owner[takes] = np.where(cap, ext_id, first + nearest)[takes]
        first = ext_id + 1
    n = spec.resolution
    return scene.reshape(n, n, n), owner.reshape(n, n, n)


def _in_band(values, spec):
    """The cells whose owners an attribution guarantees: |v| < tau."""
    return np.abs(values) < np.float32(spec.tau)


def _assert_equals_dense_fold(seq, spec):
    """render and attribute against ``_dense_fold``, values bit for bit (so
    -0.0 and 0.0 differ), owners in the band and owning pairs everywhere;
    False when no voxel is inside, or every voxel is."""
    values, owner = _dense_fold(seq, spec)
    if (values < 0).all() or not (values < 0).any():
        with pytest.raises(RenderInvalidError):
            render(seq, spec)
        return False
    assert np.array_equal(render(seq, spec).values.view(np.uint32), values.view(np.uint32))
    ag = attribute(seq, spec)
    assert np.array_equal(ag.values.view(np.uint32), values.view(np.uint32))
    assert np.array_equal(render(seq, spec, base=ag).values.view(np.uint32), values.view(np.uint32))
    band = _in_band(values, spec)
    assert np.array_equal(ag.owner[band], owner[band])
    pair_of = np.array([sid.pair for sid in ag.segment_ids])
    assert np.array_equal(pair_of[ag.owner], pair_of[owner])
    return True


def _assert_h_field(f, dense, spec):
    """A stored body field: read-only float32 h(``dense``), bit for bit at
    every cell."""
    assert f.dtype == np.float32 and not f.flags.writeable
    assert np.array_equal(f.view(np.uint32), _h(dense.reshape(f.shape), spec).view(np.uint32))


def test_attribution_owner_pair_matches_strict_chain_oracle():
    rng = np.random.default_rng(67)
    spec = GridSpec(resolution=16)
    ops = (BoolOp.JOIN, BoolOp.CUT, BoolOp.INTERSECT)
    checked = 0
    while checked < 16:
        drawn = random_renderable(rng, spec, min_pairs=2)[0]
        pairs = [drawn.pairs[0]] + [
            (sketch, dataclasses.replace(ext, bool_op=ops[int(rng.integers(3))]))
            for sketch, ext in drawn.pairs[1:]
        ]
        # tilted pairs take the banded path, z-aligned ones the lattice path
        seq = _turned(ConstructionSequence(tuple(pairs)), rng, tilt_share=0.5)
        try:
            ag = attribute(seq, spec)
        except RenderInvalidError:
            continue
        # every voxel, out of the band too: only a culled block's segments differ
        pair_of = np.array([sid.pair for sid in ag.segment_ids])
        assert np.array_equal(pair_of[ag.owner], pair_of[_dense_fold(seq, spec)[1]])
        checked += 1


def _z_aligned(seq, rng):
    """Phi bin 0 with random theta and gamma bins, origin, scale, extent and
    boolean per pair; a one-circle profile gains a hole half the time."""
    pairs = []
    for k, (sketch, ext) in enumerate(seq.pairs):
        outer = sketch.loops[0].primitives[0]
        if isinstance(outer, Circle) and len(sketch.loops) == 1 and rng.random() < 0.5:
            cx, cy = (c + int(d) for c, d in zip(outer.center, rng.integers(-8, 9, size=2)))
            hole = Circle((cx, cy), int(rng.integers(8, outer.radius - 12)))
            sketch = Sketch(sketch.loops + (Loop((hole,)),))
        ext = dataclasses.replace(
            ext,
            orientation=(int(rng.integers(256)), 0, int(rng.integers(256))),
            origin=tuple(int(b) for b in rng.integers(96, 161, size=3)),
            scale=int(rng.integers(150, 256)),
            extent=Extent(int(rng.integers(3))),
            dist_neg=int(rng.integers(100)),
            bool_op=tuple(BoolOp)[int(rng.integers(4))] if k else ext.bool_op,
        )
        pairs.append((sketch, ext))
    return ConstructionSequence(tuple(pairs))


# the specs of the dense-fold comparisons below; at resolution 8 and at tau
# 0.1 the planner's band stops at tau, not at two voxels
_FOLD_SPECS = [
    pytest.param(GridSpec(resolution=8), id="8"),
    pytest.param(GridSpec(resolution=16), id="16"),
    pytest.param(GridSpec(resolution=16, tau=0.1), id="16-tau0.1"),
    pytest.param(GridSpec(resolution=17), id="17"),
    pytest.param(GridSpec(resolution=32), id="32"),
]


@pytest.mark.parametrize("spec", _FOLD_SPECS)
def test_z_aligned_sequences_match_the_dense_fold_bitwise(spec):
    rng = np.random.default_rng(spec.resolution)
    checked = 0
    while checked < 8:
        checked += _assert_equals_dense_fold(_z_aligned(random_sequence(rng), rng), spec)


@pytest.mark.parametrize("resolution", [16, 32])
def test_z_aligned_body_fields_equal_body_sdf_in_float64(resolution):
    """The lattice path stores h of the dense path's float64 field bit for
    bit at every cell: every projection is one (N, 2) product, and the
    hypot bound only moves values that h clamps."""
    rng = np.random.default_rng([resolution, 131])
    spec = GridSpec(resolution=resolution)
    pts, bodies = cell_points(spec), 0
    for _ in range(30):
        try:
            ag = attribute(_z_aligned(random_sequence(rng), rng), spec)
        except RenderInvalidError:
            continue
        for (sketch, ext), (f, _, _) in ag.bodies.items():
            _assert_h_field(f, body_sdf(sketch, ext, pts), spec)
            bodies += 1
    assert bodies >= 40


@st.composite
def z_aligned_bodies(draw):
    """One phi-bin-0 body: a circle, an annulus or a chain of lines and arcs,
    at any theta and gamma bins, origin, scale and extent."""
    kind = draw(st.sampled_from(("circle", "annulus", "chain")))
    if kind == "chain":
        loops = (star_polygon_loop(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), arc_prob=0.4),)
    else:
        cx, cy, r = draw(st.integers(64, 192)), draw(st.integers(64, 192)), draw(st.integers(20, 90))
        loops = (Loop((Circle((cx, cy), r),)),)
        if kind == "annulus":
            loops += (Loop((Circle((cx, cy), draw(st.integers(1, r - 1))),)),)
    bins = st.integers(0, 255)
    ext = extrusion(
        orientation=(draw(bins), 0, draw(bins)),
        origin=(draw(st.integers(32, 224)), draw(st.integers(32, 224)), draw(st.integers(32, 224))),
        scale=draw(st.integers(1, 255)),
        extent=draw(st.sampled_from(tuple(Extent))),
        dist_pos=draw(st.integers(1, 255)),
        dist_neg=draw(bins),
    )
    return ConstructionSequence(((Sketch(loops), ext),)), GridSpec(resolution=draw(st.integers(8, 24)))


@given(z_aligned_bodies())
def test_z_aligned_body_matches_the_dense_fold_bitwise(case):
    _assert_equals_dense_fold(*case)


def test_z_aligned_sequences_never_build_every_cell_center(monkeypatch):
    seq = _z_aligned(random_renderable(np.random.default_rng(71), GridSpec())[0], np.random.default_rng(73))
    seen, real = [], kernel._extrude

    def counted(sketch, ext, u, v, height):
        seen.append((u.shape, v.shape, np.shape(height)))
        return real(sketch, ext, u, v, height)

    monkeypatch.setattr(kernel, "_extrude", counted)
    n = GridSpec().resolution
    assert (attribute(seq).values < 0).any()
    assert seen == [((n, n, 1), (n, n, 1), (n,))] * len(seq.pairs)  # n^2 profile points, n heights


# -- band-limited slab term ------------------------------------------------------


def _corner_square(extent):
    """A unit square swept one unit, placed at the domain's low corner with
    no turn: its sketch-plane coordinates and heights on the lattice are the
    cell centres plus 0.5, exactly."""
    return (Sketch((square_loop(0, 255),)), extrusion(origin=(0, 0, 0), extent=extent, dist_pos=255))


# resolution, tau, extent, and the profile and slab values some cell centre takes
_SLAB_CASES = {
    # the middle centre of an odd resolution is 0.0, so x = 0.5 lies on the square's edge
    "centre-on-profile-edge": (17, 0.2, Extent.ONE_SIDED, 0.0, None),
    # a symmetric sweep of one unit caps at height 0.5, through the middle layer
    "cap-plane-through-centres": (17, 0.2, Extent.SYMMETRIC, 0.0, 0.0),
    # at resolution 16 every term is a multiple of 1/32, and 5/32 is a float32
    "term-equals-tau": (16, 0.15625, Extent.SYMMETRIC, 0.15625, 0.15625),
}


@pytest.mark.parametrize("op", [None, BoolOp.JOIN, BoolOp.CUT, BoolOp.INTERSECT])
@pytest.mark.parametrize("case", list(_SLAB_CASES))
def test_slab_term_edge_cases_match_the_dense_fold_bitwise(case, op):
    resolution, tau, extent, d_hit, slab_hit = _SLAB_CASES[case]
    spec = GridSpec(resolution=resolution, tau=tau)
    sketch, ext = _corner_square(extent)
    t = spec.centers() + 0.5
    d = kernel._profile_eval(sketch, *np.meshgrid(t, t, indexing="ij"))[0]
    lo, hi = extent_interval(ext)
    slab = np.abs(t - (lo + hi) / 2.0) - (hi - lo) / 2.0
    assert (d == d_hit).any()
    assert slab_hit is None or (slab == slab_hit).any()
    pairs = ((sketch, ext),)
    if op is not None:
        pairs = (circle_pair(r=100, dist_pos=200, origin=(128, 128, 40)), (sketch, dataclasses.replace(ext, bool_op=op)))
    seq = ConstructionSequence(pairs)
    assert _assert_equals_dense_fold(seq, spec)
    # a CUT negates the body's +0.0 cells, and the scene inside keeps the -0.0
    values = render(seq, spec).values
    assert ((values == 0) & np.signbit(values)).any() == (op is BoolOp.CUT and d_hit == 0.0)


# -- banded render --------------------------------------------------------------


@pytest.mark.parametrize("variant", ["tilted", "mixed"])
@pytest.mark.parametrize("spec", _FOLD_SPECS)
def test_banded_render_matches_the_dense_fold_bitwise(spec, variant):
    rng = np.random.default_rng([spec.resolution, len(variant), 5])
    ops, checked = set(), 0
    while checked < 6 or ops != set(BoolOp):
        seq = _placed(random_sequence(rng), rng, variant)
        if _assert_equals_dense_fold(seq, spec):
            ops.update(ext.bool_op for _, ext in seq.pairs)
            checked += 1


@st.composite
def tilted_bodies(draw):
    """One body off the z axis: a circle or a chain of lines and arcs, at any
    theta and gamma bins, a non-zero phi bin, and any scale and extent, placed
    so that a point of its surface lies within a pitch of a 4^3 block corner."""
    spec = GridSpec(resolution=draw(st.integers(8, 33)))
    if draw(st.booleans()):
        cx, cy, r = draw(st.integers(64, 192)), draw(st.integers(64, 192)), draw(st.integers(20, 90))
        loop = Loop((Circle((cx, cy), r),))
        turn = draw(st.floats(0.0, 2 * math.pi))
        rim = np.array([dequantize(cx, Channel.COORD_2D), dequantize(cy, Channel.COORD_2D)])
        rim += dequantize(r, Channel.DISTANCE) * np.array([math.cos(turn), math.sin(turn)])
    else:
        loop = star_polygon_loop(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), arc_prob=0.4)
        rim = np.array([dequantize(b, Channel.COORD_2D) for b in chain_vertices(loop)[0]])
    bins = st.integers(0, 255)
    ext = extrusion(
        orientation=(draw(bins), draw(st.integers(1, 255)), draw(bins)),
        scale=draw(st.integers(1, 255)),
        extent=draw(st.sampled_from(tuple(Extent))),
        dist_pos=draw(st.integers(1, 128)),
        dist_neg=draw(st.integers(0, 128)),
    )
    lo, hi = extent_interval(ext)
    surface = np.append(dequantize(ext.scale, Channel.SCALE) * rim, lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    offset = placement_frame(ext)[0] @ surface
    ticks = DOMAIN_MIN + 4 * spec.pitch * np.arange(-(-spec.resolution // 4) + 1)
    # per axis, the block corners that keep the origin inside the domain
    choices = [ticks[np.abs(ticks - o) <= 0.5] for o in offset]
    assume(all(len(c) for c in choices))
    origin = (draw(st.sampled_from(c.tolist())) - o for c, o in zip(choices, offset))
    ext = dataclasses.replace(ext, origin=tuple(quantize(float(o), Channel.COORD_3D) for o in origin))
    return ConstructionSequence(((Sketch((loop,)), ext),)), spec


@given(tilted_bodies())
def test_tilted_body_matches_the_dense_fold_bitwise(case):
    _assert_equals_dense_fold(*case)


def test_banded_render_skips_the_cells_a_small_tilted_body_cannot_reach(monkeypatch):
    seen, real = [], kernel._extrude

    def counted(sketch, ext, u, v, height):
        seen.append(math.prod(np.broadcast_shapes(u.shape, v.shape, np.shape(height))))
        return real(sketch, ext, u, v, height)

    monkeypatch.setattr(kernel, "_extrude", counted)
    spec = GridSpec()
    render(ConstructionSequence((circle_pair(r=30, dist_pos=40, orientation=(0, 64, 0)),)), spec)
    assert len(seen) == 2  # the block centers, then the cells of the blocks near the surface
    assert sum(seen) < spec.resolution**3 // 2


def test_an_off_axis_attribution_evaluates_the_cells_a_render_does(monkeypatch):
    seen, real = [], kernel._extrude

    def counted(sketch, ext, u, v, height):
        seen.append(math.prod(np.broadcast_shapes(u.shape, v.shape, np.shape(height))))
        return real(sketch, ext, u, v, height)

    monkeypatch.setattr(kernel, "_extrude", counted)
    spec = GridSpec()
    seq = ConstructionSequence((circle_pair(r=30, dist_pos=40, orientation=(0, 64, 0)),))
    render(seq, spec)
    rendered = seen[:]
    seen.clear()
    attribute(seq, spec)
    assert seen == rendered and sum(seen) < spec.resolution**3 // 2


@pytest.mark.parametrize("resolution", [16, 17, 32])
def test_off_axis_body_fields_equal_body_sdf_outside_their_filled_blocks(resolution):
    """A 4^3 block of an off-axis attribution body whose center value lies
    past tau plus the half-diagonal is filled with exactly sign * tau; every
    other block is evaluated, and the stored field is h of body_sdf's float64
    field bit for bit at every cell."""
    rng = np.random.default_rng([resolution, 137])
    spec = GridSpec(resolution=resolution)
    n, tau, nb = resolution, spec.tau, -(-resolution // 4)
    pts, filled, evaluated = cell_points(spec), 0, 0
    mid = DOMAIN_MIN + (np.arange(nb) + 0.5) * 4 * spec.pitch
    mids = np.stack(np.meshgrid(mid, mid, mid, indexing="ij"), axis=-1).reshape(-1, 3)

    def blocks(a):
        pad = np.pad(a, [(0, 4 * nb - n)] * 3, mode="edge")
        return pad.reshape(nb, 4, nb, 4, nb, 4).transpose(0, 2, 4, 1, 3, 5).reshape(nb**3, 64)

    while filled < 20 or evaluated < 20:
        seq = _placed(random_sequence(rng), rng, "tilted")
        try:
            ag = attribute(seq, spec)
        except RenderInvalidError:
            continue
        for (sketch, ext), (f, _, _) in ag.bodies.items():
            _assert_h_field(f, body_sdf(sketch, ext, pts), spec)
            fc = body_sdf(sketch, ext, mids)
            culled = np.abs(fc) >= tau + 1.5 * math.sqrt(3.0) * spec.pitch + 1e-9
            assert (blocks(f)[culled] == np.copysign(tau, fc[culled])[:, None]).all()
            evaluated += (~culled).any()
            filled += culled.any()


def test_banded_render_culls_only_past_the_half_diagonal_and_margin(monkeypatch):
    """A block whose center value is exactly tau plus the 4^3 half-diagonal
    inside the body still has every cell evaluated.  The field is then
    inside everywhere, which is no shape."""
    spec = GridSpec(resolution=16)
    edge = -(spec.tau + 1.5 * math.sqrt(3.0) * spec.pitch)
    seen = []

    def flat(sketch, ext, u, v, height):
        shape = np.broadcast_shapes(u.shape, v.shape, np.shape(height))
        seen.append(math.prod(shape))
        return np.full(shape, edge), np.full(shape, edge), []  # both terms at edge: a field of edge

    monkeypatch.setattr(kernel, "_extrude", flat)
    with pytest.raises(RenderInvalidError, match="^composed field has no exterior voxels$"):
        render(ConstructionSequence((circle_pair(orientation=(0, 64, 0)),)), spec)
    assert seen == [4**3, 16**3]


def test_bodies_are_placed_once_and_store_hits_build_no_coordinates(monkeypatch):
    rng = np.random.default_rng(79)
    spec = GridSpec()
    seq = _turned(random_renderable(rng, spec, min_pairs=2)[0], rng, tilt_share=0.5)
    placed, real = [], kernel.placement_frame

    def counted(ext):
        placed.append(ext)
        return real(ext)

    monkeypatch.setattr(kernel, "placement_frame", counted)
    ag = attribute(seq, spec)
    grid = render(seq, spec)
    assert placed == [ext for _, ext in seq.pairs] * 2

    def refuse(*_):
        raise AssertionError("a body taken from the base was placed again")

    monkeypatch.setattr(kernel, "placement_frame", refuse)
    monkeypatch.setattr(GridSpec, "centers", None)  # a call would now raise
    assert np.array_equal(render(seq, spec, base=ag).values.view(np.uint32), grid.values.view(np.uint32))


# -- bodies kept by an attribution --------------------------------------------


def _placed(seq, rng, variant):
    """``_z_aligned`` bodies, then all tilted, or about half of them."""
    seq = _z_aligned(seq, rng)
    if variant == "tilted":
        return _tilted(seq, rng)
    if variant == "mixed":
        return _turned(seq, rng, tilt_share=0.5)
    return seq


def _swap_one(seq, other, rng):
    """``seq`` with one pair replaced by ``other``'s first body, keeping the
    boolean of the pair it replaces."""
    k = int(rng.integers(len(seq.pairs)))
    sketch, ext = other.pairs[0]
    pairs = list(seq.pairs)
    pairs[k] = (sketch, dataclasses.replace(ext, bool_op=seq.pairs[k][1].bool_op))
    return ConstructionSequence(tuple(pairs))


@pytest.mark.parametrize("variant", ["z-aligned", "tilted", "mixed"])
@pytest.mark.parametrize("resolution", [16, 17, 32])
def test_body_store_reuse_is_bitwise_equal_to_a_fresh_fold(resolution, variant):
    rng = np.random.default_rng([resolution, len(variant)])
    spec = GridSpec(resolution=resolution)
    ops, checked = set(), 0
    while checked < 6 or ops != set(BoolOp):
        a = _placed(random_sequence(rng, min_pairs=2), rng, variant)
        b = _swap_one(a, _placed(random_sequence(rng), rng, variant), rng)
        try:
            warm = attribute(a, spec)
            fresh = attribute(b, spec)
        except RenderInvalidError:
            continue
        shared = warm.bodies.keys() & set(b.pairs)
        assert shared

        grid = render(b, spec, base=warm)
        assert np.array_equal(grid.values.view(np.uint32), fresh.values.view(np.uint32))

        ag = attribute(b, spec, base=warm)
        assert np.array_equal(ag.values.view(np.uint32), fresh.values.view(np.uint32))
        assert np.array_equal(ag.owner, fresh.owner)
        assert ag.segment_ids == fresh.segment_ids
        assert ag.bodies.keys() == set(b.pairs)
        assert all(ag.bodies[key] is warm.bodies[key] for key in shared)
        assert not any(arr.flags.writeable for body in ag.bodies.values() for arr in body)

        ops.update(ext.bool_op for _, ext in b.pairs)
        checked += 1


def _renderable(rng, spec, variant):
    """A ``_placed`` sequence of at least two pairs that renders at ``spec``,
    with its attribution."""
    while True:
        seq = _placed(random_sequence(rng, min_pairs=2), rng, variant)
        try:
            return seq, attribute(seq, spec)
        except RenderInvalidError:
            continue


@settings(max_examples=24, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(("z-aligned", "tilted", "mixed")),
    pairs=st.integers(1, 4),
    resolution=st.sampled_from((16, 17, 32, 64)),
    tau=st.sampled_from((0.2, 0.05)),
)
# at resolution 17 the culled blocks overhang the grid, so a lone tilted
# body's field is a slice of a larger array
@example(seed=0, variant="tilted", pairs=1, resolution=17, tau=0.2)
def test_kernel_grids_are_read_only_in_band_float32_the_checked_constructor_keeps(seed, variant, pairs, resolution, tau):
    """``render`` and ``AttributionGrid.grid`` skip ``TSDFGrid``'s check and
    copy: their values must pass the check unchanged and stay unwritable."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(resolution, tau)
    pairs = max(pairs, 2) if variant == "mixed" else pairs
    while True:
        seq = _placed(random_sequence(rng, min_pairs=pairs, max_pairs=pairs), rng, variant)
        try:
            grids = [render(seq, spec), attribute(seq, spec).grid()]
            break
        except RenderInvalidError:
            continue
    for grid in grids:
        values = grid.values
        assert grid.spec == spec and values.shape == (resolution,) * 3
        assert values.dtype == np.float32 and values.flags.c_contiguous
        assert np.isfinite(values).all() and (np.abs(values) <= np.float32(spec.tau)).all()
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0, 0] = 0
        assert np.array_equal(TSDFGrid(spec, values).values.view(np.uint32), values.view(np.uint32))
    assert np.array_equal(grids[0].values.view(np.uint32), grids[1].values.view(np.uint32))


@pytest.mark.parametrize("variant", ["z-aligned", "tilted", "mixed"])
def test_an_attribution_keeps_exactly_its_sequences_bodies_read_only(variant):
    rng = np.random.default_rng([len(variant), 89])
    spec = GridSpec(resolution=16)
    seq, _ = _renderable(rng, spec, variant)
    seq = ConstructionSequence(seq.pairs + seq.pairs[:1])  # a repeated body is kept once
    ag = attribute(seq, spec)
    assert ag.bodies.keys() == set(seq.pairs) and len(ag.bodies) == len(seq.pairs) - 1
    with pytest.raises(TypeError):
        ag.bodies[seq.pairs[0]] = ag.bodies[seq.pairs[1]]
    for (sketch, ext), (f, cap, nearest) in ag.bodies.items():
        for arr in (f, cap, nearest):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0
        _assert_h_field(f, body_sdf(sketch, ext, cell_points(spec)), spec)
    # they are the very fields the attribution folded
    scene = ag.bodies[seq.pairs[0]][0]
    for sketch, ext in seq.pairs[1:]:
        scene = kernel._BOOLEAN[ext.bool_op](scene, ag.bodies[sketch, ext][0])
    assert np.array_equal(scene.view(np.uint32), ag.values.view(np.uint32))


def test_a_base_at_another_spec_is_not_reused():
    spec = GridSpec(resolution=32)
    seq, fresh = _renderable(np.random.default_rng(91), spec, "mixed")
    fresh_grid = render(seq, spec)
    for other in (GridSpec(resolution=16), GridSpec(resolution=32, tau=0.1)):
        base = attribute(seq, other)
        grid = render(seq, spec, base=base)
        assert np.array_equal(grid.values.view(np.uint32), fresh_grid.values.view(np.uint32))
        ag = attribute(seq, spec, base=base)
        assert np.array_equal(ag.values.view(np.uint32), fresh.values.view(np.uint32))
        assert np.array_equal(ag.owner, fresh.owner)
        assert not any(ag.bodies[key][0] is base.bodies[key][0] for key in ag.bodies)


@pytest.mark.parametrize("variant", ["z-aligned", "tilted"])
def test_a_render_leaves_its_spec_a_plain_value(variant):
    """Caches are owned by a run: a render or an attribution stores nothing
    on its spec, not even on the default specs that calls without one share."""
    rng = np.random.default_rng([len(variant), 97])
    for resolution in (17, 32):
        spec = GridSpec(resolution=resolution)
        seq, _ = _renderable(rng, spec, variant)  # attributed at spec
        render(seq, spec)
        assert vars(spec) == {"resolution": resolution, "tau": spec.tau}
    render(seq)  # the resolution-32 sequence
    attribute(seq)
    for default in (render.__defaults__[0], attribute.__defaults__[0]):
        assert vars(default) == {"resolution": 32, "tau": default.tau}


@pytest.mark.parametrize("variant", ["tilted", "mixed"])
def test_a_render_off_the_z_axis_builds_no_meshgrid(monkeypatch, variant):
    rng = np.random.default_rng([len(variant), 93])
    cases = []
    for resolution in (16, 17, 32):
        spec = GridSpec(resolution=resolution)
        seq, _ = _renderable(rng, spec, variant)
        cases.append((seq, spec, render(seq, spec)))
    assert any(ext.orientation[1] for seq, _, _ in cases for _, ext in seq.pairs)

    def refuse(*_, **__):
        raise AssertionError("render built a meshgrid")

    monkeypatch.setattr(kernel.np, "meshgrid", refuse)
    for seq, spec, grid in cases:
        assert np.array_equal(render(seq, spec).values.view(np.uint32), grid.values.view(np.uint32))


# -- float32 clamped renders ----------------------------------------------------


def _float64_render(seq, spec):
    """The fold in float64 of every body's ``body_sdf`` field, clamped once
    at the end: the oracle for the kernel's float32 fold of h-fields."""
    pts, n = cell_points(spec), spec.resolution
    scene = None
    for sketch, ext in seq.pairs:
        f = body_sdf(sketch, ext, pts)
        scene = f if scene is None else kernel._BOOLEAN[ext.bool_op](scene, f)
    return _h(scene, spec).reshape(n, n, n)


@pytest.mark.parametrize("variant", ["z-aligned", "tilted", "mixed"])
@pytest.mark.parametrize("resolution", [16, 17, 32, 64])
def test_the_float32_render_fold_is_the_float64_fold_bitwise(resolution, variant):
    rng = np.random.default_rng([resolution, len(variant), 149])
    spec = GridSpec(resolution=resolution)
    ops, checked = set(), 0
    while checked < 4 or ops != set(BoolOp):
        seq, ag = _renderable(rng, spec, variant)
        want = _float64_render(seq, spec).view(np.uint32)
        assert np.array_equal(ag.values.view(np.uint32), want)
        assert np.array_equal(render(seq, spec).values.view(np.uint32), want)
        assert np.array_equal(render(seq, spec, base=ag).values.view(np.uint32), want)
        ops.update(ext.bool_op for _, ext in seq.pairs)
        checked += 1


@pytest.mark.parametrize("tilted", [False, True])
def test_a_profile_value_that_casts_to_a_signed_zero_leaves_both_folds_equal(monkeypatch, tilted):
    """Plant 1e-300 in one body's profile and 0.0 in a second, cut, body's at
    one cell inside both slabs.  Unflushed, their float64 difference keeps
    the 1e-300, which clamps to +0.0, while the difference of their float32
    casts, max(+0.0, -0.0), is -0.0.  The flush makes the first body +0.0
    there, so the kernel's float32 fold is the float64 fold of the full
    fields clamped once, the -0.0 included."""
    spec = GridSpec(resolution=16)
    a = circle_pair(r=60, dist_pos=120, origin=(128, 128, 70), orientation=(0, 64 if tilted else 0, 0))
    b = circle_pair(op=BoolOp.CUT, cx=150, r=40, dist_pos=80, origin=(128, 128, 90))
    seq = ConstructionSequence((a, b))
    pts = cell_points(spec)
    (d, slab_a, _), (_, slab_b, _) = (_extrude(*p, *kernel._local(*pts.T, *placement_frame(p[1]))) for p in (a, b))
    # on a's lateral surface, so in a block a's band reaches, where both bodies are their profiles
    cell = int(np.argmin(np.where((slab_a < 0) & (slab_b < 0), np.abs(d), np.inf)))
    # the gap: unflushed, the two folds part at that cell
    assert not np.signbit(np.float32(np.maximum(1e-300, -0.0)))
    assert np.signbit(np.maximum(np.float32(1e-300), np.float32(-0.0)))
    planted, real = {}, kernel._profile_eval
    for (sketch, ext), value in ((a, 1e-300), (b, 0.0)):
        u, v, _ = kernel._local(*pts[cell, :, None], *placement_frame(ext))
        planted[sketch] = (u[0], v[0]), value  # the scale dequantizes to 1.0, so x and y are u and v

    def plant(sketch, x, y):
        f, rows = real(sketch, x, y)
        p0, value = planted[sketch]
        return np.where((x == p0[0]) & (y == p0[1]), value, f), rows

    monkeypatch.setattr(kernel, "_profile_eval", plant)
    fa, fb = body_sdf(*a, pts), body_sdf(*b, pts)
    assert fa[cell] == 0.0 and not np.signbit(fa[cell]) and fb[cell] == 0.0

    ag = attribute(seq, spec)
    assert ag.bodies.keys() == {a, b}
    want = _float64_render(seq, spec).view(np.uint32)
    assert np.signbit(want.reshape(-1)[cell].view(np.float32))
    assert np.array_equal(ag.values.view(np.uint32), want)
    assert np.array_equal(render(seq, spec).values.view(np.uint32), want)
    assert np.array_equal(render(seq, spec, base=ag).values.view(np.uint32), want)


def test_extrude_flushes_exactly_the_terms_float32_rounds_to_a_zero(monkeypatch):
    """Magnitudes up to 2**-150 round to a float32 zero and become zeros of
    their sign; above it float32 keeps the smallest subnormal and the sign,
    so the term stays, and a value such as -1e-40 stays occupied."""
    tiny = 2.0**-150
    flushed = [tiny, -tiny, 1e-300, -1e-300, 0.0, -0.0]
    kept = [np.nextafter(tiny, 1.0), -np.nextafter(tiny, 1.0), 2.0**-149, -(2.0**-149), 1e-40, -1e-40, 0.25]
    values = np.array(flushed + kept)
    assert not np.float32(values[: len(flushed)]).any() and np.float32(values[len(flushed) :]).all()
    sketch, ext = circle_pair()  # scale 255 dequantizes to 1.0: d is the profile value
    assert dequantize(ext.scale, Channel.SCALE) == 1.0
    monkeypatch.setattr(kernel, "_profile_eval", lambda sketch, x, y: (values.copy(), []))
    monkeypatch.setattr(kernel, "extent_interval", lambda ext: (0.0, 0.0))  # the slab term is |height|
    d, slab, _ = _extrude(sketch, ext, np.zeros(len(values)), np.zeros(len(values)), values.copy())
    for got, want in ((d, values), (slab, np.abs(values))):
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not got[: len(flushed)].any()
        assert np.array_equal(got[len(flushed) :].view(np.uint64), want[len(flushed) :].view(np.uint64))


# -- 2D layer on x/y planes -----------------------------------------------------


# sha256 of the render values, attribute values and owners below, and of
# every body's float64 field, which the float32 grid would hide a last-bit
# change in: any change to a rounding anywhere in the kernel moves it.  The
# owners outside the band follow which blocks an attribution culls, so a
# change to the cull moves it too; IN_BAND_OWNER_PIN holds the guaranteed ones
KERNEL_PIN = "85a971e2fd49c383b7a60cee10be1056aae066a2c3df95b97613488d3d77612b"


def test_seeded_renders_and_attributions_are_pinned():
    digest = hashlib.sha256()
    ops, arcs, holes = set(), 0, 0
    for resolution in (16, 17, 32):
        rng = np.random.default_rng([resolution, 97])
        spec = GridSpec(resolution=resolution)
        for variant in ("z-aligned", "tilted", "mixed"):
            for _ in range(4):
                seq = _placed(random_sequence(rng, min_pairs=2), rng, variant)
                try:
                    grid = render(seq, spec)
                except RenderInvalidError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}".encode())
                    continue
                ag = attribute(seq, spec)
                fields = [body_sdf(sketch, ext, cell_points(spec)) for sketch, ext in seq.pairs]
                for arr in [grid.values, ag.values, ag.owner] + fields:
                    digest.update(arr.tobytes())
                ops.update(ext.bool_op for _, ext in seq.pairs)
                loops = [loop for sketch, _ in seq.pairs for loop in sketch.loops]
                arcs += sum(isinstance(p, Arc) for loop in loops for p in loop.primitives)
                holes += sum(len(sketch.loops) - 1 for sketch, _ in seq.pairs)
    assert ops == set(BoolOp) and arcs and holes
    assert digest.hexdigest() == KERNEL_PIN


# sha256 of the owners of the attributions above, with every cell outside the
# band (|v| >= tau) set to -1: the owners an attribution guarantees
IN_BAND_OWNER_PIN = "5c81f2f4cc09cd260dffd88d6d918db078ffdc0369932cedbd3792c9c9a22e3e"


def test_seeded_in_band_owners_are_pinned():
    digest = hashlib.sha256()
    for resolution in (16, 17, 32):
        rng = np.random.default_rng([resolution, 97])
        spec = GridSpec(resolution=resolution)
        for variant in ("z-aligned", "tilted", "mixed"):
            for _ in range(4):
                seq = _placed(random_sequence(rng, min_pairs=2), rng, variant)
                try:
                    ag = attribute(seq, spec)
                except RenderInvalidError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}".encode())
                    continue
                digest.update(np.where(np.abs(ag.values) < np.float32(spec.tau), ag.owner, -1).tobytes())
    assert digest.hexdigest() == IN_BAND_OWNER_PIN


def test_profiles_take_no_norm_over_a_coordinate_axis(monkeypatch):
    """The 2D layer works on x and y planes: no distance in it is a norm,
    the arc chord's length included."""

    def refuse(x, *args, **kwargs):
        raise AssertionError(f"norm over a {np.shape(x)} array")

    monkeypatch.setattr(kernel.np.linalg, "norm", refuse)
    rng = np.random.default_rng(83)
    spec = GridSpec(resolution=16)
    for variant in ("tilted", "mixed"):
        checked = 0
        while checked < 4:
            seq = _placed(random_sequence(rng, min_pairs=2), rng, variant)
            try:
                render(seq, spec)
            except RenderInvalidError:
                continue
            attribute(seq, spec)
            checked += 1


def test_attribution_duplicate_join_stays_with_the_first_pair():
    seq = ConstructionSequence((circle_pair(), circle_pair(BoolOp.JOIN), circle_pair(BoolOp.JOIN)))
    ag = attribute(seq)
    assert {ag.segment_ids[i].pair for i in np.unique(ag.owner)} == {0}


def test_attribution_annulus_inner_wall_belongs_to_the_hole():
    sketch = Sketch((Loop((Circle((128, 128), 102),)), Loop((Circle((128, 128), 51),))))
    seq = ConstructionSequence(((sketch, extrusion(origin=(128, 128, 64))),))
    spec = GridSpec()
    ag = attribute(seq, spec)
    pts = cell_points(spec).reshape(ag.owner.shape + (3,))
    ax = _circle_axis_xy()
    r = np.hypot(pts[..., 0] - ax, pts[..., 1] - ax)
    z_lo = dequantize(64, Channel.COORD_3D)
    height = dequantize(128, Channel.DISTANCE)
    wall = (np.abs(r - dequantize(51, Channel.DISTANCE)) < spec.pitch / 2) & (
        np.abs(pts[..., 2] - (z_lo + height / 2)) < height / 4
    )
    assert wall.sum() > 50
    owners = {ag.segment_ids[i] for i in np.unique(ag.owner[wall])}
    assert owners == {SegmentId(0, SegmentKind.PRIMITIVE, 1, 0)}


def test_attribution_cut_cavity_owned_by_cut_pair():
    cube = cube_sequence()
    cutter = circle_pair(op=BoolOp.CUT, r=38, dist_pos=153, origin=(128, 128, 51))
    seq = ConstructionSequence(cube.pairs + (cutter,))
    spec = GridSpec()
    ag = attribute(seq, spec)
    without = render(cube, spec)
    cavity = without.occupancy() & ~ (ag.values < 0)
    band = cavity & (ag.values > 0) & (ag.values < 2 * spec.pitch)
    assert band.any()
    owner_pair = np.array([ag.segment_ids[i].pair for i in ag.owner[band]])
    assert (owner_pair == 1).all()


def test_attribution_caps_go_to_extrusion_block():
    ag = attribute(cylinder_sequence())
    spec = ag.spec
    c = spec.centers()
    z_lo = dequantize(64, Channel.COORD_3D)
    height = dequantize(128, Channel.DISTANCE)
    iz_top = int(np.argmin(np.abs(c - (z_lo + height))))
    ix = int(np.argmin(np.abs(c)))
    top_owner = ag.segment_ids[ag.owner[ix, ix, iz_top]]
    assert top_owner.kind is SegmentKind.EXTRUSION
    radius = dequantize(64, Channel.DISTANCE)
    iz_mid = int(np.argmin(np.abs(c - (z_lo + height / 2))))
    ix_wall = int(np.argmin(np.abs(c - radius)))
    wall_owner = ag.segment_ids[ag.owner[ix_wall, ix, iz_mid]]
    assert wall_owner.kind is SegmentKind.PRIMITIVE


# -- scalar oracle --------------------------------------------------------------
#
# ``body_sdf`` at one point in Python floats, which do one IEEE operation per
# step and never fuse: a field equal to it bit for bit is the kernel's fixed
# order of elementwise operations, whatever BLAS the host has.  The sign is
# a count of crossings and the on-arc test two cross-product signs, so the
# only numpy scalar the oracle borrows is np.hypot, called where the kernel
# calls that ufunc, as math.hypot rounds some inputs otherwise.


def _scalar_distance(x, y, px, py):
    dx, dy = x - px, y - py
    return math.sqrt(dx * dx + dy * dy)


def _scalar_crossing(a, b, x, y):
    """Whether (x, y) is left of the chord from a to b, on its line the side
    y + eps takes, and the chord's signed crossing of the point's +x ray."""
    cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
    left = cross > 0 or (cross == 0 and b[0] > a[0])
    return left, int(a[1] <= y < b[1] and left) - int(b[1] <= y < a[1] and not left)


def _scalar_segment(a, b, x, y):
    ab0, ab1 = b[0] - a[0], b[1] - a[1]
    t = min(max(((x - a[0]) * ab0 + (y - a[1]) * ab1) / (ab0 * ab0 + ab1 * ab1), 0.0), 1.0)
    return _scalar_distance(x, y, a[0] + t * ab0, a[1] + t * ab1)


def _scalar_arc(a, b, sweep, ccw, x, y):
    c0, c1 = b[0] - a[0], b[1] - a[1]
    clen = math.sqrt(c0 * c0 + c1 * c1)
    radius = clen / (2.0 * math.sin(sweep / 2.0))
    k = (1.0 if ccw else -1.0) * radius * math.cos(sweep / 2.0)
    cx, cy = (a[0] + b[0]) / 2.0 + k * (-c1 / clen), (a[1] + b[1]) / 2.0 + k * (c0 / clen)
    from_center = _scalar_distance(x, y, cx, cy)
    start, end = (a[0] - cx, a[1] - cy), (b[0] - cx, b[1] - cy)
    lo, hi = (start, end) if ccw else (end, start)
    dx, dy = x - cx, y - cy
    after, before = lo[0] * dy - lo[1] * dx >= 0, dx * hi[1] - dy * hi[0] >= 0
    if (after and before) if sweep < math.pi else (after or before):
        dist = abs(from_center - radius)
    else:
        dist = min(_scalar_distance(x, y, *a), _scalar_distance(x, y, *b))
    left, crossing = _scalar_crossing(a, b, x, y)
    inside = from_center < radius
    return dist, crossing + (inside and not left) if ccw else crossing - (inside and left)


def _scalar_loop(loop, x, y):
    prim = loop.primitives[0]
    if isinstance(prim, Circle):
        cx, cy = (dequantize(c, Channel.COORD_2D) for c in prim.center)
        return _scalar_distance(x, y, cx, cy) - dequantize(prim.radius, Channel.DISTANCE)
    verts = [tuple(dequantize(c, Channel.COORD_2D) for c in v) for v in chain_vertices(loop)]
    dist, winding = math.inf, 0
    for k, p in enumerate(loop.primitives):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        if isinstance(p, Line):
            d, crossing = _scalar_segment(a, b, x, y), _scalar_crossing(a, b, x, y)[1]
        else:
            d, crossing = _scalar_arc(a, b, dequantize(p.sweep, Channel.ANGLE), p.ccw, x, y)
        dist, winding = min(dist, d), winding + crossing
    return -dist if winding else dist


def _scalar_product(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)] for i in range(3)]


def _scalar_flushed(t):
    return math.copysign(0.0, t) if abs(t) <= 2.0**-150 else t


def _scalar_body(sketch, ext, x, y, z):
    """``body_sdf`` of the pair at the point (x, y, z)."""
    theta, phi, gamma = (dequantize(b, Channel.ANGLE) for b in ext.orientation)
    ct, st, cp, sp, cg, sg = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi), math.cos(gamma), math.sin(gamma)
    rz1 = [[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]]
    ry = [[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]]
    rz2 = [[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]]
    rot = _scalar_product(_scalar_product(rz1, ry), rz2)
    px, py, pz = (c - dequantize(o, Channel.COORD_3D) for c, o in zip((x, y, z), ext.origin))
    u, v, w = (px * rot[0][k] + py * rot[1][k] + pz * rot[2][k] for k in range(3))
    scale = dequantize(ext.scale, Channel.SCALE)
    f = _scalar_loop(sketch.loops[0], u / scale, v / scale)
    for hole in sketch.loops[1:]:
        f = max(f, -_scalar_loop(hole, u / scale, v / scale))
    lo, hi = extent_interval(ext)
    d, slab = _scalar_flushed(f * scale), _scalar_flushed(abs(w - (lo + hi) / 2.0) - (hi - lo) / 2.0)
    return float(np.hypot(d, slab)) if d > 0 and slab > 0 else max(d, slab) + 0.0


def test_body_fields_equal_a_scalar_oracle_bitwise():
    """Lines, arcs, circles and holes in z-aligned and tilted frames, over
    the three extents, inside and out, and in the hypot corner region."""
    rng = np.random.default_rng(211)
    seen = set()
    for variant in ("z-aligned", "tilted"):
        for _ in range(8):
            seq = _placed(random_sequence(rng, min_pairs=2), rng, variant)
            pts = rng.uniform(-0.5, 0.5, size=(40, 3))
            for sketch, ext in seq.pairs:
                got = body_sdf(sketch, ext, pts)
                want = np.array([_scalar_body(sketch, ext, *map(float, p)) for p in pts])
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                d, slab, _ = _extrude(sketch, ext, *kernel._local(*pts.T, *placement_frame(ext)))
                seen |= {variant, ext.extent, *(type(p) for loop in sketch.loops for p in loop.primitives)}
                flags = {"hole": len(sketch.loops) > 1, "inside": (got < 0).any(), "corner": ((d > 0) & (slab > 0)).any()}
                seen |= {flag for flag, hit in flags.items() if hit}
    assert seen == {"z-aligned", "tilted", *Extent, Line, Arc, Circle, "hole", "inside", "corner"}


# -- surface extraction -----------------------------------------------------


def _sphere_grid(radius=0.35, spec=GridSpec()):
    pts = cell_points(spec)
    vals = np.linalg.norm(pts, axis=1) - radius
    tau = spec.tau
    return TSDFGrid(spec, np.clip(vals, -tau, tau).reshape(spec.resolution, spec.resolution, spec.resolution))


def test_sphere_surface_points_sit_on_the_sphere():
    grid = _sphere_grid()
    pts, _ = surface_points(grid, max_points=100000)
    radii = np.linalg.norm(pts, axis=1)
    assert np.abs(radii - 0.35).max() < grid.spec.pitch
    assert len(pts) > 500


def test_surface_points_subsample_is_seeded():
    grid = _sphere_grid()
    a, ka = surface_points(grid, max_points=64, seed=5)
    b, kb = surface_points(grid, max_points=64, seed=5)
    c, _ = surface_points(grid, max_points=64, seed=6)
    assert np.array_equal(a, b) and np.array_equal(ka, kb)
    assert len(a) == len(ka) == 64
    assert not np.array_equal(a, c)


def test_surface_point_keys_name_their_edges_in_increasing_order():
    """Key axis * n**3 + at: the point lies on the edge from cell ``at``'s
    center to its neighbor's along ``axis``, and a subsample keeps each
    point's key."""
    grid = _sphere_grid()
    n, pitch = grid.spec.resolution, grid.spec.pitch
    pts, keys = surface_points(grid, max_points=10**6)
    assert np.issubdtype(keys.dtype, np.integer) and (np.diff(keys) > 0).all()
    axis, at = np.divmod(keys, n**3)
    assert set(axis.tolist()) == {0, 1, 2}
    start = DOMAIN_MIN + (np.stack(np.unravel_index(at, (n,) * 3), axis=-1) + 0.5) * pitch
    along = np.arange(3) == axis[:, None]
    assert np.array_equal(pts[~along], start[~along])
    assert ((pts[along] >= start[along]) & (pts[along] <= start[along] + pitch)).all()
    sub, sub_keys = surface_points(grid, max_points=97, seed=3)
    assert np.array_equal(sub, pts[np.searchsorted(keys, sub_keys)])
