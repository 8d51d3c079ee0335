"""Geometry kernel checks against independent oracles."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    cell_points,
    circle_pair,
    cube_sequence,
    cylinder_sequence,
    extrusion,
    square_loop,
    star_polygon_loop,
)

from cadfit import kernel
from cadfit.errors import (
    DegenerateLoopError,
    EmptySurfaceError,
    RenderInvalidError,
    ZeroExtentError,
)
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
    pts = rng.uniform(-0.5, 0.5, size=(250, 2))
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
def test_arc_sweep_test_equals_the_float_remainder(ccw):
    rng = np.random.default_rng(19)
    y, x = rng.standard_normal((2, 20_000))
    signs = np.array([0.0, -0.0, 1.0, -1.0])
    y = np.concatenate([y, np.repeat(signs, 4), [1e-300, -1e-300]])
    x = np.concatenate([x, np.tile(signs, 4), [-1.0, -1.0]])
    ang = np.arctan2(y, x)  # every output in [-pi, pi], +-pi and +-0 among them
    assert {math.pi, -math.pi}.issubset(ang.tolist()) and (np.signbit(ang) & (ang == 0)).any()
    starts = np.concatenate([np.linspace(-math.pi, math.pi, 200), [math.pi, -math.pi, 0.0, -0.0]])
    for sweep in (dequantize(b, Channel.ANGLE) for b in (1, 64, 128, 255)):
        for start in starts:
            diff = (ang - start) if ccw else (start - ang)
            assert np.array_equal(kernel._on_arc(ang, float(start), sweep, ccw), diff % (2 * math.pi) <= sweep)


def test_degenerate_chain_raises():
    loop = Loop((Line((60, 60)), Line((60, 60)), Line((200, 60))))
    with pytest.raises(DegenerateLoopError):
        kernel._loop_eval(loop, np.zeros(1), np.zeros(1))


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
    with pytest.raises(ZeroExtentError):
        body_sdf(sk, bad, np.zeros(3))


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


def _dense_fold(seq, spec):
    """Clamped field and owner grid of a strict-comparison chain over every
    cell center: each body from ``body_sdf``, its cap mask and nearest
    primitive from the same dense per-point evaluation."""
    pts = cell_points(spec)
    scene, owner, first = None, np.zeros(len(pts), dtype=np.int32), 0
    for sketch, ext in seq.pairs:
        f = body_sdf(sketch, ext, pts)
        rot, origin = placement_frame(ext)
        local = (pts - origin) @ rot
        d, slab, rows = _extrude(sketch, ext, local[:, :2], local[:, 2])
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
    n, tau = spec.resolution, np.float32(spec.tau)
    return np.clip(scene.astype(np.float32), -tau, tau).reshape(n, n, n), owner.reshape(n, n, n)


def _in_band(values, spec):
    """The cells whose owners an attribution guarantees: |v| < tau."""
    return np.abs(values) < np.float32(spec.tau)


def _assert_equals_dense_fold(seq, spec):
    """render and attribute against ``_dense_fold``, values bit for bit (so
    -0.0 and 0.0 differ) and owners in the band; False when the sequence has
    no interior voxels."""
    values, owner = _dense_fold(seq, spec)
    if not (values < 0).any():
        with pytest.raises(RenderInvalidError):
            render(seq, spec)
        return False
    assert np.array_equal(render(seq, spec).values.view(np.uint32), values.view(np.uint32))
    ag = attribute(seq, spec)
    assert np.array_equal(ag.values.view(np.uint32), values.view(np.uint32))
    assert np.array_equal(render(seq, spec, base=ag).values.view(np.uint32), values.view(np.uint32))
    band = _in_band(values, spec)
    assert np.array_equal(ag.owner[band], owner[band])
    return True


def _assert_band_exact(f, dense, tau):
    """The one band rule for body fields: bitwise ``dense`` where |dense| <
    tau, and elsewhere |f| >= tau with dense's sign."""
    band = np.abs(dense) < tau
    assert np.array_equal(f[band].view(np.uint64), dense[band].view(np.uint64))
    assert (np.abs(f[~band]) >= tau).all()
    assert (np.signbit(f[~band]) == np.signbit(dense[~band])).all()


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
        pair_of = np.array([sid.pair for sid in ag.segment_ids])
        band = _in_band(ag.values, spec)
        assert np.array_equal(pair_of[ag.owner[band]], pair_of[_dense_fold(seq, spec)[1][band]])
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
    """The lattice path's body fields are the dense path's bit for bit in
    float64 wherever the dense value is in the band, not only after the
    float32 clamp: every projection is one (N, 2) product.  Elsewhere they
    keep its sign and at least tau."""
    rng = np.random.default_rng([resolution, 131])
    spec = GridSpec(resolution=resolution)
    pts, bodies, bounded = cell_points(spec), 0, 0
    for _ in range(30):
        try:
            ag = attribute(_z_aligned(random_sequence(rng), rng), spec)
        except RenderInvalidError:
            continue
        for (sketch, ext), (f, _, _) in ag.bodies.items():
            dense = body_sdf(sketch, ext, pts).reshape(f.shape)
            _assert_band_exact(f, dense, spec.tau)
            bounded += (f != dense).any()
            bodies += 1
    assert bodies >= 40 and bounded


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

    def counted(sketch, ext, plane, height):
        seen.append((plane.shape[:-1], np.shape(height)))
        return real(sketch, ext, plane, height)

    monkeypatch.setattr(kernel, "_extrude", counted)
    n = GridSpec().resolution
    assert (attribute(seq).values < 0).any()
    assert seen == [((n, n, 1), (n,))] * len(seq.pairs)  # n^2 profile points, n heights


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

    def counted(sketch, ext, plane, height):
        seen.append(math.prod(np.broadcast_shapes(plane.shape[:-1], np.shape(height))))
        return real(sketch, ext, plane, height)

    monkeypatch.setattr(kernel, "_extrude", counted)
    spec = GridSpec()
    render(ConstructionSequence((circle_pair(r=30, dist_pos=40, orientation=(0, 64, 0)),)), spec)
    assert len(seen) == 2  # the block centers, then the cells of the blocks near the surface
    assert sum(seen) < spec.resolution**3 // 2


def test_an_off_axis_attribution_evaluates_the_cells_a_render_does(monkeypatch):
    seen, real = [], kernel._extrude

    def counted(sketch, ext, plane, height):
        seen.append(math.prod(np.broadcast_shapes(plane.shape[:-1], np.shape(height))))
        return real(sketch, ext, plane, height)

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
    other block is evaluated, bitwise body_sdf's in float64 where that is in
    the band, and elsewhere at least tau with its sign."""
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
            _assert_band_exact(f, body_sdf(sketch, ext, pts).reshape(f.shape), tau)
            fc = body_sdf(sketch, ext, mids)
            culled = np.abs(fc) >= tau + 1.5 * math.sqrt(3.0) * spec.pitch + 1e-9
            assert (blocks(f)[culled] == np.copysign(tau, fc[culled])[:, None]).all()
            evaluated += (~culled).any()
            filled += culled.any()


def test_banded_render_culls_only_past_the_half_diagonal_and_margin(monkeypatch):
    """A block whose center value is exactly tau plus the 4^3 half-diagonal
    inside the body still has every cell evaluated."""
    spec = GridSpec(resolution=16)
    edge = -(spec.tau + 1.5 * math.sqrt(3.0) * spec.pitch)
    seen = []

    def flat(sketch, ext, plane, height):
        shape = np.broadcast_shapes(plane.shape[:-1], np.shape(height))
        seen.append(math.prod(shape))
        return np.full(shape, edge), np.full(shape, edge), []  # both terms at edge: a field of edge

    monkeypatch.setattr(kernel, "_extrude", flat)
    grid = render(ConstructionSequence((circle_pair(orientation=(0, 64, 0)),)), spec)
    assert seen == [4**3, 16**3]
    assert (grid.values == -grid.spec.tau).all()


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
    n, tau = spec.resolution, np.float32(spec.tau)

    def clamped(f):
        return np.clip(np.broadcast_to(f, (n, n, n)).astype(np.float32), -tau, tau).view(np.uint32)

    for (sketch, ext), (f, cap, nearest) in ag.bodies.items():
        for arr in (f, cap, nearest):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0
        assert np.array_equal(clamped(f), clamped(body_sdf(sketch, ext, cell_points(spec)).reshape(n, n, n)))
    # they are the very fields the attribution folded
    scene = ag.bodies[seq.pairs[0]][0]
    for sketch, ext in seq.pairs[1:]:
        scene = kernel._BOOLEAN[ext.bool_op](scene, ag.bodies[sketch, ext][0])
    assert np.array_equal(clamped(scene), ag.values.view(np.uint32))


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


def _float64_render(seq, spec, bodies):
    """The render fold in float64 over ``bodies``' fields, clamped once at the
    end: the oracle for a render's fold of float32 clamped bodies."""
    scene = None
    for sketch, ext in seq.pairs:
        f = bodies[sketch, ext][0]
        scene = f if scene is None else kernel._BOOLEAN[ext.bool_op](scene, f)
    tau = np.float32(spec.tau)
    return np.clip(scene.astype(np.float32), -tau, tau)


@pytest.mark.parametrize("variant", ["z-aligned", "tilted", "mixed"])
@pytest.mark.parametrize("resolution", [16, 17, 32, 64])
def test_the_float32_render_fold_is_the_float64_fold_bitwise(resolution, variant):
    rng = np.random.default_rng([resolution, len(variant), 149])
    spec = GridSpec(resolution=resolution)
    ops, checked = set(), 0
    while checked < 4 or ops != set(BoolOp):
        seq, ag = _renderable(rng, spec, variant)
        want = _float64_render(seq, spec, ag.bodies).view(np.uint32)
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
    there, so the render's float32 fold is the float64 fold of the bodies
    the attribution keeps, and it keeps both."""
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
        plane, _ = kernel._local(*pts[cell, :, None], *placement_frame(ext))
        planted[sketch] = plane[0], value  # the scale dequantizes to 1.0, so x and y are the plane's

    def plant(sketch, x, y):
        f, rows = real(sketch, x, y)
        p0, value = planted[sketch]
        return np.where((x == p0[0]) & (y == p0[1]), value, f), rows

    monkeypatch.setattr(kernel, "_profile_eval", plant)
    fa, fb = body_sdf(*a, pts), body_sdf(*b, pts)
    assert fa[cell] == 0.0 and not np.signbit(fa[cell]) and fb[cell] == 0.0

    ag = attribute(seq, spec)
    assert ag.bodies.keys() == {a, b}
    want = _float64_render(seq, spec, ag.bodies).view(np.uint32)
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
    d, slab, _ = _extrude(sketch, ext, np.zeros((len(values), 2)), values.copy())
    for got, want in ((d, values), (slab, np.abs(values))):
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not got[: len(flushed)].any()
        assert np.array_equal(got[len(flushed) :].view(np.uint64), want[len(flushed) :].view(np.uint64))


# -- 2D layer on x/y planes -----------------------------------------------------


# sha256 of the render values, attribute values and owners below, and of
# every body's float64 field, which the float32 grid would hide a last-bit
# change in: any change to a rounding anywhere in the kernel moves it.  The
# owners outside the band follow which blocks an attribution culls and
# where its bodies bound the hypot patch, so a change to either moves it
# too; IN_BAND_OWNER_PIN holds the guaranteed ones
KERNEL_PIN = "e891575193cfb0096e8fdb2d221644edd8f4a98a6762fe10e68a5ff8053d3b40"


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
    """The 2D layer works on x and y planes: no distance in it is a norm
    over a trailing length-2 axis (the arc chord's norm on one 2-vector
    stays)."""
    real = kernel.np.linalg.norm

    def flat_only(x, *args, **kwargs):
        assert np.ndim(x) <= 1, f"norm over a {np.shape(x)} array"
        return real(x, *args, **kwargs)

    monkeypatch.setattr(kernel.np.linalg, "norm", flat_only)
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


# -- surface extraction -----------------------------------------------------


def _sphere_grid(radius=0.35, spec=GridSpec()):
    pts = cell_points(spec)
    vals = np.linalg.norm(pts, axis=1) - radius
    tau = spec.tau
    return TSDFGrid(spec, np.clip(vals, -tau, tau).reshape(spec.resolution, spec.resolution, spec.resolution))


def test_sphere_surface_points_sit_on_the_sphere():
    grid = _sphere_grid()
    pts = surface_points(grid, max_points=100000)
    radii = np.linalg.norm(pts, axis=1)
    assert np.abs(radii - 0.35).max() < grid.spec.pitch
    assert len(pts) > 500


def test_surface_points_subsample_is_seeded():
    grid = _sphere_grid()
    a = surface_points(grid, max_points=64, seed=5)
    b = surface_points(grid, max_points=64, seed=5)
    c = surface_points(grid, max_points=64, seed=6)
    assert np.array_equal(a, b)
    assert len(a) == 64
    assert not np.array_equal(a, c)


def test_surface_points_empty_grid_raises():
    spec = GridSpec()
    n = spec.resolution
    grid = TSDFGrid(spec, np.full((n, n, n), spec.tau, dtype=np.float32))
    with pytest.raises(EmptySurfaceError):
        surface_points(grid)
