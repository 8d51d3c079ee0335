"""Analytic SDF evaluation of construction sequences on voxel grids.

Profiles are exact 2D signed distance fields (negative inside) built from
loop boundary distance with a winding-number sign.  Bodies extrude those
profiles along a placed sketch plane.  Booleans fold the bodies left to
right on untruncated fields: the first body starts the scene, then NEW and
JOIN apply ``sdf_union`` (min), CUT ``sdf_difference`` (max with the
negated body) and INTERSECT ``sdf_intersection`` (max).  Truncation to
[-tau, tau] happens once, when the composed field is stored on a grid.

Attribution runs inside the same fold, which is what the planner consumes.
A voxel belongs to the last pair that changed its composed value; a pair
that only ties the value leaves it with the earlier pair.  Within that
pair, voxels where the slab term exceeds the profile term belong to the
extrusion parameter block and the rest to the nearest primitive (the first
one on a distance tie).

A body whose placement frame is exactly z-aligned, that is whose rotation
has rot[2,0] == rot[2,1] == rot[0,2] == rot[1,2] == 0 (every phi-bin-0
extrusion, whatever its theta and gamma), is evaluated on the n^2 lattice:
the profile on the iz = 0 layer of cell centers, the slab term on the n z
centers, both broadcast over the grid.  The result is exact, not close: a
point's sketch-plane coordinates gain only the term (z - o_z) * 0 = +-0 from
its height, which leaves every nonzero sum unchanged and can flip only the
sign of a zero one, and the profile never sees that sign because no
quantized 2D coordinate is zero; likewise x and y enter the height only as
+-0 terms.  Values and owners are bit-identical to evaluating every body at
every cell center, which every other body still does.

``render`` and ``attribute`` accept a body store: a dict, owned by the
caller, from the frozen ``(Sketch, Extrusion, GridSpec)`` to the body's
field, cap mask and nearest primitive, all read-only.  Both read it.  Once
its fold is done, ``attribute`` replaces the store's contents with the
bodies of the sequence it attributed; ``render`` never writes it.  So the
store holds at most one sequence's bodies and needs no size limit.  A
caller that keeps one store across the attribution of a sequence and the
renders of its variants evaluates only the bodies a variant changed.  A
hit is exact: a body's arrays depend only on the key, and ``_extrude``
computes the field the same way whether or not it also returns the cap
mask and nearest primitive, so the fold sees the same float64 values it
would have computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLoopError,
    EmptySurfaceError,
    RenderInvalidError,
    ZeroExtentError,
)
from .quant import Channel, dequantize
from .sequence import (
    BoolOp,
    Circle,
    ConstructionSequence,
    Extent,
    Extrusion,
    Line,
    Loop,
    SegmentId,
    Sketch,
    chain_vertices,
    segments,
)

DOMAIN_MIN = -0.5
DOMAIN_MAX = 0.5

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Sampling layout: a cubic cell-center lattice over [-0.5, 0.5]^3."""

    resolution: int = 32
    tau: float = 0.2

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError(f"resolution {self.resolution} below the minimum of 8")
        if not self.tau > 0:
            raise ValueError("truncation tau must be positive")
        # the binary format stores tau as float32; normalize here so a
        # written and re-read spec compares equal
        object.__setattr__(self, "tau", float(np.float32(self.tau)))

    @property
    def pitch(self) -> float:
        return (DOMAIN_MAX - DOMAIN_MIN) / self.resolution

    def centers(self) -> np.ndarray:
        i = np.arange(self.resolution)
        return DOMAIN_MIN + (i + 0.5) * self.pitch

    def points(self) -> np.ndarray:
        """All cell centers as an (n^3, 3) array, index order [ix, iy, iz]."""
        c = self.centers()
        gx, gy, gz = np.meshgrid(c, c, c, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)


@dataclass(frozen=True, eq=False)
class TSDFGrid:
    """Truncated SDF samples at cell centers, clamped to [-tau, tau]."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.spec.resolution
        vals = np.asarray(self.values, dtype=np.float32)
        if vals.shape != (n, n, n):
            raise ValueError(f"values shape {vals.shape} does not match resolution {n}")
        tau = np.float32(self.spec.tau)
        lo, hi = vals.min(), vals.max()
        # min propagates NaN; infinities fail the band check below
        if np.isnan(lo):
            raise ValueError("values must be finite")
        if lo < -tau or hi > tau:
            raise ValueError("values exceed the truncation band")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def occupancy(self) -> np.ndarray:
        return self.values < 0


@dataclass(frozen=True, eq=False)
class AttributionGrid:
    """Composed field plus, per voxel, the segment that owns it.

    ``owner`` holds indices into ``segment_ids`` (primitive-granularity ids:
    primitives and extrusion blocks).
    """

    spec: GridSpec
    values: np.ndarray
    owner: np.ndarray
    segment_ids: tuple[SegmentId, ...]

    def grid(self) -> TSDFGrid:
        return TSDFGrid(self.spec, self.values)


# --------------------------------------------------------------------------
# 2D primitives


def _segment_distance(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    ab = b - a
    ap = pts - a
    denom = float(ab @ ab)
    t = np.clip((ap @ ab) / denom, 0.0, 1.0)
    closest = a + t[..., None] * ab
    return np.linalg.norm(pts - closest, axis=-1)


def arc_center_radius(a, b, sweep: float, ccw: bool) -> tuple[np.ndarray, float]:
    """Center and radius of the arc from ``a`` to ``b`` with the given sweep.

    The center sits on the chord's perpendicular bisector; for sweeps over a
    half turn the cos term goes negative and pushes it across the chord, so
    one formula covers both minor and major arcs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    chord = b - a
    clen = float(np.linalg.norm(chord))
    if clen == 0.0 or not 0.0 < sweep < _TWO_PI:
        raise DegenerateLoopError("arc with empty chord or degenerate sweep")
    radius = clen / (2.0 * math.sin(sweep / 2.0))
    normal = np.array([-chord[1], chord[0]]) / clen
    side = 1.0 if ccw else -1.0
    center = (a + b) / 2.0 + side * radius * math.cos(sweep / 2.0) * normal
    return center, radius


def _arc_distance(a, b, center, radius, sweep, ccw, pts) -> np.ndarray:
    rel = pts - center
    ang = np.arctan2(rel[..., 1], rel[..., 0])
    start = math.atan2(a[1] - center[1], a[0] - center[0])
    if ccw:
        offset = (ang - start) % _TWO_PI
    else:
        offset = (start - ang) % _TWO_PI
    on_arc = offset <= sweep
    ring = np.abs(np.linalg.norm(rel, axis=-1) - radius)
    caps = np.minimum(np.linalg.norm(pts - a, axis=-1), np.linalg.norm(pts - b, axis=-1))
    return np.where(on_arc, ring, caps)


def _winding_contribution(a, b, pts, arc=None) -> np.ndarray:
    """Angle swept at each point by travel from ``a`` to ``b``.

    ``arc`` is the arc's ``(center, radius, ccw)``, or None for a line.  The
    same cross product feeds the chord angle and the bulge-side test so
    the two cannot disagree on which side a borderline point falls.  Points
    exactly on an arc's open chord get the value both one-sided limits share.
    """
    cross = (b[0] - a[0]) * (pts[..., 1] - a[1]) - (b[1] - a[1]) * (pts[..., 0] - a[0])
    dot = (a[0] - pts[..., 0]) * (b[0] - pts[..., 0]) + (a[1] - pts[..., 1]) * (b[1] - pts[..., 1])
    angle = np.arctan2(cross, dot)
    if arc is None:
        return angle
    center, radius, ccw = arc
    inside = np.linalg.norm(pts - center, axis=-1) < radius
    if ccw:
        angle = np.where(inside & (cross < 0), angle + _TWO_PI, angle)
        return np.where(inside & (cross == 0), math.pi, angle)
    angle = np.where(inside & (cross > 0), angle - _TWO_PI, angle)
    return np.where(inside & (cross == 0), -math.pi, angle)


def _loop_vertices(loop: Loop) -> list[np.ndarray]:
    verts = [
        np.array([dequantize(x, Channel.COORD_2D), dequantize(y, Channel.COORD_2D)])
        for x, y in chain_vertices(loop)
    ]
    for k in range(len(verts)):
        if np.array_equal(verts[k], verts[(k + 1) % len(verts)]):
            raise DegenerateLoopError("zero-length chain step")
    return verts


def _loop_eval(loop: Loop, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed field (negative inside) and per-primitive boundary distances (nprim, ...)."""
    prim = loop.primitives[0]
    if isinstance(prim, Circle):
        center = np.array([dequantize(prim.center[0], Channel.COORD_2D), dequantize(prim.center[1], Channel.COORD_2D)])
        radius = dequantize(prim.radius, Channel.DISTANCE)
        f = np.linalg.norm(pts - center, axis=-1) - radius
        return f, np.abs(f)[None]
    verts = _loop_vertices(loop)
    rows = []
    total = np.zeros(pts.shape[:-1])
    for k, p in enumerate(loop.primitives):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        if isinstance(p, Line):
            rows.append(_segment_distance(a, b, pts))
            total += _winding_contribution(a, b, pts)
        else:
            sweep = dequantize(p.sweep, Channel.ANGLE)
            center, radius = arc_center_radius(a, b, sweep, p.ccw)
            rows.append(_arc_distance(a, b, center, radius, sweep, p.ccw, pts))
            total += _winding_contribution(a, b, pts, (center, radius, p.ccw))
    rows = np.stack(rows)
    dist = rows.min(axis=0)
    winding = np.rint(total / _TWO_PI)
    return np.where(winding != 0, -dist, dist), rows


def _profile_eval(sketch: Sketch, pts: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Profile field plus every loop's boundary-distance rows, in loop order."""
    f, rows = _loop_eval(sketch.loops[0], pts)
    all_rows = [rows]
    for hole in sketch.loops[1:]:
        g, rows = _loop_eval(hole, pts)
        f = np.maximum(f, -g)
        all_rows.append(rows)
    return f, all_rows


def loop_sdf(loop: Loop, pts) -> np.ndarray:
    """Signed distance to the loop's region, negative inside."""
    return _loop_eval(loop, np.asarray(pts, dtype=float))[0]


def profile_sdf(sketch: Sketch, pts) -> np.ndarray:
    """Sketch SDF: the outer loop minus every hole loop."""
    return _profile_eval(sketch, np.asarray(pts, dtype=float))[0]


# --------------------------------------------------------------------------
# 3D bodies


def placement_frame(ext: Extrusion) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrix (columns are the sketch axes) and plane origin."""
    theta, phi, gamma = (dequantize(b, Channel.ANGLE) for b in ext.orientation)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    cg, sg = math.cos(gamma), math.sin(gamma)
    rz1 = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rz2 = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    rot = rz1 @ ry @ rz2
    origin = np.array([dequantize(b, Channel.COORD_3D) for b in ext.origin])
    return rot, origin


def extent_interval(ext: Extrusion) -> tuple[float, float]:
    """Out-of-plane interval the profile is swept over."""
    dpos = dequantize(ext.dist_pos, Channel.DISTANCE)
    dneg = dequantize(ext.dist_neg, Channel.DISTANCE)
    if ext.dist_pos == 0 and ext.dist_neg == 0:
        raise ZeroExtentError("both extrusion distances are zero")
    if ext.extent is Extent.ONE_SIDED:
        return 0.0, dpos
    if ext.extent is Extent.SYMMETRIC:
        return -dpos / 2.0, dpos / 2.0
    return -dneg, dpos


def _extrude(sketch: Sketch, ext: Extrusion, plane: np.ndarray, height: np.ndarray, owners: bool):
    """Body field from sketch-plane coordinates and heights along the normal.

    ``plane`` (..., 2) and ``height`` broadcast against each other.  When
    ``owners``, also return the cap mask, which marks points where the slab
    term exceeds the profile term, and the nearest primitive, which indexes
    the sketch's primitives in loop order and keeps ``plane``'s shape.
    """
    scale = dequantize(ext.scale, Channel.SCALE)
    if scale <= 0.0:
        raise ValueError("extrusion scale dequantizes to zero")
    d, rows = _profile_eval(sketch, plane / scale)
    d = d * scale
    lo, hi = extent_interval(ext)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    slab = np.abs(height - mid) - half
    f = np.minimum(np.maximum(d, slab), 0.0) + np.hypot(np.maximum(d, 0.0), np.maximum(slab, 0.0))
    if not owners:
        return f, None, None
    return f, slab > d, np.argmin(np.concatenate(rows), axis=0)


def body_sdf(sketch: Sketch, ext: Extrusion, pts) -> np.ndarray:
    """Untruncated SDF of one extruded (scaled, placed) sketch profile."""
    rot, origin = placement_frame(ext)
    local = (np.asarray(pts, dtype=float) - origin) @ rot  # rows of pts times R == R^T (q - o)
    return _extrude(sketch, ext, local[..., :2], local[..., 2], owners=False)[0]


# --------------------------------------------------------------------------
# boolean algebra


def sdf_union(f, g):
    return np.minimum(f, g)


def sdf_difference(f, g):
    return np.maximum(f, np.negative(g))


def sdf_intersection(f, g):
    return np.maximum(f, g)


_BOOLEAN = {
    BoolOp.NEW: sdf_union,
    BoolOp.JOIN: sdf_union,
    BoolOp.CUT: sdf_difference,
    BoolOp.INTERSECT: sdf_intersection,
}


# --------------------------------------------------------------------------
# rendering and attribution


def _compose(seq: ConstructionSequence, spec: GridSpec, owners: bool, bodies: dict | None):
    """Truncated (n, n, n) field and, when ``owners``, the owner grid.

    Owner values index ``segments(seq)``: each pair's primitives in loop
    order, then its extrusion block.  ``bodies`` is the body store (see the
    module notes): every call reads it, and an attribution replaces its
    contents with the sequence's bodies once the fold is done.
    """
    n = spec.resolution
    c = spec.centers()
    layer = np.stack(np.meshgrid(c, c, c[:1], indexing="ij"), axis=-1).reshape(n * n, 3)
    column = np.stack(np.meshgrid(c[:1], c[:1], c, indexing="ij"), axis=-1).reshape(n, 3)
    pts = None  # the n^3 cell centers, built only for a body that needs them

    def coords(ext):
        """Sketch-plane coordinates and heights that broadcast to (n, n, n)."""
        nonlocal pts
        rot, origin = placement_frame(ext)
        if rot[2, 0] == rot[2, 1] == rot[0, 2] == rot[1, 2] == 0.0:
            # z-aligned: the profile on the iz = 0 layer, the slab on the
            # ix = iy = 0 column (see the module notes)
            return ((layer - origin) @ rot)[:, :2].reshape(n, n, 1, 2), ((column - origin) @ rot)[:, 2]
        if pts is None:
            pts = spec.points()
        local = ((pts - origin) @ rot).reshape(n, n, n, 3)
        return local[..., :2], local[..., 2]

    keep = owners and bodies is not None
    kept = {}  # this sequence's bodies: the store's contents after an attribution
    scene = None
    owner = np.empty((n, n, n), dtype=np.int32) if owners else None
    first = 0  # index of the current pair's first primitive id
    for sketch, ext in seq.pairs:
        key = (sketch, ext, spec)
        body = None if bodies is None else bodies.get(key)
        if body is None:
            # the coordinates die with the call, before the fold allocates
            body = _extrude(sketch, ext, *coords(ext), owners)
            if keep:
                for a in body:
                    a.flags.writeable = False
        if keep:
            kept[key] = body
        f, cap, nearest = body
        composed = f if scene is None else _BOOLEAN[ext.bool_op](scene, f)
        if owners:
            ext_id = first + sum(len(loop.primitives) for loop in sketch.loops)
            took = True if scene is None else composed != scene
            np.copyto(owner, np.where(cap, ext_id, first + nearest), where=took)
            first = ext_id + 1
        scene = composed
    if keep:
        bodies.clear()
        bodies.update(kept)
    tau = np.float32(spec.tau)
    values = np.clip(scene.astype(np.float32), -tau, tau)
    if not (values < 0).any():
        raise RenderInvalidError("composed field has no interior voxels")
    return values, owner


def render(seq: ConstructionSequence, spec: GridSpec = GridSpec(), *, bodies: dict | None = None) -> TSDFGrid:
    """Fold the sequence's bodies into one truncated grid.

    ``bodies`` is a body store an attribution filled; render reads it and
    never writes it.  Raises RenderInvalidError when the composed occupancy
    is empty.
    """
    return TSDFGrid(spec, _compose(seq, spec, False, bodies)[0])


def attribute(
    seq: ConstructionSequence, spec: GridSpec = GridSpec(), *, bodies: dict | None = None
) -> AttributionGrid:
    """Composed field plus per-voxel owning segment (see the module notes).

    With a body store, reuses the bodies it holds, then leaves it holding
    exactly this sequence's bodies.
    """
    values, owner = _compose(seq, spec, True, bodies)
    return AttributionGrid(spec, values, owner, tuple(s.id for s in segments(seq)))


# --------------------------------------------------------------------------
# surface extraction


def surface_points(grid: TSDFGrid, max_points: int = 4096, seed: int = 0) -> np.ndarray:
    """Zero-crossing points between adjacent cell centers, subsampled.

    Crossing locations come from linear interpolation along grid edges.
    Raises EmptySurfaceError when no adjacent pair changes sign.
    """
    vals = grid.values.astype(np.float64)
    centers = grid.spec.centers()
    pts = []
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        va, vb = vals[tuple(lo)], vals[tuple(hi)]
        crossing = (va < 0) != (vb < 0)
        if not crossing.any():
            continue
        ia, ib, ic = np.nonzero(crossing)
        t = va[crossing] / (va[crossing] - vb[crossing])
        idx = np.stack([ia, ib, ic], axis=-1).astype(np.float64)
        coords = DOMAIN_MIN + (idx + 0.5) * grid.spec.pitch
        coords[:, axis] += t * grid.spec.pitch
        pts.append(coords)
    if not pts:
        raise EmptySurfaceError("grid has no sign change between adjacent cells")
    allpts = np.concatenate(pts, axis=0)
    if len(allpts) > max_points:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(allpts), size=max_points, replace=False)
        allpts = allpts[np.sort(keep)]
    return allpts
