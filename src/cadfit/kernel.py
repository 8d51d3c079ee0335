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


def _body_eval(sketch: Sketch, ext: Extrusion, pts: np.ndarray, owners: bool):
    """Body field plus, when ``owners``, the cap mask and nearest primitive.

    The cap mask marks points where the slab term exceeds the profile term;
    the nearest primitive indexes the sketch's primitives in loop order.
    """
    rot, origin = placement_frame(ext)
    local = (pts - origin) @ rot  # rows of pts times R == R^T (q - o)
    scale = dequantize(ext.scale, Channel.SCALE)
    if scale <= 0.0:
        raise ValueError("extrusion scale dequantizes to zero")
    plane = local[..., :2] / scale
    d, rows = _profile_eval(sketch, plane)
    d = d * scale
    lo, hi = extent_interval(ext)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    slab = np.abs(local[..., 2] - mid) - half
    f = np.minimum(np.maximum(d, slab), 0.0) + np.hypot(np.maximum(d, 0.0), np.maximum(slab, 0.0))
    if not owners:
        return f, None, None
    return f, slab > d, np.argmin(np.concatenate(rows), axis=0)


def body_sdf(sketch: Sketch, ext: Extrusion, pts) -> np.ndarray:
    """Untruncated SDF of one extruded (scaled, placed) sketch profile."""
    return _body_eval(sketch, ext, np.asarray(pts, dtype=float), owners=False)[0]


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


def _compose(seq: ConstructionSequence, spec: GridSpec, owners: bool):
    """Truncated (n, n, n) field and, when ``owners``, the owner grid.

    Owner values index ``segments(seq)``: each pair's primitives in loop
    order, then its extrusion block.
    """
    pts = spec.points()
    scene = None
    owner = np.empty(len(pts), dtype=np.int32) if owners else None
    first = 0  # index of the current pair's first primitive id
    for sketch, ext in seq.pairs:
        f, cap, nearest = _body_eval(sketch, ext, pts, owners)
        composed = f if scene is None else _BOOLEAN[ext.bool_op](scene, f)
        if owners:
            ext_id = first + sum(len(loop.primitives) for loop in sketch.loops)
            took = True if scene is None else composed != scene
            np.copyto(owner, np.where(cap, ext_id, first + nearest), where=took)
            first = ext_id + 1
        scene = composed
    n = spec.resolution
    tau = np.float32(spec.tau)
    values = np.clip(scene.astype(np.float32), -tau, tau).reshape(n, n, n)
    if not (values < 0).any():
        raise RenderInvalidError("composed field has no interior voxels")
    return values, (owner.reshape(n, n, n) if owners else None)


def render(seq: ConstructionSequence, spec: GridSpec = GridSpec()) -> TSDFGrid:
    """Fold the sequence's bodies into one truncated grid.

    Raises RenderInvalidError when the composed occupancy is empty.
    """
    return TSDFGrid(spec, _compose(seq, spec, owners=False)[0])


def attribute(seq: ConstructionSequence, spec: GridSpec = GridSpec()) -> AttributionGrid:
    """Composed field plus per-voxel owning segment (see the module notes)."""
    values, owner = _compose(seq, spec, owners=True)
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
