"""Analytic SDF evaluation of construction sequences on voxel grids.

Profiles are exact 2D signed distance fields (negative inside) built from
loop boundary distance with a winding-number sign.  Bodies extrude those
profiles along a placed sketch plane.  Booleans fold the bodies left to
right on untruncated fields: the first body starts the scene, then NEW and
JOIN apply ``sdf_union`` (min), CUT ``sdf_difference`` (max with the
negated body) and INTERSECT ``sdf_intersection`` (max).  Truncation to
[-tau, tau] happens once, when the composed field is stored on a grid.

The 2D layer works on x and y planes.  ``_loop_eval`` copies the two
coordinates of its points once per loop, and every distance is
sqrt(dx**2 + dy**2), the very sum ``norm(..., axis=-1)`` reduces over a
length-2 axis, so the values are bit-identical without that reduction.  A
segment's projection parameter stays a matmul on the (..., 2) points: BLAS
fuses its multiply-add, which the elementwise form would round differently.

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
every cell center, which ``attribute`` still does for every other body.

``render`` evaluates a body that is off the z axis, and not read from the
store, only in the blocks of cells its surface band can reach.  It first
evaluates the body at the centers of 4^3-cell blocks, laid over the grid
padded up to whole blocks when 4 does not divide n (at resolution 32 these
are ``embed_shape``'s pooling blocks).  A block whose center value f_c has
|f_c| >= tau + 1.5 sqrt(3) pitch + a 1e-9 margin is filled with
sign(f_c) * tau, and only the other blocks' cells are evaluated.  The result
is again exact.  Every body field is 1-Lipschitz: a loop's boundary distance
is, and its winding sign flips only on the boundary, where that distance is
zero; the max with negated holes, uniform scaling, the extrusion formula
(the distance to the quadrant d <= 0, slab <= 0, with d and the slab term
1-Lipschitz in orthogonal coordinates) and an orthonormal placement all keep
that.  Every cell center lies within the half-diagonal 1.5 sqrt(3) pitch of
its block's center, so a filled cell's true value has the sign of f_c and a
magnitude of at least tau; the margin absorbs float64 rounding.  Clamping
to [-tau, tau] commutes with min, max and negation, and the float32 cast is
monotone with tau exact in float32, so the stored grid is bit-identical: an
in-band value (|v| < tau) lies strictly between the filled values of either
sign, so every min and max of the fold picks the same in-band operand, bit
for bit, and every out-of-band result keeps its sign and clamps to the same
+-tau.  ``attribute`` stays dense, because its owners outside the band are
part of its contract, and bodies read from the store are full fields.

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

_BLOCK = 4  # cell edge of the blocks a banded render culls (see the module notes)
_CULL_MARGIN = 1e-9  # slack over the Lipschitz bound for float64 rounding


@dataclass(frozen=True)
class GridSpec:
    """Sampling layout: a cubic cell-center lattice over [-0.5, 0.5]^3."""

    resolution: int = 32
    tau: float = 0.2

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError(f"resolution {self.resolution} below the minimum of 8")
        # the binary format stores tau as float32; normalize here so a written
        # and re-read spec compares equal, and reject a tau it cannot hold
        with np.errstate(over="ignore"):
            tau = float(np.float32(self.tau))
        if not 0 < tau < math.inf:
            raise ValueError(f"truncation tau {self.tau} is not positive and finite in float32")
        object.__setattr__(self, "tau", tau)

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


def _distance(x: np.ndarray, y: np.ndarray, p) -> np.ndarray:
    return np.sqrt((x - p[0]) ** 2 + (y - p[1]) ** 2)


def _segment_distance(a: np.ndarray, b: np.ndarray, pts: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
    return _distance(x, y, (a[0] + t * ab[0], a[1] + t * ab[1]))


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


def _arc_distance(a, b, center, radius, sweep, ccw, x, y) -> np.ndarray:
    ang = np.arctan2(y - center[1], x - center[0])
    start = math.atan2(a[1] - center[1], a[0] - center[0])
    on_arc = ((ang - start) if ccw else (start - ang)) % _TWO_PI <= sweep
    ring = np.abs(_distance(x, y, center) - radius)
    caps = np.minimum(_distance(x, y, a), _distance(x, y, b))
    return np.where(on_arc, ring, caps)


def _winding_contribution(a, b, x, y, arc=None) -> np.ndarray:
    """Angle swept at each point by travel from ``a`` to ``b``.

    ``arc`` is the arc's ``(center, radius, ccw)``, or None for a line.  The
    same cross product feeds the chord angle and the bulge-side test so
    the two cannot disagree on which side a borderline point falls.  Points
    exactly on an arc's open chord get the value both one-sided limits share.
    """
    cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
    dot = (a[0] - x) * (b[0] - x) + (a[1] - y) * (b[1] - y)
    angle = np.arctan2(cross, dot)
    if arc is None:
        return angle
    center, radius, ccw = arc
    inside = _distance(x, y, center) < radius
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
    x, y = pts[..., 0].copy(), pts[..., 1].copy()
    prim = loop.primitives[0]
    if isinstance(prim, Circle):
        center = (dequantize(prim.center[0], Channel.COORD_2D), dequantize(prim.center[1], Channel.COORD_2D))
        f = _distance(x, y, center) - dequantize(prim.radius, Channel.DISTANCE)
        return f, np.abs(f)[None]
    verts = _loop_vertices(loop)
    rows = []
    total = np.zeros(x.shape)
    for k, p in enumerate(loop.primitives):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        if isinstance(p, Line):
            rows.append(_segment_distance(a, b, pts, x, y))
            total += _winding_contribution(a, b, x, y)
        else:
            sweep = dequantize(p.sweep, Channel.ANGLE)
            center, radius = arc_center_radius(a, b, sweep, p.ccw)
            rows.append(_arc_distance(a, b, center, radius, sweep, p.ccw, x, y))
            total += _winding_contribution(a, b, x, y, (center, radius, p.ccw))
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


def _banded(sketch: Sketch, ext: Extrusion, spec: GridSpec, rot: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Body field on the (n, n, n) grid, exact wherever it can reach the
    truncation band and sign * tau in every block it cannot (see the module
    notes)."""
    n, pitch, tau = spec.resolution, spec.pitch, spec.tau
    nb = -(-n // _BLOCK)
    # cell centers of the grid padded to whole blocks; the first n are spec.centers()
    c = DOMAIN_MIN + (np.arange(nb * _BLOCK) + 0.5) * pitch
    mid = DOMAIN_MIN + (np.arange(nb) + 0.5) * (_BLOCK * pitch)
    local = (np.stack(np.meshgrid(mid, mid, mid, indexing="ij"), axis=-1).reshape(-1, 3) - origin) @ rot
    fc = _extrude(sketch, ext, local[:, :2], local[:, 2], False)[0]
    reach = tau + (_BLOCK - 1) / 2 * math.sqrt(3.0) * pitch + _CULL_MARGIN
    near = np.flatnonzero(np.abs(fc) < reach)
    blocks = np.repeat(np.where(fc < 0, -tau, tau)[:, None], _BLOCK**3, axis=1)
    # each near block's cell indices, in [ix, iy, iz] order within the block
    offsets = np.stack(np.meshgrid(*(np.arange(_BLOCK),) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    cell = np.stack(np.unravel_index(near, (nb,) * 3), axis=-1)[:, None, :] * _BLOCK + offsets
    local = (c[cell].reshape(-1, 3) - origin) @ rot
    blocks[near] = _extrude(sketch, ext, local[:, :2], local[:, 2], False)[0].reshape(len(near), -1)
    m = nb * _BLOCK
    return blocks.reshape((nb,) * 3 + (_BLOCK,) * 3).transpose(0, 3, 1, 4, 2, 5).reshape(m, m, m)[:n, :n, :n]


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
    lattice = pts = None  # coordinates, built only for a body that needs them

    def evaluate(sketch, ext):
        """A body's field, cap mask and nearest primitive, broadcastable to
        (n, n, n); its coordinates die with the call, before the fold allocates."""
        nonlocal lattice, pts
        rot, origin = placement_frame(ext)
        if rot[2, 0] == rot[2, 1] == rot[0, 2] == rot[1, 2] == 0.0:
            # z-aligned: the profile on the iz = 0 layer, the slab on the
            # ix = iy = 0 column (see the module notes)
            if lattice is None:
                c = spec.centers()
                lattice = (
                    np.stack(np.meshgrid(c, c, c[:1], indexing="ij"), axis=-1).reshape(n * n, 3),
                    np.stack(np.meshgrid(c[:1], c[:1], c, indexing="ij"), axis=-1).reshape(n, 3),
                )
            layer, column = lattice
            plane = ((layer - origin) @ rot)[:, :2].reshape(n, n, 1, 2)
            return _extrude(sketch, ext, plane, ((column - origin) @ rot)[:, 2], owners)
        if not owners:
            return _banded(sketch, ext, spec, rot, origin), None, None
        if pts is None:
            pts = spec.points()
        local = ((pts - origin) @ rot).reshape(n, n, n, 3)
        return _extrude(sketch, ext, local[..., :2], local[..., 2], owners)

    keep = owners and bodies is not None
    kept = {}  # this sequence's bodies: the store's contents after an attribution
    scene = None
    owner = np.empty((n, n, n), dtype=np.int32) if owners else None
    first = 0  # index of the current pair's first primitive id
    for sketch, ext in seq.pairs:
        key = (sketch, ext, spec)
        body = None if bodies is None else bodies.get(key)
        if body is None:
            body = evaluate(sketch, ext)
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
