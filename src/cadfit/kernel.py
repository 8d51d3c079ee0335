"""Analytic SDF evaluation of construction sequences on voxel grids.

Profiles are exact 2D signed distance fields (negative inside) built from
loop boundary distance with a winding-number sign.  Bodies extrude those
profiles along a placed sketch plane.  Booleans fold the bodies left to
right: the first body starts the scene, then NEW and JOIN apply
``sdf_union`` (min), CUT ``sdf_difference`` (max with the negated body) and
INTERSECT ``sdf_intersection`` (max).  An attribution folds float64 fields
and truncates to [-tau, tau] once, when the composed field is stored on a
float32 grid; a render folds float32 clamped bodies to the same bits.

The 2D layer works on x and y planes, and every distance is
sqrt(dx**2 + dy**2), the very sum ``norm(..., axis=-1)`` reduces over a
length-2 axis, so the values are bit-identical without that reduction.  A
segment's projection parameter stays a matmul, whose fused multiply-add the
elementwise form would round differently, and one product of the points as
an (N, 2) matrix, whatever their shape: a stacked product rounds by the
size of its cores.

Coordinate planes and block-major order are exact.  A product's operand,
p - o for the placement or q - a for a segment, is written one coordinate
at a time into an empty (N, 3) or (N, 2) array, and ``_extrude`` divides x
and y by the scale one at a time: each element is the very operation a
broadcast over the (N, k) array makes, so BLAS gets the same operand.  An
elementwise result depends only on its own point, and each row of an
(N, 3) @ (3, 3) or (N, 2) @ (2,) product rounds the same at any position
(the dense-fold tests check both), so evaluating the cells block by block
gives each the same bits, and a transpose into the grid only moves them.

Attribution runs inside the same fold, which is what the planner consumes.
A voxel belongs to the last pair that changed its composed value; a pair
that only ties the value leaves it with the earlier pair.  Within that
pair, voxels where the slab term exceeds the profile term belong to the
extrusion parameter block and the rest to the nearest primitive (the first
one on a distance tie).

A body whose placement frame is exactly z-aligned, that is whose rotation
has rot[2,0] == rot[2,1] == rot[0,2] == rot[1,2] == 0 (every phi-bin-0
extrusion, whatever its theta and gamma), is evaluated on the n^2 lattice
points (x_i, y_j, z_j) of cell-center coordinates: the profile at all of
them for the xy cells (i, j), the slab term at the first n for the z
layers j, both broadcast over the grid.  The result is exact, not close: a
point's sketch-plane coordinates gain only the term (z - o_z) * 0 = +-0 from
its height, whatever z is, which leaves every nonzero sum unchanged and can
flip only the sign of a zero one, and the profile never sees that sign
because no quantized 2D coordinate is zero; likewise x and y enter the
height only as +-0 terms, and the slab term takes its absolute value.
Every float64 term and field value the lattice computes is bit-identical
to evaluating the body at that cell center, as ``body_sdf`` does.

``render`` and ``attribute`` evaluate a body that is off the z axis, and not
taken from a base, only in the blocks of cells its surface band can reach.
They first evaluate the body at the centers of 4^3-cell blocks, laid over
the grid padded up to whole blocks when 4 does not divide n (at resolution
32 these are ``embed_shape``'s pooling blocks).  A block whose center value
f_c has |f_c| >= tau + 1.5 sqrt(3) pitch + a 1e-9 margin is filled with
sign(f_c) * tau, and only the other blocks' cells are evaluated.  The fill
keeps the band rule below.  Every body field is 1-Lipschitz: a loop's
boundary distance is, and its winding sign flips only on the boundary, where
that distance is zero; the max with negated holes, uniform scaling, the
extrusion formula (the distance to the quadrant d <= 0, slab <= 0, with d
and the slab term 1-Lipschitz in orthogonal coordinates) and an orthonormal
placement all keep that.  Every cell center lies within the half-diagonal
1.5 sqrt(3) pitch of its block's center, so a filled cell's true value has
the sign of f_c and a magnitude of at least tau; the margin absorbs float64
rounding.

Every body obeys one band rule: its field is exact wherever |f| < tau, and
elsewhere |f| >= tau with f's sign; a filled block is one case, a bounded
hypot patch (below) the other.  Clamping to [-tau, tau] maps a body that
obeys the rule to the clamp of its full field, and it commutes with min,
max and negation, so the fold of such bodies clamps like the dense one; the
float32 cast is monotone with tau exact in float32, so the stored grid is
bit-identical: an in-band value (|v| < tau) lies strictly between the
out-of-band values of either sign, so every min and max of the fold picks
the same in-band operand, bit for bit, and every out-of-band result keeps
its sign and clamps to the same +-tau.

An attribution fills a culled block's cap mask with False and its nearest
primitive with 0, and folds bodies that differ from the full fields out of
the band, so it guarantees owners only in the band, where |v| < tau; there
they are the dense fold's.  Proof: min and max return one of their
operands, so the last pair that changed an in-band value v left its own
value f (or -f for CUT) equal to v, in the band; there that body is exact,
its block is not culled, and its cap mask and nearest primitive are exact.
The banded fold names the same pair: by the clamp commutation its scene
clamps like the dense one after every pair, and a value that clamps to an
in-band v is v, so from that pair on its scene is v, and before it the
scene is not, as the dense one is not.  So a cell out of a body's band,
also in a body taken from a base, never owns an in-band voxel.  Owners in
|v| < tau are all the planner reads, since its band never exceeds tau.

The extrusion formula min(max(d, slab), 0) + hypot(max(d, 0), max(slab, 0))
is max(d, slab) + 0.0 where d <= 0 or slab <= 0: hypot(0, x) == |x|
exactly, and the + 0.0 turns a -0.0 into +0.0 as the formula's
+ hypot(0, 0) does; where both are positive it is 0.0 + hypot(d, slab).
So ``_field`` takes max(d, slab) + 0.0 and writes hypot(d, slab) only
where both are positive and below a bound ``top``, bit for bit the formula
there.  Every body of a render or an attribution takes top = tau, which
keeps the band rule: where both are positive and one is at least tau,
max(d, slab) and hypot(d, slab) are both at least tau; ``body_sdf`` and
the cull's block centers take the full field.  On the lattice, with d the
profile term on the n^2 xy cells and slab the slab term on the n z layers,
``render`` and ``attribute`` take max(d + 0.0, slab + 0.0) over the grid
and write hypot only on the xy cells with 0 < d < tau and the z layers
with 0 < slab < tau.  The slab term is |z - mid| - half, so those layers
form at most two runs, below and above the slab, and each is one slice of
the (n^2, n) grid.

A render folds h(f) = clip(float32(f), -tau, tau) of each body instead of f,
in float32, and stores its scene without a final cast or clip: the lattice
takes max(h(d + 0.0), h(slab + 0.0)) and writes h of its hypot patch,
``_banded`` scatters h of its evaluated cells among the filled +-tau, and a
body taken from a base is h of its stored float64 field.  The cast rounds to
nearest and the clamp is symmetric, so h is non-decreasing and odd:
h(min(a, b)) = min(h(a), h(b)), likewise for max, and h(-a) = -h(a).  So,
pair by pair, the float32 scene is h of the float64 fold of the same
bodies, which by the band rule is what an attribution stores: where
h(a) < h(b) both folds pick the same operand, and where h(a) == h(b) in
value, the operands' bits differ only as +0.0 and -0.0, among which min and
max pick by position alike in either precision, and h keeps a zero's sign.
The lattice's max of h(d + 0.0) and h(slab + 0.0) is h of their max the
same way, and the + 0.0 still turns -0.0 into +0.0 before h sees it.

That needs h(a) to be a zero only where a is one: a nonzero |a| <= 2**-150
casts to a signed zero, and min or max of opposite zeros may then keep
another operand than the float64 fold (a tiny negative beats +0.0 there,
while -0.0 ties it).  Quantized geometry is not proven free of such values:
a tilted frame can cancel a coordinate far below the grid's scale, and a
sweep of length zero makes that the slab term.  So ``_extrude`` makes each
such d and slab value a zero of its sign, a move the cull's margin absorbs
like rounding.  Every body value is then +-tau, one of them plus 0.0 or a
hypot at least as large, so none casts to a zero it is not.  Values above
2**-150 stay: float32 keeps them nonzero, so a flush of more, such as
-1e-40, would only turn occupied cells empty.

An attribution keeps its bodies: ``bodies`` maps each ``(Sketch,
Extrusion)`` of the sequence to its float64 field, cap mask and nearest
primitive, all read-only.  Given a ``base`` attribution at the same spec,
``render`` and ``attribute`` take the bodies it holds and evaluate only the
others.  A reused body is exact: its arrays depend only on the key and the
spec, so an attribution folds the very arrays it would compute, and a
render h of a field that obeys the band rule, which is all the shortcuts
above are proven to need.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

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
    SegmentKind,
    Sketch,
    chain_vertices,
)

DOMAIN_MIN = -0.5
DOMAIN_MAX = 0.5

_TWO_PI = 2.0 * math.pi

_BLOCK = 4  # cell edge of the blocks a banded evaluation culls (see the module notes)
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
    primitives and extrusion blocks).  ``bodies`` holds every body of the
    sequence, for a later call to reuse (see the module notes).
    """

    spec: GridSpec
    values: np.ndarray
    owner: np.ndarray
    segment_ids: tuple[SegmentId, ...]
    bodies: Mapping[tuple[Sketch, Extrusion], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def grid(self) -> TSDFGrid:
        return TSDFGrid(self.spec, self.values)


# --------------------------------------------------------------------------
# 2D primitives


def _distance(x: np.ndarray, y: np.ndarray, p) -> np.ndarray:
    return np.sqrt((x - p[0]) ** 2 + (y - p[1]) ** 2)


def _segment_distance(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    rel = np.empty(x.shape + (2,))
    np.subtract(x, a[0], out=rel[..., 0])
    np.subtract(y, a[1], out=rel[..., 1])
    t = np.clip((rel.reshape(-1, 2) @ ab).reshape(x.shape) / denom, 0.0, 1.0)
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


def _on_arc(ang: np.ndarray, start: float, sweep: float, ccw: bool) -> np.ndarray:
    """Whether the turn from ``start`` to ``ang`` is within the sweep: diff % 2pi <= sweep
    without the remainder, which, as |diff| <= 2pi, adds 2pi to a negative diff and maps +-0, +-2pi to +0."""
    diff = (ang - start) if ccw else (start - ang)
    return (np.where(diff < 0, diff + _TWO_PI, diff) <= sweep) | (diff == _TWO_PI)


def _winding_contribution(a, b, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Cross product and angle swept at each point by travel along the chord from ``a`` to ``b``."""
    cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
    dot = (a[0] - x) * (b[0] - x) + (a[1] - y) * (b[1] - y)
    return cross, np.arctan2(cross, dot)


def _arc(a, b, sweep, ccw, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Boundary distance and winding angle of the arc from ``a`` to ``b``.

    The chord's cross product feeds both the chord angle and the bulge-side
    test, so the two cannot disagree on which side a borderline point falls.
    Points exactly on the open chord get the value both one-sided limits share.
    """
    center, radius = arc_center_radius(a, b, sweep, ccw)
    dx, dy = x - center[0], y - center[1]
    from_center = np.sqrt(dx**2 + dy**2)
    on_arc = _on_arc(np.arctan2(dy, dx), math.atan2(a[1] - center[1], a[0] - center[0]), sweep, ccw)
    caps = np.minimum(_distance(x, y, a), _distance(x, y, b))
    dist = np.where(on_arc, np.abs(from_center - radius), caps)
    cross, angle = _winding_contribution(a, b, x, y)
    inside = from_center < radius
    if ccw:
        angle = np.where(inside & (cross < 0), angle + _TWO_PI, angle)
        return dist, np.where(inside & (cross == 0), math.pi, angle)
    angle = np.where(inside & (cross > 0), angle - _TWO_PI, angle)
    return dist, np.where(inside & (cross == 0), -math.pi, angle)


def _loop_vertices(loop: Loop) -> list[np.ndarray]:
    verts = [
        np.array([dequantize(x, Channel.COORD_2D), dequantize(y, Channel.COORD_2D)])
        for x, y in chain_vertices(loop)
    ]
    for k in range(len(verts)):
        if np.array_equal(verts[k], verts[(k + 1) % len(verts)]):
            raise DegenerateLoopError("zero-length chain step")
    return verts


def _loop_eval(loop: Loop, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Signed field (negative inside) and per-primitive boundary distances at (x, y)."""
    prim = loop.primitives[0]
    if isinstance(prim, Circle):
        center = (dequantize(prim.center[0], Channel.COORD_2D), dequantize(prim.center[1], Channel.COORD_2D))
        f = _distance(x, y, center) - dequantize(prim.radius, Channel.DISTANCE)
        return f, [np.abs(f)]
    verts = _loop_vertices(loop)
    rows = []
    total = np.zeros(x.shape)
    for k, p in enumerate(loop.primitives):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        if isinstance(p, Line):
            rows.append(_segment_distance(a, b, x, y))
            total += _winding_contribution(a, b, x, y)[1]
        else:
            dist, angle = _arc(a, b, dequantize(p.sweep, Channel.ANGLE), p.ccw, x, y)
            rows.append(dist)
            total += angle
    dist = functools.reduce(np.minimum, rows)  # no distance is NaN or -0.0: any order picks the same
    winding = np.rint(total / _TWO_PI)
    return np.where(winding != 0, -dist, dist), rows


def _profile_eval(sketch: Sketch, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Profile field plus every primitive's boundary distances, in loop order."""
    f, all_rows = _loop_eval(sketch.loops[0], x, y)
    for hole in sketch.loops[1:]:
        g, rows = _loop_eval(hole, x, y)
        f = np.maximum(f, -g)
        all_rows += rows
    return f, all_rows


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


def _extrude(sketch: Sketch, ext: Extrusion, plane: np.ndarray, height: np.ndarray):
    """Profile term, in ``plane``'s shape, slab term, in ``height``'s, and the
    primitives' boundary distances in loop order, from sketch-plane
    coordinates (..., 2) and heights along the normal, each term flushed
    (see the module notes)."""
    scale = dequantize(ext.scale, Channel.SCALE)
    if scale <= 0.0:
        raise ValueError("extrusion scale dequantizes to zero")
    d, rows = _profile_eval(sketch, plane[..., 0] / scale, plane[..., 1] / scale)
    lo, hi = extent_interval(ext)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return _flushed(d * scale), _flushed(np.abs(height - mid) - half), rows


def _flushed(t: np.ndarray) -> np.ndarray:
    """``t`` with each value float32 rounds to a zero made a zero of its sign."""
    tiny = np.abs(t) <= 2.0**-150  # the largest magnitude float32 rounds to a zero
    return np.where(tiny, np.copysign(0.0, t), t) if tiny.any() else t


def _field(d: np.ndarray, slab: np.ndarray, top: float = math.inf) -> np.ndarray:
    """Signed distance to the quadrant d <= 0, slab <= 0, from terms of one
    shape, but max(d, slab) where both are positive and one reaches ``top``
    (see the module notes)."""
    f = np.add(np.maximum(d, slab), 0.0, out=np.empty(np.shape(d)))
    at = np.flatnonzero((d > 0) & (slab > 0) & (d < top) & (slab < top))
    f.reshape(-1)[at] = np.hypot(np.reshape(d, -1)[at], np.reshape(slab, -1)[at])
    return f


def _clamped(f: np.ndarray, tau: float) -> np.ndarray:
    """h(f) = clip(float32(f), -tau, tau)."""
    g = f.astype(np.float32)
    return np.clip(g, -np.float32(tau), np.float32(tau), out=g)


def _local(x, y, z, rot: np.ndarray, origin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sketch-plane coordinates (..., 2) and heights of the points (x, y, z), all of one shape."""
    rel = np.empty(np.shape(x) + (3,))
    for k, coord in enumerate((x, y, z)):
        np.subtract(coord, origin[k], out=rel[..., k])
    local = rel @ rot  # rows of p - o times R == R^T (p - o)
    return local[..., :2], local[..., 2]


def body_sdf(sketch: Sketch, ext: Extrusion, pts) -> np.ndarray:
    """Untruncated SDF of one extruded (scaled, placed) sketch profile."""
    coords = np.moveaxis(np.asarray(pts, dtype=float), -1, 0)
    return _field(*_extrude(sketch, ext, *_local(*coords, *placement_frame(ext)))[:2])


def _banded(sketch: Sketch, ext: Extrusion, spec: GridSpec, rot: np.ndarray, origin: np.ndarray, owners: bool):
    """Body field on the (n, n, n) grid, h of it unless ``owners``, and when
    ``owners`` its cap mask and nearest primitive: in every block the field
    can bring into the band, the field bounded by tau, and sign * tau, False
    and 0 in every other (see the module notes)."""
    n, pitch, tau = spec.resolution, spec.pitch, spec.tau
    nb, cube = -(-n // _BLOCK), _BLOCK**3
    mid = DOMAIN_MIN + (np.arange(nb) + 0.5) * (_BLOCK * pitch)
    mids = mid.repeat(nb * nb), np.tile(mid.repeat(nb), nb), np.tile(mid, nb * nb)
    fc = _field(*_extrude(sketch, ext, *_local(*mids, rot, origin))[:2])
    near = np.flatnonzero(np.abs(fc) < tau + (_BLOCK - 1) / 2 * math.sqrt(3.0) * pitch + _CULL_MARGIN)
    # per axis, each near block's cell centers, the last standing in for pad
    # cells; cells run block by block, each block's in C order
    c, step = spec.centers(), np.arange(_BLOCK)
    cx, cy, cz = (c[np.minimum(b[:, None] * _BLOCK + step, n - 1)] for b in (near // nb**2, near // nb % nb, near % nb))
    xs, ys, zs = cx.repeat(_BLOCK**2, 1), np.tile(cy.repeat(_BLOCK, 1), _BLOCK), np.tile(cz, _BLOCK**2)
    d, slab, rows = _extrude(sketch, ext, *_local(xs.reshape(-1), ys.reshape(-1), zs.reshape(-1), rot, origin))

    def grid(values, fill):  # near blocks' values, one block row each, over fill
        out = np.empty((nb**3, cube), values.dtype)
        out[:] = fill
        out[near] = values.reshape(-1, cube)
        out = out.reshape((nb,) * 3 + (_BLOCK,) * 3).transpose(0, 3, 1, 4, 2, 5)
        return out.reshape((nb * _BLOCK,) * 3)[:n, :n, :n]

    f = _field(d, slab, tau)
    f = grid(f if owners else _clamped(f, tau), np.where(fc < 0, -tau, tau)[:, None])
    if not owners:
        return f, None, None
    return f, grid(slab > d, False), grid(np.argmin(np.stack(rows), axis=0), 0)


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


def _compose(seq: ConstructionSequence, spec: GridSpec, owners: bool, base: AttributionGrid | None):
    """Truncated (n, n, n) field and, when ``owners``, the owner grid, the
    primitive-granularity ids its values index (each pair's primitives in
    loop order, then its extrusion block) and the sequence's bodies.  Bodies
    ``base`` holds at this spec are reused (see the module notes).
    """
    n, tau = spec.resolution, spec.tau

    def h(a):  # what a render folds in place of a body value (see the module notes)
        return a if owners else _clamped(a, tau)

    def evaluate(sketch, ext):
        """A body's field (h of it in a render), cap mask and nearest
        primitive, broadcastable to (n, n, n); its coordinates die with the
        call, before the fold allocates."""
        body = reused.get((sketch, ext))
        if body is not None:
            return body if owners else (h(body[0]), None, None)
        rot, origin = placement_frame(ext)
        if not rot[2, 0] == rot[2, 1] == rot[0, 2] == rot[1, 2] == 0.0:
            return _banded(sketch, ext, spec, rot, origin, owners)
        # z-aligned: the profile at the points (x_i, y_j, z_j), the slab at
        # the first n of them (see the module notes)
        c = spec.centers()
        plane, height = _local(np.repeat(c, n), np.tile(c, n), np.tile(c, n), rot, origin)
        d, slab, rows = _extrude(sketch, ext, plane.reshape(n, n, 1, 2), height[:n])
        f = np.maximum(h(d + 0.0), h(slab + 0.0))
        xy = np.flatnonzero((d > 0) & (d < tau))
        z = np.flatnonzero((slab > 0) & (slab < tau))
        for run in np.split(z, np.flatnonzero(np.diff(z) > 1) + 1):  # below and above the slab
            if run.size:
                f.reshape(n * n, n)[xy, run[0] : run[-1] + 1] = h(np.hypot(d.reshape(-1)[xy, None], slab[run]))
        if not owners:
            return f, None, None
        return f, slab > d, np.argmin(np.stack(rows), axis=0)

    reused = base.bodies if base is not None and base.spec == spec else {}
    bodies = {}
    scene = None
    owner = np.empty((n, n, n), dtype=np.int32) if owners else None
    ids: list[SegmentId] = []
    for pi, (sketch, ext) in enumerate(seq.pairs):
        body = f, cap, nearest = evaluate(sketch, ext)
        composed = f if scene is None else _BOOLEAN[ext.bool_op](scene, f)
        if owners:
            for a in body:
                a.flags.writeable = False
            bodies[sketch, ext] = body
            first = len(ids)  # owner value of the pair's first primitive
            for li, loop in enumerate(sketch.loops):
                ids += (SegmentId(pi, SegmentKind.PRIMITIVE, li, k) for k in range(len(loop.primitives)))
            ids.append(SegmentId(pi, SegmentKind.EXTRUSION))
            took = True if scene is None else composed != scene
            np.copyto(owner, np.where(cap, len(ids) - 1, first + nearest), where=took)
        scene = composed
    values = _clamped(scene, tau) if owners else scene
    if not (values < 0).any():
        raise RenderInvalidError("composed field has no interior voxels")
    return values, owner, tuple(ids), MappingProxyType(bodies)


def render(
    seq: ConstructionSequence, spec: GridSpec = GridSpec(), *, base: AttributionGrid | None = None
) -> TSDFGrid:
    """Fold the sequence's bodies into one truncated grid, reusing those
    ``base`` holds.  Raises RenderInvalidError when the composed occupancy
    is empty.
    """
    return TSDFGrid(spec, _compose(seq, spec, False, base)[0])


def attribute(
    seq: ConstructionSequence, spec: GridSpec = GridSpec(), *, base: AttributionGrid | None = None
) -> AttributionGrid:
    """Composed field plus per-voxel owning segment, reusing the bodies
    ``base`` holds (see the module notes)."""
    return AttributionGrid(spec, *_compose(seq, spec, True, base))


# --------------------------------------------------------------------------
# surface extraction


def surface_points(grid: TSDFGrid, max_points: int = 4096, seed: int = 0) -> np.ndarray:
    """Zero-crossing points between adjacent cell centers, subsampled.

    Crossing locations come from linear interpolation along grid edges, in
    float64.  Each axis's crossings are found as flat indices into the grid,
    in C order, so only a crossing's two samples are read and widened.
    Raises EmptySurfaceError when no adjacent pair changes sign.
    """
    n, pitch = grid.spec.resolution, grid.spec.pitch
    occ = grid.values < 0
    flat = grid.values.reshape(-1)
    pts = []
    for axis in range(3):
        # occ[i] != occ[i + 1] along the axis; the last layer meets its own copy
        at = np.flatnonzero(np.diff(occ, axis=axis, append=occ.take([-1], axis=axis)))
        if not at.size:
            continue
        va = flat[at].astype(np.float64)
        t = va / (va - flat[at + n ** (2 - axis)])
        coords = DOMAIN_MIN + (np.stack(np.unravel_index(at, occ.shape), axis=-1) + 0.5) * pitch
        coords[:, axis] += t * pitch
        pts.append(coords)
    if not pts:
        raise EmptySurfaceError("grid has no sign change between adjacent cells")
    allpts = np.concatenate(pts, axis=0)
    if len(allpts) > max_points:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(allpts), size=max_points, replace=False)
        allpts = allpts[np.sort(keep)]
    return allpts
