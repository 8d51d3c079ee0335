"""Analytic SDF evaluation of construction sequences on voxel grids.

Profiles are exact 2D signed distance fields (negative inside) built from
loop boundary distance with a winding-number sign.  Bodies extrude those
profiles along a placed sketch plane.  Booleans fold the bodies left to
right: the first body starts the scene, then NEW and JOIN apply
``sdf_union`` (min), CUT ``sdf_difference`` (max with the negated body) and
INTERSECT ``sdf_intersection`` (max).  A render and an attribution fold
one thing, h(f) = clip(float32(f), -tau, tau) of every body, in float32,
and store the scene as the fold leaves it.

The 2D layer works on x and y planes and the placement on x, y and z
planes, and no product goes through BLAS: every distance is
sqrt(dx**2 + dy**2), and every other product is written out as its terms
summed in a fixed order, so the kernel's float64 arithmetic is numpy's
elementwise operations alone.  Each value then depends only on its own
point, so evaluating the cells block by block gives each the same bits, and
a transpose into the grid only moves them.

A loop's sign is its winding number, counted without angles (D. Sunday,
"Inclusion of a point in a polygon", 2001): each chord adds its signed
crossing of the point's +x ray, half-open in y, so a point level with a
vertex counts as at y + eps, and one on a chord's line takes the side of
y + eps, the left of a chord towards +x.  An arc adds 1 (ccw) or -1 (cw)
inside its circle on its chord's bulge side, and is nearest where the point
lies between its end radii, by two cross-product signs.  Left to round as
a library build does: np.hypot, and math.sin and math.cos of bin values.

Attribution runs inside the same fold, which is what the planner consumes.
A voxel belongs to the last pair that changed its composed value; a pair
that only ties the value leaves it with the earlier pair.  Within that
pair, voxels where the slab term exceeds the profile term belong to the
extrusion parameter block and the rest to the nearest primitive (the first
one on a distance tie).

A body whose placement frame is exactly z-aligned, that is whose rotation
has rot[2,0] == rot[2,1] == rot[0,2] == rot[1,2] == 0 (every phi-bin-0
extrusion, whatever its theta and gamma), is evaluated on the (n, n) points
(x_i, y_j, z_j), a broadcast of the cell-center axis: the profile at all of
them for the xy cells (i, j), the slab term on their row i = 0 for the z
layers j, both broadcast over the grid.  The result is exact, not close: a
point's sketch-plane coordinates gain only the term (z - o_z) * 0 = +-0 from
its height, whatever z is, which leaves every nonzero sum unchanged and can
flip only the sign of a zero one, and the profile never sees that sign
because no quantized 2D coordinate is zero; likewise x and y enter the
height only as +-0 terms, and the slab term takes its absolute value.  Every
float64 term and field value the lattice computes is bit-identical to
evaluating the body at that cell center, as ``body_sdf`` does.

``render`` and ``attribute`` evaluate a body that is off the z axis, and not
taken from a base, only in the blocks of cells its surface band can reach.
They first evaluate the body at the centers of 4^3-cell blocks, laid over
the grid padded up to whole blocks when 4 does not divide n (at resolution
32 these are ``embed_shape``'s pooling blocks).  A block whose center value
f_c has |f_c| >= tau + 1.5 sqrt(3) pitch + a 1e-9 margin is filled with
sign(f_c) * tau, and only the other blocks' cells are evaluated.  Both point
sets are broadcasts of 1-D axes: the block centers of one axis of block
midpoints, and each near block's cells of its three runs of 4 cell centers,
(near blocks, 4, 4, 4) in C order.  The fill keeps the band rule below.
Every body field is 1-Lipschitz: a loop's boundary distance is, and its
winding sign flips only on the boundary, where that distance is zero; the
max with negated holes, uniform scaling, the extrusion formula (the distance
to the quadrant d <= 0, slab <= 0, with d and the slab term 1-Lipschitz in
orthogonal coordinates) and an orthonormal placement all keep that.  Every
cell center lies within the half-diagonal 1.5 sqrt(3) pitch of its block's
center, so a filled cell's true value has the sign of f_c and a magnitude of
at least tau; the margin absorbs float64 rounding.

Every body obeys one band rule: its field is exact wherever |f| < tau, and
elsewhere |f| >= tau with f's sign; a filled block is one case, a bounded
hypot patch (below) the other.  So h of a body is h of its full field
(``body_sdf``'s) at every cell, bit for bit: in the band the two are one
value, and elsewhere both clamp to sign * tau, tau being exact in float32.
The cast rounds to nearest and the clamp is symmetric, so h is
non-decreasing and odd: h(min(a, b)) = min(h(a), h(b)), likewise for max,
and h(-a) = -h(a).  So, pair by pair, the scene is h of the float64 fold of
the full fields, the dense fold clamped once: where h(a) < h(b) both folds
pick the same operand, and where h(a) == h(b) in value, the operands' bits
differ only as +0.0 and -0.0, among which min and max pick by position
alike in either precision, and h keeps a zero's sign.

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

An attribution's fold is thus, step by step, the dense h-fold: the float32
fold of h of every full field.  A pair takes a voxel where it changes the
scene, so exactly where it changes the dense h-scene; one that ties it in
float32, though not in float64, leaves it with the earlier pair.  Every
voxel has the dense h-fold's owning pair, and its segment too but where the
owning body's block was culled: there the cap mask is False and the nearest
primitive 0, and the voxel holds that body's +-tau, outside the band
|v| < tau that holds every owner the planner reads.

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
``render`` and ``attribute`` take max(h(d + 0.0), h(slab + 0.0)), h of
their max as h is non-decreasing, over the grid and write h of hypot only
on the xy cells with 0 < d < tau and the z layers with 0 < slab < tau.  The
slab term is |z - mid| - half, so those layers form at most two runs, below
and above the slab, and each is one slice of the (n^2, n) grid;
``_banded`` scatters h of its evaluated cells among the filled +-tau.

An attribution keeps its bodies: ``bodies`` maps each ``(Sketch,
Extrusion)`` of the sequence to its float32 h-field, cap mask and nearest
primitive, all read-only.  Given a ``base`` attribution at the same spec,
``render`` and ``attribute`` fold the bodies it holds as they are stored
and evaluate only the others: a body's arrays depend only on the key and
the spec.

Both ways of building a TSDFGrid guarantee a surface.  ``_compose`` raises
RenderInvalidError on a fold without one, else hands back a C-ordered,
read-only float32 array, in [-tau, tau] by the clamp of every body, which
``render`` and ``AttributionGrid.grid`` wrap without the constructor's cast,
scan and copy.  The constructor checks every other grid, a file's included.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import EmptySurfaceError, RenderInvalidError
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
    """Truncated SDF samples at cell centers, in [-tau, tau], with a
    surface: some cell is inside (negative) and some is not.

    The constructor checks and copies ``values``: a bad shape, a NaN or a
    value past tau raises ValueError, and only then no surface raises
    EmptySurfaceError.
    The kernel's own grids are built by ``_kernel_grid`` without that pass.
    """

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
        if not lo < 0 <= hi:
            raise EmptySurfaceError(f"grid has no surface: {'every' if lo < 0 else 'no'} cell is inside")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def occupancy(self) -> np.ndarray:
        return self.values < 0


def _kernel_grid(spec: GridSpec, values: np.ndarray) -> TSDFGrid:
    """A TSDFGrid of ``_compose``'s values, which are fresh, read-only,
    C-ordered float32 in [-tau, tau] with a surface, used as they are."""
    grid = object.__new__(TSDFGrid)
    object.__setattr__(grid, "spec", spec)
    object.__setattr__(grid, "values", values)
    return grid


@dataclass(frozen=True, eq=False)
class AttributionGrid:
    """Composed field plus, per voxel, the segment that owns it.

    ``values`` is the float32 fold of every body's h-field, h(f) =
    clip(float32(f), -tau, tau), as a render folds it.  ``owner`` holds
    indices into ``segment_ids``, the ids of the sequence's ``segments`` at
    primitive granularity (primitives and extrusion blocks).  ``bodies``
    holds those h-fields, each with its cap mask and nearest primitive,
    read-only, for a later call to fold as stored (see the module notes).
    """

    spec: GridSpec
    values: np.ndarray
    owner: np.ndarray
    segment_ids: tuple[SegmentId, ...]
    bodies: Mapping[tuple[Sketch, Extrusion], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def grid(self) -> TSDFGrid:
        return _kernel_grid(self.spec, self.values)


# --------------------------------------------------------------------------
# 2D primitives


def _distance(x: np.ndarray, y: np.ndarray, p) -> np.ndarray:
    return np.sqrt((x - p[0]) ** 2 + (y - p[1]) ** 2)


def _segment_distance(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ab0, ab1 = b[0] - a[0], b[1] - a[1]
    t = np.clip(((x - a[0]) * ab0 + (y - a[1]) * ab1) / (ab0 * ab0 + ab1 * ab1), 0.0, 1.0)
    return _distance(x, y, (a[0] + t * ab0, a[1] + t * ab1))


def arc_center_radius(a, b, sweep: float, ccw: bool) -> tuple[np.ndarray, float]:
    """Center and radius of the arc from ``a`` to ``b`` with the given sweep.

    The center sits on the chord's perpendicular bisector; for sweeps over a
    half turn the cos term goes negative and pushes it across the chord, so
    one formula covers both minor and major arcs.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    chord = b - a
    clen = math.sqrt(chord[0] * chord[0] + chord[1] * chord[1])
    if clen == 0.0 or not 0.0 < sweep < 2.0 * math.pi:
        raise ValueError("arc with empty chord or degenerate sweep")
    radius = clen / (2.0 * math.sin(sweep / 2.0))
    normal = np.array([-chord[1], chord[0]]) / clen
    side = 1.0 if ccw else -1.0
    center = (a + b) / 2.0 + side * radius * math.cos(sweep / 2.0) * normal
    return center, radius


def _in_sector(lo, hi, sweep: float, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Whether each direction (dx, dy) lies in the sector that turns ccw by ``sweep``
    from the radius ``lo`` to the radius ``hi``, both radii included."""
    after, before = lo[0] * dy - lo[1] * dx >= 0, dx * hi[1] - dy * hi[0] >= 0
    return after & before if sweep < math.pi else after | before


def _crossing(a, b, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Whether each point lies left of the chord from ``a`` to ``b``, and the
    chord's signed, half-open crossing of its +x ray (see the module notes)."""
    cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
    left = cross >= 0 if b[0] > a[0] else cross > 0  # on the chord's line, the side of y + eps
    up = a[1] < b[1]
    lo, hi = (a[1], b[1]) if up else (b[1], a[1])
    return left, ((lo <= y) & (y < hi) & (left == up)) * (1 if up else -1)


def _arc(a, b, sweep, ccw, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Boundary distance and winding count of the arc from ``a`` to ``b``,
    whose two terms read one ``left``, so they cannot disagree on which side
    of the chord a borderline point falls (see the module notes)."""
    center, radius = arc_center_radius(a, b, sweep, ccw)
    dx, dy = x - center[0], y - center[1]
    from_center = np.sqrt(dx**2 + dy**2)
    lo, hi = (a - center, b - center) if ccw else (b - center, a - center)
    caps = np.minimum(_distance(x, y, a), _distance(x, y, b))
    dist = np.where(_in_sector(lo, hi, sweep, dx, dy), np.abs(from_center - radius), caps)
    left, crossing = _crossing(a, b, x, y)
    inside = from_center < radius
    return dist, (crossing + (inside & ~left)) if ccw else (crossing - (inside & left))


def _loop_vertices(loop: Loop) -> list[np.ndarray]:
    bins = chain_vertices(loop)
    # distinct bins dequantize to distinct coordinates
    if any(bins[k - 1] == bins[k] for k in range(len(bins))):
        raise ValueError("zero-length chain step")
    return [np.array([dequantize(x, Channel.COORD_2D), dequantize(y, Channel.COORD_2D)]) for x, y in bins]


def _loop_eval(loop: Loop, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Signed field (negative inside) and per-primitive boundary distances at (x, y)."""
    prim = loop.primitives[0]
    if isinstance(prim, Circle):
        center = (dequantize(prim.center[0], Channel.COORD_2D), dequantize(prim.center[1], Channel.COORD_2D))
        f = _distance(x, y, center) - dequantize(prim.radius, Channel.DISTANCE)
        return f, [np.abs(f)]
    verts = _loop_vertices(loop)
    rows, winding = [], 0
    for k, p in enumerate(loop.primitives):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        if isinstance(p, Line):
            dist, crossing = _segment_distance(a, b, x, y), _crossing(a, b, x, y)[1]
        else:
            dist, crossing = _arc(a, b, dequantize(p.sweep, Channel.ANGLE), p.ccw, x, y)
        rows.append(dist)
        winding += crossing
    dist = functools.reduce(np.minimum, rows)  # no distance is NaN or -0.0: any order picks the same
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
    rz1 = ((ct, -st, 0.0), (st, ct, 0.0), (0.0, 0.0, 1.0))
    ry = ((cp, 0.0, sp), (0.0, 1.0, 0.0), (-sp, 0.0, cp))
    rz2 = ((cg, -sg, 0.0), (sg, cg, 0.0), (0.0, 0.0, 1.0))
    rot = _product(_product(rz1, ry), rz2)
    origin = np.array([dequantize(b, Channel.COORD_3D) for b in ext.origin])
    return np.array(rot), origin


def _product(a, b) -> tuple:
    """The 3x3 product a b, each entry summed in k order."""
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)) for i in range(3))


def extent_interval(ext: Extrusion) -> tuple[float, float]:
    """Out-of-plane interval the profile is swept over."""
    dpos = dequantize(ext.dist_pos, Channel.DISTANCE)
    dneg = dequantize(ext.dist_neg, Channel.DISTANCE)
    if ext.dist_pos == 0 and ext.dist_neg == 0:
        raise ValueError("both extrusion distances are zero")
    if ext.extent is Extent.ONE_SIDED:
        return 0.0, dpos
    if ext.extent is Extent.SYMMETRIC:
        return -dpos / 2.0, dpos / 2.0
    return -dneg, dpos


def _extrude(sketch: Sketch, ext: Extrusion, u: np.ndarray, v: np.ndarray, height: np.ndarray):
    """Profile term, in the shape of the sketch-plane coordinate planes ``u``
    and ``v``, slab term, in that of ``height`` along the normal, and the
    primitives' boundary distances in loop order, each term flushed (see the
    module notes)."""
    scale = dequantize(ext.scale, Channel.SCALE)
    if scale <= 0.0:
        raise ValueError("extrusion scale dequantizes to zero")
    d, rows = _profile_eval(sketch, u / scale, v / scale)
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
    return g.clip(-np.float32(tau), np.float32(tau), out=g)


def _local(x, y, z, rot: np.ndarray, origin: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sketch-plane coordinate planes u and v and heights of the points
    (x, y, z), all of one shape: R^T (p - o), each summed in x, y, z order."""
    px, py, pz = x - origin[0], y - origin[1], z - origin[2]
    return tuple(px * rot[0, k] + py * rot[1, k] + pz * rot[2, k] for k in range(3))


def body_sdf(sketch: Sketch, ext: Extrusion, pts) -> np.ndarray:
    """Untruncated SDF of one extruded (scaled, placed) sketch profile."""
    coords = np.moveaxis(np.asarray(pts, dtype=float), -1, 0)
    return _field(*_extrude(sketch, ext, *_local(*coords, *placement_frame(ext)))[:2])


def _banded(sketch: Sketch, ext: Extrusion, spec: GridSpec, rot: np.ndarray, origin: np.ndarray, owners: bool):
    """Body h-field on the (n, n, n) grid, and when ``owners`` its cap mask
    and nearest primitive: in every block the field can bring into the band,
    h of the field bounded by tau, and sign * tau, False and 0 in every
    other (see the module notes)."""
    n, pitch, tau = spec.resolution, spec.pitch, spec.tau
    nb, cube = -(-n // _BLOCK), _BLOCK**3
    mid = DOMAIN_MIN + (np.arange(nb) + 0.5) * (_BLOCK * pitch)  # block centers per axis
    fc = _field(*_extrude(sketch, ext, *_local(mid[:, None, None], mid[:, None], mid, rot, origin))[:2]).reshape(-1)
    near = np.flatnonzero(np.abs(fc) < tau + (_BLOCK - 1) / 2 * math.sqrt(3.0) * pitch + _CULL_MARGIN)
    # per axis, each near block's cell centers, the last standing in for pad
    # cells, broadcast to (near blocks, 4, 4, 4): each block's cells in C order
    c, step = spec.centers(), np.arange(_BLOCK)
    cx, cy, cz = (c[np.minimum(b[:, None] * _BLOCK + step, n - 1)] for b in (near // nb**2, near // nb % nb, near % nb))
    d, slab, rows = _extrude(sketch, ext, *_local(cx[..., None, None], cy[:, None, :, None], cz[:, None, None], rot, origin))

    def grid(values, fill):  # near blocks' values, one block row each, over fill
        out = np.empty((nb**3, cube), values.dtype)
        out[:] = fill
        out[near] = values.reshape(-1, cube)
        out = out.reshape((nb,) * 3 + (_BLOCK,) * 3).transpose(0, 3, 1, 4, 2, 5)
        return out.reshape((nb * _BLOCK,) * 3)[:n, :n, :n]

    f = grid(_clamped(_field(d, slab, tau), tau), np.where(fc < 0, -tau, tau)[:, None])
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
    """The (n, n, n) fold of every body's h-field and, when ``owners``, the
    owner grid and the sequence's bodies.  Owner values index ``segments(seq)``
    at primitive granularity: each pair's primitives in loop order, then its
    extrusion block.  Bodies ``base`` holds at this spec are folded as stored
    (see the module notes).
    """
    n, tau = spec.resolution, spec.tau

    def evaluate(sketch, ext):
        """A body's h-field and, when ``owners``, its cap mask and nearest
        primitive, broadcastable to (n, n, n); its coordinates die with the
        call, before the fold allocates."""
        body = reused.get((sketch, ext))
        if body is not None:
            return body
        rot, origin = placement_frame(ext)
        if not rot[2, 0] == rot[2, 1] == rot[0, 2] == rot[1, 2] == 0.0:
            return _banded(sketch, ext, spec, rot, origin, owners)
        # z-aligned: the profile at the broadcast (n, n) points (x_i, y_j,
        # z_j), the slab on their row i = 0 (see the module notes)
        c = spec.centers()
        u, v, height = _local(c[:, None], c, c, rot, origin)
        d, slab, rows = _extrude(sketch, ext, u[..., None], v[..., None], height[0])
        f = np.maximum(_clamped(d + 0.0, tau), _clamped(slab + 0.0, tau))
        xy = np.flatnonzero((d > 0) & (d < tau))
        z = np.flatnonzero((slab > 0) & (slab < tau))
        for run in np.split(z, np.flatnonzero(np.diff(z) > 1) + 1):  # below and above the slab
            if run.size:
                patch = np.hypot(d.reshape(-1)[xy, None], slab[run])
                f.reshape(n * n, n)[xy, run[0] : run[-1] + 1] = _clamped(patch, tau)
        if not owners:
            return f, None, None
        return f, slab > d, np.argmin(np.stack(rows), axis=0)

    reused = base.bodies if base is not None and base.spec == spec else {}
    bodies = {}
    scene = None
    owner = np.empty((n, n, n), dtype=np.int32) if owners else None
    first = 0  # owner value of the pair's first primitive
    for sketch, ext in seq.pairs:
        body = f, cap, nearest = evaluate(sketch, ext)
        composed = f if scene is None else _BOOLEAN[ext.bool_op](scene, f)
        if owners:
            for a in body:
                a.flags.writeable = False
            bodies[sketch, ext] = body
            extrusion = first + sum(len(loop.primitives) for loop in sketch.loops)  # its owner value
            took = True if scene is None else composed != scene
            np.copyto(owner, np.where(cap, extrusion, first + nearest), where=took)
            first = extrusion + 1
        scene = composed
    values = np.ascontiguousarray(scene)
    inside = np.count_nonzero(values < 0)
    if not inside:
        raise RenderInvalidError("composed field has no interior voxels")
    if inside == values.size:
        raise RenderInvalidError("composed field has no exterior voxels")
    values.flags.writeable = False
    return values, owner, MappingProxyType(bodies)


def render(
    seq: ConstructionSequence, spec: GridSpec = GridSpec(), *, base: AttributionGrid | None = None
) -> TSDFGrid:
    """Fold the sequence's bodies into one truncated grid, reusing those
    ``base`` holds.  Raises RenderInvalidError when no voxel is inside, or
    every voxel is.
    """
    return _kernel_grid(spec, _compose(seq, spec, False, base)[0])


def attribute(
    seq: ConstructionSequence, spec: GridSpec = GridSpec(), *, base: AttributionGrid | None = None
) -> AttributionGrid:
    """Composed field plus per-voxel owning segment, reusing the bodies
    ``base`` holds (see the module notes)."""
    values, owner, bodies = _compose(seq, spec, True, base)
    return AttributionGrid(spec, values, owner, tuple(s.id for s in segments(seq)), bodies)


# --------------------------------------------------------------------------
# surface extraction


def surface_points(grid: TSDFGrid, max_points: int = 4096, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Zero-crossing points between adjacent cell centers, subsampled, and
    their edge keys.

    Crossing locations come from linear interpolation along grid edges, in
    float64.  Each axis's crossings are found as flat indices into the grid,
    in C order, so only a crossing's two samples are read and widened.
    Every grid has a surface, so the result is never empty.

    A point's edge key is ``axis * n**3 + at``, for the edge from the cell
    with flat index ``at`` to its neighbor along ``axis``, so grids of one
    spec key crossings on the same edge alike.  The integer keys strictly
    increase in the order of the points, and the subsample keeps that order.
    """
    n, pitch = grid.spec.resolution, grid.spec.pitch
    occ = grid.values < 0
    flat = grid.values.reshape(-1)
    pts, keys = [], []
    for axis in range(3):
        # occ[i] != occ[i + 1] along the axis, found as flat indices k of the
        # (n - 1)-layer comparison and moved to the grid by the layers skipped
        lead, inner = (slice(None),) * axis, n ** (2 - axis)
        k = np.flatnonzero(occ[lead + (slice(1, None),)] != occ[lead + (slice(-1),)])
        if not k.size:
            continue
        at = k + k // ((n - 1) * inner) * inner
        va = flat[at].astype(np.float64)
        t = va / (va - flat[at + inner])
        coords = DOMAIN_MIN + (np.stack(np.unravel_index(at, occ.shape), axis=-1) + 0.5) * pitch
        coords[:, axis] += t * pitch
        pts.append(coords)
        keys.append(at + axis * n**3)
    allpts, allkeys = np.concatenate(pts, axis=0), np.concatenate(keys)
    if len(allpts) > max_points:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(allpts), size=max_points, replace=False))
        allpts, allkeys = allpts[keep], allkeys[keep]
    return allpts, allkeys
