"""Shared builders for test models."""

import contextlib

import numpy as np
import pytest

from cadfit.quant import Channel, quantize
from cadfit.sequence import (
    Arc,
    BoolOp,
    Circle,
    ConstructionSequence,
    Extent,
    Extrusion,
    Line,
    Loop,
    Sketch,
)


@contextlib.contextmanager
def raises_exactly(kind, message):
    """Expect an error of class ``kind`` itself, not a subclass, saying ``message``."""
    with pytest.raises(kind) as err:
        yield
    assert type(err.value) is kind
    assert str(err.value) == message


def cell_points(spec):
    """All of the spec's cell centers as an (n^3, 3) array, index order [ix, iy, iz]."""
    c = spec.centers()
    gx, gy, gz = np.meshgrid(c, c, c, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)


def extrusion(op=BoolOp.NEW, extent=Extent.ONE_SIDED, **kw):
    fields = dict(
        orientation=(0, 0, 0),
        origin=(128, 128, 128),
        scale=255,
        dist_pos=128,
        dist_neg=0,
        bool_op=op,
        extent=extent,
    )
    fields.update(kw)
    return Extrusion(**fields)


def circle_pair(op=BoolOp.NEW, cx=128, cy=128, r=64, **kw):
    return (Sketch((Loop((Circle((cx, cy), r),)),)), extrusion(op=op, **kw))


def square_loop(lo=51, hi=204):
    return Loop((Line((hi, lo)), Line((hi, hi)), Line((lo, hi)), Line((lo, lo))))


def cylinder_sequence(r=64, dist=128, oz=64, **kw):
    """Upright cylinder: circle profile at the domain center, one-sided."""
    return ConstructionSequence(
        (circle_pair(r=r, dist_pos=dist, origin=(128, 128, oz), **kw),)
    )


def cube_sequence(lo=51, hi=204, dist=153, oz=51):
    return ConstructionSequence(
        ((Sketch((square_loop(lo, hi),)), extrusion(dist_pos=dist, origin=(128, 128, oz))),)
    )


def star_polygon_loop(rng, n_min=3, n_max=6, arc_prob=0.0, sweep_lo=20, sweep_hi=70):
    """Simple star-shaped chain loop around a random center, ccw order."""
    while True:
        nv = int(rng.integers(n_min, n_max + 1))
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, nv))
        if nv >= 2 and np.diff(np.concatenate([angles, angles[:1] + 2 * np.pi])).min() < 0.35:
            continue
        cx, cy = rng.uniform(-0.12, 0.12, 2)
        radii = rng.uniform(0.12, 0.3, nv)
        verts = [
            (quantize(cx + r * np.cos(a), Channel.COORD_2D), quantize(cy + r * np.sin(a), Channel.COORD_2D))
            for a, r in zip(angles, radii)
        ]
        if any(verts[i] == verts[(i + 1) % nv] for i in range(nv)):
            continue
        prims = []
        for v in verts:
            if rng.random() < arc_prob:
                prims.append(Arc(v, int(rng.integers(sweep_lo, sweep_hi + 1)), bool(rng.integers(0, 2))))
            else:
                prims.append(Line(v))
        return Loop(tuple(prims))
