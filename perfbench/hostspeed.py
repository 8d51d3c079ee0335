"""Host speed, sampled beside every timed operation.

The benchmark's host is shared.  The same render of the same shape runs
30 to 50% slower for seconds at a time while neighbours are busy, in CPU
time as in wall time, so a wall time alone mostly measures the neighbours.
A fixed numpy kernel shaped like one body evaluation of cadfit's renderer
(n^3 points through a rotation, segment distances, winding angles and an
extrusion slab), but independent of the package, is timed between
operations.  Each operation is reported at reference speed: its wall time
times ``REFERENCE_S`` over the mean kernel time just before and just after
it.  Interleaved this way, one render's time over the kernel's stayed
within 1.21 to 1.27 in 6 s windows while the render itself ranged from 29
to 42 ms.

A change to the package does not touch the kernel, so a gain shows in full
at reference speed; only the host's own drift cancels.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time, in seconds, at each grid resolution the workloads use,
# on the recording machine (record.json) when its neighbours were quiet: a
# reported timing is what the operation would take at that speed
REFERENCE_S = {32: 0.015, 64: 0.135}

_rng = np.random.default_rng(20260101)
_SEGMENTS = _rng.uniform(-0.4, 0.4, size=(3, 2, 2))
_ROTATION = np.linalg.qr(_rng.standard_normal((3, 3)))[0]
_POINTS: dict[int, np.ndarray] = {}


def kernel(resolution: int = 32) -> np.ndarray:
    """One body evaluation over resolution^3 points.

    Its working set grows with the resolution as a render's does: at 64 it
    overflows the L2 cache, and only a kernel that does the same tracks how
    memory traffic from the neighbours slows a render at 64.
    """
    if resolution not in _POINTS:
        _POINTS[resolution] = np.random.default_rng(resolution).uniform(-0.5, 0.5, size=(resolution**3, 3))
    local = _POINTS[resolution] @ _ROTATION
    p = local[:, :2]
    dist = np.full(len(p), np.inf)
    winding = np.zeros(len(p))
    for a, b in _SEGMENTS:
        ab, ap, bp = b - a, p - a, p - b
        t = np.clip((ap @ ab) / (ab @ ab), 0.0, 1.0)
        dist = np.minimum(dist, np.linalg.norm(ap - t[:, None] * ab, axis=-1))
        winding += np.arctan2(ap[:, 0] * bp[:, 1] - ap[:, 1] * bp[:, 0], (ap * bp).sum(-1))
    d = np.where(np.rint(winding / (2 * np.pi)) != 0, -dist, dist)
    slab = np.abs(local[:, 2]) - 0.3
    f = np.minimum(np.maximum(d, slab), 0.0) + np.hypot(np.maximum(d, 0.0), np.maximum(slab, 0.0))
    return np.clip(f.astype(np.float32), -0.1, 0.1)


def sample(resolution: int = 32) -> float:
    t0 = time.perf_counter()
    kernel(resolution)
    return time.perf_counter() - t0


class Meter:
    """Scales the wall times of consecutive operations to reference speed.

    Call ``scaled`` right after each operation: the kernel sample it takes
    then closes this operation and opens the next.  The kernel runs at the
    resolution of the workload's grids.
    """

    def __init__(self, resolution: int = 32):
        self.resolution = resolution
        kernel(resolution)  # first call pays for page faults
        self._last = sample(resolution)
        self.samples = [self._last]

    def scaled(self, wall: float) -> float:
        now = sample(self.resolution)
        self.samples.append(now)
        speed = 0.5 * (self._last + now)
        self._last = now
        return wall * REFERENCE_S[self.resolution] / speed

    def slowdown(self) -> float:
        """Median kernel time over the reference: how slow the host ran."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / REFERENCE_S[self.resolution]
