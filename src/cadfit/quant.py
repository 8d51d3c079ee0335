"""Bin quantization for sequence parameters.

Every numeric field of a sequence is stored as an integer bin in [0, 255]
and mapped to a real value by a per-channel affine map.  Bins 0 and 255
land exactly on the channel's range endpoints, so quantize(dequantize(b))
returns b for every representable bin.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import BinRangeError

BIN_MAX = 255


class Channel(Enum):
    """Value range a bin decodes into."""

    COORD_2D = "coord2d"
    COORD_3D = "coord3d"
    ANGLE = "angle"
    SCALE = "scale"
    DISTANCE = "distance"


_RANGES: dict[Channel, tuple[float, float]] = {
    Channel.COORD_2D: (-0.5, 0.5),
    Channel.COORD_3D: (-0.5, 0.5),
    Channel.ANGLE: (0.0, 2.0 * math.pi),
    Channel.SCALE: (0.0, 1.0),
    Channel.DISTANCE: (0.0, 1.0),
}


def check_bin(value: int) -> int:
    """Return ``value`` if it is a plain int in [0, 255], else raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BinRangeError(f"bin must be an integer, got {value!r}")
    if not 0 <= value <= BIN_MAX:
        raise BinRangeError(f"bin {value} outside [0, {BIN_MAX}]")
    return value


def dequantize(bin_value: int, channel: Channel) -> float:
    lo, hi = _RANGES[channel]
    return lo + check_bin(bin_value) * (hi - lo) / BIN_MAX


def quantize(value: float, channel: Channel) -> int:
    """Nearest bin for a real value, clamped to the representable range."""
    lo, hi = _RANGES[channel]
    raw = round((value - lo) * BIN_MAX / (hi - lo))
    return min(max(int(raw), 0), BIN_MAX)
