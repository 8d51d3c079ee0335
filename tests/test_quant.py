import math

import pytest

from cadfit.errors import BinRangeError
from cadfit.quant import BIN_MAX, Channel, dequantize, quantize


# each channel's range, written out so the test does not read quant's table
_RANGES = {
    Channel.COORD_2D: (-0.5, 0.5),
    Channel.COORD_3D: (-0.5, 0.5),
    Channel.ANGLE: (0.0, 2.0 * math.pi),
    Channel.SCALE: (0.0, 1.0),
    Channel.DISTANCE: (0.0, 1.0),
}


def test_endpoint_bins_hit_range_endpoints():
    assert set(_RANGES) == set(Channel)
    for channel, (lo, hi) in _RANGES.items():
        assert dequantize(0, channel) == lo
        assert dequantize(BIN_MAX, channel) == hi


def test_coord_midpoint_value():
    # 256 bins over [-0.5, 0.5]: bin 128 sits just above the center
    assert dequantize(128, Channel.COORD_2D) == pytest.approx(-0.5 + 128 / 255)
    assert dequantize(128, Channel.COORD_3D) == dequantize(128, Channel.COORD_2D)


def test_angle_channel_spans_full_turn():
    assert dequantize(0, Channel.ANGLE) == 0.0
    assert dequantize(255, Channel.ANGLE) == pytest.approx(2 * math.pi)


def test_quantize_dequantize_round_trip_every_bin():
    for channel in Channel:
        for b in range(BIN_MAX + 1):
            assert quantize(dequantize(b, channel), channel) == b


def test_quantize_clamps_out_of_range_values():
    assert quantize(-2.0, Channel.COORD_2D) == 0
    assert quantize(2.0, Channel.COORD_2D) == BIN_MAX
    assert quantize(-0.1, Channel.DISTANCE) == 0


def test_every_bin_dequantizes_to_the_affine_formula_bit_for_bit():
    for channel, (lo, hi) in _RANGES.items():
        for b in range(BIN_MAX + 1):
            assert dequantize(b, channel).hex() == (lo + b * (hi - lo) / BIN_MAX).hex()


def test_dequantize_rejects_bad_bins():
    for channel in Channel:
        for bad in (True, False, -1, 256, 3.0, 1.5, "3", None):
            with pytest.raises(BinRangeError):
                dequantize(bad, channel)
