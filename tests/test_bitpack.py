"""Bit packing of index streams."""

import numpy as np
import pytest

from sstc.bitpack import pack_indices, unpack_indices
from sstc.errors import ValidationError


def test_hand_packed_examples():
    assert pack_indices([5], 5) == bytes([0x28])
    assert pack_indices([1, 2, 3], 4) == bytes([0x12, 0x30])
    assert pack_indices([], 7) == b""


def test_unpack_examples():
    assert unpack_indices(bytes([0x28]), 5, 1).tolist() == [5]
    assert unpack_indices(bytes([0xFF]), 8, 1).tolist() == [255]
    assert unpack_indices(b"", 3, 0).tolist() == []


def test_roundtrip_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(300):
        bits = int(rng.integers(1, 21))
        count = int(rng.integers(0, 64))
        xs = rng.integers(0, 1 << bits, size=count)
        packed = pack_indices(xs, bits)
        assert len(packed) == (count * bits + 7) // 8
        assert np.array_equal(unpack_indices(packed, bits, count), xs)


def test_zero_width_stream():
    assert pack_indices([0, 0, 0], 0) == b""
    assert unpack_indices(b"", 0, 3).tolist() == [0, 0, 0]
    with pytest.raises(ValidationError):
        pack_indices([1], 0)


def test_out_of_range_index_reports_position():
    with pytest.raises(ValidationError, match="position 2"):
        pack_indices([1, 2, 9], 3)


def test_short_stream_rejected():
    with pytest.raises(ValidationError):
        unpack_indices(bytes([0xAB]), 5, 2)


def test_padding_is_zero():
    packed = pack_indices([0b11111], 5)
    assert packed[0] & 0b00000111 == 0
