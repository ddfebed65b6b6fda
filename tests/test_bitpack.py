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


def shift_pack(indices, bits_per_index):
    """Reference: each field's bits cut by shifts, one row per index."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0 or bits_per_index == 0:
        return b""
    shifts = np.arange(bits_per_index - 1, -1, -1, dtype=np.int64)
    bits = ((idx[:, np.newaxis] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


@pytest.mark.parametrize("bits", range(40))
def test_pack_matches_the_shift_packer(bits):
    rng = np.random.default_rng(bits)
    ones = (1 << bits) - 1
    for count in (0, 1, 2, 3, 7, 8, 9, 31, 100):
        xs = rng.integers(0, ones + 1, size=count)
        xs[::3] = ones  # all ones, the widest field
        assert pack_indices(xs, bits) == shift_pack(xs, bits)


def test_pack_rejects_a_width_over_64_bits():
    with pytest.raises(ValidationError, match=r"must lie in \[0, 64\], got 65"):
        pack_indices([1], 65)


def bit_unpack(stream, bits_per_index, count):
    """Reference: each field read off the stream's MSB-first bit string,
    wrapping to int64 like two's complement."""
    text = "".join(f"{byte:08b}" for byte in stream)
    out = []
    for i in range(count):
        value = int(text[i * bits_per_index:(i + 1) * bits_per_index] or "0", 2)
        out.append(value - (1 << 64) if value >= 1 << 63 else value)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("bits", range(65))
def test_unpack_matches_the_bit_by_bit_reference(bits):
    rng = np.random.default_rng(1000 + bits)
    for count in range(101):
        stream = rng.integers(0, 256, size=(count * bits + 7) // 8, dtype=np.uint8).tobytes()
        want = bit_unpack(stream, bits, count)
        for extra in (b"", b"\xff", bytes(rng.integers(0, 256, size=9, dtype=np.uint8))):
            got = unpack_indices(stream + extra, bits, count)
            assert got.dtype == np.int64 and got.shape == (count,)
            assert np.array_equal(got, want), (count, extra)


def test_unpack_rejects_widths_and_counts_pack_cannot_write():
    with pytest.raises(ValidationError, match=r"must lie in \[0, 64\], got 65"):
        unpack_indices(bytes(9), 65, 1)
    with pytest.raises(ValidationError, match=r"must lie in \[0, 64\], got -1"):
        unpack_indices(b"", -1, 0)
    with pytest.raises(ValidationError, match="count must be non-negative, got -1"):
        unpack_indices(b"", 3, -1)
