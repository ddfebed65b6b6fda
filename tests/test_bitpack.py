"""Bit packing of index streams."""

import numpy as np
import pytest

from sstc.bitpack import pack_indices, unpack_indices
from sstc.errors import ValidationError

from conftest import reference_pack


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


@pytest.mark.parametrize("bits", range(1, 65))
def test_packed_chunks_of_multiples_of_8_indices_join_to_the_whole_packing(bits):
    # 8 fields of any width fill whole bytes, so chunks pack byte-aligned
    rng = np.random.default_rng(bits)
    idx = rng.integers(0, 1 << min(bits, 63), size=203)
    idx[:2] = [0, (1 << min(bits, 63)) - 1]
    cuts = [0, 8, 24, 64, 160, 203]
    chunks = [pack_indices(idx[a:b], bits) for a, b in zip(cuts, cuts[1:])]
    assert b"".join(chunks) == pack_indices(idx, bits)


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
    """Reference: each field read off the stream's MSB-first bit string."""
    text = "".join(f"{byte:08b}" for byte in stream)
    out = [int(text[i * bits_per_index:(i + 1) * bits_per_index] or "0", 2)
           for i in range(count)]
    return np.array(out, dtype=np.uint64)


@pytest.mark.parametrize("bits", range(65))
def test_unpack_matches_the_bit_by_bit_reference(bits):
    rng = np.random.default_rng(1000 + bits)
    for count in range(101):
        stream = rng.integers(0, 256, size=(count * bits + 7) // 8, dtype=np.uint8).tobytes()
        want = bit_unpack(stream, bits, count)
        for extra in (b"", b"\xff", bytes(rng.integers(0, 256, size=9, dtype=np.uint8))):
            got = unpack_indices(stream + extra, bits, count)
            assert got.dtype == np.uint64 and got.shape == (count,)
            assert np.array_equal(got, want), (count, extra)


def test_unpack_rejects_widths_and_counts_pack_cannot_write():
    with pytest.raises(ValidationError, match=r"must lie in \[0, 64\], got 65"):
        unpack_indices(bytes(9), 65, 1)
    with pytest.raises(ValidationError, match=r"must lie in \[0, 64\], got -1"):
        unpack_indices(b"", -1, 0)
    with pytest.raises(ValidationError, match="count must be non-negative, got -1"):
        unpack_indices(b"", 3, -1)


@pytest.mark.parametrize("bits", range(65))
def test_pack_is_byte_equal_to_the_bit_matrix_reference(bits):
    # widths 58-63 run fields past their 64-bit windows into the spill byte
    rng = np.random.default_rng(2000 + bits)
    top = (1 << min(bits, 63)) - 1  # an int64 holds at most 63 bits of index
    for count in (0, 1, 7, 8, 9, 31, 769, 32_768, 32_771):
        xs = rng.integers(0, 1 << 63, size=count, dtype=np.uint64) >> np.uint64(63 - min(bits, 63))
        xs = xs.astype(np.int64)
        xs[:2] = [0, top][:count]
        if count > 2:
            xs[-2:] = [top, 0]
        assert pack_indices(xs, bits) == reference_pack(xs, bits), count


@pytest.mark.parametrize("count", [1, 7, 8, 9, 203])
def test_64_bit_words_with_the_top_bit_set_round_trip(count):
    # the base-T words of (8,2) and (16,2) reach 129^9 and 513^7, over 2^63
    rng = np.random.default_rng(count)
    words = rng.integers(0, 1 << 64, size=count, dtype=np.uint64, endpoint=False)
    words[0] = np.uint64((1 << 64) - 1)
    words[-1] |= np.uint64(1 << 63)
    packed = pack_indices(words, 64)
    assert packed == b"".join(int(w).to_bytes(8, "big") for w in words)
    got = unpack_indices(packed, 64, count)
    assert got.dtype == np.uint64 and np.array_equal(got, words)
    # at 63 bits each word straddles bytes
    for bits in (63, 64):
        top = words >> np.uint64(64 - bits)
        assert np.array_equal(unpack_indices(pack_indices(top, bits), bits, count), top)


def test_int64_indices_stay_below_2_to_the_63():
    # only uint64 words may set the top bit: a negative int64 is rejected
    with pytest.raises(ValidationError, match="index -1 at position 1 does not fit in 64 bits"):
        pack_indices(np.array([3, -1], dtype=np.int64), 64)
    assert pack_indices(np.array([1 << 63], dtype=np.uint64), 64) == b"\x80" + bytes(7)
    with pytest.raises(ValidationError, match="does not fit in 63 bits"):
        pack_indices(np.array([1 << 63], dtype=np.uint64), 63)
