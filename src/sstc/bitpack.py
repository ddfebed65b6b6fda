"""Fixed-width big-endian bit packing for index streams.

Indices are written most-significant-bit first with no padding between
values; the final byte is zero-padded.  Example: [5] at 5 bits packs to the
single byte 0x28 (bits 00101 followed by three pad zeros).
"""

import numpy as np

from .errors import ValidationError


def pack_indices(indices, bits_per_index: int) -> bytes:
    """Pack ``indices`` into an MSB-first bitstream of fixed-width fields."""
    if bits_per_index < 0:
        raise ValidationError(f"bits_per_index must be non-negative, got {bits_per_index}")
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    if idx.ndim != 1:
        raise ValidationError("indices must be one-dimensional")
    limit = 1 << bits_per_index
    bad = (idx < 0) | (idx >= limit)
    if np.any(bad):
        pos = int(np.argmax(bad))
        raise ValidationError(
            f"index {int(idx[pos])} at position {pos} does not fit in {bits_per_index} bits"
        )
    if idx.size == 0 or bits_per_index == 0:
        return b""
    shifts = np.arange(bits_per_index - 1, -1, -1, dtype=np.int64)
    bits = ((idx[:, np.newaxis] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_indices(stream: bytes, bits_per_index: int, count: int) -> np.ndarray:
    """Exact inverse of `pack_indices`; returns ``count`` int64 indices."""
    if bits_per_index < 0 or count < 0:
        raise ValidationError("bits_per_index and count must be non-negative")
    if count == 0 or bits_per_index == 0:
        return np.zeros(count, dtype=np.int64)
    needed_bits = count * bits_per_index
    buf = np.frombuffer(stream, dtype=np.uint8)
    if buf.size * 8 < needed_bits:
        raise ValidationError(
            f"stream holds {buf.size * 8} bits, need {needed_bits} for {count} indices"
        )
    bits = np.unpackbits(buf, count=needed_bits).reshape(count, bits_per_index)
    weights = (np.int64(1) << np.arange(bits_per_index - 1, -1, -1, dtype=np.int64))
    return bits.astype(np.int64) @ weights
