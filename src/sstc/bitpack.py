"""Fixed-width big-endian bit packing for index streams.

Indices are written most-significant-bit first with no padding between
values; the final byte is zero-padded.  Example: [5] at 5 bits packs to the
single byte 0x28 (bits 00101 followed by three pad zeros).
"""

import numpy as np

from .errors import ValidationError


def pack_indices(indices, bits_per_index: int) -> bytes:
    """Pack ``indices`` into an MSB-first bitstream of fixed-width fields."""
    if not 0 <= bits_per_index <= 64:
        raise ValidationError(f"bits_per_index must lie in [0, 64], got {bits_per_index}")
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
    # the bits of the smallest big-endian unsigned width that holds a
    # field, less its unused high bits
    width = next(w for w in (8, 16, 32, 64) if w >= bits_per_index)
    wide = idx.astype(f">u{width // 8}").view(np.uint8)
    bits = np.unpackbits(wide).reshape(idx.size, width)[:, width - bits_per_index:]
    return np.packbits(bits).tobytes()


def unpack_indices(stream: bytes, bits_per_index: int, count: int) -> np.ndarray:
    """Exact inverse of `pack_indices`; returns ``count`` int64 indices.

    Bytes past the ``count`` fields are ignored.  Every 8 fields span
    exactly ``bits_per_index`` bytes, so the j-th field of each group of 8
    starts at the same byte and bit within its group.  A field is read as
    the big-endian 64-bit window at its first byte (one strided view per
    j), shifted left past the bits before it, completed from the next byte
    where it runs past the window (widths above 57), and shifted down to
    its width.
    """
    if not 0 <= bits_per_index <= 64:
        raise ValidationError(f"bits_per_index must lie in [0, 64], got {bits_per_index}")
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    if count == 0 or bits_per_index == 0:
        return np.zeros(count, dtype=np.int64)
    data = np.frombuffer(stream, dtype=np.uint8)
    needed_bytes = (count * bits_per_index + 7) // 8
    if data.size < needed_bytes:
        raise ValidationError(
            f"stream holds {data.size * 8} bits, need {count * bits_per_index} "
            f"for {count} indices"
        )
    b = bits_per_index
    groups = -(-count // 8)
    # zero-padded so the last group's windows and spill bytes stay in bounds
    buf = np.zeros(groups * b + 9, dtype=np.uint8)
    buf[:needed_bytes] = data[:needed_bytes]
    out = np.empty((8, groups), dtype=np.uint64)
    for j, field in enumerate(out):
        byte, bit = divmod(j * b, 8)
        window = np.ndarray((groups,), dtype=">u8", buffer=buf, offset=byte, strides=(b,))
        np.left_shift(window, bit, out=field, dtype=np.uint64)
        if bit + b > 64:
            spill = np.ndarray((groups,), dtype=np.uint8, buffer=buf, offset=byte + 8,
                               strides=(b,))
            field |= spill >> (8 - bit)
        field >>= 64 - b
    # a 64-bit field with its top bit set wraps, as in int64 arithmetic
    return out.T.ravel()[:count].view(np.int64)
