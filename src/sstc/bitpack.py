"""Fixed-width big-endian bit packing for index streams.

Indices are written most-significant-bit first with no padding between
values; the final byte is zero-padded.  Example: [5] at 5 bits packs to the
single byte 0x28 (bits 00101 followed by three pad zeros).
"""

import functools

import numpy as np

from .errors import ValidationError


@functools.lru_cache(maxsize=None)
def _group_layout(b: int):
    """Where `pack_indices` puts the j-th field of each group of 8 at ``b``
    bits: ``(starts, left, right, spills)``.  Below 8 bits a group fills the
    top b bytes of one big-endian word and ``starts`` is None; wider, the
    field is ORed into the big-endian 64-bit window at byte ``starts[j]`` of
    its group.  The field goes ``left[j]`` bits up, or ``right[j]`` down when
    it runs past the window (widths above 57): its low bits then go to the
    spill byte after the window, as ``(j, byte, shift)`` in ``spills``."""
    if b < 8:
        left = np.array([64 - b * (j + 1) for j in range(8)], dtype=np.uint64)
        return None, left, None, ()
    starts, bits = zip(*(divmod(j * b, 8) for j in range(8)))
    over = [bit + b - 64 for bit in bits]
    left = np.array([max(-o, 0) for o in over], dtype=np.uint64)
    right = np.array([max(o, 0) for o in over], dtype=np.uint64) if max(over) > 0 else None
    spills = tuple((j, starts[j] + 8, np.uint64(8 - o)) for j, o in enumerate(over) if o > 0)
    return starts, left, right, spills


def pack_indices(indices, bits_per_index: int) -> bytes:
    """Pack ``indices`` into an MSB-first bitstream of fixed-width fields.

    ``indices`` are non-negative integers below 2^bits_per_index; uint64
    ones may take the full 64 bits, any other integers are read as int64.
    Byte widths are the indices cast to big-endian unsigned words.  Other
    widths pad the indices to whole groups of 8 fields, which span exactly
    b bytes (the layout `unpack_indices` reads), shift each field to its
    place in uint64 words (`_group_layout`) and OR them into the group's
    bytes, one strided pass per field of the group.
    """
    if not 0 <= bits_per_index <= 64:
        raise ValidationError(f"bits_per_index must lie in [0, 64], got {bits_per_index}")
    idx = np.atleast_1d(np.asarray(indices))
    if idx.dtype != np.uint64:
        idx = idx.astype(np.int64, copy=False)
    if idx.ndim != 1:
        raise ValidationError("indices must be one-dimensional")
    b = bits_per_index
    # as uint64 a negative int64 index is at least 2^63, so one max checks both ends
    wide = idx.view(np.uint64)
    limit = 1 << b if idx.dtype == np.uint64 else min(1 << b, 1 << 63)
    if idx.size and int(wide.max()) >= limit:
        pos = int(np.argmax(wide >= np.uint64(limit)))
        raise ValidationError(f"index {int(idx[pos])} at position {pos} does not fit in {b} bits")
    count = idx.size
    if count == 0 or b == 0:
        return b""
    if b in (8, 16, 32, 64):
        return wide.astype(f">u{b // 8}").tobytes()
    needed = (count * b + 7) // 8
    groups = -(-count // 8)
    fields = np.zeros((groups, 8), dtype=np.uint64)
    fields.reshape(-1)[:count] = wide
    starts, left, right, spills = _group_layout(b)
    if starts is None:
        fields <<= left
        word = fields[:, 0].copy()
        for field in fields.T[1:]:
            word |= field
        word.byteswap(inplace=True)
        return word.view(np.uint8).reshape(groups, 8)[:, :b].tobytes()[:needed]
    # zero-padded so the last group's windows and spill bytes stay in bounds
    buf = np.zeros(groups * b + 9, dtype=np.uint8)
    for j, byte, shift in spills:
        spill = np.ndarray((groups,), dtype=np.uint8, buffer=buf, offset=byte, strides=(b,))
        np.left_shift(fields[:, j], shift, out=spill, casting="unsafe")
    fields <<= left
    if right is not None:
        fields >>= right
    # byte-swapped, a field ORs into a native window as into a big-endian one
    fields.byteswap(inplace=True)
    for byte, field in zip(starts, fields.T):
        window = np.ndarray((groups,), dtype=np.uint64, buffer=buf, offset=byte, strides=(b,))
        window |= field
    return buf[:needed].tobytes()


def unpack_indices(stream: bytes, bits_per_index: int, count: int) -> np.ndarray:
    """Exact inverse of `pack_indices`; returns ``count`` uint64 fields.

    Bytes past the ``count`` fields are ignored.  Byte widths are the bytes
    read as big-endian unsigned words.  Otherwise every 8 fields span
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
        return np.zeros(count, dtype=np.uint64)
    data = np.frombuffer(stream, dtype=np.uint8)
    needed_bytes = (count * bits_per_index + 7) // 8
    if data.size < needed_bytes:
        raise ValidationError(
            f"stream holds {data.size * 8} bits, need {count * bits_per_index} "
            f"for {count} indices"
        )
    b = bits_per_index
    if b in (8, 16, 32, 64):
        return data[:needed_bytes].view(f">u{b // 8}").astype(np.uint64)
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
    return out.T.ravel()[:count]
