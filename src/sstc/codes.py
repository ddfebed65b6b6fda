"""Structured sparse ternary (N, K) codes.

A code is the set of all length-``n`` vectors over {-1, 0, +1} with at most
``k`` non-zero entries.  Entries are enumerated in a fixed canonical order:
lexicographic over the trit sequence read left to right, with digit order
0 < +1 < -1.  Under this order the (4, 1) code enumerates as

    (0,0,0,0), (0,0,0,+1), (0,0,0,-1), (0,0,+1,0), (0,0,-1,0),
    (0,+1,0,0), (0,-1,0,0), (+1,0,0,0), (-1,0,0,0)

The code is defined once, by its rank table.  Ranking (vector -> index)
is enumerative coding (Cover, 1973) in closed form.  Under the digit order
0 < +1 < -1 a zero puts no entry below its vector, so a rank is a sum over
the vector's non-zeros alone: a non-zero at position p, after c non-zeros,
adds R[digit, p, c], the number of entries that agree with the vector
before p and hold a smaller trit at p.  R is one cached (3, n, k + 1)
int64 table per code, at most 14.4 KB.  Unranking (index -> vector), the
one sst decoder, is the inverse walk over R (`_walk`).  A code with at most
`ENTRY_TABLE_LIMIT` = 2^16 entries, every code of the paper's Table I among
them, decodes as the paper does, by one gather of int8 rows from its
T-entry table, the walk's cached output (at most 1.5 MB per code, 8
codes); a larger code walks each index and builds nothing else.  A built
`CodeTable` holds every entry's trits as a capped reference enumeration for
the tests, demo 01 and the benchmark.

Sub-vector layout.  A (rows, cols) weight matrix is cut into length-n
sub-vectors in one of two orientations, and +1/-1 may sit only inside
these fixed groups:

    column   n consecutive rows within one column; the grouped dimension
             is rows.  Payload order: columns outermost, then the groups
             of each column from the top.
    row      n consecutive columns within one row; the grouped dimension
             is cols.  Payload order: rows outermost, then the groups of
             each row from the left.

For example, the 4x2 matrix [[a, e], [b, f], [c, g], [d, h]] at n = 2 gives
(a, b), (c, d), (e, f), (g, h) in column orientation and (a, e), (b, f),
(c, g), (d, h) in row orientation.  This module is the only place the
layout is written down, and `grouped_shape` is its one check.
`grouped_view` is the (B, n, C) view of a matrix whose axis 1 runs along
each sub-vector, and `to_payload_order` / `from_payload_order` move a
(B, C) grid of per-sub-vector values to and from payload order
(column-outer, ``grid.T.ravel()``); `rank_grouped` and
`unrank_grouped` code sub-vectors in that view, so no payload-order copy
of the matrix is needed.  `subvectors` and `from_subvectors` cut a matrix
into, and rebuild it from, its (count, n) payload-order groups.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ValidationError

# Table memory is 2*n*T bits and must stay addressable; sub-vector lengths
# beyond 24 have no practical use here.
MAX_SUBVECTOR_LEN = 24

# build_table, the reference enumeration, refuses tables above this entry count.
DEFAULT_ENTRY_CAP = 1 << 20

# codes with at most this many entries unrank by one gather from their
# cached table of T int8 rows, at most 2^16 * 24 B = 1.5 MB
ENTRY_TABLE_LIMIT = 1 << 16

# Sub-vector orientations; a name's position is its .sstw wire tag.
ORIENTATIONS = ("column", "row")

# the trit of each base-3 digit, in canonical order
_TRITS = np.array([0, 1, -1], dtype=np.int8)


@dataclass(frozen=True)
class CodeParams:
    """Sub-vector length ``n`` and non-zero budget ``k`` of an (N, K) code."""

    n: int
    k: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not isinstance(self.k, (int, np.integer)):
            raise ValidationError(f"code parameters must be integers, got ({self.n!r}, {self.k!r})")
        if not 1 <= self.n <= MAX_SUBVECTOR_LEN:
            raise ValidationError(f"sub-vector length n={self.n} outside [1, {MAX_SUBVECTOR_LEN}]")
        if not 0 <= self.k <= self.n:
            raise ValidationError(f"non-zero budget k={self.k} outside [0, n={self.n}]")

    def __str__(self):
        return f"({self.n},{self.k})"


def count_entries(params: CodeParams) -> int:
    """Number of codewords T = sum_{i=0..k} C(n, i) * 2^i (exact)."""
    return sum(comb(params.n, i) * (1 << i) for i in range(params.k + 1))


def address_bits(params: CodeParams) -> int:
    """Index width I = ceil(log2(T)) in bits; 0 for the single-entry code."""
    t = count_entries(params)
    return (t - 1).bit_length()


def table_storage_bits(params: CodeParams) -> int:
    """Table footprint S_T = 2 * n * T bits (two bits per stored trit)."""
    return 2 * params.n * count_entries(params)


def table_storage_kb(params: CodeParams) -> float:
    """S_T expressed in decimal kilobytes (1 KB = 1000 bytes)."""
    return table_storage_bits(params) / 8 / 1000


def grouped_shape(rows: int, cols: int, n: int, orientation: str) -> tuple:
    """The (B, n, C) shape of a (rows, cols) matrix's grouped view.

    The one check of a layout: raises on an unknown orientation or when the
    grouped dimension is not divisible by n.
    """
    if orientation == "column":
        if rows % n:
            raise ValidationError(f"row count {rows} not divisible by n={n} for column orientation")
        return rows // n, n, cols
    if orientation == "row":
        if cols % n:
            raise ValidationError(f"column count {cols} not divisible by n={n} for row orientation")
        return rows * cols // n, n, 1
    raise _unknown_orientation(orientation)


def grouped_view(matrix, params: CodeParams, orientation: str) -> np.ndarray:
    """The (B, n, C) grouped view of a 2-D ``matrix``: sub-vector (b, c) is [b, :, c].

    Column orientation gives ``matrix.reshape(rows // n, n, cols)``, row
    orientation ``matrix.reshape(-1, n, 1)``.  Each sub-vector lies along
    axis 1, so work along that axis needs no payload-order copy; only the
    (B, C) grid of per-sub-vector results is put in payload order
    (`to_payload_order`).  Raises on an unknown orientation or when the
    grouped dimension is not divisible by n.  The result is a view of a
    C-contiguous ``matrix``.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={m.ndim}")
    return m.reshape(grouped_shape(*m.shape, params.n, orientation))


def to_payload_order(grid) -> np.ndarray:
    """The entries of a (B, C) grid of per-sub-vector values in payload order.

    Payload order reads the grid column-outer, ``grid.T.ravel()``: for
    column orientation, columns outermost and the groups of each column
    from the top; for row orientation (C = 1), the groups in row-major
    order.
    """
    return np.asarray(grid).T.ravel()


def from_payload_order(values, rows: int, cols: int, params: CodeParams,
                       orientation: str) -> np.ndarray:
    """Inverse of `to_payload_order`: the (B, C) grid of a (rows, cols)
    matrix's payload-order per-sub-vector ``values``, as a view."""
    b, _, c = grouped_shape(rows, cols, params.n, orientation)
    return np.asarray(values).reshape(c, b).T


def subvectors(matrix, params: CodeParams, orientation: str) -> np.ndarray:
    """The (count, n) sub-vectors of a 2-D ``matrix``, in payload order.

    Raises on an unknown orientation or when the grouped dimension is not
    divisible by n.  The result is a view of ``matrix`` where numpy can
    make one, otherwise a copy.
    """
    return grouped_view(matrix, params, orientation).transpose(2, 0, 1).reshape(-1, params.n)


def from_subvectors(groups, rows: int, cols: int, params: CodeParams,
                    orientation: str) -> np.ndarray:
    """Inverse of `subvectors`: the (rows, cols) matrix of payload-order groups.

    A column-oriented result of C-contiguous ``groups`` is a view whose
    transpose is C-contiguous.
    """
    b, n, c = grouped_shape(rows, cols, params.n, orientation)
    return np.asarray(groups).reshape(c, b, n).transpose(1, 2, 0).reshape(rows, cols)


def _unknown_orientation(orientation) -> ValidationError:
    return ValidationError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")


@lru_cache(maxsize=None)
def _suffix_counts(n: int, k: int) -> np.ndarray:
    """S[m, j] = number of length-m ternary vectors with at most j non-zeros.

    Recurrence over the leading trit: choose 0 (budget kept) or +-1 (budget
    spent), S[m, j] = S[m-1, j] + 2 * S[m-1, j-1].  Values fit in int64 for
    n <= 24 since S[24, 24] = 3^24 < 2^63.
    """
    s = np.ones((n + 1, k + 1), dtype=np.int64)
    for m in range(1, n + 1):
        for j in range(1, k + 1):
            s[m, j] = s[m - 1, j] + 2 * s[m - 1, j - 1]
    s.flags.writeable = False  # every caller shares it
    return s


def _as_trit_matrix(vectors, n: int) -> np.ndarray:
    v = np.asarray(vectors)
    if v.ndim == 1:
        v = v[np.newaxis, :]
    if v.ndim != 2 or v.shape[1] != n:
        raise ValidationError(f"expected sub-vectors of length {n}, got shape {v.shape}")
    t = v.astype(np.int8, copy=False)
    if t is not v and not np.array_equal(t, v):
        raise ValidationError("sub-vector entries must be integral trits")
    if np.any((t < -1) | (t > 1)):
        raise ValidationError("sub-vector entries must lie in {-1, 0, +1}")
    return t


@lru_cache(maxsize=None)
def _rank_table(n: int, k: int) -> np.ndarray:
    """R[d, p, c]: what a trit of base-3 digit d at position p, after c non-zeros, adds to a rank.

    An entry ranks below a vector v when it agrees with v up to some
    position p and has a smaller digit there.  With c non-zeros before p,
    the m = n - 1 - p positions after it take at most k - c non-zeros behind
    a 0 and k - c - 1 behind a +-1, so a +1 at p ranks above S[m, k - c]
    entries, a -1 above S[m, k - c] + S[m, k - c - 1], and a 0 above none
    (S is `_suffix_counts`).  A rank is the sum of R over a vector's
    non-zeros.  Column c = k follows a spent budget: a rank reads it only
    at d = 0, and the unrank walk, whose remaining index is 0 there, finds
    its d = 1 and d = 2 entries (both 1) out of reach.
    """
    table = np.zeros((3, n, k + 1), dtype=np.int64)
    table[1] = _suffix_counts(n, k)[n - 1::-1, ::-1]
    table[2] = table[1]
    table[2, :, :-1] += table[1, :, 1:]
    table.flags.writeable = False  # every caller shares it
    return table


def _rank_terms(table: np.ndarray, digit, position, before) -> np.ndarray:
    """``table[digit, position, before]`` of a `_rank_table`, elementwise, by one flat take."""
    _, n, width = table.shape
    return table.ravel().take((digit * np.intp(n) + position) * width + before)


# a process uses a handful of codes; each table is at most 1.5 MB
@lru_cache(maxsize=8)
def _entry_table(n: int, k: int) -> np.ndarray:
    """The read-only (T, n) int8 entries of the (n, k) code, in canonical
    order: `_walk` of every index."""
    table = _walk(np.arange(count_entries(CodeParams(n, k))), n, k)
    table.flags.writeable = False  # every caller shares it
    return table


def rank_subvectors(vectors, params: CodeParams) -> np.ndarray:
    """Canonical rank of each row of ``vectors`` under ``params``.

    Accepts a single vector or a (count, n) matrix; returns int64 ranks.
    Raises if any row exceeds the non-zero budget.
    """
    t = _as_trit_matrix(vectors, params.n)
    nnz = np.count_nonzero(t, axis=1)
    if np.any(nnz > params.k):
        pos = int(np.argmax(nnz > params.k))
        raise ValidationError(
            f"sub-vector {pos} has {int(nnz[pos])} non-zeros, exceeding k={params.k}"
        )
    table = _rank_table(params.n, params.k)
    # base-3 digits 0, 1, 2 of the trits 0, +1, -1 (as bytes 0, 1, 255), one row per position
    digits = np.ascontiguousarray(np.minimum(t.view(np.uint8), 2).T)
    before = np.zeros(t.shape[0], dtype=np.intp)
    ranks = np.zeros(t.shape[0], dtype=np.int64)
    for position, digit in enumerate(digits):
        ranks += _rank_terms(table, digit, position, before)
        before += digit != 0
    return ranks


def rank_grouped(positions, digits, params: CodeParams) -> np.ndarray:
    """Canonical ranks of sub-vectors given by the positions of their trits.

    ``positions`` and ``digits`` are (r, ...) integer arrays with r <= k:
    round j holds, per sub-vector, a position along it and the base-3 digit
    of its trit there (0 for 0, 1 for +1, 2 for -1).  The positions of a
    sub-vector's non-zero digits must be distinct; a round of digit 0 adds
    nothing and may repeat a position.  Every position not listed holds 0.
    Returns the int64 ranks, of shape ``positions.shape[1:]``, that
    `rank_subvectors` gives for those sub-vectors written out as trits.
    """
    table = _rank_table(params.n, params.k)
    positions = np.asarray(positions)
    nonzero = np.not_equal(digits, 0)
    ranks = np.zeros(positions.shape[1:], dtype=np.int64)
    for j, (position, digit) in enumerate(zip(positions, digits)):
        # the non-zeros of the other rounds that lie before this one
        before = sum(nonzero[i] & (other < position)
                     for i, other in enumerate(positions) if i != j)
        ranks += _rank_terms(table, digit, position, before)
    return ranks


def unrank_subvectors(indices, params: CodeParams) -> np.ndarray:
    """Inverse of `rank_subvectors`: canonical entry for each index.

    Accepts a scalar or 1-D array of indices; returns an int8 (count, n)
    matrix.  Raises on indices outside [0, T).
    """
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    t_total = count_entries(params)
    if np.any((idx < 0) | (idx >= t_total)):
        bad = int(idx[np.argmax((idx < 0) | (idx >= t_total))])
        raise ValidationError(f"index {bad} outside [0, {t_total})")
    return _unrank(idx, params)


def unrank_grouped(grid, params: CodeParams, scale, out=None) -> np.ndarray:
    """``scale`` times the canonical entries of a (B, C) grid of indices.

    The grouped-view counterpart of `unrank_subvectors`: returns the
    (B, n, C) array, in the dtype of the numpy scalar ``scale``, whose
    [b, :, c] is entry ``grid[b, c]`` times ``scale``.  Reshaped to
    (rows, cols) it is the C-ordered matrix of a payload's indices laid out
    by `from_payload_order`.  When given, ``out`` is that (B, n, C) array,
    filled and returned.  Every index must lie in [0, T); this is not
    checked here (`store.EncodedLayer` checks a payload's words, and so
    its indices, as it is built).
    """
    trits = _unrank(np.asarray(grid), params)
    if out is None:
        out = np.empty((trits.shape[0], params.n, trits.shape[1]),
                       dtype=np.asarray(scale).dtype)
    np.multiply(trits.transpose(0, 2, 1), scale, out=out)
    return out


def _unrank(idx: np.ndarray, params: CodeParams) -> np.ndarray:
    """The int8 entries of in-range indices, of shape ``idx.shape + (n,)``.

    A code of at most `ENTRY_TABLE_LIMIT` entries gathers them from its
    entry table, a larger one walks them (`_walk`).
    """
    if count_entries(params) <= ENTRY_TABLE_LIMIT:
        return _entry_table(params.n, params.k).take(idx, axis=0)
    return _walk(idx, params.n, params.k)


def _walk(idx: np.ndarray, n: int, k: int) -> np.ndarray:
    """The int8 entries of in-range indices of the (n, k) code.

    The inverse of ranking visits the positions in order: the digit at a
    position is the largest d whose rank term R[d, position, c] the
    remaining index reaches, which is then taken off it.
    """
    table = _rank_table(n, k)
    rest = idx.astype(np.int64)
    before = np.zeros(idx.shape, dtype=np.intp)
    out = np.empty(idx.shape + (n,), dtype=np.int8)
    for position in range(n):
        digit = ((rest >= _rank_terms(table, 1, position, before)).view(np.uint8)
                 + (rest >= _rank_terms(table, 2, position, before)))
        rest -= _rank_terms(table, digit, position, before)
        before += digit != 0
        out[..., position] = _TRITS[digit]
    return out


@dataclass
class CodeTable:
    """Materialized canonical enumeration of an (N, K) code.

    ``trits`` holds entry i as dense int8 row i, a (T, n) matrix.
    """

    params: CodeParams
    trits: np.ndarray = field(repr=False)


def build_table(params: CodeParams, entry_cap: int = DEFAULT_ENTRY_CAP) -> CodeTable:
    """Enumerate all codewords of ``params`` in canonical order.

    Refuses tables larger than ``entry_cap`` entries (default 2^20); pass a
    larger cap explicitly to override.
    """
    t_total = count_entries(params)
    if t_total > entry_cap:
        raise ValidationError(
            f"code {params} has {t_total} entries, above the entry cap {entry_cap}; "
            "raise entry_cap to force the build"
        )
    return CodeTable(params, unrank_subvectors(np.arange(t_total, dtype=np.int64), params))
