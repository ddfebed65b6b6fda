"""Structured sparse ternary (N, K) codes.

A code is the set of all length-``n`` vectors over {-1, 0, +1} with at most
``k`` non-zero entries.  Entries are enumerated in a fixed canonical order:
lexicographic over the trit sequence read left to right, with digit order
0 < +1 < -1.  Under this order the (4, 1) code enumerates as

    (0,0,0,0), (0,0,0,+1), (0,0,0,-1), (0,0,+1,0), (0,0,-1,0),
    (0,+1,0,0), (0,-1,0,0), (+1,0,0,0), (-1,0,0,0)

Unranking (index -> vector) is the one sst decoder, for every valid code.
A code with at most `ENTRY_TABLE_LIMIT` = 2^16 entries, every code of the
paper's Table I among them, is decoded as the paper decodes it, by table
lookup: one gather of int8 rows from its T-entry table, enumerated directly
and cached (at most 1.5 MB per code, 8 codes).  Ranking (vector -> index)
and the unranking of larger codes use enumerative coding (Cover, 1973)
split at the middle, h = n // 2.  A vector's rank is the rank of the first
entry with its h-trit prefix, plus the rank of its (n - h)-trit suffix
among the suffixes that the prefix's remaining budget admits.  Each half is
looked up by its base-3 code in tables of 3^h and (budgets x 3^(n-h))
entries, built once per code and cached: 214 KB for (16, 3) and 44.6 MB
for (24, 24) (78.7 MB for (24, 12), the largest).  Unranking a code above
the table limit finds the prefix with one binary search over the prefix
offsets, then gathers both halves' trits.  A built `CodeTable` holds every
entry's trits as a capped reference enumeration for the tests, demo 01 and
the benchmark.

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
layout is written down.  `grouped_view` is the (B, n, C) view of a matrix
whose axis 1 runs along each sub-vector, and `to_payload_order` /
`from_payload_order` move a (B, C) grid of per-sub-vector values to and
from payload order (column-outer, ``grid.T.ravel()``); `rank_grouped` and
`unrank_grouped` code sub-vectors in that view, so no payload-order copy
of the matrix is needed.  `subvectors` and `from_subvectors` cut a matrix
into, and rebuild it from, its (count, n) payload-order groups.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import NamedTuple

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


def _grouped_shape(rows: int, cols: int, n: int, orientation: str) -> tuple:
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
    return m.reshape(_grouped_shape(*m.shape, params.n, orientation))


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
    b, _, c = _grouped_shape(rows, cols, params.n, orientation)
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
    b, n, c = _grouped_shape(rows, cols, params.n, orientation)
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


class _HalfTables(NamedTuple):
    """Two-level enumeration tables of one (n, k) code; see `_half_tables`."""

    powers: np.ndarray        # float32 3^(m-1) .. 3^0, the base-3 place values
    off_left: np.ndarray      # int64 per prefix code: rank of its first entry
    right_row: np.ndarray     # int32 per prefix code: start of its budget's rank_right row
    rank_right: np.ndarray    # int32 per (budget, suffix code): rank among that budget's suffixes
    left_start: np.ndarray    # int64 per valid prefix, ascending: its off_left
    shift: np.ndarray         # int64 per valid prefix: its budget's unrank_right start - left_start
    left_rows: np.ndarray     # void-n per valid prefix: its trits, then n - h zeros
    unrank_right: np.ndarray  # int32 per budget, concatenated: its suffixes' right_rows positions
    right_rows: np.ndarray    # void-n per suffix within the largest budget: h zeros, its trits


def _void_rows(rows: np.ndarray) -> np.ndarray:
    # one opaque item per int8 row, so a row gather is a single fancy index
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()


# a process uses a handful of codes; the bound caps the cache where
# one n = 24 code's tables reach 79 MB
@lru_cache(maxsize=8)
def _half_tables(n: int, k: int) -> _HalfTables:
    """The (n, k) code split into an h = n // 2 trit prefix and an m = n - h suffix.

    A half is named by its base-3 code, digits 0 -> 0, +1 -> 1, -1 -> 2 read
    most significant first, so code order is canonical order.  An entry with
    prefix p ranks after every entry whose valid prefix precedes p, and
    among the suffixes with at most k - nnz(p) non-zeros.  Budgets of m and
    above admit every suffix and share one table.
    """
    h = n // 2
    m = n - h
    size = 3 ** m
    digits = np.indices((3,) * m, dtype=np.int8).reshape(m, size)
    nnz = np.count_nonzero(digits, axis=0)
    trits = np.array([0, 1, -1], dtype=np.int8)[digits.T]
    # prefix code c < 3^h has the trits of suffix code c after m - h leading zeros
    budget = k - nnz[:3 ** h]
    valid = budget >= 0
    s = _suffix_counts(n, k)
    width = np.where(valid, s[m, np.maximum(budget, 0)], 0)
    off_left = np.cumsum(width) - width
    # the suffix budgets a valid prefix leaves, capped at m, one table row each
    lo, hi = max(0, k - h), min(k, m)
    row = np.clip(budget, lo, hi) - lo
    fits = nnz <= np.arange(lo, hi + 1)[:, np.newaxis]
    rank_right = (np.cumsum(fits, axis=1, dtype=np.int32) - fits).ravel()
    kept = np.flatnonzero(fits[-1])  # suffix codes that some entry uses
    counts = s[m, lo:hi + 1]
    prefixes = np.flatnonzero(valid)
    left = np.zeros((prefixes.size, n), dtype=np.int8)
    left[:, :h] = trits[prefixes, m - h:]
    right = np.zeros((kept.size, n), dtype=np.int8)
    right[:, h:] = trits[kept]
    tables = _HalfTables(
        powers=3.0 ** np.arange(m - 1, -1, -1, dtype=np.float32),
        off_left=off_left,
        right_row=(row * size).astype(np.int32),
        rank_right=rank_right,
        left_start=off_left[prefixes],
        shift=(np.cumsum(counts) - counts)[row[prefixes]] - off_left[prefixes],
        left_rows=_void_rows(left),
        unrank_right=np.nonzero(fits[:, kept])[1].astype(np.int32),
        right_rows=_void_rows(right),
    )
    for table in tables:
        table.flags.writeable = False  # every caller shares these arrays
    return tables


# a process uses a handful of codes; each table is at most 1.5 MB
@lru_cache(maxsize=8)
def _entry_table(n: int, k: int) -> np.ndarray:
    """The read-only (T, n) int8 entries of the (n, k) code, in canonical order.

    Enumerated one leading trit at a time, as `_suffix_counts` counts them:
    the length-m vectors with at most j non-zeros are the length-(m - 1)
    ones with at most j behind a 0, then those with at most j - 1 behind a
    +1, then behind a -1.  No intermediate list exceeds T rows.
    """
    lists = [np.zeros((1, 0), dtype=np.int8)] * (k + 1)  # per budget j, at length m
    for m in range(1, n + 1):
        grown = []
        for j in range(k + 1):
            if j > m:  # a length-m vector has at most m non-zeros
                grown.append(grown[m])
                continue
            tails = [lists[j]] + [lists[j - 1]] * (2 if j else 0)
            leads = np.repeat(np.array([0, 1, -1][:len(tails)], dtype=np.int8),
                              [len(tail) for tail in tails])
            grown.append(np.column_stack([leads, np.concatenate(tails)]))
        lists = grown
    table = lists[k]
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
    tab = _half_tables(params.n, params.k)
    h = params.n // 2
    # base-3 digits 0, 1, 2 of the trits 0, +1, -1 (as bytes 0, 1, 255);
    # every partial sum of place values is an integer below 3^12 < 2^24, so
    # float32 products are exact
    digits = np.minimum(t.view(np.uint8), 2, dtype=np.float32)
    left = (digits[:, :h] @ tab.powers[params.n - 2 * h:]).astype(np.intp)
    right = (digits[:, h:] @ tab.powers).astype(np.intp)
    return _rank_halves(tab, left, right)


def rank_grouped(positions, digits, params: CodeParams) -> np.ndarray:
    """Canonical ranks of sub-vectors given by the positions of their trits.

    ``positions`` and ``digits`` are (r, ...) integer arrays with r <= k:
    round j holds, per sub-vector, a position along it and the base-3 digit
    of its trit there (0 for 0, 1 for +1, 2 for -1).  The positions of one
    sub-vector must be distinct; every position not listed holds 0.
    Returns the int64 ranks, of shape ``positions.shape[1:]``, that
    `rank_subvectors` gives for those sub-vectors written out as trits.
    """
    tab = _half_tables(params.n, params.k)
    h = params.n // 2
    # a position's place value within its half, 0 in the other half
    left_place = np.zeros(params.n, dtype=np.intp)
    left_place[:h] = tab.powers[params.n - 2 * h:]
    right_place = np.zeros(params.n, dtype=np.intp)
    right_place[h:] = tab.powers
    positions = np.asarray(positions)
    left = np.zeros(positions.shape[1:], dtype=np.intp)
    right = np.zeros(positions.shape[1:], dtype=np.intp)
    for pos, digit in zip(positions, digits):
        left += digit * left_place[pos]
        right += digit * right_place[pos]
    return _rank_halves(tab, left, right)


def _rank_halves(tab: _HalfTables, left, right) -> np.ndarray:
    """Ranks of the entries whose prefix and suffix have base-3 codes ``left``, ``right``."""
    return tab.off_left[left] + tab.rank_right[tab.right_row[left] + right]


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


def unrank_grouped(grid, params: CodeParams, scale) -> np.ndarray:
    """``scale`` times the canonical entries of a (B, C) grid of indices.

    The grouped-view counterpart of `unrank_subvectors`: returns the
    (B, n, C) array, in the dtype of the numpy scalar ``scale``, whose
    [b, :, c] is entry ``grid[b, c]`` times ``scale``.  Reshaped to
    (rows, cols) it is the C-ordered matrix of a payload's indices laid out
    by `from_payload_order`.  Every index must lie in [0, T); this is not
    checked here (`store.layer_indices` checks a payload's indices).
    """
    trits = _unrank(np.asarray(grid), params)
    out = np.empty((trits.shape[0], params.n, trits.shape[1]), dtype=np.asarray(scale).dtype)
    np.multiply(trits.transpose(0, 2, 1), scale, out=out)
    return out


def _unrank(idx: np.ndarray, params: CodeParams) -> np.ndarray:
    """The int8 entries of in-range indices, of shape ``idx.shape + (n,)``.

    A code of at most `ENTRY_TABLE_LIMIT` entries gathers them from its
    entry table.  Above that, the prefix is the last valid prefix whose
    first rank is at most the index, and the rest of the index ranks the
    suffix within the prefix's budget.
    """
    if count_entries(params) <= ENTRY_TABLE_LIMIT:
        return _entry_table(params.n, params.k).take(idx, axis=0)
    tab = _half_tables(params.n, params.k)
    prefix = np.searchsorted(tab.left_start, idx, side="right") - 1
    suffix = tab.unrank_right[idx + tab.shift[prefix]]
    out = tab.left_rows[prefix].view(np.int8).reshape(idx.shape + (params.n,))
    out += tab.right_rows[suffix].view(np.int8).reshape(idx.shape + (params.n,))
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
