"""Structured sparse ternary (N, K) codes.

A code is the set of all length-``n`` vectors over {-1, 0, +1} with at most
``k`` non-zero entries.  Entries are enumerated in a fixed canonical order:
lexicographic over the trit sequence read left to right, with digit order
0 < +1 < -1.  Under this order the (4, 1) code enumerates as

    (0,0,0,0), (0,0,0,+1), (0,0,0,-1), (0,0,+1,0), (0,0,-1,0),
    (0,+1,0,0), (0,-1,0,0), (+1,0,0,0), (-1,0,0,0)

Ranking (vector -> index) and unranking (index -> vector) are computed
combinatorially in O(n) per vector, so neither encoding nor decoding needs
a materialized table.  A built `CodeTable` holds every entry's trits, the
lookup table that the inference kernel gathers decoded sub-vectors from.

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
(c, g), (d, h) in row orientation.  `subvectors` and `from_subvectors` are
the only place this layout is written down; pruning, the codec, the
kernel and the training checks all go through them.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ValidationError

# Table memory is 2*n*T bits and must stay addressable; sub-vector lengths
# beyond 24 have no practical use here.
MAX_SUBVECTOR_LEN = 24

# build_table refuses tables above this entry count unless overridden.
DEFAULT_ENTRY_CAP = 1 << 20

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


def subvectors(matrix, params: CodeParams, orientation: str) -> np.ndarray:
    """The (count, n) sub-vectors of a 2-D ``matrix``, in payload order.

    Raises on an unknown orientation or when the grouped dimension is not
    divisible by n.  The result is a view of ``matrix`` where numpy can
    make one, otherwise a copy.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={m.ndim}")
    rows, cols = m.shape
    n = params.n
    if orientation == "column":
        if rows % n:
            raise ValidationError(f"row count {rows} not divisible by n={n} for column orientation")
        return m.reshape(rows // n, n, cols).transpose(2, 0, 1).reshape(-1, n)
    if orientation == "row":
        if cols % n:
            raise ValidationError(f"column count {cols} not divisible by n={n} for row orientation")
        return m.reshape(-1, n)
    raise _unknown_orientation(orientation)


def from_subvectors(groups, rows: int, cols: int, params: CodeParams,
                    orientation: str) -> np.ndarray:
    """Inverse of `subvectors`: the (rows, cols) matrix of payload-order groups.

    A column-oriented result of C-contiguous ``groups`` is a view whose
    transpose is C-contiguous.
    """
    groups = np.asarray(groups)
    if orientation == "column":
        return groups.reshape(cols, rows // params.n, params.n).transpose(1, 2, 0).reshape(rows, cols)
    if orientation == "row":
        return groups.reshape(rows, cols)
    raise _unknown_orientation(orientation)


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
    t = v.astype(np.int8)
    if not np.array_equal(t, v):
        raise ValidationError("sub-vector entries must be integral trits")
    if np.any((t < -1) | (t > 1)):
        raise ValidationError("sub-vector entries must lie in {-1, 0, +1}")
    return t


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
    s = _suffix_counts(params.n, params.k)
    count = t.shape[0]
    rank = np.zeros(count, dtype=np.int64)
    budget = np.full(count, params.k, dtype=np.int64)
    for i in range(params.n):
        d = t[:, i]
        m = params.n - i - 1
        nonzero = d != 0
        minus = d == -1
        # digits preceding a non-zero digit: 0 always, +1 additionally for -1
        rank[nonzero] += s[m, budget[nonzero]]
        rank[minus] += s[m, budget[minus] - 1]
        budget[nonzero] -= 1
    return rank


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
    s = _suffix_counts(params.n, params.k)
    count = idx.shape[0]
    rem = idx.copy()
    budget = np.full(count, params.k, dtype=np.int64)
    out = np.zeros((count, params.n), dtype=np.int8)
    for i in range(params.n):
        m = params.n - i - 1
        c_zero = s[m, budget]
        take_nz = rem >= c_zero
        rem = np.where(take_nz, rem - c_zero, rem)
        c_plus = s[m, np.maximum(budget - 1, 0)]
        take_minus = take_nz & (rem >= c_plus)
        rem = np.where(take_minus, rem - c_plus, rem)
        out[:, i] = np.where(take_minus, -1, take_nz.astype(np.int8))
        budget -= take_nz
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
