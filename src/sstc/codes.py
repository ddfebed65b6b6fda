"""Structured sparse ternary (N, K) codes.

A code is the set of all length-``n`` vectors over {-1, 0, +1} with at most
``k`` non-zero entries.  Entries are enumerated in a fixed canonical order:
lexicographic over the trit sequence read left to right, with digit order
0 < +1 < -1.  Under this order the (4, 1) code enumerates as

    (0,0,0,0), (0,0,0,+1), (0,0,0,-1), (0,0,+1,0), (0,0,-1,0),
    (0,+1,0,0), (0,-1,0,0), (+1,0,0,0), (-1,0,0,0)

Ranking (vector -> index) and unranking (index -> vector) are computed
combinatorially in O(n) per vector, so neither encoding nor decoding needs
a materialized table.  A built `CodeTable` carries the pre-analyzed
non-zero (position, sign) pairs that the inference kernel consumes.
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

    ``trits`` holds the entries as dense int8 rows.  ``nz_pos`` and
    ``nz_sign`` give, per entry, the positions and signs of its non-zeros
    (padded with zeros up to k), which is what the inference kernel consumes.
    """

    params: CodeParams
    entry_count: int
    address_bits: int
    storage_bits: int
    trits: np.ndarray = field(repr=False)
    nz_pos: np.ndarray = field(repr=False)
    nz_sign: np.ndarray = field(repr=False)
    nz_count: np.ndarray = field(repr=False)

    def entry(self, idx: int) -> np.ndarray:
        return self.trits[idx].copy()


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
    trits = unrank_subvectors(np.arange(t_total, dtype=np.int64), params)
    n, k = params.n, params.k
    nz_pos = np.zeros((t_total, k), dtype=np.int8)
    nz_sign = np.zeros((t_total, k), dtype=np.int8)
    nz_count = np.count_nonzero(trits, axis=1).astype(np.uint8)
    rows, cols = np.nonzero(trits)
    if rows.size:
        # np.nonzero walks row-major, so slots fill left to right per entry
        counts = np.bincount(rows, minlength=t_total)
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        slot = np.arange(rows.size) - starts[rows]
        nz_pos[rows, slot] = cols
        nz_sign[rows, slot] = trits[rows, cols]
    return CodeTable(
        params=params,
        entry_count=t_total,
        address_bits=address_bits(params),
        storage_bits=table_storage_bits(params),
        trits=trits,
        nz_pos=nz_pos,
        nz_sign=nz_sign,
        nz_count=nz_count,
    )


def encode_subvector(vector, table_or_params) -> int:
    """Canonical index of ``vector``; raises if it exceeds the k budget."""
    params = table_or_params.params if isinstance(table_or_params, CodeTable) else table_or_params
    return int(rank_subvectors(vector, params)[0])


def decode_index(idx: int, table_or_params) -> np.ndarray:
    """Codeword at canonical position ``idx``; raises if out of range."""
    if isinstance(table_or_params, CodeTable):
        table = table_or_params
        if not 0 <= idx < table.entry_count:
            raise ValidationError(f"index {idx} outside [0, {table.entry_count})")
        return table.entry(int(idx))
    return unrank_subvectors(int(idx), table_or_params)[0]
