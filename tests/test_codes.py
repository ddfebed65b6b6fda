"""Code table enumeration, counting, and ranking."""

import re
from math import comb

import numpy as np
import pytest

from sstc.codes import (CodeParams, address_bits, build_table, count_entries,
                        from_subvectors, rank_subvectors, subvectors,
                        table_storage_bits, table_storage_kb, unrank_subvectors)
from sstc.errors import ValidationError

from conftest import enumerate_by_brute_force

ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]

TABLE_I = {
    (16, 4): (34113, 136.452, 16),
    (16, 3): (4993, 19.972, 13),
    (16, 2): (513, 2.052, 10),
    (8, 2): (129, 0.258, 8),
    (8, 1): (17, 0.034, 5),
    (4, 1): (9, 0.009, 4),
}


def test_entry_counts_match_published_values():
    for (n, k), (t, _, _) in TABLE_I.items():
        assert count_entries(CodeParams(n, k)) == t


def test_address_bits_match_published_values():
    got = [address_bits(CodeParams(n, k)) for (n, k) in TABLE_I]
    assert got == [16, 13, 10, 8, 5, 4]


def test_table_storage_matches_published_values():
    for (n, k), (t, kb, _) in TABLE_I.items():
        params = CodeParams(n, k)
        assert table_storage_bits(params) == 2 * n * t
        assert table_storage_kb(params) == pytest.approx(kb, abs=1e-9)


def test_count_entries_examples():
    assert count_entries(CodeParams(4, 1)) == 9
    assert count_entries(CodeParams(8, 2)) == 129
    for n in (1, 5, 24):
        assert count_entries(CodeParams(n, 0)) == 1


def test_count_entries_monotone_and_full_budget():
    for n in (1, 3, 8, 12):
        counts = [count_entries(CodeParams(n, k)) for k in range(n + 1)]
        assert counts == sorted(counts)
        assert counts[-1] == 3 ** n


def test_address_bits_trivial_code():
    assert address_bits(CodeParams(6, 0)) == 0


def test_params_validation():
    with pytest.raises(ValidationError):
        CodeParams(0, 0)
    with pytest.raises(ValidationError):
        CodeParams(25, 1)
    with pytest.raises(ValidationError):
        CodeParams(4, 5)
    with pytest.raises(ValidationError):
        CodeParams(4, -1)


def test_enumeration_matches_published_listing():
    table = build_table(CodeParams(4, 1))
    expected = [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1), (0, 0, 1, 0), (0, 0, -1, 0),
        (0, 1, 0, 0), (0, -1, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0),
    ]
    assert [tuple(row) for row in table.trits] == expected


def test_enumeration_trivial_codes():
    assert [tuple(r) for r in build_table(CodeParams(1, 1)).trits] == [(0,), (1,), (-1,)]
    t22 = build_table(CodeParams(2, 2))
    assert len(t22.trits) == 9
    assert tuple(t22.trits[0]) == (0, 0)
    assert tuple(t22.trits[-1]) == (-1, -1)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (3, 1), (4, 1), (4, 4), (5, 2), (6, 3), (8, 2)])
def test_enumeration_matches_brute_force(n, k):
    table = build_table(CodeParams(n, k))
    oracle = enumerate_by_brute_force(n, k)
    assert np.array_equal(table.trits, oracle)
    assert len(table.trits) == len(oracle)


def test_build_table_counts_cross_check_formula():
    for n, k in [(8, 1), (8, 2), (16, 2), (16, 3), (10, 4)]:
        params = CodeParams(n, k)
        assert len(build_table(params).trits) == count_entries(params)


def test_entry_cap():
    with pytest.raises(ValidationError, match="entry cap"):
        build_table(CodeParams(16, 16))
    # override builds fine
    table = build_table(CodeParams(13, 13), entry_cap=3 ** 13)
    assert len(table.trits) == 3 ** 13


def test_entries_respect_budget_and_length():
    for n, k in [(8, 2), (16, 2), (7, 3)]:
        table = build_table(CodeParams(n, k))
        assert table.trits.shape == (count_entries(CodeParams(n, k)), n)
        assert np.count_nonzero(table.trits, axis=1).max() <= k


def test_encode_examples():
    p41 = CodeParams(4, 1)
    assert rank_subvectors([0, 0, -1, 0], p41).tolist() == [4]
    assert rank_subvectors([[-1, 0, 0, 0], [0, 0, -1, 0]], p41).tolist() == [8, 4]
    for params in (p41, CodeParams(8, 2), CodeParams(16, 4)):
        assert rank_subvectors([0] * params.n, params).tolist() == [0]


def test_decode_examples():
    p82 = CodeParams(8, 2)
    assert np.array_equal(unrank_subvectors(0, p82), np.zeros((1, 8), dtype=np.int8))
    assert unrank_subvectors([8, 4], CodeParams(4, 1)).tolist() == [[-1, 0, 0, 0], [0, 0, -1, 0]]
    with pytest.raises(ValidationError):
        unrank_subvectors(129, p82)
    with pytest.raises(ValidationError):
        unrank_subvectors([0, -1], p82)


def test_encode_rejects_budget_violation():
    with pytest.raises(ValidationError, match="non-zeros"):
        rank_subvectors([[0, 0, 0, 0], [1, -1, 0, 0]], CodeParams(4, 1))


def test_roundtrip_exhaustive_small_tables():
    for n, k in [(4, 1), (8, 1), (8, 2), (16, 2), (16, 3)]:
        params = CodeParams(n, k)
        table = build_table(params)
        ranks = rank_subvectors(table.trits, params)
        assert np.array_equal(ranks, np.arange(len(table.trits)))
        again = unrank_subvectors(ranks, params)
        assert np.array_equal(again, table.trits)


def test_roundtrip_sampled_large_table():
    params = CodeParams(16, 4)
    table = build_table(params)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(table.trits), size=10_000)
    vectors = unrank_subvectors(idx, params)
    assert np.array_equal(rank_subvectors(vectors, params), idx)
    assert np.array_equal(table.trits[idx], vectors)


def test_rank_without_materialized_table_matches_scan():
    # combinatorial ranking equals the position found by linear scan
    params = CodeParams(6, 2)
    table = build_table(params)
    rng = np.random.default_rng(1)
    for idx in rng.integers(0, len(table.trits), size=50):
        v = table.trits[idx]
        scan = next(i for i in range(len(table.trits))
                    if np.array_equal(table.trits[i], v))
        assert rank_subvectors(v, params).tolist() == [scan]


def test_rank_input_validation():
    params = CodeParams(4, 2)
    with pytest.raises(ValidationError):
        rank_subvectors([[0, 2, 0, 0]], params)
    with pytest.raises(ValidationError):
        rank_subvectors([[0, 0, 0]], params)


def test_subvectors_payload_order():
    # [[a, e], [b, f], [c, g], [d, h]] at n = 2
    M = np.array([[1, 5], [2, 6], [3, 7], [4, 8]])
    params = CodeParams(2, 1)
    assert subvectors(M, params, "column").tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert subvectors(M, params, "row").tolist() == [[1, 5], [2, 6], [3, 7], [4, 8]]
    # a 2x6 matrix at n = 3
    M = np.arange(12).reshape(2, 6)
    params = CodeParams(3, 1)
    assert subvectors(M.T, params, "column").tolist() == [[0, 1, 2], [3, 4, 5],
                                                          [6, 7, 8], [9, 10, 11]]
    assert subvectors(M, params, "row").tolist() == [[0, 1, 2], [3, 4, 5],
                                                     [6, 7, 8], [9, 10, 11]]


@pytest.mark.parametrize("orientation", ["column", "row"])
def test_from_subvectors_inverts_subvectors(orientation):
    rng = np.random.default_rng(2)
    for n in (1, 2, 4, 8, 16):
        params = CodeParams(n, 1)
        for _ in range(10):
            groups, other = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            rows, cols = (groups * n, other) if orientation == "column" else (other, groups * n)
            M = rng.normal(size=(rows, cols))
            G = subvectors(M, params, orientation)
            assert G.shape == (rows * cols // n, n)
            assert np.array_equal(from_subvectors(G, rows, cols, params, orientation), M)


def test_subvectors_rejects_bad_layouts():
    params = CodeParams(4, 1)
    with pytest.raises(ValidationError, match="row count 6 not divisible by n=4"):
        subvectors(np.zeros((6, 4)), params, "column")
    with pytest.raises(ValidationError, match="column count 6 not divisible by n=4"):
        subvectors(np.zeros((4, 6)), params, "row")
    for bad in ("diagonal", "Column", None):
        with pytest.raises(ValidationError, match="orientation must be one of"):
            subvectors(np.zeros((4, 4)), params, bad)
        with pytest.raises(ValidationError, match="orientation must be one of"):
            from_subvectors(np.zeros((4, 4)), 4, 4, params, bad)
    with pytest.raises(ValidationError, match="expected a matrix"):
        subvectors(np.zeros(8), params, "row")


def _loop_suffix_counts(n, k):
    """S[m, j]: length-m ternary vectors with at most j non-zeros."""
    return np.array([[sum(comb(m, i) << i for i in range(j + 1)) for j in range(k + 1)]
                     for m in range(n + 1)], dtype=np.int64)


def loop_rank(vectors, n, k):
    """Reference: rank digit by digit, adding the entries that each earlier
    digit choice skips (one pass over the n positions)."""
    t = np.asarray(vectors, dtype=np.int8)
    s = _loop_suffix_counts(n, k)
    rank = np.zeros(t.shape[0], dtype=np.int64)
    budget = np.full(t.shape[0], k, dtype=np.int64)
    for i in range(n):
        m = n - i - 1
        nonzero, minus = t[:, i] != 0, t[:, i] == -1
        rank[nonzero] += s[m, budget[nonzero]]
        rank[minus] += s[m, budget[minus] - 1]
        budget[nonzero] -= 1
    return rank


def loop_unrank(indices, n, k):
    """Reference: unrank digit by digit, the inverse of `loop_rank`."""
    s = _loop_suffix_counts(n, k)
    rem = np.array(indices, dtype=np.int64)
    budget = np.full(rem.size, k, dtype=np.int64)
    out = np.zeros((rem.size, n), dtype=np.int8)
    for i in range(n):
        m = n - i - 1
        c_zero = s[m, budget]
        take_nz = rem >= c_zero
        rem = np.where(take_nz, rem - c_zero, rem)
        c_plus = s[m, np.maximum(budget - 1, 0)]
        take_minus = take_nz & (rem >= c_plus)
        rem = np.where(take_minus, rem - c_plus, rem)
        out[:, i] = np.where(take_minus, -1, take_nz.astype(np.int8))
        budget -= take_nz
    return out


# the published codes; k = 0 codes; odd n; codes beyond the table entry
# cap; and every code up to n = 12 small enough to check index by index
DIFFERENTIAL_CODES = sorted(set(
    ALL_CODES + [(8, 0), (4, 0), (3, 0), (1, 1), (5, 5), (7, 3), (16, 16), (24, 2), (24, 24)]
    + [(n, k) for n in range(1, 13) for k in range(n + 1)
       if count_entries(CodeParams(n, k)) <= 1 << 16]))


@pytest.mark.parametrize("n,k", DIFFERENTIAL_CODES)
def test_half_tables_match_digit_loop_reference(n, k):
    params = CodeParams(n, k)
    t_total = count_entries(params)
    if t_total <= 1 << 16:
        idx = np.arange(t_total)
    else:
        rng = np.random.default_rng(100 * n + k)
        idx = np.concatenate(([0, t_total - 1], rng.integers(0, t_total, size=20_000)))
    expected = loop_unrank(idx, n, k)
    trits = unrank_subvectors(idx, params)
    assert trits.dtype == np.int8 and np.array_equal(trits, expected)
    ranks = rank_subvectors(expected, params)
    assert ranks.dtype == np.int64 and np.array_equal(ranks, loop_rank(expected, n, k))
    assert np.array_equal(ranks, idx)


def test_codec_input_errors_keep_their_messages():
    def raises(message, func, *args):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            func(*args)

    p41, p80 = CodeParams(4, 1), CodeParams(8, 0)
    raises("index 9 outside [0, 9)", unrank_subvectors, [0, 9], p41)
    raises("index -1 outside [0, 9)", unrank_subvectors, [3, -1], p41)
    raises("index 1 outside [0, 1)", unrank_subvectors, 1, p80)
    raises(f"index {3 ** 24} outside [0, {3 ** 24})", unrank_subvectors, 3 ** 24, CodeParams(24, 24))
    raises("sub-vector 1 has 2 non-zeros, exceeding k=1", rank_subvectors,
           [[0, 0, 0, 0], [1, -1, 0, 0]], p41)
    raises("sub-vector 0 has 1 non-zeros, exceeding k=0", rank_subvectors, [0] * 7 + [-1], p80)
    raises("expected sub-vectors of length 4, got shape (1, 3)", rank_subvectors, [[0, 0, 0]], p41)
    raises("sub-vector entries must be integral trits", rank_subvectors, [[0, 0.5, 0, 0]], p41)
    raises("sub-vector entries must lie in {-1, 0, +1}", rank_subvectors, [[0, 2, 0, 0]], p41)
