"""Adversarial and boundary-condition checks across modules."""

import numpy as np
import pytest

from sstc.codes import CodeParams, build_table, count_entries, rank_subvectors
from sstc.kernel import CompressedFCLayer
from sstc.quantize import find_step_size, quantize_weight
from sstc.store import LayerFormat, encode_layer

from conftest import enumerate_by_brute_force, quantization_error, random_sst_trits


def _dense_reference_error(w, levels, points=400_000):
    """Very fine uniform scan; reference for tiny adversarial inputs only."""
    mags = np.abs(np.asarray(w, dtype=float).ravel())
    mags = mags[mags > 0]
    half = (levels - 1) // 2
    deltas = np.linspace(2 * mags.max() / points, 2 * mags.max(), points)
    best = np.inf
    for start in range(0, points, 4096):
        chunk = deltas[start:start + 4096, None]
        lev = np.minimum(np.floor(mags[None, :] / chunk + 0.5), half)
        best = min(best, float(((lev * chunk - mags) ** 2).sum(axis=1).min()))
    return best


ADVERSARIAL_SETS = [
    np.array([1.0]),
    np.array([1.0, 1.0]),
    np.array([1.0, 0.5]),
    np.array([1.0, 0.499999]),
    np.array([3.0, 1.0, 1.0]),
    np.array([1e-6, 1.0]),
    np.array([1e-9, 1e9]),
    np.full(64, 0.7),
    np.concatenate([np.full(50, 1.0), np.full(50, 1.0 / 3.0)]),
    np.array([2.0, 1.0, 0.999999999, 0.5]),
]


@pytest.mark.parametrize("levels", [3, 5])
def test_step_size_beats_dense_reference_on_adversarial_sets(levels):
    for w in ADVERSARIAL_SETS:
        delta = find_step_size(w, levels)
        mine = quantization_error(w, delta, levels)
        ref = _dense_reference_error(w, levels)
        # absolute epsilon: when the optimum is exactly representable the
        # reference reaches literal zero and only ulp noise remains here
        assert mine <= ref * (1 + 1e-9) + 1e-20, (w[:4], delta, mine, ref)


def test_step_size_duplicate_heavy_random_sets():
    rng = np.random.default_rng(0)
    pool = np.array([0.1, 0.25, 0.5, 1.0, 2.0])
    for _ in range(30):
        w = rng.choice(pool, size=int(rng.integers(2, 40)))
        delta = find_step_size(w)
        assert quantization_error(w, delta, 3) <= _dense_reference_error(w, 3) * (1 + 1e-9)


def test_step_size_single_weight_is_exact():
    for levels in (3, 7, 255):
        assert quantize_weight(0.37, find_step_size([0.37], levels),
                               levels) == pytest.approx(0.37, rel=1e-12)


def test_step_size_extreme_dynamic_range():
    # the huge weight dominates the squared error and must be hit exactly
    delta = find_step_size([1e-9, 1e9])
    assert delta == pytest.approx(1e9)


@pytest.mark.parametrize("n", range(1, 10))
def test_enumeration_matches_brute_force_all_budgets(n):
    for k in range(n + 1):
        params = CodeParams(n, k)
        table = build_table(params)
        oracle = enumerate_by_brute_force(n, k)
        assert np.array_equal(table.trits, oracle)
        ranks = rank_subvectors(table.trits, params)
        assert np.array_equal(ranks, np.arange(count_entries(params)))


def test_kernel_batch_chunk_boundary_exactness():
    # batches larger than the internal chunk must agree with per-sample calls
    rng = np.random.default_rng(1)
    params = CodeParams(8, 2)
    W = random_sst_trits(rng, 16, 24, params) * 0.5
    layer = encode_layer(W, 0.5, LayerFormat("sst", params),
                         bias=rng.normal(size=16).astype(np.float32))
    comp = CompressedFCLayer(layer, build_table(params))
    X = rng.normal(size=(600, 24))  # crosses the 256-row chunking twice
    batch = comp.matmul(X)
    for i in (0, 255, 256, 257, 511, 512, 599):
        assert np.array_equal(batch[i], comp.matmul(X[i]))


def test_full_budget_code_has_no_invalid_vectors():
    params = CodeParams(3, 3)
    table = build_table(params)
    assert len(table.trits) == 27
    # ranking any +-1/0 vector of length 3 must succeed at full budget
    rng = np.random.default_rng(2)
    vectors = rng.integers(-1, 2, size=(200, 3))
    ranks = rank_subvectors(vectors, params)
    assert np.all((ranks >= 0) & (ranks < 27))
    assert np.array_equal(table.trits[ranks], vectors.astype(np.int8))
