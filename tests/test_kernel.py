"""Compressed inference kernel against the dense oracle."""

import numpy as np
import pytest

from sstc.codes import CodeParams, build_table
from sstc.errors import ValidationError
from sstc.kernel import (CompressedFCLayer, compressed_forward, compressed_matvec,
                         dense_matvec, pe_trace)
from sstc.store import (BatchNormParams, LayerFormat, ModelFile, decode_layer,
                        encode_layer)

from conftest import random_sst_trits

ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]


def _compressed(W, delta, params, bias=None):
    layer = encode_layer(W, delta, LayerFormat("sst", params), bias=bias)
    return CompressedFCLayer(layer, build_table(params))


def test_hand_worked_product():
    # decoded W=[[0,1],[-1,0]], delta 0.5, x=[2,3]: accumulators [3,-2]
    W = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    comp = _compressed(W, 0.5, CodeParams(2, 1))
    x = np.array([2.0, 3.0])
    assert comp.accumulate(x).tolist() == [3.0, -2.0]
    assert compressed_matvec(comp, x).tolist() == [1.5, -1.0]


def test_zero_payload_returns_bias():
    bias = np.array([1.0, -2.0, 0.5, 0.0], dtype=np.float32)
    comp = _compressed(np.zeros((4, 3)), 1.0, CodeParams(4, 2), bias=bias)
    out = compressed_matvec(comp, np.array([5.0, 6.0, 7.0]))
    assert np.array_equal(out, bias.astype(np.float64))


def test_length_mismatch_rejected():
    comp = _compressed(np.zeros((4, 3)), 1.0, CodeParams(4, 1))
    with pytest.raises(ValidationError):
        compressed_matvec(comp, np.zeros(4))


def test_corrupt_index_rejected():
    layer = encode_layer(np.zeros((8, 2)), 1.0, LayerFormat("sst", CodeParams(8, 1)))
    # 5-bit indices; force one to 31 > T-1 = 16
    corrupted = layer.__class__(layer.format, layer.rows, layer.cols, layer.delta,
                                bytes([0xF8, 0x00]), layer.bias, layer.normalizer)
    message = "corrupt index 31 at stream position 0"
    with pytest.raises(ValidationError, match=message):
        CompressedFCLayer(corrupted, build_table(CodeParams(8, 1)))
    with pytest.raises(ValidationError, match=message):
        decode_layer(corrupted)
    with pytest.raises(ValidationError, match=message):
        compressed_forward(ModelFile(layers=[corrupted]), np.zeros((1, 2)))


def test_matches_dense_oracle_exactly_integer_mode():
    rng = np.random.default_rng(0)
    for n, k in ALL_CODES:
        params = CodeParams(n, k)
        table = build_table(params)
        for _ in range(10):
            rows = n * int(rng.integers(1, 128 // n + 1))
            cols = int(rng.integers(1, 129))
            delta = float(np.float32(rng.uniform(0.1, 1.5)))
            W = random_sst_trits(rng, rows, cols, params) * delta
            bias = rng.normal(size=rows).astype(np.float32)
            layer = encode_layer(W, delta, LayerFormat("sst", params), bias=bias)
            comp = CompressedFCLayer(layer, table)
            x = rng.integers(-100, 101, size=cols)
            dense = decode_layer(layer)
            assert np.array_equal(dense, W)
            want = dense_matvec(dense, x) + bias
            assert np.array_equal(compressed_matvec(comp, x), want)
            # accumulators alone equal the integer ternary product exactly
            trits = (dense / delta).astype(np.int64)
            assert np.array_equal(comp.accumulate(x), trits @ x)


def test_matches_dense_oracle_real_mode():
    rng = np.random.default_rng(1)
    for n, k in ALL_CODES:
        params = CodeParams(n, k)
        table = build_table(params)
        for _ in range(5):
            rows = n * int(rng.integers(1, 5))
            cols = int(rng.integers(1, 65))
            delta = float(np.float32(rng.uniform(0.1, 1.5)))
            W = random_sst_trits(rng, rows, cols, params) * delta
            comp = CompressedFCLayer(encode_layer(W, delta, LayerFormat("sst", params)), table)
            x = rng.normal(size=cols)
            want = dense_matvec(W, x)
            got = compressed_matvec(comp, x)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got - want) / scale <= 1e-6)


def test_batch_equals_per_sample_calls():
    rng = np.random.default_rng(2)
    params = CodeParams(8, 2)
    W = random_sst_trits(rng, 16, 12, params) * 0.5
    comp = _compressed(W, 0.5, params)
    X = rng.normal(size=(9, 12))
    batch = comp.matmul(X)
    singles = np.stack([comp.matvec(x) for x in X])
    assert np.allclose(batch, singles, rtol=0, atol=1e-12)


def test_trace_counts():
    rng = np.random.default_rng(3)
    params = CodeParams(8, 1)
    # fully populated: every sub-vector carries exactly one non-zero
    trits = np.zeros((1024, 1024), dtype=np.int8)
    for g in range(128):
        pos = rng.integers(0, 8, size=1024)
        trits[g * 8 + pos, np.arange(1024)] = rng.choice([-1, 1], size=1024)
    comp = _compressed(trits * 1.0, 1.0, params)
    trace = pe_trace(comp)
    assert trace.table_lookups == 131_072
    assert trace.addsub_ops == 131_072
    assert trace.addsub_ops <= 131_072
    assert trace.delta_multiplies == 1024
    assert trace.budget_ok


def test_trace_zero_matrix():
    comp = _compressed(np.zeros((8, 4)), 1.0, CodeParams(8, 2))
    trace = pe_trace(comp)
    assert trace.addsub_ops == 0
    assert trace.skipped_zeros == 8 * 4


def test_trace_budget_property():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, k = ALL_CODES[int(rng.integers(len(ALL_CODES)))]
        params = CodeParams(n, k)
        rows = n * int(rng.integers(1, 4))
        cols = int(rng.integers(1, 30))
        W = random_sst_trits(rng, rows, cols, params) * 1.0
        comp = _compressed(W, 1.0, params)
        trace = pe_trace(comp)
        assert trace.max_ops_per_subvector <= k
        assert trace.addsub_ops == np.count_nonzero(W)
        assert trace.addsub_ops <= k * (rows // n) * cols


def test_dense_matvec_basics():
    assert np.array_equal(dense_matvec(np.eye(4), np.arange(4.0)), np.arange(4.0))
    assert np.array_equal(dense_matvec(np.zeros((3, 5)), np.ones(5)), np.zeros(3))
    with pytest.raises(ValidationError):
        dense_matvec(np.zeros((3, 5)), np.ones(4))


def test_dense_matvec_against_naive_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        W = rng.normal(size=(int(rng.integers(1, 20)), int(rng.integers(1, 20))))
        x = rng.normal(size=W.shape[1])
        naive = np.array([sum(W[i, j] * x[j] for j in range(W.shape[1]))
                          for i in range(W.shape[0])])
        assert np.allclose(dense_matvec(W, x), naive, rtol=1e-12, atol=1e-12)


def _toy_model(rng, with_bn=True):
    params = CodeParams(4, 2)
    W1 = random_sst_trits(rng, 8, 6, params) * 0.5
    norm = None
    if with_bn:
        norm = BatchNormParams(rng.random(8) + 0.5, rng.normal(size=8),
                               rng.normal(size=8), rng.random(8) + 0.5)
    lay1 = encode_layer(W1, 0.5, LayerFormat("sst", params),
                        bias=rng.normal(size=8), normalizer=norm)
    W2 = rng.integers(-1, 2, size=(3, 8)) * 0.25
    lay2 = encode_layer(W2, 0.25, LayerFormat("ternary2bit"), bias=rng.normal(size=3))
    return ModelFile(layers=[lay1, lay2])


def test_forward_probabilities_sum_to_one():
    rng = np.random.default_rng(6)
    model = _toy_model(rng)
    X = rng.normal(size=(10, 6))
    probs = compressed_forward(model, X)
    assert probs.shape == (10, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_batch_independence():
    rng = np.random.default_rng(7)
    model = _toy_model(rng)
    X = rng.normal(size=(5, 6))
    batch = compressed_forward(model, X)
    singles = np.vstack([compressed_forward(model, x[np.newaxis]) for x in X])
    assert np.allclose(batch, singles, atol=1e-12)


def test_forward_chain_mismatch():
    rng = np.random.default_rng(8)
    model = _toy_model(rng)
    with pytest.raises(ValidationError, match="expects"):
        compressed_forward(model, np.zeros((2, 7)))


def test_single_layer_model_is_matvec_plus_softmax():
    rng = np.random.default_rng(9)
    params = CodeParams(4, 1)
    W = random_sst_trits(rng, 4, 6, params) * 0.5
    bias = rng.normal(size=4).astype(np.float32)
    layer = encode_layer(W, 0.5, LayerFormat("sst", params), bias=bias)
    model = ModelFile(layers=[layer])
    x = rng.normal(size=6)
    probs = compressed_forward(model, x)
    comp = CompressedFCLayer(layer, build_table(params))
    logits = compressed_matvec(comp, x)
    want = np.exp(logits - logits.max())
    want /= want.sum()
    assert np.allclose(probs[0], want, atol=1e-12)
