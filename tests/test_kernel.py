"""Compressed inference kernel against the dense oracle."""

import numpy as np
import pytest

from sstc import kernel
from sstc.codes import CodeParams, build_table, unrank_subvectors
from sstc.errors import ValidationError
from sstc.kernel import CompressedFCLayer, compressed_forward, dense_matvec, pe_trace
from sstc.store import (BatchNormParams, EncodedLayer, LayerFormat, ModelFile, decode_layer,
                        deserialize_model, encode_layer, layer_indices, serialize_model)

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
    assert comp.matmul(x).tolist() == [1.5, -1.0]


def test_zero_payload_returns_bias():
    bias = np.array([1.0, -2.0, 0.5, 0.0], dtype=np.float32)
    comp = _compressed(np.zeros((4, 3)), 1.0, CodeParams(4, 2), bias=bias)
    out = comp.matmul(np.array([5.0, 6.0, 7.0]))
    assert np.array_equal(out, bias.astype(np.float64))


def test_length_mismatch_rejected():
    comp = _compressed(np.zeros((4, 3)), 1.0, CodeParams(4, 1))
    with pytest.raises(ValidationError):
        comp.matmul(np.zeros(4))


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
            assert np.array_equal(comp.matmul(x), want)
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
            got = comp.matmul(x)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got - want) / scale <= 1e-6)


def test_batch_equals_per_sample_calls():
    # bit-identical rows for every code and batch size
    rng = np.random.default_rng(2)
    for n, k in ALL_CODES:
        params = CodeParams(n, k)
        W = random_sst_trits(rng, 2 * n, 12, params) * 0.5
        comp = _compressed(W, 0.5, params, bias=rng.normal(size=2 * n).astype(np.float32))
        for batch_size in (1, 2, 257):
            X = rng.normal(size=(batch_size, 12))
            batch = comp.matmul(X)
            singles = np.stack([comp.matmul(x) for x in X])
            assert np.array_equal(batch, singles), (params, batch_size)


def test_weights_t_is_the_decoded_trit_matrix():
    rng = np.random.default_rng(12)
    for n, k in ALL_CODES:
        params = CodeParams(n, k)
        for rows, cols, zero in ((n, 1, False), (n, 5, True), (3 * n, 7, False)):
            delta = float(np.float32(rng.uniform(0.1, 1.5)))
            W = np.zeros((rows, cols)) if zero else random_sst_trits(rng, rows, cols, params) * delta
            layer = encode_layer(W, delta, LayerFormat("sst", params))
            comp = CompressedFCLayer(layer, build_table(params))
            assert comp.weights_t.dtype == np.float64
            assert np.array_equal(comp.weights_t, decode_layer(layer).T / comp.delta)


def test_audit_path_lanes_and_counts_are_the_decoded_trits():
    rng = np.random.default_rng(14)
    for n, k in ALL_CODES + [(8, 0), (4, 0)]:
        params = CodeParams(n, k)
        for rows, cols, zero in ((n, 1, False), (3 * n, 9, False), (2 * n, 4, True)):
            W = np.zeros((rows, cols)) if zero else random_sst_trits(rng, rows, cols, params) * 0.5
            layer = encode_layer(W, 0.5, LayerFormat("sst", params))
            comp = CompressedFCLayer(layer, build_table(params))
            subvectors = unrank_subvectors(layer_indices(layer), params)
            assert np.array_equal(comp.nz_per_subvector, np.count_nonzero(subvectors, axis=1))
            # (col, row) order, as the payload walks the layer
            trits_t = (decode_layer(layer) / 0.5).T
            for sign, lane_rows, lane_cols in ((1, comp.plus_rows, comp.plus_cols),
                                               (-1, comp.minus_rows, comp.minus_cols)):
                want_cols, want_rows = np.nonzero(trits_t == sign)
                assert lane_rows.dtype == lane_cols.dtype == np.int64
                assert np.array_equal(lane_rows, want_rows)
                assert np.array_equal(lane_cols, want_cols)
            for x in (rng.integers(-100, 101, size=(5, cols)), rng.normal(size=(5, cols))):
                singles = np.stack([comp.accumulate(row) for row in x])
                assert np.array_equal(comp.accumulate(x), singles), (params, x.dtype)


def test_audit_path_after_serving_only_matmul():
    # the add/subtract lanes are built on first use, after serving
    rng = np.random.default_rng(13)
    params = CodeParams(16, 3)
    trits = random_sst_trits(rng, 48, 20, params)
    comp = _compressed(trits * 0.5, 0.5, params)
    comp.matmul(rng.normal(size=(4, 20)))
    assert "_lanes" not in vars(comp) and "nz_per_subvector" not in vars(comp)
    trace = pe_trace(comp)
    assert trace.table_lookups == 3 * 20
    assert trace.addsub_ops == np.count_nonzero(trits)
    assert trace.skipped_zeros == 48 * 20 - np.count_nonzero(trits)
    assert trace.max_ops_per_subvector <= 3
    x = rng.integers(-100, 101, size=(5, 20))
    assert np.array_equal(comp.accumulate(x), x @ trits.astype(np.int64).T)


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
    assert trace.max_ops_per_subvector <= trace.op_budget == 1


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


def _mixed_model(rng):
    """Column sst with batch norm, fixed8, float32, row sst and ternary."""
    col_code, row_code = CodeParams(4, 2), CodeParams(8, 1)
    layers = [
        encode_layer(random_sst_trits(rng, 64, 96, col_code) * 0.5, 0.5,
                     LayerFormat("sst", col_code), bias=rng.normal(size=64),
                     normalizer=BatchNormParams(rng.random(64) + 0.5, rng.normal(size=64),
                                                rng.normal(size=64), rng.random(64) + 0.5)),
        encode_layer(rng.integers(-127, 128, size=(48, 64)) * 0.125, 0.125,
                     LayerFormat("fixed8"), bias=rng.normal(size=48)),
        encode_layer(rng.normal(size=(40, 48)), None, LayerFormat("float32")),
        encode_layer(random_sst_trits(rng, 32, 40, row_code, "row") * 0.25, 0.25,
                     LayerFormat("sst", row_code, "row")),
        encode_layer(rng.integers(-1, 2, size=(3, 32)) * 0.25, 0.25,
                     LayerFormat("ternary2bit"), bias=rng.normal(size=3)),
    ]
    return ModelFile(layers=layers)


def test_forward_batch_independence():
    # every layer format, bit-identical rows in any batch
    rng = np.random.default_rng(7)
    for model in (_toy_model(rng), _mixed_model(rng)):
        X = rng.normal(size=(37, model.layers[0].cols))
        batch = compressed_forward(model, X)
        singles = np.vstack([compressed_forward(model, x[np.newaxis]) for x in X])
        assert np.array_equal(batch, singles)


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
    logits = comp.matmul(x)
    want = np.exp(logits - logits.max())
    want /= want.sum()
    assert np.allclose(probs[0], want, atol=1e-12)


# --- operand cache: each layer content is decoded once ----------------------

def _fresh_forward(model, X):
    """Forward pass of a re-read copy of ``model``, decoded from scratch."""
    kernel._decoded_operand.cache_clear()
    return compressed_forward(deserialize_model(serialize_model(model)), X)


def test_replaced_layer_fields_are_never_served_stale():
    rng = np.random.default_rng(21)
    model = _mixed_model(rng)
    X = rng.normal(size=(6, 96))
    col_code = model.layers[0].format.params
    other_trits = encode_layer(random_sst_trits(rng, 64, 96, col_code) * 0.5, 0.5,
                               LayerFormat("sst", col_code))
    other_fixed8 = encode_layer(rng.integers(-127, 128, size=(48, 64)) * 0.25, 0.25,
                                LayerFormat("fixed8"))
    changes = [
        ("column sst payload", lambda m: setattr(m.layers[0], "payload", other_trits.payload)),
        ("column sst delta", lambda m: setattr(m.layers[0], "delta", 0.75)),
        ("fixed8 payload", lambda m: setattr(m.layers[1], "payload", other_fixed8.payload)),
        ("fixed8 delta", lambda m: setattr(m.layers[1], "delta", 0.375)),
        ("ternary delta", lambda m: setattr(m.layers[4], "delta", 0.5)),
        ("float32 bias", lambda m: setattr(m.layers[2], "bias",
                                           rng.normal(size=40).astype(np.float32))),
        ("batch norm", lambda m: setattr(m.layers[0], "normalizer", BatchNormParams(
            rng.random(64) + 0.5, rng.normal(size=64), rng.normal(size=64),
            rng.random(64) + 0.5))),
        ("layer object", lambda m: m.layers.__setitem__(1, other_fixed8)),
    ]
    for label, change in changes:
        before = compressed_forward(model, X)
        change(model)
        got = compressed_forward(model, X)
        assert not np.array_equal(got, before), label
        assert np.array_equal(got, _fresh_forward(model, X)), label


def test_cold_warm_and_reloaded_calls_are_bitwise_equal():
    rng = np.random.default_rng(22)
    model = _mixed_model(rng)
    X = rng.normal(size=(9, 96))
    kernel._decoded_operand.cache_clear()
    cold = compressed_forward(model, X)
    assert kernel._decoded_operand.cache_info().misses == len(model.layers)
    warm = compressed_forward(model, X)
    assert kernel._decoded_operand.cache_info().hits == len(model.layers)
    reloaded = compressed_forward(deserialize_model(serialize_model(model)), X)
    assert kernel._decoded_operand.cache_info().misses == len(model.layers)
    assert np.array_equal(cold, warm) and np.array_equal(cold, reloaded)


def test_cached_operands_are_read_only():
    rng = np.random.default_rng(23)
    model = _mixed_model(rng)
    for layer in model.layers:
        operand = kernel._served_operand(layer)
        assert operand.shape == (layer.cols, layer.rows)
        assert operand.ctypes.data % 64 == 0
        with pytest.raises(ValueError):
            operand[0, 0] = 1.0
    comp = CompressedFCLayer(model.layers[0], build_table(model.layers[0].format.params))
    assert comp.weights_t is kernel._served_operand(model.layers[0])
    with pytest.raises(ValueError):
        comp.weights_t[0, 0] = 1.0


def test_warm_kernel_build_unpacks_no_indices():
    rng = np.random.default_rng(24)
    params = CodeParams(8, 1)
    layer = encode_layer(random_sst_trits(rng, 16, 5, params) * 0.5, 0.5, LayerFormat("sst", params))
    compressed_forward(ModelFile(layers=[layer]), rng.normal(size=5))
    comp = CompressedFCLayer(layer, build_table(params))
    assert "indices" not in vars(comp)
    want = layer_indices(layer)
    layer.payload = bytes(len(layer.payload))  # a later change does not reach the built kernel
    assert np.array_equal(comp.indices, want)


def test_corrupt_payload_raises_on_every_call():
    layer = encode_layer(np.zeros((8, 2)), 1.0, LayerFormat("sst", CodeParams(8, 1)))
    layer.payload = bytes([0xF8, 0x00])  # index 31 > T-1 = 16
    model = ModelFile(layers=[layer])
    size = kernel._decoded_operand.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValidationError, match="corrupt index 31 at stream position 0"):
            compressed_forward(model, np.zeros((1, 2)))
    assert kernel._decoded_operand.cache_info().currsize == size


def test_operand_cache_stays_within_its_bound():
    rng = np.random.default_rng(25)
    bound = kernel._decoded_operand.cache_info().maxsize
    assert bound == kernel._OPERAND_CACHE_SIZE
    kernel._decoded_operand.cache_clear()
    for i in range(bound + 5):
        layer = encode_layer(rng.integers(-1, 2, size=(3, 4)) * 0.5, 0.5,
                             LayerFormat("ternary2bit"))
        compressed_forward(ModelFile(layers=[layer]), rng.normal(size=4))
        assert kernel._decoded_operand.cache_info().currsize == min(i + 1, bound)


def test_payload_is_copied_from_a_mutable_buffer():
    rng = np.random.default_rng(26)
    params = CodeParams(4, 2)
    source = encode_layer(random_sst_trits(rng, 8, 6, params) * 0.5, 0.5,
                          LayerFormat("sst", params), bias=rng.normal(size=8))
    assert EncodedLayer(source.format, 8, 6, 0.5, source.payload).payload is source.payload
    buffer = bytearray(source.payload)
    layer = EncodedLayer(source.format, 8, 6, 0.5, buffer, source.bias)
    assert type(layer.payload) is bytes
    x = rng.normal(size=6)
    served = compressed_forward(ModelFile(layers=[layer]), x)
    buffer[:] = bytes(len(buffer))
    assert layer.payload == source.payload
    assert np.array_equal(compressed_forward(ModelFile(layers=[layer]), x), served)
    view = EncodedLayer(source.format, 8, 6, 0.5, memoryview(bytearray(source.payload)))
    assert type(view.payload) is bytes and view.payload == source.payload
