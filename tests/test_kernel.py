"""Compressed inference kernel against the dense oracle."""

import copy
import pickle
import re
import sys
import threading
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sstc import kernel
from sstc.codes import CodeParams, build_table, from_subvectors, subvectors, unrank_subvectors
from sstc.errors import ValidationError
from sstc.kernel import CompressedFCLayer, compressed_forward, dense_matvec, pe_trace
from sstc.store import (BatchNormParams, EncodedLayer, LayerFormat, ModelFile, compress_layer,
                        decode_layer, deserialize_model, encode_layer, layer_indices,
                        model_from_arrays, serialize_model)

from conftest import random_sst_trits

ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]
# served with no table: (16,16) is far above the reference table's entry
# cap, and (24,2) has the longest sub-vectors a code may have
WIDE_CODES = [(16, 16), (24, 2)]


def _compressed(W, delta, params, bias=None):
    layer = encode_layer(W, delta, LayerFormat("sst", params), bias=bias)
    return CompressedFCLayer(layer, build_table(params))


@pytest.fixture(scope="module")
def wide_model():
    """A 784-1024-1024-1024-1030-1024-10 model whose hidden layers are all
    larger than one core's L2.  Its sst operands get padded rows: (8,1)
    column 1024x784 and 1024x1024 and dense (16,16) row 1024x1024, whose
    batches may run tile by tile, and (8,8) row 1030x1024, a width that is
    not a multiple of the tile; on such a dense operand 2 BLAS threads sum
    outputs 512-514 and the last one in another order when the width is
    split unevenly.  The fixed8 1024x1030 operand is not padded or tiled.
    The weights are scaled by 1/sqrt(fan-in), so no probability saturates."""
    rng = np.random.default_rng(30)
    dims = (784, 1024, 1024, 1024, 1030, 1024, 10)
    formats = [LayerFormat("sst", CodeParams(8, 1), "column"),
               LayerFormat("sst", CodeParams(8, 1), "column"),
               LayerFormat("sst", CodeParams(16, 16), "row"),
               LayerFormat("sst", CodeParams(8, 8), "row")]
    layers = [compress_layer(rng.normal(size=(rows, cols)) / np.sqrt(cols), fmt,
                             bias=rng.normal(size=rows) * 0.1)
              for cols, rows, fmt in zip(dims, dims[1:], formats)]
    # a normal(0, 1/sqrt(1030)) matrix rounded to steps of 1/128; compress_layer
    # would spend seconds fitting the step of a million fixed8 weights
    step = 1 / 128
    levels = np.clip(np.rint(rng.normal(size=(1024, 1030)) / np.sqrt(1030) / step), -127, 127)
    layers.append(encode_layer(levels * step, step, LayerFormat("fixed8"),
                               bias=rng.normal(size=1024) * 0.1))
    layers.append(compress_layer(rng.normal(size=(10, 1024)) / np.sqrt(1024),
                                 LayerFormat("ternary2bit")))
    for layer in layers[:-1]:
        assert layer.rows * layer.cols * 8 > kernel._L2_BYTES
    assert [layer.rows % kernel._TILE for layer in layers[:4]] == [0, 0, 0, 1030 % 64]
    return ModelFile(layers=layers)


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
    for n, k in ALL_CODES + WIDE_CODES:
        params = CodeParams(n, k)
        table = build_table(params) if (n, k) in ALL_CODES else None
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


def test_batch_equals_per_sample_calls(wide_model):
    # bit-identical rows for every code and batch size, and on sst operands
    # larger than L2, whose batches of `_TILE_MIN_ROWS` or more rows may run
    # tile by tile
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
    for layer in wide_model.layers[1:4]:
        comp = CompressedFCLayer(layer)
        X = rng.normal(size=(kernel._TILE_MIN_ROWS, layer.cols))
        singles = np.stack([comp.matmul(x) for x in X])
        # one row fewer than the threshold runs row by row, the threshold by tiles
        for batch_size in (kernel._TILE_MIN_ROWS - 1, kernel._TILE_MIN_ROWS):
            batch = comp.matmul(X[:batch_size])
            assert np.array_equal(batch, singles[:batch_size]), (layer.format, batch_size)


def test_tiles_run_on_large_sst_batches_shown_to_keep_their_bits(wide_model, monkeypatch):
    tiled = []
    tile_products = kernel._tile_products
    monkeypatch.setattr(kernel, "_tile_products",
                        lambda X, W_t: tiled.append(W_t.shape) or tile_products(X, W_t))
    rng = np.random.default_rng(31)
    sst, excluded_width, fixed8 = (kernel._operand(layer) for layer in wide_model.layers[2:5])
    for W_t in (sst, excluded_width, fixed8):
        for batch_size in (1, kernel._TILE_MIN_ROWS - 1, kernel._TILE_MIN_ROWS):
            kernel._row_products(rng.normal(size=(batch_size, W_t.shape[0])), W_t)
    assert tiled == ([sst.shape] if kernel._tiles_keep_bits(*sst.shape) else [])
    # a shape whose tiles would change bits runs row by row
    tiled.clear()
    monkeypatch.setattr(kernel, "_tiles_keep_bits", lambda cols, width: False)
    kernel._row_products(rng.normal(size=(kernel._TILE_MIN_ROWS, sst.shape[0])), sst)
    assert tiled == []


def test_tile_probe_matches_the_products():
    # the probe's verdict is whether a dense operand of the shape keeps its bits
    rng = np.random.default_rng(32)
    W_t = kernel._cache_line_aligned(rng.normal(size=(784, 1024)), padded=True)
    X = rng.normal(size=(kernel._TILE_MIN_ROWS, 784))
    same = np.array_equal(kernel._tile_products(X, W_t), np.matmul(X[:, np.newaxis, :], W_t)[:, 0])
    assert kernel._tiles_keep_bits(784, 1024) == same


def test_weights_t_is_the_decoded_trit_matrix():
    rng = np.random.default_rng(12)
    for n, k in ALL_CODES + WIDE_CODES:
        params = CodeParams(n, k)
        table = build_table(params) if (n, k) in ALL_CODES else None
        for rows, cols, zero in ((n, 1, False), (n, 5, True), (3 * n, 7, False)):
            delta = float(np.float32(rng.uniform(0.1, 1.5)))
            W = np.zeros((rows, cols)) if zero else random_sst_trits(rng, rows, cols, params) * delta
            layer = encode_layer(W, delta, LayerFormat("sst", params))
            comp = CompressedFCLayer(layer, table)
            assert comp.weights_t.dtype == np.float64
            assert np.array_equal(comp.weights_t, decode_layer(layer).T / comp.delta)


def test_served_column_operand_is_the_table_gather_bit_for_bit():
    # reference: gather each index's row from the materialized code table
    # and lay the sub-vectors out as the column payload orders them
    rng = np.random.default_rng(15)
    for n, k in ALL_CODES:
        params = CodeParams(n, k)
        for rows, cols, zero in ((n, 1, False), (2 * n, 3, True), (4 * n, 9, False)):
            W = np.zeros((rows, cols)) if zero else random_sst_trits(rng, rows, cols, params) * 0.5
            layer = encode_layer(W, 0.5, LayerFormat("sst", params))
            want = from_subvectors(build_table(params).trits[layer_indices(layer)],
                                   rows, cols, params, "column").T.astype(np.float64)
            got = CompressedFCLayer(layer).weights_t
            assert got.shape == want.shape == (cols, rows) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (params, rows, cols)


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


def test_row_layers_serve_audit_and_trace_through_the_one_kernel():
    rng = np.random.default_rng(27)
    for n, k in ALL_CODES + WIDE_CODES:
        params = CodeParams(n, k)
        for rows, cols in ((1, n), (5, 3 * n), (40, 8 * n)):
            delta = float(np.float32(rng.uniform(0.1, 1.5)))
            trits = random_sst_trits(rng, rows, cols, params, "row")
            bias = rng.normal(size=rows).astype(np.float32)
            layer = encode_layer(trits * delta, delta, LayerFormat("sst", params, "row"),
                                 bias=bias)
            # served as a column layer is: delta * (x @ trits.T) + bias, row by row
            trits_t = np.ascontiguousarray(trits.T, dtype=np.float64)
            X = rng.normal(size=(7, cols))
            want = np.stack([delta * (x @ trits_t) + bias.astype(np.float64) for x in X])
            assert kernel.served_product(layer, X).tobytes() == want.tobytes(), (params, rows)
            comp = CompressedFCLayer(layer)
            assert comp.weights_t.tobytes() == trits_t.tobytes()
            assert np.array_equal(comp.nz_per_subvector,
                                  np.count_nonzero(subvectors(trits, params, "row"), axis=1))
            x = rng.integers(-100, 101, size=(5, cols))
            assert np.array_equal(comp.accumulate(x), x @ trits.astype(np.int64).T)
            trace = pe_trace(comp)
            assert trace.table_lookups == rows * cols // n
            assert trace.addsub_ops == np.count_nonzero(trits)
            assert trace.delta_multiplies == rows
            assert trace.max_ops_per_subvector <= trace.op_budget == k


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


def test_forward_batch_independence(wide_model):
    # every layer format, bit-identical rows in any batch
    rng = np.random.default_rng(7)
    for model in (_toy_model(rng), _mixed_model(rng), wide_model):
        X = rng.normal(size=(37, model.layers[0].cols))
        batch = compressed_forward(model, X)
        singles = np.vstack([compressed_forward(model, x[np.newaxis]) for x in X])
        assert np.array_equal(batch, singles)
        # a re-read copy builds its served layers on a single row, then serves the batch
        reread = deserialize_model(serialize_model(model))
        singles = np.vstack([compressed_forward(reread, x) for x in X])
        assert np.array_equal(compressed_forward(reread, X), singles)
        assert np.array_equal(singles, batch)


def test_forward_chain_mismatch():
    rng = np.random.default_rng(8)
    model = _toy_model(rng)
    with pytest.raises(ValidationError, match="^input has 7 features, layer 0 expects 6$"):
        compressed_forward(model, np.zeros((2, 7)))
    model.metadata["layer_names"] = ["fc0", "fc1"]
    with pytest.raises(ValidationError, match=r"^input has 7 features, layer 0 \(fc0\) expects 6$"):
        compressed_forward(model, np.zeros((2, 7)))
    model.layers[1] = replace(model.layers[1], cols=4, payload=bytes(3))
    with pytest.raises(ValidationError,
                       match=r"^layer 1 \(fc1\) expects 4 inputs, layer 0 \(fc0\) emits 8$"):
        compressed_forward(model, np.zeros((2, 6)))


@pytest.mark.parametrize("first", range(5), ids=["column-sst", "fixed8", "float32",
                                                   "row-sst", "ternary"])
def test_forward_rejects_input_that_is_not_a_sample_or_a_batch(first):
    # the same error whatever the first layer serves through
    model = ModelFile(layers=_mixed_model(np.random.default_rng(10)).layers[first:])
    cols = model.layers[0].cols
    for X in (np.zeros((5, cols, 1)), np.zeros((1, 1, cols)), np.float64(1.0)):
        with pytest.raises(ValidationError, match=r"input shape .*: expected one sample or "
                                                  "a batch of samples"):
            compressed_forward(model, X)


def test_forward_rejects_non_finite_and_ragged_input():
    model = _mixed_model(np.random.default_rng(11))
    cols = model.layers[0].cols
    inf_row, inf_sample = np.zeros((3, cols)), np.zeros(cols)
    inf_row[1, 5], inf_sample[7] = -np.inf, np.inf
    cases = {"nan at sample 0, feature 0 is not finite": np.full((2, cols), np.nan),
             "-inf at sample 1, feature 5 is not finite": inf_row,
             "inf at sample 0, feature 7 is not finite": inf_sample,
             "inhomogeneous shape": [np.zeros(cols - 1), np.zeros(cols)],
             # a cast would drop the imaginary parts, with only a ComplexWarning
             "input is complex128: expected real numbers": np.full((2, cols), 1 + 1j),
             "input is complex64: expected real numbers": np.zeros(cols, dtype=np.complex64),
             "input is not an array of numbers: .*not 'complex'": [1j, None] * (cols // 2)}
    # numpy's cast would parse text and bytes as numbers
    objects = np.ones((2, cols), dtype=object)
    objects[1, 3] = b"1"
    text = "input is not an array of numbers: it holds text, bytes or records ({})"
    cases = [*cases.items(), *((re.escape(text.format(dtype)), X) for dtype, X in [
        ("<U3", ["1.5"] * cols), ("|S1", [b"1"] * cols),
        ("[('a', '<f8')]", np.zeros(cols, dtype=[("a", "<f8")])),
        ("object", np.array([1.0] * (cols - 1) + ["2"], dtype=object)), ("object", objects)])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before numpy computes anything
        for message, X in cases:
            with pytest.raises(ValidationError, match=message):
                compressed_forward(model, X)


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


# --- serving cache: each layer content is decoded once ----------------------

def _fresh_forward(model, X):
    """Forward pass of a re-read copy of ``model``, decoded from scratch."""
    kernel._served_layers.clear()
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

    def replacing(pos, **fields):
        return lambda m: m.layers.__setitem__(pos, replace(m.layers[pos], **fields))

    changes = [
        ("column sst payload", replacing(0, payload=other_trits.payload)),
        ("column sst delta", replacing(0, delta=0.75)),
        ("row sst delta", replacing(3, delta=0.5)),
        ("fixed8 payload", replacing(1, payload=other_fixed8.payload)),
        ("fixed8 delta", replacing(1, delta=0.375)),
        ("ternary delta", replacing(4, delta=0.5)),
        ("float32 bias", replacing(2, bias=rng.normal(size=40).astype(np.float32))),
        ("batch norm", replacing(0, normalizer=BatchNormParams(
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


def test_cold_warm_and_reloaded_calls_are_bitwise_equal(decoded_layers):
    rng = np.random.default_rng(22)
    model = _mixed_model(rng)
    X = rng.normal(size=(9, 96))
    kernel._served_layers.clear()
    cold = compressed_forward(model, X)
    assert decoded_layers == model.layers
    assert all(id(layer) in kernel._served_layers for layer in model.layers)
    # a warm call is answered by the served layers, and a re-read model's new
    # entries share the operands of the equal layers served before
    warm = compressed_forward(model, X)
    reloaded = compressed_forward(deserialize_model(serialize_model(model)), X)
    assert len(decoded_layers) == len(model.layers)
    assert np.array_equal(cold, warm) and np.array_equal(cold, reloaded)


def test_reread_model_shares_the_first_reads_operands():
    rng = np.random.default_rng(34)
    model = _mixed_model(rng)
    data = serialize_model(model)
    first, again = deserialize_model(data), deserialize_model(data)
    x = rng.normal(size=96)
    compressed_forward(first, x)
    compressed_forward(again, x)
    for a, b in zip(first.layers, again.layers):
        assert a is not b
        assert kernel._served_layer(b).operand is kernel._served_layer(a).operand
    # a kernel built on its own shares the served operand too
    assert CompressedFCLayer(again.layers[0]).weights_t is kernel._served_layer(
        first.layers[0]).operand


def test_warm_request_builds_no_kernel_and_folds_no_batch_norm(monkeypatch):
    rng = np.random.default_rng(27)
    model = _mixed_model(rng)
    x = rng.normal(size=96)
    cold = compressed_forward(model, x)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a warm request rebuilt its serving state")

    monkeypatch.setattr(CompressedFCLayer, "__init__", rebuilt)
    monkeypatch.setattr(kernel, "bn_eval_affine", rebuilt)
    monkeypatch.setattr(kernel, "_operand", rebuilt)
    monkeypatch.setattr(kernel, "_decoded_operand", rebuilt)
    assert np.array_equal(compressed_forward(model, x), cold)


def test_cached_operands_are_read_only(wide_model):
    rng = np.random.default_rng(23)
    model = _mixed_model(rng)
    for layer in model.layers + wide_model.layers:
        operand = kernel._served_layer(layer).operand
        assert operand.shape == (layer.cols, layer.rows)
        assert operand.ctypes.data % 64 == 0
        # an sst operand is a copy of the trits.T, with a row stride one cache
        # line longer when larger than L2; the others a view of a copy's .T
        if layer.format.kind == "sst":
            pad = 64 if layer.rows * layer.cols * 8 > kernel._L2_BYTES else 0
            assert operand.strides == (8 * layer.rows + pad, 8)
        else:
            assert operand.strides == (8, 8 * layer.cols)
        with pytest.raises(ValueError):
            operand[0, 0] = 1.0
    comp = CompressedFCLayer(model.layers[0], build_table(model.layers[0].format.params))
    assert comp.weights_t is kernel._served_layer(model.layers[0]).operand
    with pytest.raises(ValueError):
        comp.weights_t[0, 0] = 1.0


def test_warm_kernel_build_unpacks_no_indices():
    rng = np.random.default_rng(24)
    params = CodeParams(8, 1)
    layer = encode_layer(random_sst_trits(rng, 16, 5, params) * 0.5, 0.5, LayerFormat("sst", params))
    compressed_forward(ModelFile(layers=[layer]), rng.normal(size=5))
    comp = CompressedFCLayer(layer, build_table(params))
    assert "indices" not in vars(comp)
    with pytest.raises(FrozenInstanceError):  # a built kernel's layer cannot change
        layer.payload = bytes(len(layer.payload))
    assert np.array_equal(comp.indices, layer_indices(layer))


def test_corrupt_payload_raises_on_every_call(decoded_layers):
    layer = replace(encode_layer(np.zeros((8, 2)), 1.0, LayerFormat("sst", CodeParams(8, 1))),
                    payload=bytes([0xF8, 0x00]))  # index 31 > T-1 = 16
    model = ModelFile(layers=[layer])
    served = list(kernel._served_layers)
    for _ in range(3):
        with pytest.raises(ValidationError, match="corrupt index 31 at stream position 0"):
            compressed_forward(model, np.zeros((1, 2)))
    # each call decodes again, and no failure enters the cache
    assert decoded_layers == [layer] * 3
    assert list(kernel._served_layers) == served


def _distinct_ternary_layers(rng, count):
    """``count`` 3x4 ternary2bit layers, no two of equal content."""
    layers = {}
    while len(layers) < count:
        layer = encode_layer(rng.integers(-1, 2, size=(3, 4)) * 0.5, 0.5,
                             LayerFormat("ternary2bit"))
        layers.setdefault(layer.payload, layer)
    return list(layers.values())


def test_operand_cache_stays_within_its_bound(decoded_layers):
    rng = np.random.default_rng(25)
    bound = kernel._OPERAND_CACHE_SIZE
    kernel._served_layers.clear()
    for i, layer in enumerate(_distinct_ternary_layers(rng, bound + 5)):
        compressed_forward(ModelFile(layers=[layer]), rng.normal(size=4))
        assert decoded_layers[-1] is layer and len(decoded_layers) == i + 1
        assert list(kernel._served_layers)[-1] == id(layer)
        assert len(kernel._served_layers) == min(i + 1, bound)


def test_at_most_the_bound_of_operands_stay_alive():
    rng = np.random.default_rng(35)
    bound = kernel._OPERAND_CACHE_SIZE
    kernel._served_layers.clear()
    refs = []
    for layer in _distinct_ternary_layers(rng, bound + 5):
        compressed_forward(ModelFile(layers=[layer]), rng.normal(size=4))
        refs.append(weakref.ref(kernel._served_layer(layer).operand))
        assert sum(ref() is not None for ref in refs) == min(len(refs), bound)
    # the least recently served are the ones dropped
    assert [ref() is not None for ref in refs] == [False] * 5 + [True] * bound


def test_clearing_the_served_layers_frees_every_operand(decoded_layers):
    # the served layers are the only holders of their operands
    rng = np.random.default_rng(28)
    model = _mixed_model(rng)
    X = rng.normal(size=(3, 96))
    served = compressed_forward(model, X)
    refs = [weakref.ref(kernel._served_layer(layer).operand) for layer in model.layers]
    kernel._served_layers.clear()
    assert [ref() for ref in refs] == [None] * len(refs)
    # a call then decodes its operands again, to the same bits
    decoded_layers.clear()
    assert np.array_equal(compressed_forward(model, X), served)
    assert decoded_layers == model.layers


def test_concurrent_requests_share_the_served_layers(monkeypatch):
    rng = np.random.default_rng(29)
    models = [_toy_model(rng), _toy_model(rng, with_bn=False), _toy_model(rng)]
    X = rng.normal(size=(4, 6))
    want = [compressed_forward(m, X) for m in models]
    monkeypatch.setattr(kernel, "_OPERAND_CACHE_SIZE", 3)  # four layers per round evict
    kernel._served_layers.clear()
    errors = []

    def serve(seed):
        order = np.random.default_rng(seed)
        try:
            for _ in range(200):
                i = int(order.integers(len(models)))
                if not np.array_equal(compressed_forward(models[i], X), want[i]):
                    errors.append(f"model {i} served other bits")
        except Exception as exc:  # every failure is reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(kernel._served_layers) <= 3


def test_bias_and_batch_norm_are_read_only_copies():
    rng = np.random.default_rng(33)
    bias = rng.normal(size=4).astype(np.float32)
    stats = [rng.random(4).astype(np.float32) + 0.5 for _ in range(4)]
    model = model_from_arrays([(rng.normal(size=(4, 6)), bias)],
                              normalizers=[BatchNormParams(*stats)])
    x = rng.normal(size=6)
    served = compressed_forward(model, x)
    # the caller's arrays are not the layer's
    bias[0] = np.nan
    stats[3][1] = -5.0
    assert np.array_equal(compressed_forward(model, x), served)
    first = model.layers[0]
    for layer in (first, deserialize_model(serialize_model(model)).layers[0],
                  copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        norm = layer.normalizer
        for values in (layer.bias, norm.gamma, norm.beta, norm.mean, norm.var):
            assert values.dtype == np.float32 and values.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                values[1] = -5.0
        with pytest.raises(FrozenInstanceError):
            norm.var = np.full(4, -5.0)
    assert np.array_equal(compressed_forward(model, x), served)


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
