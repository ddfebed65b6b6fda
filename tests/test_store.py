"""Layer codecs, model serialization, and storage accounting."""

import numpy as np
import pytest

from sstc.codes import CodeParams, address_bits
from sstc.errors import ValidationError
from sstc.store import (BatchNormParams, EncodedLayer, LayerFormat, ModelFile,
                        WeightNormTag, decode_layer, deserialize_model,
                        encode_layer, layer_indices, model_from_arrays,
                        read_model, serialize_model, storage_report,
                        write_model)

from conftest import random_sst_trits


def _random_layer(rng):
    kind = rng.choice(["float32", "fixed8", "ternary2bit", "sst"])
    if kind == "sst":
        n = int(rng.choice([2, 4, 8]))
        k = int(rng.integers(1, n + 1))
        params = CodeParams(n, k)
        orientation = str(rng.choice(["column", "row"]))
        if orientation == "column":
            rows, cols = n * int(rng.integers(1, 4)), int(rng.integers(1, 9))
        else:
            rows, cols = int(rng.integers(1, 9)), n * int(rng.integers(1, 4))
        delta = float(np.float32(rng.uniform(0.1, 2.0)))
        W = random_sst_trits(rng, rows, cols, params, orientation) * delta
        fmt = LayerFormat("sst", params, orientation)
    else:
        rows, cols = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        if kind == "float32":
            W = rng.normal(size=(rows, cols)).astype(np.float32).astype(np.float64)
            delta = None
        elif kind == "fixed8":
            delta = float(np.float32(rng.uniform(0.01, 0.5)))
            W = rng.integers(-127, 128, size=(rows, cols)) * delta
        else:
            delta = float(np.float32(rng.uniform(0.1, 2.0)))
            W = rng.integers(-1, 2, size=(rows, cols)) * delta
        fmt = LayerFormat(kind)
    bias = rng.normal(size=rows).astype(np.float32) if rng.random() < 0.8 else None
    norm = None
    roll = rng.random()
    if roll < 0.4:
        norm = BatchNormParams(rng.normal(size=rows), rng.normal(size=rows),
                               rng.normal(size=rows), rng.random(size=rows) + 0.1)
    elif roll < 0.6:
        norm = WeightNormTag()
    return W, delta, fmt, bias, norm


def test_sst_codec_single_spike():
    W = np.zeros((8, 1))
    W[2, 0] = 0.5
    layer = encode_layer(W, 0.5, LayerFormat("sst", CodeParams(8, 1)))
    assert layer.payload_bit_length() == 5
    assert np.array_equal(decode_layer(layer), W)


def test_sst_codec_zero_matrix():
    W = np.zeros((16, 16))
    layer = encode_layer(W, 1.0, LayerFormat("sst", CodeParams(16, 4)))
    assert layer.num_indices() == 16
    assert np.all(layer_indices(layer) == 0)
    assert np.array_equal(decode_layer(layer), W)


def test_sst_payload_size_large_layer():
    W = np.zeros((1024, 1024))
    layer = encode_layer(W, 1.0, LayerFormat("sst", CodeParams(8, 1)))
    assert layer.payload_bit_length() == 655_360
    assert len(layer.payload) == 81_920


def test_worked_subvector_example():
    # the single final sub-vector [0,+1,0,0,-1,+1,0,0] under the (8, 4) code
    vec = np.array([0, 1, 0, 0, -1, 1, 0, 0], dtype=float).reshape(8, 1) * 0.25
    layer = encode_layer(vec, 0.25, LayerFormat("sst", CodeParams(8, 4)))
    assert layer.num_indices() == 1
    assert np.array_equal(decode_layer(layer), vec)


def test_sst_codec_roundtrip_random_layers():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.choice([2, 4, 8, 16]))
        k = int(rng.integers(1, min(n, 4) + 1))
        params = CodeParams(n, k)
        orientation = str(rng.choice(["column", "row"]))
        if orientation == "column":
            rows, cols = n * int(rng.integers(1, 5)), int(rng.integers(1, 12))
        else:
            rows, cols = int(rng.integers(1, 12)), n * int(rng.integers(1, 5))
        delta = float(np.float32(rng.uniform(0.05, 3.0)))
        W = random_sst_trits(rng, rows, cols, params, orientation) * delta
        fmt = LayerFormat("sst", params, orientation)
        layer = encode_layer(W, delta, fmt)
        assert np.array_equal(decode_layer(layer), W)


def test_sst_budget_violation_names_position():
    W = np.zeros((4, 2))
    W[0, 1] = 1.0
    W[1, 1] = -1.0
    with pytest.raises(ValidationError, match="sub-vector 1"):
        encode_layer(W, 1.0, LayerFormat("sst", CodeParams(4, 1)), layer_name="fc0")


def test_sst_divisibility_error():
    with pytest.raises(ValidationError, match="divisible"):
        encode_layer(np.zeros((6, 2)), 1.0, LayerFormat("sst", CodeParams(4, 1)))


def test_sst_values_must_be_ternary_multiples():
    W = np.full((4, 1), 0.3)
    with pytest.raises(ValidationError):
        encode_layer(W, 0.2, LayerFormat("sst", CodeParams(4, 4)))


def test_ternary2bit_roundtrip():
    rng = np.random.default_rng(1)
    W = rng.integers(-1, 2, size=(7, 5)) * 0.75
    layer = encode_layer(W, 0.75, LayerFormat("ternary2bit"))
    assert layer.payload_bit_length() == 2 * 35
    assert np.array_equal(decode_layer(layer), W)


def test_fixed8_roundtrip():
    rng = np.random.default_rng(2)
    delta = float(np.float32(0.03))
    W = rng.integers(-127, 128, size=(6, 9)) * delta
    layer = encode_layer(W, delta, LayerFormat("fixed8"))
    assert np.array_equal(decode_layer(layer), W)


def test_float32_roundtrip():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(5, 4)).astype(np.float32).astype(np.float64)
    layer = encode_layer(W, None, LayerFormat("float32"))
    assert np.array_equal(decode_layer(layer), W)


def test_serialization_involution_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        layers = []
        for _ in range(int(rng.integers(0, 4))):
            W, delta, fmt, bias, norm = _random_layer(rng)
            layers.append(encode_layer(W, delta, fmt, bias=bias, normalizer=norm))
        meta = {"seed": int(rng.integers(100))} if rng.random() < 0.5 else {}
        model = ModelFile(layers=layers, metadata=meta)
        blob = serialize_model(model)
        back = deserialize_model(blob)
        assert back == model
        assert serialize_model(back) == blob


def test_serialized_header():
    blob = serialize_model(ModelFile())
    assert blob[:4] == b"SSTW"
    assert len(blob[:8]) == 8


def test_truncated_and_corrupt_files_rejected():
    model = ModelFile(layers=[encode_layer(np.zeros((4, 2)), 1.0,
                                           LayerFormat("sst", CodeParams(4, 1)))])
    blob = serialize_model(model)
    with pytest.raises(ValidationError):
        deserialize_model(blob[:10])
    with pytest.raises(ValidationError):
        deserialize_model(b"XXXXXXXX" + blob[8:])
    with pytest.raises(ValidationError):
        deserialize_model(blob + b"\x00")


def test_write_read_file(tmp_path):
    model = model_from_arrays([(np.eye(3), np.zeros(3))], names=["fc0"])
    path = tmp_path / "model.sstw"
    write_model(model, path)
    assert read_model(path) == model


def test_payload_bit_formulas():
    rng = np.random.default_rng(5)
    params = CodeParams(8, 2)
    W = random_sst_trits(rng, 16, 10, params) * 0.5
    layer = encode_layer(W, 0.5, LayerFormat("sst", params))
    assert layer.payload_bit_length() == (16 * 10 // 8) * address_bits(params)
    t = encode_layer(W, 0.5, LayerFormat("ternary2bit"))
    assert t.payload_bit_length() == 2 * 16 * 10


def test_bits_per_weight_equal_address_bits_over_n():
    expected = {(4, 1): 1.0, (8, 1): 0.625, (8, 2): 1.0,
                (16, 2): 0.625, (16, 3): 0.8125, (16, 4): 1.0}
    for (n, k), bpw in expected.items():
        params = CodeParams(n, k)
        W = np.zeros((n * 4, 8))
        layer = encode_layer(W, 1.0, LayerFormat("sst", params))
        assert layer.payload_bit_length() / layer.weight_count == bpw
        assert address_bits(params) / n == bpw


def test_storage_report_single_sst_layer():
    W = np.zeros((1024, 1024))
    layer = encode_layer(W, 1.0, LayerFormat("sst", CodeParams(8, 1)))
    report = storage_report(ModelFile(layers=[layer]))
    assert report.layers[0].payload_bits == 81_920 * 8
    assert report.table_bits == 272
    assert report.float_bits == 1024 * 1024 * 32
    assert report.ratio == pytest.approx(4_194_304 / (81_920 + 34), rel=1e-6)


def test_storage_report_ternary_is_16x():
    W = np.zeros((1024, 1024))
    layer = encode_layer(W, 1.0, LayerFormat("ternary2bit"))
    report = storage_report(ModelFile(layers=[layer]))
    assert report.ratio == 16.0


def test_storage_report_excluding_table_matches_index_rate():
    params = CodeParams(8, 1)
    W = np.zeros((64, 64))
    layer = encode_layer(W, 1.0, LayerFormat("sst", params))
    report = storage_report(ModelFile(layers=[layer]), include_tables=False)
    per_weight = report.compressed_bits / (64 * 64)
    assert per_weight == address_bits(params) / params.n


def test_storage_report_counts_shared_table_once():
    params = CodeParams(8, 1)
    layers = [encode_layer(np.zeros((8, 4)), 1.0, LayerFormat("sst", params))
              for _ in range(3)]
    report = storage_report(ModelFile(layers=layers))
    assert report.table_bits == 272
    assert sum(l.table_bits for l in report.layers) == pytest.approx(272)


def test_storage_report_bias_and_normalizer_toggles():
    W = np.zeros((8, 8))
    norm = BatchNormParams(np.ones(8), np.zeros(8), np.zeros(8), np.ones(8))
    layer = encode_layer(W, 1.0, LayerFormat("ternary2bit"), bias=np.zeros(8), normalizer=norm)
    model = ModelFile(layers=[layer])
    full = storage_report(model)
    lean = storage_report(model, include_bias=False, include_normalizers=False)
    assert full.compressed_bits == lean.compressed_bits + 32 * 8 + 32 * 32
    assert lean.ratio == 16.0
