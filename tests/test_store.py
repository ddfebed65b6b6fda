"""Layer codecs, model serialization, and storage accounting."""

import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from sstc import bitpack, quantize
from sstc.codes import CodeParams, address_bits, count_entries
from sstc.errors import ValidationError
from sstc.prune import structured_prune
from sstc.quantize import find_step_size, quantize_weight
from sstc.store import (BatchNormParams, EncodedLayer, LayerFormat, ModelFile,
                        WeightNormTag, compress_layer, decode_layer, deserialize_model,
                        encode_layer, layer_indices, model_from_arrays,
                        read_model, serialize_model, storage_report,
                        write_model)

from conftest import random_layer, random_sst_trits, reference_decode


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_float32_weights_must_be_finite(value):
    clean = encode_layer(np.zeros((3, 4)), None, LayerFormat("float32"))
    message = f"float32 weight {value} at row 2, column 1 is not finite"
    W = np.zeros((3, 4))
    W[2, 1] = value
    with pytest.raises(ValidationError, match=message):
        encode_layer(W, None, LayerFormat("float32"))
    with pytest.raises(ValidationError, match=message):
        model_from_arrays([(W, None)])
    # the payload of a first float32 layer without bias starts at byte 40
    blob = serialize_model(ModelFile(layers=[clean]))
    assert serialize_model(deserialize_model(blob)) == blob
    bad = bytearray(blob)
    bad[40 + 4 * 9:40 + 4 * 10] = struct.pack("<f", value)
    with pytest.raises(ValidationError, match=message):
        deserialize_model(bytes(bad))


def test_serialization_involution_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        layers = []
        for _ in range(int(rng.integers(0, 4))):
            W, delta, fmt, bias, norm = random_layer(rng)
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


def test_layer_header_bytes_outside_what_serialize_writes_are_rejected():
    # first layer header: format u8 at byte 12, orientation u8 at 13,
    # n u8 at 22, k u8 at 23
    W = np.diag(np.random.default_rng(8).choice([-0.5, 0.5], size=8))
    models = [ModelFile(layers=[encode_layer(W, 0.5, LayerFormat("sst", CodeParams(8, 2), o))])
              for o in ("column", "row")]
    models += [ModelFile(layers=[encode_layer(W, 0.5, LayerFormat(kind))])
               for kind in ("float32", "fixed8", "ternary2bit")]
    for model in models:
        blob = serialize_model(model)
        assert serialize_model(deserialize_model(blob)) == blob
        if model.layers[0].format.kind == "sst":
            never_written = {13: range(2, 256)}
        else:
            never_written = {offset: range(1, 256) for offset in (13, 22, 23)}
        for offset, values in never_written.items():
            for value in values:
                bad = bytearray(blob)
                bad[offset] = value
                with pytest.raises(ValidationError):
                    deserialize_model(bytes(bad))


def _bn_sst_model_bytes():
    """An (8,1) + batch-norm layer: its delta f32 is at byte 24, and the file
    ends with its var f32[rows], the metadata length u32 and b"{}"."""
    rows = 8
    W = np.zeros((rows, 4))
    W[np.arange(4) * 2, np.arange(4)] = 0.5
    norm = BatchNormParams(np.ones(rows), np.zeros(rows), np.zeros(rows), np.ones(rows))
    layer = encode_layer(W, 0.5, LayerFormat("sst", CodeParams(8, 1)), bias=np.zeros(rows),
                         normalizer=norm)
    blob = serialize_model(ModelFile(layers=[layer]))
    assert serialize_model(deserialize_model(blob)) == blob
    return blob, rows


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
def test_stored_step_size_must_be_finite_and_positive(delta):
    blob, _ = _bn_sst_model_bytes()
    bad = bytearray(blob)
    bad[24:28] = struct.pack("<f", delta)
    with pytest.raises(ValidationError, match="finite positive step size"):
        deserialize_model(bytes(bad))
    for kind in ("fixed8", "ternary2bit", "sst"):
        fmt = LayerFormat(kind, CodeParams(4, 1) if kind == "sst" else None)
        bits = {"fixed8": 32, "ternary2bit": 8, "sst": 3}[kind]
        with pytest.raises(ValidationError, match="finite positive step size"):
            EncodedLayer(fmt, 4, 1, delta, bytes((bits + 7) // 8))


def test_stored_batch_norm_var_plus_eps_must_be_positive():
    blob, rows = _bn_sst_model_bytes()
    var_at = len(blob) - 6 - 4 * rows
    assert np.array_equal(np.frombuffer(blob[var_at:var_at + 4 * rows], "<f4"), np.ones(rows))
    for value, match in ((-1.0, "var \\+ eps must be positive"),
                         (float("nan"), "non-finite"), (float("inf"), "non-finite")):
        bad = bytearray(blob)
        bad[var_at + 4:var_at + 8] = struct.pack("<f", value)
        with pytest.raises(ValidationError, match=match):
            deserialize_model(bytes(bad))
    with pytest.raises(ValidationError, match="non-finite"):
        BatchNormParams(np.ones(2), np.array([0.0, np.nan]), np.zeros(2), np.ones(2))


@pytest.mark.parametrize("names, label", [(None, "layer 1"), (["fc0", "fc1"], "layer 1 (fc1)")])
def test_errors_while_building_a_loaded_layer_name_it(names, label):
    def raises(message):
        return pytest.raises(ValidationError, match=f"^{re.escape(f'{label}: {message}')}$")

    W0, W1 = np.zeros((8, 4)), np.zeros((8, 8))
    W0[0, 0] = W1[3, 3] = 0.5
    W1_nan = W1.copy()
    W1_nan[2, 5] = np.nan
    with raises("float32 weight nan at row 2, column 5 is not finite"):
        model_from_arrays([(W0, None), (W1_nan, np.zeros(8))], names=names)
    fmt = LayerFormat("sst", CodeParams(8, 1))
    first = encode_layer(W0, 0.5, fmt)
    model = ModelFile(layers=[first, encode_layer(W1, 0.5, fmt)],
                      metadata={"layer_names": names} if names else {})
    blob = serialize_model(model)
    assert deserialize_model(blob) == model
    # layer 1's header follows the 12-byte file header and layer 0, whose
    # record is a one-layer file minus that header and the 6-byte b"{}" trailer
    delta_at = 12 + len(serialize_model(ModelFile(layers=[first]))) - 18 + 12
    bad = bytearray(blob)
    bad[delta_at:delta_at + 4] = struct.pack("<f", float("nan"))
    with raises("format sst needs a finite positive step size, got nan"):
        deserialize_model(bytes(bad))


def test_metadata_must_be_a_json_object():
    blob = serialize_model(ModelFile())
    assert blob.endswith(struct.pack("<I", 2) + b"{}")
    with pytest.raises(ValidationError, match="^metadata must be a JSON object, got list$"):
        deserialize_model(blob[:-6] + struct.pack("<I", 2) + b"[]")


@pytest.mark.parametrize("block, message", [
    (b"\xff", "metadata block is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    (b'{"layer_names": [', "metadata block does not parse as JSON: Expecting value"),
])
def test_metadata_that_is_not_utf8_json_is_rejected(block, message):
    blob = serialize_model(ModelFile())[:-6] + struct.pack("<I", len(block)) + block
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        deserialize_model(blob)


def test_row_orientation_is_sst_only():
    for kind in ("float32", "fixed8", "ternary2bit"):
        with pytest.raises(ValidationError, match="column-oriented only"):
            LayerFormat(kind, orientation="row")


def test_write_read_file(tmp_path):
    model = model_from_arrays([(np.eye(3), np.zeros(3))], names=["fc0"])
    path = tmp_path / "model.sstw"
    write_model(model, path)
    assert read_model(path) == model


def test_read_model_parses_the_file_as_deserialize_model_parses_its_bytes(tmp_path):
    rng = np.random.default_rng(23)
    model = ModelFile(layers=[encode_layer(*random_layer(rng)) for _ in range(4)],
                      metadata={"note": "x"})
    blob = serialize_model(model)
    path = tmp_path / "m.sstw"
    path.write_bytes(blob)
    assert read_model(path) == model == deserialize_model(blob)
    for data, message in ((blob[:-3], "truncated model file"),
                          (blob[:40], "truncated model file"),
                          (blob + b"\x00\x01", "2 trailing bytes after model")):
        path.write_bytes(data)
        for parse in (lambda: read_model(path), lambda: deserialize_model(data)):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                parse()


def test_write_model_writes_the_serialized_bytes_or_nothing(tmp_path):
    rng = np.random.default_rng(21)
    model = ModelFile(layers=[encode_layer(*random_layer(rng)) for _ in range(6)],
                      metadata={"note": "streamed"})
    path = tmp_path / "model.sstw"
    write_model(model, path)
    assert path.read_bytes() == serialize_model(model)
    # the last layer fails to serialize after the others were written
    bad = replace(encode_layer(np.eye(3), None, LayerFormat("float32")),
                  normalizer=BatchNormParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2)))
    model.layers.append(bad)
    with pytest.raises(ValidationError, match="batch norm parameter length"):
        write_model(model, tmp_path / "bad.sstw")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.sstw"]


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


@pytest.mark.parametrize("bias_len", [1, 7])
def test_bias_length_must_match_rows(bias_len):
    params = CodeParams(4, 1)
    W = np.zeros((8, 4))
    with pytest.raises(ValidationError, match=rf"\({bias_len},\) does not match the 8 rows"):
        encode_layer(W, 1.0, LayerFormat("sst", params), bias=np.zeros(bias_len))
    layer = encode_layer(W, 1.0, LayerFormat("sst", params), bias=np.zeros(8))
    with pytest.raises(ValidationError, match=rf"\({bias_len},\) does not match the 8 rows"):
        replace(layer, bias=np.zeros(bias_len))
    # a file whose bias record has another length is rejected on load
    data = serialize_model(ModelFile(layers=[layer]))
    at = 12 + struct.calcsize("<BBIIBBf")  # magic, version, layer count, layer header
    assert struct.unpack_from("<I", data, at) == (8,)
    data = data[:at] + struct.pack("<I", bias_len) + bytes(4 * bias_len) + data[at + 4 + 32:]
    with pytest.raises(ValidationError, match=rf"\({bias_len},\) does not match the 8 rows"):
        deserialize_model(data)


# --- compress_layer ------------------------------------------------------

ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]


def reference_compress(W, fmt, bias=None, normalizer=None):
    """The step-by-step pipeline `compress_layer` must match byte for byte."""
    if fmt.kind == "float32":
        return encode_layer(W, None, fmt, bias, normalizer)
    levels = 255 if fmt.kind == "fixed8" else 3
    if fmt.kind == "sst":
        W = W * structured_prune(W, fmt.params, fmt.orientation)
    delta = float(np.float32(find_step_size(W, levels)))
    return encode_layer(quantize_weight(W, delta, levels), delta, fmt, bias, normalizer)


def _compress_inputs(rng, n, orientation):
    """Random and tie-heavy matrices whose grouped dimension is a multiple of n."""
    for trial in range(6):
        groups, other = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        shape = (groups * n, other) if orientation == "column" else (other, groups * n)
        if trial % 2:
            # multiples of 0.25, half of them zero: sub-vectors keep zeros
            W = rng.integers(-4, 5, size=shape) * 0.25 * (rng.random(shape) < 0.5)
            W.flat[0] = 0.75  # not all zero
        else:
            W = rng.normal(size=shape)
        yield W


def _same_bytes(got, want):
    assert serialize_model(ModelFile(layers=[got])) == serialize_model(ModelFile(layers=[want]))


# The "fallback" cases set a zero sweep limit: fixed8 fits past it take the
# multi-start fallback, while ternary and sst fits still sweep exactly.
@pytest.mark.parametrize("sweep", ["exact", "fallback"])
@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("n,k", ALL_CODES + [(16, 16)])
def test_compress_layer_writes_the_reference_pipeline_bytes(n, k, orientation, sweep,
                                                            monkeypatch):
    rng = np.random.default_rng(10 * n + k)
    fmt = LayerFormat("sst", CodeParams(n, k), orientation)
    for W in _compress_inputs(rng, n, orientation):
        bias = rng.normal(size=W.shape[0])
        want = reference_compress(W, fmt, bias, WeightNormTag())  # under the default limit
        with monkeypatch.context() as m:
            if sweep == "fallback":
                m.setattr(quantize, "_SWEEP_LIMIT", 0)  # sst fits write the same bytes
            _same_bytes(compress_layer(W, fmt, bias, WeightNormTag(), "fc"), want)


@pytest.mark.parametrize("sweep", ["exact", "fallback"])
@pytest.mark.parametrize("kind", ["float32", "fixed8", "ternary2bit"])
def test_compress_layer_writes_the_reference_bytes_of_unpruned_formats(kind, sweep,
                                                                      monkeypatch):
    if sweep == "fallback":
        monkeypatch.setattr(quantize, "_SWEEP_LIMIT", 0)
    rng = np.random.default_rng(5)
    fmt = LayerFormat(kind)
    for W in _compress_inputs(rng, 4, "column"):
        _same_bytes(compress_layer(W, fmt), reference_compress(W, fmt))


_ALL_FORMATS = ([LayerFormat("sst", CodeParams(n, k), orientation)
                 for n, k in ALL_CODES + [(16, 16)] for orientation in ("column", "row")]
                + [LayerFormat(kind) for kind in ("float32", "fixed8", "ternary2bit")])


@pytest.mark.parametrize("sweep", ["exact", "fallback"])
@pytest.mark.parametrize("fmt", _ALL_FORMATS, ids=str)
def test_compress_layer_of_float32_weights_writes_the_bytes_of_their_widening(fmt, sweep,
                                                                             monkeypatch):
    if sweep == "fallback":
        monkeypatch.setattr(quantize, "_SWEEP_LIMIT", 0)
    rng = np.random.default_rng(len(str(fmt)))
    n = fmt.params.n if fmt.params else 4
    for W in _compress_inputs(rng, n, fmt.orientation):
        W32 = W.astype(np.float32)
        W32.setflags(write=False)  # as `stored_weights` hands a float32 payload over
        wide = W32.astype(np.float64)
        _same_bytes(compress_layer(W32, fmt, name="fc"), compress_layer(wide, fmt, name="fc"))
        _same_bytes(compress_layer(W32, fmt, name="fc"), reference_compress(wide, fmt))


def _random_indices_layer(rng, params, orientation):
    """An sst layer of random in-range indices, any delta, both layouts."""
    groups, other = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    rows, cols = (groups * params.n, other) if orientation == "column" else (other,
                                                                           groups * params.n)
    idx = rng.integers(0, count_entries(params), size=rows * cols // params.n)
    idx[:2] = [0, count_entries(params) - 1][:idx.size]
    payload = bitpack.pack_indices(idx, address_bits(params))
    delta = float(np.float32(rng.uniform(1e-3, 3.0)))
    return EncodedLayer(LayerFormat("sst", params, orientation), rows, cols, delta, payload)


@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("n,k", ALL_CODES + [(16, 16), (24, 2)])
def test_sst_decode_is_bitwise_the_payload_order_reference(n, k, orientation):
    rng = np.random.default_rng(1000 * n + k)
    for _ in range(8):
        layer = _random_indices_layer(rng, CodeParams(n, k), orientation)
        got = decode_layer(layer)
        want = reference_decode(layer)
        assert got.dtype == np.float64 and got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_compress_layer_rejects_what_the_pipeline_rejects():
    fmt = LayerFormat("sst", CodeParams(4, 1))
    W = np.ones((8, 8))
    W[5, 2] = np.nan
    with pytest.raises(ValidationError, match="non-finite weight nan at row 5, column 2"):
        compress_layer(W, fmt)
    with pytest.raises(ValidationError, match="step size for all-zero weights"):
        compress_layer(np.zeros((8, 8)), fmt)
    with pytest.raises(ValidationError, match="not divisible by n=4"):
        compress_layer(np.ones((6, 8)), fmt)
