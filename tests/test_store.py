"""Layer codecs, model serialization, and storage accounting."""

import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sstc import quantize, store
from sstc.codes import CodeParams, address_bits, count_entries, grouped_shape
from sstc.errors import ValidationError
from sstc.prune import _groups_per_block, structured_prune
from sstc.quantize import find_step_size, quantize_weight
from sstc.store import (BatchNormParams, EncodedLayer, LayerFormat, ModelFile,
                        WeightNormTag, compress_layer, compress_model, decode_layer,
                        deserialize_model,
                        encode_layer, layer_indices, model_from_arrays, payload_bits,
                        read_model, serialize_model, storage_report,
                        write_model)

from conftest import (argsort_sweep, block_shapes, chained, put_along_axis_prune,
                      random_layer, random_sst_trits, reference_decode, reference_encode,
                      reference_group, reference_payload, tie_heavy_weights)


ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]


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
    # 131,072 indices: 11,915 words of 11 at 45 bits, then 7 in bitlen(17^7 - 1) = 29
    assert layer.payload_bit_length() == 11_915 * 45 + 29 == 536_204
    assert len(layer.payload) == 67_026


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
    # column (4,1) on an 8x2 matrix: the grid of sub-vectors is 2 groups by
    # 2 columns, and payload order runs down each column in turn
    fmt = LayerFormat("sst", CodeParams(4, 1))
    for (r0, r1, c), pos in [((4, 5, 0), 1), ((0, 3, 1), 2), ((6, 7, 1), 3)]:
        W = np.zeros((8, 2))
        W[[r0, r1], c] = [1.0, -1.0]
        with pytest.raises(ValidationError, match=rf"^fc0: sub-vector {pos} has 2 non-zeros, "
                                                  r"over the k=1 budget"):
            encode_layer(W, 1.0, fmt, layer_name="fc0")
    # row (4,1) on a 3x8 matrix: rows outermost, then the groups of each row
    fmt = LayerFormat("sst", CodeParams(4, 1), "row")
    W = np.zeros((3, 8))
    W[2, [0, 3]] = 0.5
    W[1, [4, 5, 6]] = -0.5
    with pytest.raises(ValidationError, match=r"^fc1: sub-vector 3 has 3 non-zeros, over the "
                                              r"k=1 budget; the pruning pipeline produced"):
        encode_layer(W, 0.5, fmt, layer_name="fc1")


_NOT_MULTIPLES = "matrix entries are not multiples of the step size"
_EXCEED = "matrix entries exceed"


@pytest.mark.parametrize("orientation", ["column", "row"])
def test_an_input_over_budget_and_not_ternary_names_the_entries_first(orientation):
    """The ternary message wins, whether or not the bad entry lies in the
    sub-vector over budget."""
    fmt = LayerFormat("sst", CodeParams(4, 1), orientation)
    for value, message in [(0.3, _NOT_MULTIPLES), (0.4, _EXCEED)]:
        for bad in [(0, 1), (3, 3)]:
            W = np.zeros((4, 4))
            W[[0, 0, 1, 1], [0, 1, 0, 1]] = 0.2  # over budget either way
            W[bad] = value
            with pytest.raises(ValidationError, match=message):
                encode_layer(W, 0.2, fmt)


_QUANTIZED_FORMATS = [LayerFormat("fixed8"), LayerFormat("ternary2bit"),
                      LayerFormat("sst", CodeParams(4, 1)),
                      LayerFormat("sst", CodeParams(4, 2), "row")]


@pytest.mark.parametrize("value,delta", [(float("nan"), 0.5), (float("inf"), 0.5),
                                         (float("-inf"), 0.5), (1e300, 1e-300)])
@pytest.mark.parametrize("fmt", _QUANTIZED_FORMATS, ids=str)
def test_an_entry_that_is_not_a_finite_multiple_is_named(fmt, value, delta):
    """A NaN, an infinity or a quotient that overflows is rejected before
    any cast, naming the layer, row and column, with no RuntimeWarning."""
    W = np.zeros((8, 8))
    W[5, 2] = value
    message = f"fc1: entry {value} at row 5, column 2 is not a finite multiple of the step size"
    with pytest.raises(ValidationError, match=re.escape(message)):
        encode_layer(W, delta, fmt, layer_name="fc1")


@pytest.mark.parametrize("fmt", _QUANTIZED_FORMATS, ids=str)
def test_a_step_that_is_not_finite_and_positive_is_named(fmt):
    for step in (float("inf"), float("nan"), 0.0, None):
        with pytest.raises(ValidationError, match=f"fc1: format {fmt.kind} requires a finite "
                                                  f"positive step size, got {step}"):
            encode_layer(np.zeros((8, 8)), step, fmt, layer_name="fc1")


@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("n,k", ALL_CODES + [(16, 16), (24, 2), (8, 0)])
def test_encode_layer_writes_the_payload_order_reference_bytes(n, k, orientation, block):
    """The grouped-view encoder against `reference_encode`, for C- and
    Fortran-ordered, float32 and integer inputs.  At the small block the
    shapes cross prune blocks and payload tiles."""
    rng = np.random.default_rng(100 * n + k)
    params = CodeParams(n, k)
    fmt = LayerFormat("sst", params, orientation)
    shapes = ([(n, 1), (3 * n, 7), (11 * n, 3)] if orientation == "column"
              else [(1, n), (7, 3 * n), (5, 2 * n)])
    for shape in shapes:
        trits = random_sst_trits(rng, *shape, params, orientation)
        delta = float(np.float32(rng.uniform(0.05, 3.0)))
        W = trits * delta
        for W_q, step in [(W, delta), (np.asfortranarray(W), delta),
                          (W.astype(np.float32), delta), (trits.astype(np.int64), 1.0),
                          (np.asfortranarray(trits), 1.0)]:
            _same_bytes(encode_layer(W_q, step, fmt), reference_encode(W_q, step, fmt))


def test_encode_layer_peak_memory_stays_below_the_weights():
    params = CodeParams(16, 2)
    W = np.random.default_rng(16).normal(size=(1024, 8192))
    W *= structured_prune(W, params)
    W_q = quantize_weight(W, 1.0)
    del W
    tracemalloc.start()
    try:
        encode_layer(W_q, 1.0, LayerFormat("sst", params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < W_q.nbytes


def test_sst_divisibility_error():
    with pytest.raises(ValidationError, match="divisible"):
        encode_layer(np.zeros((6, 2)), 1.0, LayerFormat("sst", CodeParams(4, 1)))


def test_sst_values_must_be_ternary_multiples():
    W = np.full((4, 1), 0.3)
    with pytest.raises(ValidationError, match=_NOT_MULTIPLES):
        encode_layer(W, 0.2, LayerFormat("sst", CodeParams(4, 4)))
    # levels are checked before any cast, so 1000 steps does not wrap in
    # int8 and 1e300 steps does not overflow it
    cases = [(0.4, 0.2, _EXCEED), (-2.0, 1.0, _EXCEED), (1000.0, 1.0, _EXCEED),
             (-1e300, 1.0, _EXCEED), (0.3, 0.2, _NOT_MULTIPLES)]
    for fmt in [LayerFormat("ternary2bit"), LayerFormat("sst", CodeParams(4, 2)),
                LayerFormat("sst", CodeParams(4, 2), "row")]:
        for value, delta, message in cases:
            W = np.zeros((4, 8))
            W[2, 3] = value
            with pytest.raises(ValidationError, match=message):
                encode_layer(W, delta, fmt)


def test_ternary2bit_roundtrip():
    rng = np.random.default_rng(1)
    W = rng.integers(-1, 2, size=(7, 5)) * 0.75
    layer = encode_layer(W, 0.75, LayerFormat("ternary2bit"))
    # 29 trits in 46 bits, then 6 in bitlen(3^6 - 1) = 10
    assert layer.payload_bit_length() == 46 + 10
    assert np.array_equal(decode_layer(layer), W)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(10, 1024), (7, 3), (1, 1), (33, 17)])
def test_ternary2bit_is_the_one_one_code_in_row_order(shape, dtype):
    ternary, code = LayerFormat("ternary2bit"), LayerFormat("sst", CodeParams(1, 1), "row")
    rng = np.random.default_rng(shape[0] * shape[1])
    W = rng.normal(size=shape).astype(dtype)
    delta = float(np.float32(0.375))
    W_q = (rng.integers(-1, 2, size=shape) * delta).astype(dtype)
    for got, want in ((compress_layer(W, ternary), compress_layer(W, code)),
                      (encode_layer(W_q, delta, ternary), encode_layer(W_q, delta, code))):
        assert (got.delta, got.payload) == (want.delta, want.payload)
        assert decode_layer(got).tobytes() == decode_layer(want).tobytes()
    assert np.array_equal(decode_layer(encode_layer(W_q, delta, ternary)), W_q)


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


def test_a_float32_weight_that_overflows_float32_is_rejected_as_inf():
    W = np.zeros((3, 4))
    W[1, 3] = -1e300
    with pytest.raises(ValidationError,
                       match="float32 weight -inf at row 1, column 3 is not finite"):
        encode_layer(W, None, LayerFormat("float32"))


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
        layers = chained(layers)
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


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
def test_a_float32_layer_step_must_be_finite(delta):
    weights = np.float32([1.5, -2.0]).tobytes()
    with pytest.raises(ValidationError, match=f"^format float32 needs a finite step size, "
                                              f"got {delta}$"):
        EncodedLayer(LayerFormat("float32"), 1, 2, delta, weights)
    # delta f32 at byte 24 of the first layer header
    blob = serialize_model(ModelFile(layers=[EncodedLayer(LayerFormat("float32"), 1, 2, -0.5,
                                                          weights)]))
    assert struct.unpack("<f", blob[24:28]) == (-0.5,)
    bad = bytearray(blob)
    bad[24:28] = struct.pack("<f", delta)
    with pytest.raises(ValidationError, match="^layer 0: format float32 needs a finite step"):
        deserialize_model(bytes(bad))
    with pytest.raises(ValidationError, match=re.escape("got 1e+300 (inf as float32)")):
        EncodedLayer(LayerFormat("float32"), 1, 2, 1e300, weights)


def test_a_layer_holds_the_float32_step_its_file_stores():
    a = encode_layer([[0.3, 0], [0, -0.3]], 0.3, LayerFormat("ternary2bit"))
    b = deserialize_model(serialize_model(ModelFile(layers=[a]))).layers[0]
    assert a == b and a.delta == b.delta == float(np.float32(0.3))
    assert decode_layer(a).tobytes() == decode_layer(b).tobytes()
    assert decode_layer(a)[0, 0] == np.float64(np.float32(0.3)) != 0.3
    # a finite step that overflows float32, or underflows to 0, is no step a file can store
    for delta, got in ((1e300, "got 1e+300 (inf as float32)"),
                       (-1e300, "got -1e+300"),
                       (1e-50, "got 1e-50 (0.0 as float32)")):
        with pytest.raises(ValidationError, match=re.escape(f"finite positive step size, {got}")):
            EncodedLayer(LayerFormat("ternary2bit"), 2, 2, delta, bytes(1))


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


@pytest.mark.parametrize("names, label", [(None, "layer 1"), (["fc0", "fc1"], "layer 1 (fc1)"),
                                          ([0, 1], "layer 1")])  # names are strings
def test_errors_while_building_a_loaded_layer_name_it(names, label):
    def raises(message):
        return pytest.raises(ValidationError, match=f"^{re.escape(f'{label}: {message}')}$")

    W0, W1 = np.zeros((8, 4)), np.zeros((8, 8))
    W0[0, 0] = W1[3, 3] = 0.5
    W1_nan = W1.copy()
    W1_nan[2, 5] = np.nan
    pairs = [(W0, None), (W1_nan, np.zeros(8))]
    if names == [0, 1]:  # model_from_arrays rejects a name that is not a string
        with pytest.raises(ValidationError, match="^layer name 0 at position 0 is not a string$"):
            model_from_arrays(pairs, names=names)
    else:
        with raises("float32 weight nan at row 2, column 5 is not finite"):
            model_from_arrays(pairs, names=names)
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e39])
def test_a_bias_must_be_finite(value):
    with np.errstate(over="ignore"):
        stored = np.float32(value)  # 1e39 overflows, as a file would store it
    message = f"bias {stored} at row 3 is not finite"
    fmt = LayerFormat("sst", CodeParams(8, 1))
    bias = np.zeros(8)
    bias[3] = value
    with pytest.raises(ValidationError, match=f"^{message}$"):
        encode_layer(np.zeros((8, 4)), 1.0, fmt, bias=bias)
    layer = encode_layer(np.zeros((8, 4)), 1.0, fmt, bias=np.zeros(8))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        replace(layer, bias=bias)
    # bias row 3 follows the file header, the layer header and the bias count
    blob = bytearray(serialize_model(ModelFile(layers=[layer])))
    at = 12 + struct.calcsize("<BBIIBBf") + 4 + 4 * 3
    blob[at:at + 4] = struct.pack("<f", stored)
    with pytest.raises(ValidationError, match=f"^layer 0: {message}$"):
        deserialize_model(bytes(blob))


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


def test_metadata_that_does_not_re_encode_to_its_own_bytes_is_rejected():
    model = model_from_arrays([(np.eye(3), np.zeros(3))], names=["fc0"])
    blob = serialize_model(model)
    assert deserialize_model(blob) == model
    # one byte of the "layer_names" key flipped to 0x7f parses, but re-encodes escaped
    at = blob.index(b"layer_names") + len(b"layer")
    flipped = blob[:at] + b"\x7f" + blob[at + 1:]
    with pytest.raises(ValidationError, match="^metadata block is not in the canonical JSON"):
        deserialize_model(flipped)
    bare = serialize_model(ModelFile())[:-6]
    for block in (b'{ }', b'{"b":1,"a":2}', b'{"a":1.50}', b'{"a":"\xc3\xa9"}'):
        with pytest.raises(ValidationError, match="^metadata block is not in the canonical JSON"):
            deserialize_model(bare + struct.pack("<I", len(block)) + block)
    # the writer never emits an empty block: it writes {}
    with pytest.raises(ValidationError, match="^metadata block does not parse as JSON"):
        deserialize_model(bare + struct.pack("<I", 0))


def test_every_written_metadata_loads_and_re_serializes_to_its_bytes():
    for meta in ({}, {"note": "\u00e9\x7f\n", "x": [1.5, -0.0, 1e300, None, True]},
                 {"layer_names": ["a b", "c"], "nested": {"z": {}, "a": [[]]}, "big": 2 ** 70}):
        blob = serialize_model(ModelFile(metadata=meta))
        back = deserialize_model(blob)
        assert back.metadata == meta and serialize_model(back) == blob


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
    model = ModelFile(layers=chained([encode_layer(*random_layer(rng)) for _ in range(4)]),
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
    model = ModelFile(layers=chained([encode_layer(*random_layer(rng)) for _ in range(6)]),
                      metadata={"note": "streamed"})
    path = tmp_path / "model.sstw"
    write_model(model, path)
    assert path.read_bytes() == serialize_model(model)
    # the metadata fails to serialize after every layer was written
    model.metadata["note"] = object()
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_model(model, tmp_path / "bad.sstw")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.sstw"]


def test_payload_bit_formulas():
    rng = np.random.default_rng(5)
    params = CodeParams(8, 2)
    W = random_sst_trits(rng, 16, 10, params) * 0.5
    layer = encode_layer(W, 0.5, LayerFormat("sst", params))
    # 20 indices: 2 words of 9 at 64 bits, then 2 in bitlen(129^2 - 1) = 15
    assert layer.payload_bit_length() == 2 * 64 + 15
    t = encode_layer(W, 0.5, LayerFormat("ternary2bit"))
    # 160 trits: 5 words of 29 at 46 bits, then 15 in bitlen(3^15 - 1) = 24
    assert t.payload_bit_length() == 5 * 46 + 24
    assert payload_bits(layer.format, 16, 10) == layer.payload_bit_length()


def test_bits_per_weight_are_word_bits_over_g_n():
    # (g, w) per code: g indices per w-bit word, so w / (g n) bits per weight
    words = {(4, 1): (17, 54), (8, 1): (11, 45), (8, 2): (9, 64),
             (16, 2): (7, 64), (16, 3): (3, 37), (16, 4): (4, 61)}
    for (n, k), (g, w) in words.items():
        params = CodeParams(n, k)
        assert reference_group(params) == g
        layer = encode_layer(np.zeros((n * g, 8)), 1.0, LayerFormat("sst", params))
        assert layer.payload_bit_length() == 8 * w
        assert layer.payload_bit_length() / layer.weight_count < address_bits(params) / n


def test_storage_report_single_sst_layer():
    W = np.zeros((1024, 1024))
    layer = encode_layer(W, 1.0, LayerFormat("sst", CodeParams(8, 1)))
    report = storage_report(ModelFile(layers=[layer]))
    assert report.layers[0].payload_bits == 536_204
    assert report.table_bits == 272
    assert report.float_bits == 1024 * 1024 * 32
    assert report.ratio == pytest.approx(1024 * 1024 * 32 / (536_204 + 272), rel=1e-12)


def test_storage_report_ternary_is_over_20x():
    W = np.zeros((1024, 1024))
    layer = encode_layer(W, 1.0, LayerFormat("ternary2bit"))
    report = storage_report(ModelFile(layers=[layer]))
    # 2^20 trits: 36,157 words of 29 at 46 bits, then 23 in bitlen(3^23 - 1) = 37
    assert report.compressed_bits == 36_157 * 46 + 37
    assert report.ratio == 32 * 2**20 / (36_157 * 46 + 37) > 20


def test_storage_report_excluding_table_matches_index_rate():
    params = CodeParams(8, 1)
    W = np.zeros((64, 64))
    layer = encode_layer(W, 1.0, LayerFormat("sst", params))
    report = storage_report(ModelFile(layers=[layer]), include_tables=False)
    # 512 indices: 46 words of 11 at 45 bits, then 6 in bitlen(17^6 - 1) = 25
    assert report.compressed_bits == layer.payload_bit_length() == 46 * 45 + 25


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
    # 64 trits: 2 words of 29 at 46 bits, then 6 in bitlen(3^6 - 1) = 10
    assert lean.ratio == 32 * 64 / (2 * 46 + 10)


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


def _batch_norm(rows):
    return BatchNormParams(np.ones(rows), np.zeros(rows), np.zeros(rows), np.ones(rows))


@pytest.mark.parametrize("normalizer, message", [
    (_batch_norm(1), r"batch norm parameter length \(1,\) does not match the 4 rows"),
    (_batch_norm(8), r"batch norm parameter length \(8,\) does not match the 4 rows"),
    (object(), "unknown normalizer object"),
    ("weight_norm", "unknown normalizer str"),
], ids=["one-row", "eight-rows", "object", "name"])
def test_a_layer_normalizer_must_fit_the_layer(normalizer, message):
    W = np.zeros((4, 8))
    fmt = LayerFormat("sst", CodeParams(4, 1))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        encode_layer(W, 1.0, fmt, normalizer=normalizer)
    layer = encode_layer(W, 1.0, fmt, normalizer=_batch_norm(4))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        replace(layer, normalizer=normalizer)
    with pytest.raises(ValidationError, match=f"^layer 0 \\(fc0\\): {message}$"):
        model_from_arrays([(W, None)], names=["fc0"], normalizers=[normalizer])
    assert replace(layer, normalizer=WeightNormTag()).normalizer == WeightNormTag()
    assert replace(layer, normalizer=None).normalizer is None


def test_batch_norm_parameters_must_share_one_shape():
    with pytest.raises(ValidationError, match=r"differ in shape: \(3,\), \(3,\), \(2,\), \(3,\)"):
        BatchNormParams(np.ones(3), np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(ValidationError, match="differ in shape"):
        BatchNormParams(np.ones(3), np.zeros((3, 1)), np.zeros(3), np.ones(3))


@pytest.mark.parametrize("names, normalizers, message", [
    (None, [None], "1 normalizers given for 2 layers"),
    (["fc0"], None, "1 names given for 2 layers"),
    (["fc0", "fc1", "fc2"], [None, None], "3 names given for 2 layers"),
    ([0, "fc1"], None, "layer name 0 at position 0 is not a string"),
    (("fc0", None), None, "layer name None at position 1 is not a string"),
    (["fc0", b"fc1"], None, "layer name b'fc1' at position 1 is not a string"),
], ids=["short-normalizers", "short-names", "long-names", "int-name", "none-name", "bytes-name"])
def test_model_from_arrays_takes_one_name_and_normalizer_per_layer(names, normalizers, message):
    pairs = [(np.eye(3), None), (np.eye(3), np.zeros(3))]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        model_from_arrays(pairs, names=names, normalizers=normalizers)
    model = model_from_arrays(pairs, names=["a", "b"], normalizers=[None, WeightNormTag()])
    assert model.layer_names() == ["a", "b"] and model.layers[1].normalizer == WeightNormTag()


# --- compress_layer ------------------------------------------------------

def reference_compress(W, fmt, bias=None, normalizer=None):
    """The step-by-step pipeline `compress_layer` must match byte for byte;
    an sst layer is encoded by the payload-order `reference_encode`."""
    if fmt.kind == "float32":
        return encode_layer(W, None, fmt, bias, normalizer)
    levels = 255 if fmt.kind == "fixed8" else 3
    encode = encode_layer
    if fmt.kind == "sst":
        W = W * structured_prune(W, fmt.params, fmt.orientation)
        encode = reference_encode
    delta = float(np.float32(find_step_size(W, levels)))
    return encode(quantize_weight(W, delta, levels), delta, fmt, bias, normalizer)


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


@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("n,k", ALL_CODES + [(16, 16)])
def test_compress_layer_writes_the_reference_pipeline_bytes(n, k, orientation, block):
    rng = np.random.default_rng(10 * n + k)
    fmt = LayerFormat("sst", CodeParams(n, k), orientation)
    for W in _compress_inputs(rng, n, orientation):
        bias = rng.normal(size=W.shape[0])
        want = reference_compress(W, fmt, bias, WeightNormTag())
        _same_bytes(compress_layer(W, fmt, bias, WeightNormTag()), want)


@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("n,k", ALL_CODES + [(16, 16)])
def test_compress_model_of_a_float32_file_writes_the_reference_pipeline_bytes(
        tmp_path, n, k, orientation, block):
    """The streamed compress: each layer read from the file in blocks of
    whole groups, its indices ranked and packed in payload-order tiles."""
    rng = np.random.default_rng(20 * n + k)
    fmt = LayerFormat("sst", CodeParams(n, k), orientation)
    # at the small block, tiles of at most 5 indices: 3 groups by 7 columns
    # leave indices over from tile to tile, and 11 groups by 3 columns, or 21
    # rows of one group, split each grid column
    shapes = [(3 * n, 7), (11 * n, 3)] if orientation == "column" else [(7, 3 * n)]
    inputs = [*_compress_inputs(rng, n, orientation), *(rng.normal(size=s) for s in shapes)]
    compressed = [encode_layer(W.astype(np.float32), None, LayerFormat("float32"),
                               bias=rng.normal(size=W.shape[0]), normalizer=norm)
                  for W, norm in zip(inputs, [None, WeightNormTag()] * 4)]
    layers = chained(compressed)
    names = [f"fc{i}" for i in range(len(layers))]
    # the layers `chained` puts in stay float32
    formats = {name: LayerFormat("float32") for name, layer in zip(names, layers)
               if not any(layer is c for c in compressed)}
    path = tmp_path / "float.sstw"
    write_model(ModelFile(layers=layers, metadata={"layer_names": names}), path)
    got = compress_model(str(path), formats, fmt)
    want = [reference_compress(decode_layer(layer), formats.get(name, fmt), layer.bias,
                               layer.normalizer)
            for name, layer in zip(names, layers)]
    assert serialize_model(got) == serialize_model(
        ModelFile(layers=want, metadata={"layer_names": names}))
    if block == "small":
        grouped = [grouped_shape(layer.rows, layer.cols, n, orientation) for layer in compressed]
        assert any(groups > _groups_per_block(n, cols) for groups, _, cols in grouped)
        assert any(groups > quantize._BLOCK for groups, _, _ in grouped)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("n,k", [(16, 2), (8, 1), (16, 16)])
def test_blocked_compress_layer_writes_the_put_along_axis_pipeline_bytes(n, k, orientation,
                                                                         dtype):
    """The bytes of a whole-matrix prune and a one-piece sweep, on inputs of
    one prune block, two, two plus one group, and groups larger than a block."""
    rng = np.random.default_rng(3 * n + k)
    fmt = LayerFormat("sst", CodeParams(n, k), orientation)
    for shape in block_shapes(n, orientation):
        for W in tie_heavy_weights(rng, shape, dtype):
            pruned = W * put_along_axis_prune(W, fmt.params, orientation)[1]
            mags = np.abs(pruned[pruned != 0], dtype=np.float64)
            delta = float(np.float32(argsort_sweep(mags, 1)))
            want = reference_encode(quantize_weight(pruned, delta), delta, fmt)
            _same_bytes(compress_layer(W, fmt), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trit_threshold_is_where_quantize_weight_starts_to_keep_a_weight(dtype):
    rng = np.random.default_rng(31)
    f32 = np.finfo(np.float32)
    steps = [f32.smallest_subnormal, 2 * f32.smallest_subnormal, 1e-30, 0.1, 1.0, 3.0, 1e30,
             f32.max, *rng.lognormal(0.0, 8.0, size=300)]
    for delta in (float(np.float32(step)) for step in steps):  # steps are float32
        threshold = store._trit_threshold(delta, np.dtype(dtype))
        assert threshold.dtype == dtype
        # a float32 step divides in float64 all the same
        assert store._trit_threshold(np.float32(delta), np.dtype(dtype)) == threshold
        # the threshold and its neighbours in dtype
        around = np.array([np.nextafter(threshold, dtype(0)), threshold,
                           np.nextafter(threshold, dtype(np.inf))], dtype=dtype)
        kept = quantize_weight(around.astype(np.float64), delta) != 0
        assert kept.tolist() == [False, True, True], delta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sst_payload_keeps_the_trits_quantize_weight_keeps_at_the_threshold(dtype):
    rng = np.random.default_rng(41)
    fmt = LayerFormat("sst", CodeParams(8, 2))
    for delta in (float(np.float32(x)) for x in (0.3, 1e-3, 7.0)):
        at = store._trit_threshold(delta, np.dtype(dtype))
        below = np.nextafter(at, dtype(0))
        W = rng.choice([at, -at, below, -below, dtype(0)], size=(16, 24)).astype(dtype)
        pruned = W * structured_prune(W, fmt.params)
        want = reference_encode(quantize_weight(pruned, delta), delta, fmt)
        kept, values = store._kept_weights(W, fmt.params, "column")
        assert store._sst_payload(kept, values, delta, fmt.params) == want.payload


def test_compress_layer_peak_memory_stays_below_twice_the_weights():
    W = np.random.default_rng(16).normal(scale=0.01, size=(1024, 8192)).astype(np.float32)
    fmt = LayerFormat("sst", CodeParams(16, 2))
    tracemalloc.start()
    try:
        compress_layer(W, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * W.nbytes


@pytest.mark.parametrize("kind", ["float32", "fixed8", "ternary2bit"])
def test_compress_layer_writes_the_reference_bytes_of_unpruned_formats(kind, block):
    rng = np.random.default_rng(5)
    fmt = LayerFormat(kind)
    for W in _compress_inputs(rng, 4, "column"):
        _same_bytes(compress_layer(W, fmt), reference_compress(W, fmt))


_ALL_FORMATS = ([LayerFormat("sst", CodeParams(n, k), orientation)
                 for n, k in ALL_CODES + [(16, 16)] for orientation in ("column", "row")]
                + [LayerFormat(kind) for kind in ("float32", "fixed8", "ternary2bit")])


@pytest.mark.parametrize("fmt", _ALL_FORMATS, ids=str)
def test_compress_layer_of_float32_weights_writes_the_bytes_of_their_widening(fmt, block):
    rng = np.random.default_rng(len(str(fmt)))
    n = fmt.params.n if fmt.params else 4
    for W in _compress_inputs(rng, n, fmt.orientation):
        W32 = W.astype(np.float32)
        W32.setflags(write=False)  # as `stored_weights` hands a float32 payload over
        wide = W32.astype(np.float64)
        _same_bytes(compress_layer(W32, fmt), compress_layer(wide, fmt))
        _same_bytes(compress_layer(W32, fmt), reference_compress(wide, fmt))


def _random_indices_layer(rng, params, orientation):
    """An sst layer of random in-range indices, any delta, both layouts."""
    groups, other = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    rows, cols = (groups * params.n, other) if orientation == "column" else (other,
                                                                           groups * params.n)
    idx = rng.integers(0, count_entries(params), size=rows * cols // params.n)
    idx[:2] = [0, count_entries(params) - 1][:idx.size]
    delta = float(np.float32(rng.uniform(1e-3, 3.0)))
    return EncodedLayer(LayerFormat("sst", params, orientation), rows, cols, delta,
                        reference_payload(idx, params))


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


@pytest.mark.parametrize("shape", [(0, 8), (8, 0)])
@pytest.mark.parametrize("fmt", [LayerFormat("sst", CodeParams(4, 1)),
                                 LayerFormat("sst", CodeParams(4, 1), "row")]
                         + [LayerFormat(kind) for kind in ("float32", "fixed8", "ternary2bit")],
                         ids=str)
def test_compress_layer_rejects_an_empty_matrix(fmt, shape):
    with pytest.raises(ValidationError, match="^layer dimensions must be positive$"):
        compress_layer(np.zeros(shape), fmt)


@pytest.mark.parametrize("scale, stored", [(1e-300, "0.0"), (1e300, "inf")])
@pytest.mark.parametrize("fmt", [LayerFormat("fixed8"), LayerFormat("ternary2bit"),
                                 LayerFormat("sst", CodeParams(8, 1))], ids=str)
def test_compress_layer_rejects_a_fitted_step_that_float32_cannot_store(fmt, scale, stored):
    # float64 weights whose step rounds to 0 or overflows as float32, with no warning
    W = np.random.default_rng(27).normal(size=(16, 8)) * scale
    with pytest.raises(ValidationError, match=rf"^format {fmt.kind} needs a finite positive "
                                              rf"step size, got \S+ \({stored} as float32\)$"):
        compress_layer(W, fmt)


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


def test_serialize_and_write_model_reject_layers_that_do_not_chain(tmp_path):
    # read_model rejects such a file, so neither writer may make one
    layers = [encode_layer(np.ones((4, 3)), None, LayerFormat("float32")),
              encode_layer(np.ones((2, 5)), None, LayerFormat("float32"))]
    model = ModelFile(layers=layers, metadata={"layer_names": ["a", "b"]})
    message = r"^layer 1 \(b\) expects 5 inputs, layer 0 \(a\) emits 4$"
    with pytest.raises(ValidationError, match=message):
        serialize_model(model)
    path = tmp_path / "m.sstw"
    path.write_bytes(b"an earlier model")
    with pytest.raises(ValidationError, match=message):
        write_model(model, path)
    assert path.read_bytes() == b"an earlier model"
    assert [p.name for p in tmp_path.iterdir()] == ["m.sstw"]
    with pytest.raises(ValidationError, match="^layer 1 expects 5 inputs, layer 0 emits 4$"):
        write_model(ModelFile(layers=layers), tmp_path / "other.sstw")
    assert [p.name for p in tmp_path.iterdir()] == ["m.sstw"]
