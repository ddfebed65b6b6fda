"""Format version 2 index payloads: compatibility with version 1 files, and
the same decoded weights.

The files under tests/data are version 1 outputs, each written before
version 2 existed: the golden `sstw/*/compress` outputs of
tests/test_golden.py and its `column-8-1-weight-norm` train model.
"""

import hashlib
import pathlib
import re
import shutil
import struct

import numpy as np
import pytest

from sstc import bitpack, kernel, store
from sstc.cli import main
from sstc.codes import (CodeParams, address_bits, count_entries, from_subvectors,
                        unrank_subvectors)
from sstc.errors import ValidationError
from sstc.kernel import compressed_forward
from sstc.store import (EncodedLayer, LayerFormat, ModelFile, decode_layer, deserialize_model,
                        layer_indices, payload_bits, read_model, serialize_model, word_layout,
                        write_model)

from conftest import overwrite_payload, reference_decode, reference_group, reference_payload
from test_golden import COMPRESS_DIGESTS, COMPRESS_POLICIES

ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]
DATA = pathlib.Path(__file__).parent / "data"

# fixture -> sha256 of its `sstc decompress` output, as version 1 decoded it
FIXTURES = {f"v1-sstw-{policy}.sstw": COMPRESS_DIGESTS[f"sstw/{policy}/decompress"]
            for policy in COMPRESS_POLICIES}
FIXTURES["v1-train-column-8-1-weight-norm.sstw"] = (
    "7131c6a8286ad35c6c1496eed22cdb931f019b2e8b984cf500a84223c530a871")


def _records(path):
    with open(path, "rb") as fh:
        return store._parse(store._Reader(fh))[0]


def _v1_weights(path):
    """Each layer's float64 weights as version 1 reads them: an index
    payload unpacked at the code's address width, unranked and scaled."""
    data = path.read_bytes()
    weights = []
    for record in _records(path):
        payload = data[record.payload_at:record.payload_at + record.payload_size]
        if record.kind in ("float32", "fixed8"):
            dtype = "<f4" if record.kind == "float32" else "<i1"
            levels = np.frombuffer(payload, dtype=dtype).astype(np.float64)
            scale = 1.0 if record.kind == "float32" else np.float64(np.float32(record.delta))
            weights.append(levels.reshape(record.rows, record.cols) * scale)
            continue
        params, orientation = ((CodeParams(record.n, record.k), store.ORIENTATIONS[record.otag])
                               if record.kind == "sst" else (CodeParams(1, 1), "row"))
        count = record.rows * record.cols // params.n
        indices = bitpack.unpack_indices(payload, address_bits(params), count)
        trits = from_subvectors(unrank_subvectors(indices.astype(np.int64), params),
                                record.rows, record.cols, params, orientation)
        weights.append(trits.astype(np.float64) * np.float64(np.float32(record.delta)))
    return weights


@pytest.mark.parametrize("name", FIXTURES)
def test_a_version_1_file_loads_and_decodes_its_version_1_weights(name):
    path = DATA / name
    assert struct.unpack_from("<H", path.read_bytes(), 8) == (1,)
    model = read_model(path)
    for layer, want in zip(model.layers, _v1_weights(path), strict=True):
        assert decode_layer(layer).tobytes() == want.tobytes()
        assert np.array_equal(reference_decode(layer), want)
    # re-serialized, it is a smaller version 2 file of the same layers
    again = serialize_model(model)
    assert struct.unpack_from("<H", again, 8) == (2,)
    assert len(again) < path.stat().st_size
    assert deserialize_model(again) == model


@pytest.mark.parametrize("name", FIXTURES)
def test_decompress_of_a_version_1_file_gives_its_pinned_bytes(tmp_path, capsys, name):
    out = tmp_path / "float32.sstw"
    assert main(["decompress", "--input", str(DATA / name), "--output", str(out),
                 "--format", "records"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXTURES[name]


@pytest.mark.parametrize("name", FIXTURES)
def test_a_version_1_file_serves_as_its_version_2_copy(name):
    model = read_model(DATA / name)
    X = np.random.default_rng(30).normal(size=(7, model.layers[0].cols))
    kernel._served_layers.clear()
    want = compressed_forward(model, X)
    kernel._served_layers.clear()
    got = compressed_forward(deserialize_model(serialize_model(model)), X)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, index, message", [
    ("v1-sstw-sst16-3-fixed8.sstw", 0,
     "layer 0 (fc0): corrupt index 8191 at stream position 0 (code (16,3) has 4993 entries)"),
    ("v1-sstw-ternary.sstw", 3,
     "layer 3 (fc3): corrupt index 3 at stream position 0 (code (1,1) has 3 entries)"),
])
def test_a_version_1_index_of_t_or_more_is_rejected_at_load(tmp_path, capsys, name, index,
                                                            message):
    path = tmp_path / name
    shutil.copy(DATA / name, path)
    record = _records(path)[index]
    payload = path.read_bytes()[record.payload_at:record.payload_at + record.payload_size]
    overwrite_payload(path, index, b"\xff\xff" + payload[2:])  # a first index of all ones
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read_model(path)
    assert main(["report", "--model", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _v1_file(fmt, rows, cols, delta, indices):
    """A version 1 file of one layer holding ``indices`` at the code's
    address width, and no bias, normalizer or metadata."""
    params, orientation = store._code_of(fmt)
    n, k = (params.n, params.k) if fmt.kind == "sst" else (0, 0)
    bits = len(indices) * address_bits(params)
    return b"".join([
        store.MAGIC, struct.pack("<HH", 1, 1),
        struct.pack("<BBIIBBf", store.FORMAT_KINDS.index(fmt.kind),
                    store.ORIENTATIONS.index(fmt.orientation), rows, cols, n, k, delta),
        struct.pack("<IQ", 0, bits), bitpack.pack_indices(indices, address_bits(params)),
        struct.pack("<BI", 0, 2), b"{}"])


def _formats():
    for n, k in ALL_CODES + [(1, 1), (4, 0)]:
        for orientation in ("column", "row"):
            yield LayerFormat("sst", CodeParams(n, k), orientation)
    yield LayerFormat("ternary2bit")


@pytest.mark.parametrize("fmt", list(_formats()), ids=str)
def test_version_2_decodes_the_weights_of_version_1(fmt):
    params, _ = store._code_of(fmt)
    t = count_entries(params)
    g = reference_group(params)
    rng = np.random.default_rng(params.n * 100 + params.k)
    for count in sorted({1, g - 1, g, g + 1, 3 * g + 2, 8 * g, 8 * g + 5, 17 * g} - {0}):
        indices = rng.integers(0, t, size=count)
        indices[:g] = t - 1  # the largest word, over 2^63 for (8,2) and (16,2)
        rows, cols = ((params.n, count) if fmt.orientation == "column" and fmt.kind == "sst"
                      else (count, params.n))
        delta = float(np.float32(rng.uniform(0.1, 2.0)))
        v1 = deserialize_model(_v1_file(fmt, rows, cols, delta, indices)).layers[0]
        v2 = EncodedLayer(fmt, rows, cols, delta, reference_payload(indices, params))
        assert v1 == v2
        assert np.array_equal(layer_indices(v1), indices)
        assert decode_layer(v1).tobytes() == reference_decode(v2).tobytes()
        w = word_layout(params)[2]
        want_bits = count // g * w + (t ** (count % g) - 1).bit_length()
        assert v1.payload_bit_length() == payload_bits(fmt, rows, cols) == want_bits


def test_the_one_entry_code_takes_no_payload_bits():
    fmt = LayerFormat("sst", CodeParams(4, 0))
    assert word_layout(fmt.params) == (1, 1, 0)
    layer = EncodedLayer(fmt, 8, 5, 1.0, b"")
    assert layer.payload_bit_length() == 0
    assert np.array_equal(layer_indices(layer), np.zeros(10, dtype=np.int64))
    assert not decode_layer(layer).any()


@pytest.mark.parametrize("n, k, g, w", [(1, 1, 29, 46), (8, 1, 11, 45), (8, 2, 9, 64),
                                        (16, 2, 7, 64), (16, 3, 3, 37), (16, 16, 2, 51),
                                        (24, 24, 1, 39)])
def test_word_layout_takes_the_fewest_bits_per_index(n, k, g, w):
    params = CodeParams(n, k)
    assert word_layout(params) == (count_entries(params), g, w) and reference_group(params) == g


def test_a_word_of_t_to_the_g_or_more_is_rejected_at_construction():
    fmt = LayerFormat("sst", CodeParams(8, 1))
    # 12 indices: one 45-bit word of 11, then a 5-bit word of 1
    good = EncodedLayer(fmt, 8, 12, 1.0, reference_payload([16] * 12, fmt.params))
    with pytest.raises(ValidationError, match="^corrupt word 35184372088831 at word 0: a word "
                                              r"of 11 indices of code \(8,1\) must be below "
                                              r"17\^11$"):
        EncodedLayer(fmt, 8, 12, 1.0, b"\xff" * 5 + b"\xf8" + good.payload[6:])
    with pytest.raises(ValidationError, match=r"^corrupt last word 31 at word 1: a word of 1 "
                                              r"indices of code \(8,1\) must be below 17\^1$"):
        EncodedLayer(fmt, 8, 12, 1.0, good.payload[:5] + bytes([good.payload[5] | 0x07, 0xC0]))


def test_a_file_holding_a_corrupt_word_is_rejected_naming_its_layer(tmp_path):
    fmt = LayerFormat("sst", CodeParams(16, 2))
    layer = EncodedLayer(fmt, 16, 8, 1.0, reference_payload(np.arange(8), fmt.params))
    path = tmp_path / "m.sstw"
    write_model(ModelFile(layers=[layer], metadata={"layer_names": ["fc"]}), path)
    overwrite_payload(path, 0, b"\xff" * 8 + layer.payload[8:])
    with pytest.raises(ValidationError, match=r"^layer 0 \(fc\): corrupt word 18446744073709551615"
                                              r" at word 0"):
        read_model(path)


@pytest.mark.parametrize("version", [1, 2])
def test_a_one_entry_code_layer_loads_without_unpacking_its_words(version):
    # about 2^62 sub-vectors whose words take no bytes: nothing may unpack them
    fmt = LayerFormat("sst", CodeParams(4, 0))
    data = bytearray(_v1_file(fmt, 4 * (2**30 - 1), 2**32 - 1, 1.0, []))
    data[8:10] = struct.pack("<H", version)
    layer = deserialize_model(bytes(data)).layers[0]
    assert layer.payload == b"" and layer.num_indices() == (2**30 - 1) * (2**32 - 1)


def test_a_version_1_layer_without_rows_is_rejected():
    data = _v1_file(LayerFormat("sst", CodeParams(8, 1)), 0, 4, 1.0, [])
    with pytest.raises(ValidationError, match="^layer 0: layer dimensions must be positive$"):
        deserialize_model(data)
