"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from sstc import kernel, prune, quantize, store, training as tr
from sstc.cli import _build_specs, main
from sstc.codes import CodeParams, count_entries, grouped_shape
from sstc.datasets import gaussian_blobs, train_val_split
from sstc.errors import ValidationError
from sstc.kernel import CompressedFCLayer, compressed_forward
from sstc.quantize import quantize_weight
from sstc.store import (EncodedLayer, LayerFormat, ModelFile, decode_layer, encode_layer,
                        model_from_arrays, read_model, serialize_model, write_model)

from conftest import (argsort_sweep, chained, overwrite_payload, random_layer, random_sst_trits,
                      reference_decode, reference_payload)


def _records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines() if line.strip()]


def test_tables_default_matches_published_table(capsys):
    assert main(["tables", "--format", "records"]) == 0
    recs = _records(capsys)
    by_code = {r["code"]: r for r in recs}
    assert by_code["(16,4)"]["entries"] == 34113
    assert by_code["(16,4)"]["table_kb"] == pytest.approx(136.452)
    assert by_code["(16,4)"]["address_bits"] == 16
    assert by_code["(8,1)"]["entries"] == 17
    assert by_code["(8,1)"]["table_kb"] == pytest.approx(0.034)
    assert by_code["(4,1)"]["entries"] == 9
    assert [r["address_bits"] for r in recs] == [16, 13, 10, 8, 5, 4]


def test_tables_custom_code(capsys):
    assert main(["tables", "--codes", "1,1", "--format", "records"]) == 0
    rec = _records(capsys)[0]
    assert rec["entries"] == 3
    assert rec["address_bits"] == 2
    assert rec["table_kb"] == pytest.approx(6 / 8 / 1000)  # 2*1*3 = 6 bits


def test_tables_lists_a_code_of_any_size_and_rejects_invalid_ones(capsys):
    # T, table KB and address bits are analytic, so no table is built:
    # 3^16 = 43,046,721 entries need 26 address bits
    assert main(["tables", "--codes", "16,16", "--format", "records"]) == 0
    rec = _records(capsys)[0]
    assert (rec["entries"], rec["address_bits"]) == (43046721, 26)
    assert main(["tables", "--codes", "16,99"]) == 1


def _write_float_npz(path, rng, dims=(12, 16, 3)):
    arrays = {}
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        arrays[f"W{i}"] = rng.normal(size=(b, a)).astype(np.float32)
        arrays[f"b{i}"] = rng.normal(size=b).astype(np.float32)
    np.savez(path, **arrays)
    return path


def test_compress_report_verify_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    npz = _write_float_npz(tmp_path / "float.npz", rng, dims=(12, 16, 3))
    out = tmp_path / "model.sstw"
    policy = tmp_path / "policy.txt"
    policy.write_text("default format=sst n=4 k=1 orientation=column\n"
                      "layer1 format=ternary\n")
    code = main(["compress", "--input", str(npz), "--output", str(out),
                 "--policy", str(policy), "--format", "records"])
    assert code == 0
    capsys.readouterr()
    model = read_model(out)
    assert str(model.layers[0].format) == "sst(4,1)/column"
    assert model.layers[1].format.kind == "ternary2bit"

    assert main(["report", "--model", str(out), "--format", "records"]) == 0
    recs = _records(capsys)
    assert recs[-1]["compression_ratio"] > 1.0

    assert main(["verify", "--model", str(out), "--format", "records"]) == 0
    suites = _records(capsys)
    assert all(s["pass"] for s in suites)


def test_compress_is_idempotent_from_second_pass(tmp_path):
    rng = np.random.default_rng(1)
    npz = _write_float_npz(tmp_path / "float.npz", rng, dims=(12, 16, 4))
    first = tmp_path / "first.sstw"
    assert main(["compress", "--input", str(npz), "--output", str(first),
                 "--code", "4,1"]) == 0
    decompressed = tmp_path / "float.sstw"
    assert main(["decompress", "--input", str(first), "--output", str(decompressed)]) == 0
    second = tmp_path / "second.sstw"
    assert main(["compress", "--input", str(decompressed), "--output", str(second),
                 "--code", "4,1"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_decompress_recovers_quantized_weights_exactly(tmp_path):
    rng = np.random.default_rng(2)
    npz = _write_float_npz(tmp_path / "float.npz", rng, dims=(12, 16, 4))
    out = tmp_path / "model.sstw"
    main(["compress", "--input", str(npz), "--output", str(out), "--code", "4,2"])
    dec = tmp_path / "back.sstw"
    assert main(["decompress", "--input", str(out), "--output", str(dec)]) == 0
    from sstc.store import decode_layer
    comp = read_model(out)
    back = read_model(dec)
    for a, b in zip(comp.layers, back.layers):
        assert np.allclose(decode_layer(a), decode_layer(b), atol=0)


def test_decompress_writes_the_bytes_of_encode_of_the_reference_decode(tmp_path, block):
    # every format, both sst orientations, biases and normalizers: see random_layer
    rng = np.random.default_rng(12)
    layers = [encode_layer(*random_layer(rng)) for _ in range(40)]
    # three column groups of two weights: two blocks at the small block size
    params = CodeParams(2, 1)
    layers.append(encode_layer(random_sst_trits(rng, 6, 1, params) * 0.5, 0.5,
                               LayerFormat("sst", params)))
    layers = chained(layers)
    assert {str(layer.format).split("(")[0] for layer in layers} == {
        "float32", "fixed8", "ternary2bit", "sst"}
    if block == "small":
        cases = set()
        for layer in layers:
            if layer.format.kind == "sst":
                orientation = layer.format.orientation
                groups, n, cols = grouped_shape(layer.rows, layer.cols, layer.format.params.n,
                                                orientation)
                step = prune._groups_per_block(n, cols)
                cases.update((orientation, case) for case, hit in (
                    ("group above a block", n * cols > quantize._BLOCK),
                    ("partial last block", step < groups and groups % step)) if hit)
        assert len(cases) == 4
    metadata = {"layer_names": [f"l{i}" for i in range(len(layers))]}
    path, out = tmp_path / "in.sstw", tmp_path / "out.sstw"
    write_model(ModelFile(layers=layers, metadata=metadata), path)
    assert main(["decompress", "--input", str(path), "--output", str(out)]) == 0
    want = [encode_layer(reference_decode(layer), None, LayerFormat("float32"),
                         bias=layer.bias, normalizer=layer.normalizer)
            for layer in read_model(path).layers]
    assert out.read_bytes() == serialize_model(ModelFile(layers=want, metadata=metadata))


def test_decompress_rejects_a_fixed8_weight_that_overflows_float32(tmp_path, capsys):
    levels = np.zeros((4, 4), dtype=np.int8)
    levels[1, 2] = 127
    layer = EncodedLayer(LayerFormat("fixed8"), 4, 4, 3e38, levels.tobytes())
    path, out = tmp_path / "in.sstw", tmp_path / "out.sstw"
    write_model(ModelFile(layers=[layer], metadata={"layer_names": ["big"]}), path)
    assert main(["decompress", "--input", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("error: layer 0 (big): float32 weight inf at row 1, "
                                       "column 2 is not finite\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.sstw"]


def test_a_failing_decompress_leaves_the_old_output_and_no_temp_file(tmp_path, capsys):
    good = encode_layer(np.zeros((8, 8)), 1.0, LayerFormat("sst", CodeParams(8, 1)))
    levels = np.zeros((8, 8), dtype=np.int8)
    levels[1, 2] = 127  # 127 steps of 3e38 overflow float32
    bad = EncodedLayer(LayerFormat("fixed8"), 8, 8, 3e38, levels.tobytes())
    # the first layer's 64 KB are past any write buffer when the last layer fails
    first = encode_layer(np.ones((8, 2048)), None, LayerFormat("float32"))
    path, out = tmp_path / "bad.sstw", tmp_path / "out.sstw"
    write_model(ModelFile(layers=[first, good, bad], metadata={"layer_names": ["a", "b", "c"]}),
                path)
    out.write_bytes(b"an earlier output")
    assert main(["decompress", "--input", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("error: layer 2 (c): float32 weight inf at row 1, "
                                       "column 2 is not finite\n")
    assert out.read_bytes() == b"an earlier output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.sstw", "out.sstw"]


def test_decompress_peak_memory_stays_below_one_float32_copy(tmp_path):
    params = CodeParams(8, 1)
    rows, cols = 512, 2048
    idx = np.random.default_rng(19).integers(0, count_entries(params), size=rows * cols // 8)
    layer = EncodedLayer(LayerFormat("sst", params), rows, cols, 0.5,
                         reference_payload(idx, params))
    path, out = tmp_path / "in.sstw", tmp_path / "out.sstw"
    write_model(ModelFile(layers=[layer]), path)
    tracemalloc.start()
    try:
        assert main(["decompress", "--input", str(path), "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * layer.weight_count
    assert out.stat().st_size > 4 * layer.weight_count


def _float32_layer(W, bias=None):
    W = np.ascontiguousarray(W, dtype="<f4")
    return EncodedLayer(LayerFormat("float32"), *W.shape, 0.0, W.tobytes(), bias)


def test_compress_of_a_float32_file_peaks_below_3_bytes_per_weight(tmp_path):
    # the file's payload is streamed into the prune, never held whole
    rows, cols = 1024, 8192
    W = np.random.default_rng(22).standard_normal((rows, cols), dtype=np.float32)
    path, out = tmp_path / "in.sstw", tmp_path / "out.sstw"
    write_model(ModelFile(layers=[_float32_layer(W * np.float32(0.01))]), path)
    del W
    tracemalloc.start()
    try:
        assert main(["compress", "--input", str(path), "--output", str(out),
                     "--code", "16,2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows * cols


@pytest.mark.parametrize("names, label", [(None, "layer 1"), (["a", "b"], "layer 1 (b)")])
def test_compress_names_a_non_finite_float_weight_in_a_later_block_as_loading_does(
        tmp_path, capsys, names, label):
    # 2048 columns of (16,2) groups: one group per block, the nan in the fourth
    W = np.ones((64, 2048), dtype=np.float32)
    W[60, 5] = 3.0  # the one weight stored as these bytes, which become a nan
    model = ModelFile(layers=[_float32_layer(np.ones((2048, 8))), _float32_layer(W)],
                      metadata={"layer_names": names} if names else {})
    blob = serialize_model(model).replace(struct.pack("<f", 3.0), struct.pack("<f", np.nan))
    path, out = tmp_path / "in.sstw", tmp_path / "out.sstw"
    path.write_bytes(blob)
    message = f"{label}: float32 weight nan at row 60, column 5 is not finite\n"
    assert main(["compress", "--input", str(path), "--output", str(out), "--code", "16,2"]) == 1
    assert capsys.readouterr().err == f"error: {message}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.sstw"]
    assert main(["report", "--model", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}"


@pytest.mark.parametrize("policy_line", ["default format=sst n=16 k=2", "default format=ternary"])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("row, col", [(3, 7), (63, 2047)])
def test_compress_names_an_infinite_float_weight_in_the_first_or_last_block_as_loading_does(
        tmp_path, capsys, policy_line, value, row, col):
    # both codes read the 64x2048 layer in 4 blocks of 16 rows: the weight is
    # in the first or the last, which the prune's max checks finite
    W = np.ones((64, 2048), dtype=np.float32)
    W[row, col] = 3.0  # the one weight stored as these bytes, which become an infinity
    blob = serialize_model(ModelFile(layers=[_float32_layer(W)]))
    path, out, policy = tmp_path / "in.sstw", tmp_path / "out.sstw", tmp_path / "policy.txt"
    path.write_bytes(blob.replace(struct.pack("<f", 3.0), struct.pack("<f", value)))
    policy.write_text(policy_line + "\n")
    message = f"layer 0: float32 weight {value} at row {row}, column {col} is not finite"
    _rejected(capsys, ["compress", "--input", str(path), "--output", str(out),
                       "--policy", str(policy)], message, [out])
    _rejected(capsys, ["report", "--model", str(path)], message, [])


@pytest.mark.parametrize("policy_line", ["default format=sst n=16 k=2", "default format=ternary"])
def test_compress_of_a_file_that_shrinks_after_its_header_pass(tmp_path, capsys, monkeypatch,
                                                               policy_line):
    # sst reads the float32 layer in blocks, ternary reads it whole
    path, out = tmp_path / "in.sstw", tmp_path / "out.sstw"
    write_model(ModelFile(layers=[_float32_layer(np.ones((64, 2048)))]), path)
    policy = tmp_path / "policy.txt"
    policy.write_text(policy_line + "\n")
    parse = store._parse

    def parse_then_truncate(r):
        parsed = parse(r)
        os.truncate(path, path.stat().st_size - 4096)
        return parsed

    monkeypatch.setattr(store, "_parse", parse_then_truncate)
    assert main(["compress", "--input", str(path), "--output", str(out),
                 "--policy", str(policy)]) == 1
    assert capsys.readouterr().err == "error: layer 0: truncated model file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.sstw", "policy.txt"]


def test_infer_rejects_a_non_finite_bias_at_load(tmp_path, capsys):
    layer = encode_layer(np.eye(8, 4), 1.0, LayerFormat("sst", CodeParams(8, 1)),
                         bias=np.zeros(8))
    blob = bytearray(serialize_model(ModelFile(layers=[layer])))
    at = 12 + struct.calcsize("<BBIIBBf") + 4 + 4  # bias row 1
    blob[at:at + 4] = struct.pack("<f", np.nan)
    path = tmp_path / "nan-bias.sstw"
    path.write_bytes(bytes(blob))
    assert main(["infer", "--model", str(path), "--data", "synthetic:samples=6,dim=4"]) == 1
    assert capsys.readouterr().err == "error: layer 0: bias nan at row 1 is not finite\n"


def test_infer_names_the_input_when_layer_0_expects_another_width(tmp_path, capsys):
    path = tmp_path / "784-inputs.sstw"
    write_model(model_from_arrays([(np.zeros((3, 784)), None)], names=["fc0"]), path)
    assert main(["infer", "--model", str(path), "--data", "synthetic:samples=6,dim=32"]) == 1
    assert capsys.readouterr().err == "error: input has 32 features, layer 0 (fc0) expects 784\n"


def test_compress_fixed8_writes_the_bytes_of_the_argsort_sweep_step(tmp_path):
    # 65,536 non-zeros at 127 positive levels: 8,323,072 breakpoints, merged
    # in thousands of windows
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(18), dims=(256, 256))
    policy = tmp_path / "policy.txt"
    policy.write_text("default format=fixed8\n")
    out = tmp_path / "model.sstw"
    assert main(["compress", "--input", str(npz), "--output", str(out),
                 "--policy", str(policy)]) == 0
    arrays = np.load(npz)
    W = arrays["W0"].astype(np.float64)
    delta = float(np.float32(argsort_sweep(np.abs(W[W != 0]), 127)))
    want = encode_layer(quantize_weight(W, delta, 255), delta, LayerFormat("fixed8"),
                        bias=arrays["b0"])
    got = read_model(out).layers[0]
    assert serialize_model(ModelFile(layers=[got])) == serialize_model(ModelFile(layers=[want]))


def test_verify_detects_out_of_range_index(tmp_path, capsys):
    params = CodeParams(8, 1)
    layer = encode_layer(np.zeros((8, 2)), 1.0, LayerFormat("sst", params))
    path = tmp_path / "bad.sstw"
    write_model(ModelFile(layers=[layer]), path)
    # the two indices are one 9-bit word; 496 >= T^2 = 289
    overwrite_payload(path, 0, bytes([0xF8, 0x00]))
    assert main(["verify", "--model", str(path), "--format", "records"]) == 1
    assert capsys.readouterr() == ("", "error: layer 0: corrupt last word 496 at word 0: a word "
                                       "of 2 indices of code (8,1) must be below 17^2\n")


@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("path_name, method", [("served matmul", "matmul"),
                                                ("add/subtract accumulate", "accumulate")])
def test_verify_checks_served_and_audit_paths(tmp_path, capsys, monkeypatch, path_name, method,
                                              orientation):
    params = CodeParams(8, 1)
    rng = np.random.default_rng(6)
    layer = encode_layer(random_sst_trits(rng, 16, 8, params, orientation) * 0.5, 0.5,
                         LayerFormat("sst", params, orientation),
                         bias=np.ones(16, dtype=np.float32))
    path = tmp_path / "m.sstw"
    write_model(ModelFile(layers=[layer]), path)
    assert main(["verify", "--model", str(path)]) == 0
    capsys.readouterr()
    original = getattr(CompressedFCLayer, method)
    monkeypatch.setattr(CompressedFCLayer, method, lambda self, x: original(self, x) + 1)
    assert main(["verify", "--model", str(path), "--format", "records"]) == 1
    failing = [s for s in _records(capsys) if not s["pass"]]
    assert [s["suite"] for s in failing] == ["kernel-vs-dense[layer0]"]
    assert failing[0]["detail"] == f"integer-mode mismatch of the {path_name} with the dense oracle"


def test_verify_checks_the_served_product_of_row_layers(tmp_path, capsys, monkeypatch):
    path = tmp_path / "row.sstw"
    assert main(["train", "--data", "synthetic:samples=300,classes=3,dim=16,seed=5",
                 "--arch", "16,16,3", "--code", "8,1", "--orientation", "row",
                 "--normalizer", "weight_norm", "--epochs", "1", "--float-epochs", "0",
                 "--out", str(path)]) == 0
    assert read_model(path).layers[0].format == LayerFormat("sst", CodeParams(8, 1), "row")
    capsys.readouterr()
    assert main(["verify", "--model", str(path), "--format", "records"]) == 0
    suites = _records(capsys)
    assert [s["suite"] for s in suites] == [
        "serialization-involution", "code-validity[fc0]", "codec-roundtrip[fc0]",
        "kernel-vs-dense[fc0]"]
    assert all(s["pass"] for s in suites)
    original = kernel._row_products
    monkeypatch.setattr(kernel, "_row_products", lambda X, W_t: original(X, W_t) + 1)
    assert main(["verify", "--model", str(path), "--format", "records"]) == 1
    failing = [s for s in _records(capsys) if not s["pass"]]
    assert [s["suite"] for s in failing] == ["kernel-vs-dense[fc0]"]
    assert failing[0]["detail"] == "integer-mode mismatch of the served matmul with the dense oracle"


def test_verify_decodes_each_sst_layer_once(tmp_path, decoded_layers):
    # the audit kernel shares the served layer's operand
    rng = np.random.default_rng(7)
    col, row = CodeParams(4, 2), CodeParams(8, 1)
    layers = [encode_layer(random_sst_trits(rng, 16, 8, col) * 0.5, 0.5, LayerFormat("sst", col)),
              encode_layer(random_sst_trits(rng, 8, 16, row, "row") * 0.25, 0.25,
                           LayerFormat("sst", row, "row")),
              encode_layer(rng.integers(-1, 2, size=(3, 8)) * 0.5, 0.5, LayerFormat("ternary2bit"))]
    path = tmp_path / "m.sstw"
    write_model(ModelFile(layers=layers), path)
    kernel._served_layers.clear()
    assert main(["verify", "--model", str(path)]) == 0
    assert decoded_layers == layers[:2]


def test_every_command_rejects_a_file_whose_layers_do_not_chain(tmp_path, capsys):
    layers = [encode_layer(np.ones((4, 3)), None, LayerFormat("float32")),
              encode_layer(np.ones((2, 5)), None, LayerFormat("float32"))]
    path, out = tmp_path / "m.sstw", tmp_path / "out.sstw"
    # write_model refuses such a model, so the file is spliced from one-layer files
    records = b"".join(serialize_model(ModelFile(layers=[layer]))[12:-6] for layer in layers)
    meta = b'{"layer_names":["a","b"]}'
    path.write_bytes(store.MAGIC + struct.pack("<HH", store.FORMAT_VERSION, 2) + records
                     + struct.pack("<I", len(meta)) + meta)
    for command in (["verify", "--model", str(path)], ["report", "--model", str(path)],
                    ["decompress", "--input", str(path), "--output", str(out)],
                    ["compress", "--input", str(path), "--output", str(out)],
                    ["infer", "--model", str(path), "--data", "synthetic:samples=6,dim=3"]):
        assert main(command) == 1, command
        assert capsys.readouterr() == ("", "error: layer 1 (b) expects 5 inputs, "
                                           "layer 0 (a) emits 4\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.sstw"]


def test_verify_empty_model_passes(tmp_path):
    path = tmp_path / "empty.sstw"
    write_model(ModelFile(), path)
    assert main(["verify", "--model", str(path)]) == 0


def test_train_on_synthetic_writes_metrics_and_model(tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    model_path = tmp_path / "trained.sstw"
    code = main(["train", "--data", "synthetic:samples=600,classes=3,dim=16,seed=5",
                 "--arch", "16,32,3", "--code", "8,2", "--epochs", "2",
                 "--float-epochs", "2", "--batch-size", "64", "--seed", "5",
                 "--out", str(model_path), "--metrics", str(metrics),
                 "--format", "records"])
    assert code == 0
    lines = [json.loads(l) for l in metrics.read_text().strip().splitlines()]
    quantized_epochs = [l for l in lines if l["stage"] == "(8,2)"]
    assert len(quantized_epochs) == 2
    assert all("train_loss" in l and "val_mcr" in l for l in lines)
    model = read_model(model_path)
    assert str(model.layers[0].format) == "sst(8,2)/column"
    assert main(["verify", "--model", str(model_path)]) == 0


def test_infer_on_perfect_toy_model(tmp_path, capsys):
    # memorize blobs with a float-trained model, then infer on the same data
    code = main(["train", "--data", "synthetic:samples=400,classes=3,dim=8,seed=6",
                 "--arch", "8,3", "--epochs", "40", "--lr", "0.01",
                 "--batch-size", "32", "--seed", "6",
                 "--out", str(tmp_path / "float_model.sstw"), "--format", "records"])
    assert code == 0
    capsys.readouterr()
    code = main(["infer", "--model", str(tmp_path / "float_model.sstw"),
                 "--data", "synthetic:samples=400,classes=3,dim=8,seed=6",
                 "--format", "records"])
    assert code == 0
    rec = _records(capsys)[-1]
    assert rec["samples"] == 400
    assert rec["mcr_percent"] <= 5.0


def test_infer_trace_reports_operation_counts(tmp_path, capsys):
    code = main(["train", "--data", "synthetic:samples=600,classes=3,dim=16,seed=9",
                 "--arch", "16,32,3", "--code", "8,2", "--epochs", "2",
                 "--float-epochs", "2", "--batch-size", "64", "--seed", "9",
                 "--out", str(tmp_path / "m.sstw"), "--format", "records"])
    assert code == 0
    capsys.readouterr()
    assert main(["infer", "--model", str(tmp_path / "m.sstw"),
                 "--data", "synthetic:samples=200,classes=3,dim=16,seed=9",
                 "--trace", "--format", "records"]) == 0
    recs = _records(capsys)
    traces = [r for r in recs if "table_lookups" in r]
    assert traces and all(t["max_ops_per_subvector"] <= t["op_budget"] for t in traces)
    assert traces[0]["table_lookups"] == (32 // 8) * 16


def test_infer_traces_every_sst_layer_of_a_row_model(tmp_path, capsys):
    rng = np.random.default_rng(10)
    params, row = CodeParams(8, 2), LayerFormat("sst", CodeParams(8, 2), "row")
    layers = [encode_layer(random_sst_trits(rng, 24, 16, params, "row") * 0.5, 0.5, row),
              encode_layer(random_sst_trits(rng, 8, 24, params, "row") * 0.25, 0.25, row),
              encode_layer(rng.integers(-1, 2, size=(3, 8)) * 0.5, 0.5, LayerFormat("ternary2bit"))]
    path = tmp_path / "row.sstw"
    write_model(ModelFile(layers=layers), path)
    assert main(["infer", "--model", str(path), "--data", "synthetic:samples=20,dim=16",
                 "--trace", "--format", "records"]) == 0
    *traces, summary = _records(capsys)
    assert [t["layer"] for t in traces] == ["layer0", "layer1"] and summary["samples"] == 20
    for trace, layer in zip(traces, layers):
        assert trace["table_lookups"] == layer.rows * layer.cols // params.n
        assert trace["addsub_ops"] == np.count_nonzero(decode_layer(layer))
        assert trace["delta_multiplies"] == layer.rows
        assert trace["max_ops_per_subvector"] <= trace["op_budget"] == params.k


def test_train_is_deterministic_per_seed(tmp_path):
    out = []
    for name in ("a.sstw", "b.sstw"):
        assert main(["train", "--data", "synthetic:samples=400,classes=3,dim=16,seed=4",
                     "--arch", "16,16,3", "--code", "8,2", "--epochs", "2",
                     "--float-epochs", "1", "--batch-size", "64", "--seed", "4",
                     "--out", str(tmp_path / name), "--format", "records"]) == 0
        out.append((tmp_path / name).read_bytes())
    assert out[0] == out[1]


@pytest.mark.parametrize("batch_size", ["0", "-5"])
def test_train_rejects_a_batch_size_below_one(tmp_path, capsys, batch_size):
    assert main(["train", "--data", "synthetic:samples=300", "--arch", "32,16,3",
                 "--code", "8,1", "--batch-size", batch_size, "--epochs", "1",
                 "--float-epochs", "0", "--out", str(tmp_path / "m.sstw")]) == 1
    assert (capsys.readouterr().err
            == f"error: batch size must be at least 1, got {batch_size}\n")
    assert not (tmp_path / "m.sstw").exists()


@pytest.mark.parametrize("option,value,message", [
    ("--seeds", "0", "--seeds must be at least 1, got 0"),
    ("--seeds", "-2", "--seeds must be at least 1, got -2"),
    ("--lr", "nan", "learning rate must be positive and finite, got nan"),
    ("--lr", "inf", "learning rate must be positive and finite, got inf"),
    ("--lr", "0", "learning rate must be positive and finite, got 0.0")])
def test_train_rejects_bad_seed_counts_and_learning_rates(tmp_path, capsys, option, value,
                                                          message):
    # before any work: the dataset directory is never read
    assert main(["train", "--data", f"idx:{tmp_path / 'missing'}", "--arch", "32,16,3",
                 "--code", "8,1", "--epochs", "1", "--float-epochs", "0",
                 "--out", str(tmp_path / "m.sstw"), option, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.sstw").exists()


def test_train_gradual_schedule_and_multiple_seeds(tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    assert main(["train", "--data", "synthetic:samples=400,classes=3,dim=16,seed=8",
                 "--arch", "16,16,3", "--code", "8,1", "--schedule", "4,2,1",
                 "--epochs", "1", "--float-epochs", "1", "--batch-size", "64",
                 "--seed", "8", "--seeds", "2", "--metrics", str(metrics),
                 "--format", "records"]) == 0
    summary = _records(capsys)[-1]
    assert summary["seeds"] == [8, 9]
    assert summary["mean_val_mcr_percent"] == pytest.approx(
        np.mean(summary["val_mcr_percent"]))
    stages = {json.loads(l)["stage"] for l in metrics.read_text().strip().splitlines()}
    assert stages == {"float", "(8,4)", "(8,2)", "(8,1)"}


def test_infer_reads_only_the_test_split(tmp_path, capsys):
    # no training files: infer needs only t10k-*, train still needs train-*
    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=30, dtype=np.uint8)
    (tmp_path / "t10k-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, 30, 28, 28) + images.tobytes())
    (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x801, 30) + labels.tobytes())
    model = ModelFile(layers=[encode_layer(rng.normal(size=(10, 784)), None,
                                           LayerFormat("float32"))])
    path = tmp_path / "m.sstw"
    write_model(model, path)
    assert main(["infer", "--model", str(path), "--data", f"idx:{tmp_path}",
                 "--format", "records"]) == 0
    X = images.reshape(30, -1).astype(np.float64) / 255.0
    wrong = int((np.argmax(compressed_forward(model, X), axis=1) != labels).sum())
    assert _records(capsys)[-1] == {"samples": 30, "mcr_percent": 100.0 * wrong / 30}
    assert main(["train", "--data", f"idx:{tmp_path}", "--arch", "784,10"]) == 2


@pytest.mark.parametrize("missing", ["n", "k"])
def test_compress_names_a_missing_sst_policy_key(tmp_path, capsys, missing):
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    policy = tmp_path / "policy.txt"
    policy.write_text("default format=sst " + ("k=2" if missing == "n" else "n=4") + "\n")
    out = tmp_path / "out.sstw"
    assert main(["compress", "--input", str(npz), "--output", str(out),
                 "--policy", str(policy)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {policy}:1: format=sst needs {missing}=<int>\n"
    assert not out.exists()


def test_exit_codes():
    assert main(["report", "--model", "/nonexistent/path.sstw"]) == 2
    assert main(["tables", "--codes", "banana"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_report_toggles(tmp_path, capsys):
    params = CodeParams(8, 1)
    rng = np.random.default_rng(3)
    W = random_sst_trits(rng, 64, 64, params) * 0.5
    layer = encode_layer(W, 0.5, LayerFormat("sst", params), bias=np.zeros(64))
    path = tmp_path / "m.sstw"
    write_model(ModelFile(layers=[layer]), path)
    assert main(["report", "--model", str(path), "--exclude-tables",
                 "--exclude-bias", "--format", "records"]) == 0
    recs = _records(capsys)
    total = recs[-1]
    # 512 indices: 46 words of 11 at 45 bits, then 6 in bitlen(17^6 - 1) = 25
    assert total["total_compressed_bits"] == 46 * 45 + 25


def _wide_code_model(path):
    # (16,16) has 3^16 entries, far above the reference table's entry cap
    rng = np.random.default_rng(4)
    trits = rng.integers(-1, 2, size=(16, 4))
    write_model(ModelFile(layers=[encode_layer(trits * 0.5, 0.5,
                                               LayerFormat("sst", CodeParams(16, 16)))]),
                path)
    return path


def test_verify_passes_a_code_above_the_table_entry_cap_once_per_suite(tmp_path, capsys):
    path = _wide_code_model(tmp_path / "wide.sstw")
    assert main(["verify", "--model", str(path), "--format", "records"]) == 0
    suites = _records(capsys)
    assert [s["suite"] for s in suites] == [
        "serialization-involution", "code-validity[layer0]", "codec-roundtrip[layer0]",
        "kernel-vs-dense[layer0]"]
    assert all(s["pass"] for s in suites)


def test_infer_traces_a_code_above_the_table_entry_cap(tmp_path, capsys):
    path = _wide_code_model(tmp_path / "wide.sstw")
    assert main(["infer", "--model", str(path), "--data", "synthetic:samples=6,dim=4",
                 "--trace", "--format", "records"]) == 0
    trace, summary = _records(capsys)
    assert trace["layer"] == "layer0" and summary["samples"] == 6
    # one sub-vector per column, each with up to all 16 trits non-zero
    assert trace["table_lookups"] == 4 and trace["op_budget"] == 16
    nonzeros = np.count_nonzero(decode_layer(read_model(path).layers[0]))
    assert (trace["addsub_ops"], trace["skipped_zeros"]) == (nonzeros, 64 - nonzeros)
    assert trace["max_ops_per_subvector"] <= 16


@pytest.mark.parametrize("line, key, message", [
    ("default fromat=ternary", "fromat", "unknown key"),
    ("default format=ternery", "format", "unknown value 'ternery'"),
    ("default format=sst n=4 k=1 orientation=diagonal", "orientation",
     "unknown value 'diagonal'"),
    ("default format=sst n=eight k=1", "n", "expected an integer, got 'eight'"),
    ("default format=sst n=4 k=1.5", "k", "expected an integer, got '1.5'"),
    ("default format=fixed8 n=4", "n", "applies to format=sst only"),
    ("default k=1", "k", "applies to format=sst only"),
    ("default format=ternary orientation=row", "orientation", "applies to format=sst only"),
    ("default format=sst n=4 n=8 k=1", "n", "given twice"),
    ("default format=sst n=16 k=0", "k", "k=0 keeps no weight, a target code needs k >= 1\n"),
])
def test_compress_rejects_unknown_policy_keys_and_values(tmp_path, capsys, line, key, message):
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    policy = tmp_path / "policy.txt"
    policy.write_text("# layer policies\n" + line + "\n")
    out = tmp_path / "out.sstw"
    assert main(["compress", "--input", str(npz), "--output", str(out),
                 "--policy", str(policy)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {policy}:2: key {key!r}: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("policy_line", ["default format=float32", "default format=ternary",
                                         "default format=sst n=4 k=1"])
def test_compress_rejects_a_non_finite_float_weight(tmp_path, capsys, policy_line):
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    arrays = dict(np.load(npz))
    arrays["W1"][2, 5] = np.nan
    np.savez(npz, **arrays)
    policy = tmp_path / "policy.txt"
    policy.write_text(policy_line + "\n")
    out = tmp_path / "out.sstw"
    assert main(["compress", "--input", str(npz), "--output", str(out),
                 "--policy", str(policy)]) == 1
    assert capsys.readouterr().err == ("error: layer 1: float32 weight nan at row 2, column 5 "
                                       "is not finite\n")
    assert not out.exists()


def test_a_target_code_with_k_0_is_rejected_before_any_work(tmp_path, capsys):
    message = "k=0 keeps no weight, a target code needs k >= 1"
    model, metrics = tmp_path / "m.sstw", tmp_path / "metrics.jsonl"
    assert main(["train", "--data", "synthetic:samples=300,classes=3,dim=32,seed=3",
                 "--arch", "32,16,3", "--code", "8,0", "--out", str(model),
                 "--metrics", str(metrics)]) == 1
    assert capsys.readouterr().err == f"error: --code (8,0): {message}\n"
    assert not model.exists() and not metrics.exists()
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9), dims=(16, 16, 3))
    out = tmp_path / "out.sstw"
    assert main(["compress", "--input", str(npz), "--output", str(out), "--code", "16,0"]) == 1
    assert capsys.readouterr().err == f"error: --code (16,0): {message}\n"
    assert not out.exists()
    # a k = 0 code is still a code: tables list it
    assert main(["tables", "--codes", "8,0", "--format", "records"]) == 0
    assert _records(capsys)[0]["entries"] == 1


@pytest.mark.parametrize("policy_line", ["default format=ternary", "default format=fixed8",
                                         "default format=sst n=4 k=1"])
def test_compress_names_the_layer_it_cannot_compress(tmp_path, capsys, policy_line):
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    arrays = dict(np.load(npz))
    arrays["W0"][:] = 0.0
    np.savez(npz, **arrays)
    policy = tmp_path / "policy.txt"
    policy.write_text(policy_line + "\n")
    out = tmp_path / "out.sstw"
    assert main(["compress", "--input", str(npz), "--output", str(out),
                 "--policy", str(policy)]) == 1
    assert capsys.readouterr().err == ("error: layer 0: cannot determine a step size "
                                       "for all-zero weights\n")
    assert not out.exists()


@pytest.mark.parametrize("names, label", [(["a", "b"], "layer 1 (b)"), (None, "layer 1")],
                         ids=["named", "unnamed"])
@pytest.mark.parametrize("command", ["compress", "decompress", "infer"])
def test_commands_name_the_layer_holding_a_corrupt_index(tmp_path, capsys, command, names,
                                                         label):
    params = CodeParams(8, 1)
    fmt = LayerFormat("sst", params)
    first = encode_layer(np.eye(8, 4), 1.0, fmt)  # not all zero: compress fits a step
    good = encode_layer(np.zeros((8, 8)), 1.0, fmt)
    path = tmp_path / "bad.sstw"
    write_model(ModelFile(layers=[first, good],
                          metadata={"layer_names": names} if names else {}), path)
    # the 8 indices are one 33-bit word; 0xF8 << 25 is over T^8 = 6,975,757,441
    overwrite_payload(path, 1, bytes([0xF8]) + good.payload[1:])
    out = tmp_path / "out.sstw"
    argv = {"compress": ["--input", str(path), "--output", str(out)],
            "decompress": ["--input", str(path), "--output", str(out)],
            "infer": ["--model", str(path), "--data", "synthetic:samples=6,dim=4"]}[command]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err == (f"error: {label}: corrupt last word 8321499136 at word "
                                       "0: a word of 8 indices of code (8,1) must be below "
                                       "17^8\n")
    assert not out.exists()


def _corrupt_ternary_model(path):
    """A file whose second layer, b, is a 3x8 ternary2bit layer whose 24
    trits, one 39-bit word, are all ones: 2^39 - 1 is over 3^24."""
    first = encode_layer(np.eye(8, 4), 1.0, LayerFormat("sst", CodeParams(8, 1)))
    good = encode_layer(np.zeros((3, 8)), 0.5, LayerFormat("ternary2bit"))
    write_model(ModelFile(layers=[first, good], metadata={"layer_names": ["a", "b"]}), path)
    overwrite_payload(path, 1, b"\xff" * len(good.payload))


_CORRUPT_TERNARY = ("corrupt last word 549755813887 at word 0: a word of 24 indices of code "
                    "(1,1) must be below 3^24")


def test_a_corrupt_ternary_payload_is_rejected_on_load(tmp_path):
    _corrupt_ternary_model(tmp_path / "bad.sstw")
    with pytest.raises(ValidationError, match=f"^layer 1 \\(b\\): {re.escape(_CORRUPT_TERNARY)}$"):
        read_model(tmp_path / "bad.sstw")


@pytest.mark.parametrize("command", ["compress", "decompress", "infer"])
def test_commands_name_the_layer_holding_a_corrupt_ternary_payload(tmp_path, capsys, command):
    path, out = tmp_path / "bad.sstw", tmp_path / "out.sstw"
    _corrupt_ternary_model(path)
    out.write_bytes(b"an earlier output")
    argv = {"compress": ["--input", str(path), "--output", str(out)],
            "decompress": ["--input", str(path), "--output", str(out)],
            "infer": ["--model", str(path), "--data", "synthetic:samples=6,dim=4"]}[command]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err == f"error: layer 1 (b): {_CORRUPT_TERNARY}\n"
    assert out.read_bytes() == b"an earlier output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.sstw", "out.sstw"]


def test_compress_names_the_policy_of_an_invalid_code(tmp_path, capsys):
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    policy = tmp_path / "policy.txt"
    policy.write_text("default format=sst n=4 k=5\n")
    assert main(["compress", "--input", str(npz), "--output", str(tmp_path / "out.sstw"),
                 "--policy", str(policy)]) == 1
    assert capsys.readouterr().err == (f"error: {policy}:1: "
                                       "non-zero budget k=5 outside [0, n=4]\n")


def _two_layer_sstw(path, nan=False):
    """A float32 model of two named layers, 16x12 and 4x16; with ``nan``,
    its second layer's payload holds a nan."""
    rng = np.random.default_rng(28)
    W1 = rng.normal(size=(4, 16)).astype("<f4")
    layers = [_float32_layer(rng.normal(size=(16, 12))), _float32_layer(W1)]
    blob = bytearray(serialize_model(ModelFile(layers=layers,
                                               metadata={"layer_names": ["fc0", "fc1"]})))
    if nan:
        at = blob.index(W1.tobytes()) + 4 * (1 * 16 + 2)
        blob[at:at + 4] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(blob))
    return path


def _rejected(capsys, argv, message, outputs):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(path.exists() for path in outputs)


def test_compress_rejects_a_policy_line_for_a_layer_the_model_lacks(tmp_path, capsys):
    # the payload's nan is never reached: the names are checked after the header pass
    path = _two_layer_sstw(tmp_path / "in.sstw", nan=True)
    policy, out = tmp_path / "policy.txt", tmp_path / "out.sstw"
    policy.write_text("fc0 format=fixed8\nfc9 format=float32\nfc7 format=ternary\n")
    _rejected(capsys, ["compress", "--input", str(path), "--output", str(out),
                       "--policy", str(policy)],
              "no layer named fc9, fc7 in the model; its layers are fc0, fc1", [out])
    policy.write_text("fc0 format=fixed8\n")
    _rejected(capsys, ["compress", "--input", str(path), "--output", str(out),
                       "--policy", str(policy)],
              "layer 1 (fc1): float32 weight nan at row 1, column 2 is not finite", [out])
    # an unnamed model's layers are named layer0, layer1, ...
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    policy.write_text("layer2 format=float32\n")
    _rejected(capsys, ["compress", "--input", str(npz), "--output", str(out),
                       "--policy", str(policy)],
              "no layer named layer2 in the model; its layers are layer0, layer1", [out])


@pytest.mark.parametrize("name", ["layer0", "default"])
def test_compress_rejects_a_policy_that_names_a_layer_twice(tmp_path, capsys, name):
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    policy, out = tmp_path / "policy.txt", tmp_path / "out.sstw"
    policy.write_text(f"{name} format=fixed8\n# a comment\nlayer1 format=ternary\n"
                      f"{name} format=float32\n")
    _rejected(capsys, ["compress", "--input", str(npz), "--output", str(out),
                       "--policy", str(policy)],
              f"{policy}:4: {name} already given on line 1", [out])


def test_compress_rejects_code_next_to_a_policy_default(tmp_path, capsys):
    path = _two_layer_sstw(tmp_path / "in.sstw")
    policy, out = tmp_path / "policy.txt", tmp_path / "out.sstw"
    policy.write_text("default format=fixed8\n")
    _rejected(capsys, ["compress", "--input", str(path), "--output", str(out),
                       "--policy", str(policy), "--code", "8,1"],
              f"--code and the default line of {policy} both give the default format", [out])


def test_orientation_and_schedule_need_a_code(tmp_path, capsys):
    path = _two_layer_sstw(tmp_path / "in.sstw")
    out = tmp_path / "out.sstw"
    _rejected(capsys, ["compress", "--input", str(path), "--output", str(out),
                       "--orientation", "row"],
              "--orientation applies to --code only", [out])
    model, metrics = tmp_path / "m.sstw", tmp_path / "metrics.jsonl"
    train = ["train", "--data", "synthetic:samples=60,classes=3,dim=8,seed=3", "--arch", "8,8,3",
             "--epochs", "1", "--out", str(model), "--metrics", str(metrics)]
    _rejected(capsys, [*train, "--orientation", "row"],
              "--orientation applies to --code only", [model, metrics])
    _rejected(capsys, [*train, "--orientation", "row", "--schedule", "4,2"],
              "--orientation applies to --code only", [model, metrics])
    _rejected(capsys, [*train, "--schedule", "4,2"],
              "--schedule applies to --code only", [model, metrics])
    # with --code, the orientation defaults to column
    assert main(["compress", "--input", str(path), "--output", str(out), "--code", "4,1"]) == 0
    assert [str(layer.format) for layer in read_model(out).layers] == ["sst(4,1)/column"] * 2


def test_train_reads_only_the_train_split(tmp_path, capsys):
    # no t10k-* files: train needs only train-*, infer still needs t10k-*
    rng = np.random.default_rng(10)
    images = rng.integers(0, 256, size=(40, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40, dtype=np.uint8)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, 40, 28, 28) + images.tobytes())
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x801, 40) + labels.tobytes())
    model = tmp_path / "m.sstw"
    assert main(["train", "--data", f"idx:{tmp_path}", "--arch", "784,10", "--epochs", "1",
                 "--out", str(model), "--format", "records"]) == 0
    capsys.readouterr()
    assert main(["infer", "--model", str(model), "--data", f"idx:{tmp_path}"]) == 2


@pytest.mark.parametrize("extra", [
    ["--code", "8,2", "--schedule", "4,2", "--epochs", "2", "--float-epochs", "1"],
    ["--code", "8,2", "--epochs", "0", "--float-epochs", "1"],
    ["--epochs", "2"],
    ["--epochs", "0"],
])
def test_train_reports_the_mcr_of_the_trained_net(tmp_path, capsys, extra):
    metrics = tmp_path / "metrics.jsonl"
    model_path = tmp_path / "m.sstw"
    data = "synthetic:samples=300,classes=3,dim=16,seed=7,separation=1.0"
    assert main(["train", "--data", data, "--arch", "16,16,3", *extra, "--batch-size", "32",
                 "--out", str(model_path), "--metrics", str(metrics),
                 "--format", "records"]) == 0
    reported = _records(capsys)[-1]["val_mcr_percent"][0]
    history = [json.loads(l) for l in metrics.read_text().splitlines()]
    X, y = gaussian_blobs(300, num_classes=3, dim=16, seed=7, separation=1.0)
    _, _, X_val, y_val = train_val_split(X, y, 0.1, 0)
    if "--code" in extra:
        # a quantized model file serves exactly the in-memory net
        probs = compressed_forward(read_model(model_path), X_val)
        assert reported == 100.0 * int((np.argmax(probs, axis=1) != y_val).sum()) / len(y_val)
    elif "0" in extra:
        untrained = tr.Network(_build_specs([16, 16, 3], "batch_norm", None, "column"))
        assert reported == tr.evaluate(untrained, X_val, y_val, mode="float")
    if "0" not in extra:
        assert reported == history[-1]["val_mcr"]
