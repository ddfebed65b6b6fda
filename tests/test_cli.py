"""Command-line interface: subcommands, formats, exit codes."""

import json
import struct

import numpy as np
import pytest

from sstc import training as tr
from sstc.cli import _build_specs, main
from sstc.codes import CodeParams, build_table
from sstc.datasets import gaussian_blobs, train_val_split
from sstc.kernel import CompressedFCLayer, compressed_forward
from sstc.store import (LayerFormat, ModelFile, encode_layer, read_model,
                        serialize_model, write_model)

from conftest import random_sst_trits


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


def test_tables_rejects_oversized_code(capsys):
    # 3^16 = 43,046,721 entries is over the default table cap
    assert main(["tables", "--codes", "16,16", "--format", "records"]) == 1
    assert "43046721" in capsys.readouterr().err
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


def test_verify_detects_out_of_range_index(tmp_path, capsys):
    params = CodeParams(8, 1)  # T=17, 5-bit indices, so 31 is out of range
    layer = encode_layer(np.zeros((8, 2)), 1.0, LayerFormat("sst", params))
    bad = type(layer)(layer.format, layer.rows, layer.cols, layer.delta,
                      bytes([0xF8, 0x00]), layer.bias, layer.normalizer)
    path = tmp_path / "bad.sstw"
    write_model(ModelFile(layers=[bad]), path)
    assert main(["verify", "--model", str(path), "--format", "records"]) == 1
    suites = _records(capsys)
    failing = [s for s in suites if not s["pass"]]
    assert failing and "position 0" in failing[0]["detail"]


@pytest.mark.parametrize("path_name, method", [("served matmul", "matmul"),
                                                ("add/subtract accumulate", "accumulate")])
def test_verify_checks_served_and_audit_paths(tmp_path, capsys, monkeypatch, path_name, method):
    params = CodeParams(8, 1)
    rng = np.random.default_rng(6)
    layer = encode_layer(random_sst_trits(rng, 16, 8, params) * 0.5, 0.5,
                         LayerFormat("sst", params), bias=np.ones(16, dtype=np.float32))
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


def test_train_is_deterministic_per_seed(tmp_path):
    out = []
    for name in ("a.sstw", "b.sstw"):
        assert main(["train", "--data", "synthetic:samples=400,classes=3,dim=16,seed=4",
                     "--arch", "16,16,3", "--code", "8,2", "--epochs", "2",
                     "--float-epochs", "1", "--batch-size", "64", "--seed", "4",
                     "--out", str(tmp_path / name), "--format", "records"]) == 0
        out.append((tmp_path / name).read_bytes())
    assert out[0] == out[1]


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
    assert err == (f"error: {policy}: layer layer0 (policy 'default'): "
                   f"format=sst needs {missing}=<int>\n")
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
    assert total["total_compressed_bits"] == 64 * 64 // 8 * 5


def test_verify_records_each_suite_once_when_the_kernel_cannot_build(tmp_path, capsys):
    # (16,16) has 3^16 entries: the layer decodes combinatorially, but its
    # code table is above the entry cap, so the kernel cannot be built
    params = CodeParams(16, 16)
    rng = np.random.default_rng(4)
    trits = rng.integers(-1, 2, size=(16, 4))
    path = tmp_path / "wide.sstw"
    write_model(ModelFile(layers=[encode_layer(trits * 0.5, 0.5, LayerFormat("sst", params))]),
                path)
    assert main(["verify", "--model", str(path), "--format", "records"]) == 1
    suites = _records(capsys)
    names = [s["suite"] for s in suites]
    assert len(names) == len(set(names))
    assert {s["suite"]: s["pass"] for s in suites} == {
        "serialization-involution": True, "code-validity[layer0]": True,
        "codec-roundtrip[layer0]": True, "kernel-vs-dense[layer0]": False}
    assert "above the entry cap" in suites[-1]["detail"]


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


def test_compress_names_the_policy_of_an_invalid_code(tmp_path, capsys):
    npz = _write_float_npz(tmp_path / "float.npz", np.random.default_rng(9))
    policy = tmp_path / "policy.txt"
    policy.write_text("default format=sst n=4 k=5\n")
    assert main(["compress", "--input", str(npz), "--output", str(tmp_path / "out.sstw"),
                 "--policy", str(policy)]) == 1
    assert capsys.readouterr().err == (f"error: {policy}: layer layer0 (policy 'default'): "
                                       "non-zero budget k=5 outside [0, n=4]\n")


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
        untrained = tr.build_network(_build_specs([16, 16, 3], "batch_norm", None, "column"))
        assert reported == tr.evaluate(untrained, X_val, y_val, mode="float")
    if "0" not in extra:
        assert reported == history[-1]["val_mcr"]
