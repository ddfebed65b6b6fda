"""Seeded mutations of `.sstw` files: the untrusted-bytes boundary.

Each file holds a 16x12 (8,1) column layer with bias and batch norm, then a
4x16 layer in one of four formats, with stored names.  A mutated file must
either be rejected with a `ValidationError` at load, or load and
re-serialize to its own bytes; a loaded model then serves finite output.
Every index is checked at load, so nothing may be raised at forward, and
no warning may be issued.
"""

import warnings

import numpy as np
import pytest

from sstc.cli import main
from sstc.codes import CodeParams
from sstc.errors import ValidationError
from sstc.kernel import compressed_forward
from sstc.store import (BatchNormParams, LayerFormat, ModelFile, compress_layer,
                        deserialize_model, serialize_model)

SECOND_FORMATS = {"float32": LayerFormat("float32"), "fixed8": LayerFormat("fixed8"),
                  "ternary2bit": LayerFormat("ternary2bit"),
                  "sst-row": LayerFormat("sst", CodeParams(4, 1), "row")}

# mutations of each file: single-bit flips, flips of 2 to 8 bits, truncations
SINGLE, MULTI, TRUNCATED = 800, 250, 50


def _model_bytes(second: LayerFormat) -> bytes:
    rng = np.random.default_rng(29)
    norm = BatchNormParams(rng.normal(size=16), rng.normal(size=16), rng.normal(size=16),
                           rng.uniform(0.5, 2.0, size=16))
    first = compress_layer(rng.normal(size=(16, 12)), LayerFormat("sst", CodeParams(8, 1)),
                           rng.normal(size=16), norm)
    last = compress_layer(rng.normal(size=(4, 16)), second, rng.normal(size=4))
    return serialize_model(ModelFile(layers=[first, last],
                                     metadata={"layer_names": ["fc0", "fc1"]}))


def _mutations(blob: bytes, seed: int):
    """(name, bytes) of each seeded mutation of ``blob``."""
    rng = np.random.default_rng(seed)
    bits = 8 * len(blob)
    for i in range(SINGLE + MULTI):
        count = 1 if i < SINGLE else int(rng.integers(2, 9))
        mutated = bytearray(blob)
        for bit in rng.choice(bits, size=count, replace=False):
            mutated[bit // 8] ^= 0x80 >> (bit % 8)
        yield f"flip{i}", bytes(mutated)
    for i, size in enumerate(rng.integers(0, len(blob), size=TRUNCATED)):
        yield f"cut{i}", blob[:size]


_X = np.random.default_rng(30).normal(size=(5, 12))


def _outcome(blob: bytes) -> str:
    """How a mutated file fares; asserts that the outcome is an allowed one."""
    try:
        model = deserialize_model(blob)
    except ValidationError:
        return "rejected"
    assert serialize_model(model) == blob
    assert np.isfinite(compressed_forward(model, _X)).all()
    return "served"


@pytest.mark.parametrize("kind", SECOND_FORMATS)
def test_mutated_files_are_rejected_or_load_and_serve(kind):
    blob = _model_bytes(SECOND_FORMATS[kind])
    assert _outcome(blob) == "served"
    counts = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, mutated in _mutations(blob, seed=len(kind)):
            outcome = _outcome(mutated)
            counts[outcome] = counts.get(outcome, 0) + 1
    # both sides of the boundary are reached
    assert counts.get("rejected", 0) >= TRUNCATED and counts.get("served", 0) > 0


def test_commands_reject_mutated_files_with_one_error_line(tmp_path, capsys):
    # the first six rejected files
    blob = _model_bytes(SECOND_FORMATS["ternary2bit"])
    paths = []
    for name, mutated in _mutations(blob, seed=31):
        if _outcome(mutated) == "rejected":
            paths.append(tmp_path / f"{name}.sstw")
            paths[-1].write_bytes(mutated)
            if len(paths) == 6:
                break
    assert len(paths) == 6
    out = tmp_path / "out.sstw"
    for path in paths:
        for argv in (["infer", "--model", str(path), "--data", "synthetic:samples=6,dim=12"],
                     ["decompress", "--input", str(path), "--output", str(out)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert "Traceback" not in err
    assert not out.exists()
