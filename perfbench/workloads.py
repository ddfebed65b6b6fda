"""The benchmark's workloads: set-up, one measured pass, and correctness checks.

Every workload runs the same user journey through `sstc.cli.main`, in
process, so every end-to-end metric exists on every workload.  A pass is a
set-up, one ``train``, then ``rounds`` rounds of ``compress`` -> ``report``
-> ``decompress`` -> ``infer``, with single-sample
`sstc.kernel.compressed_forward` requests after every step but report.
Each workload makes one module's step large and keeps the other steps
small, so that module dominates the pass:

* ``infer_wide`` serves a 784-1024-1024-10 network with (8,1) hidden
  layers, built in set-up; it trains a 784-96-96-10 network and compresses
  a desk-sized (784-256-256-10) float model.
* ``codec_vgg9fc`` compresses and decompresses the VGG-9 FC block
  (1024x8192 (16,2), 1024x1024 (8,1), 10x1024 ternary); it trains and
  serves a 784-96-96-10 network.
* ``train_desk`` trains the desk network (784-256-256-10, code (16,3),
  schedule 4,3) and serves the model it writes; it compresses a desk-sized
  float model.

Every training job has batch 128, one float warm-up epoch and one epoch
per stage of schedule 4,3, on 12000 training images of which half are held
out for validation.

On a shared 2-CPU Xeon host the time of one step drifted by tens of
percent over tens of seconds, so the short steps repeat within a pass: a
run needs many samples of each step, spread over its whole window, for its
medians to be steady.
"""

import gc
import hashlib
import io
import json
import os
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from sstc import cli, kernel
from sstc.codes import CodeParams, build_table
from sstc.prune import structured_prune
from sstc.quantize import find_step_size, quantize_weight
from sstc.store import (BatchNormParams, LayerFormat, ModelFile, decode_layer,
                        encode_layer, model_from_arrays, read_model, serialize_model,
                        write_model)

import data
from tracing import NullTracer

# A run makes at least this many passes, however long they take, and
# starts no further pass that would end after its time is up.
MIN_PASSES = 3
# float warm-up epoch + one epoch for each of the two schedule stages
TRAIN_EPOCHS = 3


@dataclass(frozen=True)
class Workload:
    float_dims: tuple     # the float model that `sstc compress` reads
    codes: tuple          # (n, k) per hidden layer; the output layer is ternary
    served: tuple         # widths of a model compressed in set-up and served; () serves the trained one
    train_arch: str
    train_count: int      # IDX training split; sstc train holds out half for validation
    test_count: int       # IDX test split that sstc infer reads
    rounds: int           # compress -> report -> decompress -> infer rounds per pass
    requests: int         # single-sample requests after each step but report

    @property
    def weight_count(self):
        return sum(a * b for a, b in zip(self.float_dims, self.float_dims[1:]))

    @property
    def served_dims(self):
        """Layer widths of the model that infer and the requests run."""
        return self.served or tuple(int(d) for d in self.train_arch.split(","))


WORKLOADS = {
    "infer_wide": Workload((784, 256, 256, 10), ((8, 1), (8, 1)), (784, 1024, 1024, 10),
                           "784,96,96,10", 12000, 256, 3, 6),
    "codec_vgg9fc": Workload((8192, 1024, 1024, 10), ((16, 2), (8, 1)), (),
                             "784,96,96,10", 12000, 1024, 2, 6),
    "train_desk": Workload((784, 256, 256, 10), ((16, 3), (16, 3)), (),
                           "784,256,256,10", 12000, 256, 2, 4),
}

SMOKE_WORKLOADS = {
    "infer_wide": Workload((784, 32, 32, 10), ((8, 1), (8, 1)), (784, 64, 64, 10),
                           "784,32,32,10", 400, 64, 1, 3),
    "codec_vgg9fc": Workload((128, 32, 16, 10), ((16, 2), (8, 1)), (),
                             "784,32,32,10", 400, 64, 1, 3),
    "train_desk": Workload((784, 32, 32, 10), ((16, 3), (16, 3)), (),
                           "784,32,32,10", 400, 64, 2, 3),
}


class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _formats(workload):
    fmts = [LayerFormat("sst", CodeParams(n, k)) for n, k in workload.codes]
    return fmts + [LayerFormat("ternary2bit")]


def compress_with_library(float_model, formats):
    """The model `sstc compress` writes, built from the library's functions."""
    names = float_model.layer_names()
    layers = []
    for name, layer, fmt in zip(names, float_model.layers, formats):
        W = decode_layer(layer)
        if fmt.kind == "sst":
            W = W * structured_prune(W, fmt.params, fmt.orientation)
        delta = float(np.float32(find_step_size(W)))
        layers.append(encode_layer(quantize_weight(W, delta), delta, fmt, bias=layer.bias,
                                   normalizer=layer.normalizer, layer_name=name))
    return ModelFile(layers=layers, metadata={**float_model.metadata, "layer_names": names})


def reference_predictions(model, X):
    """Predicted class of each row of ``X`` from a dense float64 forward pass.

    Decoded weights through BLAS, with eval batch norm folded to a per-row
    scale and shift; this is the oracle the compressed kernel must match.
    """
    out = X
    for pos, layer in enumerate(model.layers):
        out = out @ decode_layer(layer).T
        if layer.bias is not None:
            out = out + layer.bias.astype(np.float64)
        norm = layer.normalizer
        if isinstance(norm, BatchNormParams):
            scale = norm.gamma.astype(np.float64) / np.sqrt(
                norm.var.astype(np.float64) + np.float64(np.float32(norm.eps)))
            out = out * scale + (norm.beta.astype(np.float64) - norm.mean.astype(np.float64) * scale)
        if pos < len(model.layers) - 1:
            out = np.maximum(out, 0.0)
    out = np.exp(out - out.max(axis=1, keepdims=True))
    return np.argmax(out / out.sum(axis=1, keepdims=True), axis=1)


def _check_decompressed(compressed, decompressed):
    """Decoded weights lie in {-delta, 0, +delta}, <= k non-zeros per sub-vector."""
    for pos, (c, d) in enumerate(zip(compressed.layers, decompressed.layers)):
        W = decode_layer(d)
        delta = float(np.float32(c.delta))
        if not np.all((W == 0) | (W == delta) | (W == -delta)):
            raise CheckFailed(f"decompressed layer {pos} has values outside {{-d, 0, +d}}, d={delta}")
        if c.format.kind == "sst":
            n, k = c.format.params.n, c.format.params.k
            per_group = np.count_nonzero(W.reshape(c.rows // n, n, c.cols), axis=1)
            if per_group.max() > k:
                raise CheckFailed(f"decompressed layer {pos} has {per_group.max()} non-zeros "
                                  f"in a sub-vector, over k={k}")


class Run:
    """One workload at one seed: owns its files, counters and failures."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = seed
        self.data_dir = os.path.join(workdir, "digits")
        self.float_path = os.path.join(workdir, "float.sstw")
        self.policy_path = os.path.join(workdir, "policy.txt")
        self.served_setup_path = os.path.join(workdir, "served.sstw")
        self.compressed_path = os.path.join(workdir, "compressed.sstw")
        self.decompressed_path = os.path.join(workdir, "decompressed.sstw")
        self.trained_path = os.path.join(workdir, "trained.sstw")
        self.served_path = self.served_setup_path if workload.served else self.trained_path
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.reference = None
        self.X_test = None
        self.y_test = None
        self.requests_done = 0
        self.layer_bits = []
        self.first_setup = None

    # --- operation accounting -------------------------------------------

    def op(self, label, fn, *args):
        """Run one operation; a raised exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted and reported, the run goes on
            self.failed += 1
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
            self.failures.append(f"{label}: {detail}")
            return None

    def _same_digest(self, key, path):
        digest = _sha256(path)
        first = self.digests.setdefault(key, digest)
        if digest != first:
            raise CheckFailed(f"{key} sha256 {digest} differs from the first pass {first}")
        return digest

    def cli(self, tracer, argv):
        """Wall seconds and stdout of ``sstc <argv>`` in process."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # free earlier garbage outside the timed call
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            with tracer.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
            wall = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"sstc {argv[0]} exited {code}: {err.getvalue().strip()}")
        return wall, out.getvalue()

    # --- set-up -------------------------------------------------------------

    def setup_once(self):
        """Write every input file; returns their paths."""
        w = self.w
        rng = np.random.default_rng(self.seed)
        self.X_test, self.y_test = data.write_digit_dir(
            self.data_dir, rng, w.train_count, w.test_count)
        float_model = self._float_model(rng, w.float_dims)
        names = float_model.layer_names()
        write_model(float_model, self.float_path)
        with open(self.policy_path, "w") as fh:
            for name, fmt in zip(names, _formats(w)):
                if fmt.kind == "sst":
                    fh.write(f"{name} format=sst n={fmt.params.n} k={fmt.params.k} orientation=column\n")
                else:
                    fh.write(f"{name} format=ternary\n")
        files = [self.float_path, self.policy_path] + sorted(
            os.path.join(self.data_dir, f) for f in os.listdir(self.data_dir))
        if w.served:
            served = compress_with_library(self._float_model(rng, w.served), _formats(w))
            write_model(served, self.served_setup_path)
            self.reference = reference_predictions(served, self.X_test)
            files.append(self.served_setup_path)
        return files

    @staticmethod
    def _float_model(rng, dims):
        layers = data.float_layers(rng, dims)
        return model_from_arrays(
            [(W, b) for W, b, _ in layers], names=[f"fc{i}" for i in range(len(layers))],
            normalizers=[BatchNormParams(*bn) if bn else None for _, _, bn in layers])

    def _setup(self):
        gc.collect()
        start = time.perf_counter()
        files = self.setup_once()
        wall = time.perf_counter() - start
        digests = {os.path.basename(p): _sha256(p) for p in files}
        if self.first_setup is None:
            self.first_setup = digests
        elif digests != self.first_setup:
            raise CheckFailed("set-up files differ between passes of one seed")
        if self.w.served:
            self.digests["served"] = digests["served.sstw"]
        return {"setup_s": wall}

    # --- one pass of the journey --------------------------------------------

    def _train(self, tracer):
        w = self.w
        wall, out = self.cli(tracer, [
            "train", "--data", f"idx:{self.data_dir}", "--arch", w.train_arch,
            "--code", "16,3", "--schedule", "4,3", "--epochs", "1", "--float-epochs", "1",
            "--batch-size", "128", "--val-fraction", "0.5", "--seed", str(self.seed),
            "--out", self.trained_path, "--format", "records"])
        summary = json.loads(out.strip().splitlines()[-1])
        self._same_digest("trained", self.trained_path)
        if not w.served and self.reference is None:
            with tracer.paused():
                self.reference = reference_predictions(read_model(self.trained_path), self.X_test)
        return {"train_epoch_s": wall / TRAIN_EPOCHS,
                "train_val_mcr_pct": float(summary["val_mcr_percent"][0])}

    def _compress(self, tracer):
        wall, _ = self.cli(tracer, [
            "compress", "--input", self.float_path, "--output", self.compressed_path,
            "--policy", self.policy_path, "--format", "records"])
        self._same_digest("compressed", self.compressed_path)
        return {"compress_weights_per_s": self.w.weight_count / wall}

    def _report(self, tracer):
        _, out = self.cli(tracer, ["report", "--model", self.compressed_path, "--format", "records"])
        records = [json.loads(line) for line in out.strip().splitlines()]
        layers, total = records[:-1], records[-1]
        weights = sum(r["weights"] for r in layers)
        self.layer_bits = [r["payload_bits_per_weight"] for r in layers]
        return {"bits_per_weight": total["total_compressed_bits"] / weights}

    def _decompress(self, tracer):
        wall, _ = self.cli(tracer, [
            "decompress", "--input", self.compressed_path, "--output", self.decompressed_path])
        with tracer.paused():
            _check_decompressed(read_model(self.compressed_path), read_model(self.decompressed_path))
        return {"decompress_weights_per_s": self.w.weight_count / wall}

    def _infer(self, tracer):
        wall, out = self.cli(tracer, [
            "infer", "--model", self.served_path, "--data", f"idx:{self.data_dir}",
            "--format", "records"])
        mcr = json.loads(out.strip().splitlines()[-1])["mcr_percent"]
        want = 100.0 * int((self.reference != self.y_test).sum()) / len(self.y_test)
        if mcr != want:
            raise CheckFailed(f"sstc infer MCR {mcr} != dense reference MCR {want}")
        return {"infer_samples_per_s": len(self.y_test) / wall}

    def _request(self, tracer, model, index):
        x = self.X_test[index]
        start = time.perf_counter()
        with tracer.span("bench.request"):
            probs = kernel.compressed_forward(model, x)
        latency = time.perf_counter() - start
        got = int(np.argmax(probs[0]))
        if got != self.reference[index]:
            raise CheckFailed(f"request {index}: argmax {got} != reference {self.reference[index]}")
        return latency

    def run_pass(self, tracer):
        """One set-up, untraced, then one journey.

        Training runs once; the shorter steps run ``rounds`` times, so a run
        holds many samples of each.  Single-sample requests run after every
        step but report, so latency samples spread over the pass.  Returns each metric's samples, the
        request latencies and the wall time of the journey without set-up.
        Traced and untraced passes both follow a set-up, so their wall times
        compare like with like.
        """
        samples = {}

        def record(result):
            for key, value in (result or {}).items():
                samples.setdefault(key, []).append(value)

        with tracer.paused():
            record(self.op("setup", self._setup))
        steps = [("train", self._train)] + [
            ("compress", self._compress), ("report", self._report),
            ("decompress", self._decompress), ("infer", self._infer)] * self.w.rounds
        latencies = []
        model = None
        start = time.perf_counter()
        for label, step in steps:
            record(self.op(label, step, tracer))
            if label == "report" or self.reference is None:
                continue
            if model is None:
                with tracer.paused():
                    model = read_model(self.served_path)
                gc.collect()
            for _ in range(self.w.requests):
                index = self.requests_done % len(self.y_test)
                self.requests_done += 1
                latency = self.op(f"request {index}", self._request, tracer, model, index)
                if latency is not None:
                    latencies.append(latency)
        return samples, latencies, time.perf_counter() - start

    # --- checks outside the timed window ------------------------------------

    def verify_outputs(self):
        """`sstc verify` on the compressed and trained models must exit 0, and
        `sstc compress` must write the model the library functions build."""
        for path in (self.compressed_path, self.trained_path):
            self.op(f"verify {os.path.basename(path)}", self.cli, NullTracer(),
                    ["verify", "--model", path, "--trials", "3", "--seed", str(self.seed)])
        self.op("compress matches library", self._check_compress_matches_library)

    def _check_compress_matches_library(self):
        want = hashlib.sha256(serialize_model(compress_with_library(
            read_model(self.float_path), _formats(self.w)))).hexdigest()
        if _sha256(self.compressed_path) != want:
            raise CheckFailed("sstc compress output differs from the model built "
                              "with the library functions")

    def kernel_counts(self):
        """Exact per-sample PE counts of the served model, and computed bytes."""
        model = read_model(self.served_path)
        counts = {"addsub": 0, "lookups": 0, "bytes": 0}
        for layer in model.layers:
            if layer.format.kind != "sst":
                continue
            comp = kernel.CompressedFCLayer(layer, build_table(layer.format.params))
            trace = kernel.pe_trace(comp)
            counts["addsub"] += trace.addsub_ops
            counts["lookups"] += trace.table_lookups
            # index stream + the four int64 scatter lists + the int64 indices
            counts["bytes"] += (len(layer.payload) + comp.indices.nbytes
                                + comp.plus_rows.nbytes + comp.plus_cols.nbytes
                                + comp.minus_rows.nbytes + comp.minus_cols.nbytes)
        return counts
