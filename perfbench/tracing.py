"""Spans around calls into the sstc modules, and their self times.

Modules import each other by name (``from .codes import build_table``), so
a function is wrapped in every namespace its callers look it up in.  The
wrappers live here, in the benchmark; the library is not modified, and
`Tracer.unpatch` restores every original attribute.
"""

import functools
import os
import time
from contextlib import contextmanager

from sstc import bitpack, cli, datasets, kernel, store, training


class NullTracer:
    """Stands in for `Tracer` when a pass is not traced."""

    @contextmanager
    def span(self, name):
        yield None

    @contextmanager
    def paused(self):
        yield


class Tracer:
    """Keeps spans in memory: [id, parent id, name, start ns, end ns, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._recording = True

    @contextmanager
    def paused(self):
        """Record no spans inside, e.g. while the benchmark checks outputs."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    @contextmanager
    def span(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else -1,
                  name, time.perf_counter_ns(), 0, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr, name, counters=None):
        """Replace ``owner.attr`` by a function that records a span per call.

        ``name`` is a string or a function of (args, kwargs); ``counters``
        maps (args, kwargs, result) to counts, taken after the span ends.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._recording:
                return original(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = original(*args, **kwargs)
            if counters is not None:
                record[5].update(counters(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patch_sstc(self, matmul_layer_of):
        """Wrap the public functions of each sstc module at their call sites.

        ``matmul_layer_of`` maps a kernel layer's (rows, cols) to its
        position in the served model, which names the matmul span.
        """
        for owner in (kernel, cli):
            self.wrap(owner, "build_table", "codes.build_table")
        for owner in (store, training):
            self.wrap(owner, "rank_subvectors", "codes.rank_subvectors",
                      lambda a, k, r: {"subvectors": int(r.size)})
        self.wrap(store, "unrank_subvectors", "codes.unrank_subvectors")
        self.wrap(bitpack, "pack_indices", "bitpack.pack_indices",
                  lambda a, k, r: {"bytes": len(r)})
        self.wrap(bitpack, "unpack_indices", "bitpack.unpack_indices",
                  lambda a, k, r: {"bytes": (a[1] * a[2] + 7) // 8})
        for owner in (cli, training, store):
            self.wrap(owner, "encode_layer", "store.encode_layer")
        for owner in (cli, kernel):
            self.wrap(owner, "decode_layer", "store.decode_layer")
        for owner in (kernel, store):
            self.wrap(owner, "layer_indices", "store.layer_indices")
        self.wrap(store, "serialize_model", "store.serialize_model")
        self.wrap(store, "deserialize_model", "store.deserialize_model")
        self.wrap(cli, "read_model", "store.read_model")
        self.wrap(cli, "write_model", "store.write_model")
        self.wrap(cli, "storage_report", "store.storage_report")
        for owner in (cli, training):
            self.wrap(owner, "find_step_size", "quantize.find_step_size",
                      lambda a, k, r: {"nonzeros": int((a[0] != 0).sum())})
            self.wrap(owner, "quantize_weight", "quantize.quantize_weight")
            self.wrap(owner, "structured_prune", "prune.structured_prune")
        self.wrap(training, "train_structured", "training.train_structured")
        self.wrap(training, "train_float", "training.train_float")
        self.wrap(training, "forward", lambda a, k: f"training.forward.{k.get('phase', 'train')}")
        self.wrap(training, "backward_masked", "training.backward_masked")
        self.wrap(training, "adam_step", "training.adam_step")
        self.wrap(training.Layer, "refresh_quantized", "training.Layer.refresh_quantized")
        self.wrap(training, "evaluate", "training.evaluate")
        self.wrap(kernel, "compressed_forward", "kernel.compressed_forward")
        self.wrap(kernel.CompressedFCLayer, "__init__", "kernel.CompressedFCLayer.build")
        self.wrap(kernel.CompressedFCLayer, "matmul",
                  lambda a, k: "kernel.CompressedFCLayer.matmul.layer"
                               f"{matmul_layer_of.get((a[0].rows, a[0].cols), 'other')}")
        self.wrap(datasets, "read_idx", "datasets.read_idx",
                  lambda a, k, r: {"bytes": os.path.getsize(a[0])})


def aggregate(spans):
    """Per span name: total self ns, call count and summed counters.

    A span's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children nest inside parents.
    """
    child_ns = [0] * len(spans)
    for sid, parent, _name, start, end, _counters in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for sid, _parent, name, start, end, counters in spans:
        entry = totals.setdefault(name, {"self_ns": 0, "calls": 0, "counters": {}})
        entry["self_ns"] += end - start - child_ns[sid]
        entry["calls"] += 1
        for key, value in counters.items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return totals
