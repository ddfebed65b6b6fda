"""Benchmark of the sstc CLI and compressed kernel.

Usage, from the repository root:

    python3 perfbench/run.py --workload infer_wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36   # every workload
    python3 perfbench/run.py --workload all --smoke                 # tiny shapes
    python3 -m pytest perfbench                                     # smoke test

A run repeats its workload's pass (see workloads.py) until ``--seconds`` is
used up, and reports medians over the passes.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
and reports per-module self times and counts per traced pass, exact counts,
and the tracing overhead: traced minus untraced pass wall time.

Every run prints the environment, a table of its metrics with units, the
failed-operation fraction (``failed / attempted``) and the sha256 of the
files it checks for determinism.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details go to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``; a traced
run also writes its spans, one JSON list ``[id, parent id, name, start ns,
end ns, counters]`` per line, to ``<workload>-seed<n>-spans.jsonl``.
Scratch files go to ``.perfbench_work/`` and are removed at exit.
BENCHMARK.json lists the same metrics as this file.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("infer_wide", "codec_vgg9fc", "train_desk")

END_TO_END = (
    ("setup_s", "s"),
    ("infer_samples_per_s", "samples/s"),
    ("infer_latency_p50_ms", "ms"),
    ("infer_latency_p90_ms", "ms"),
    ("compress_weights_per_s", "weights/s"),
    ("decompress_weights_per_s", "weights/s"),
    ("bits_per_weight", "bits"),
    ("train_epoch_s", "s"),
    ("train_val_mcr_pct", "%"),
)

# (metric, unit, source): ("ms", span) is self time per pass, ("calls",
# span) calls per pass, ("counter", span, key) a summed counter per pass,
# and ("exact", key) a count taken outside the timed passes.
PER_LAYER = (
    ("cli.train.ms", "ms", ("ms", "cli.train")),
    ("cli.compress.ms", "ms", ("ms", "cli.compress")),
    ("cli.report.ms", "ms", ("ms", "cli.report")),
    ("cli.decompress.ms", "ms", ("ms", "cli.decompress")),
    ("cli.infer.ms", "ms", ("ms", "cli.infer")),
    ("codes.build_table.ms", "ms", ("ms", "codes.build_table")),
    ("codes.build_table.calls", "count", ("calls", "codes.build_table")),
    ("codes.rank_subvectors.ms", "ms", ("ms", "codes.rank_subvectors")),
    ("codes.rank_subvectors.subvectors", "count", ("counter", "codes.rank_subvectors", "subvectors")),
    ("codes.unrank_subvectors.ms", "ms", ("ms", "codes.unrank_subvectors")),
    ("bitpack.pack_indices.ms", "ms", ("ms", "bitpack.pack_indices")),
    ("bitpack.pack_indices.bytes", "bytes", ("counter", "bitpack.pack_indices", "bytes")),
    ("bitpack.unpack_indices.ms", "ms", ("ms", "bitpack.unpack_indices")),
    ("bitpack.unpack_indices.bytes", "bytes", ("counter", "bitpack.unpack_indices", "bytes")),
    ("store.encode_layer.ms", "ms", ("ms", "store.encode_layer")),
    ("store.decode_layer.ms", "ms", ("ms", "store.decode_layer")),
    ("store.layer_indices.ms", "ms", ("ms", "store.layer_indices")),
    ("store.serialize_model.ms", "ms", ("ms", "store.serialize_model")),
    ("store.deserialize_model.ms", "ms", ("ms", "store.deserialize_model")),
    ("store.read_model.ms", "ms", ("ms", "store.read_model")),
    ("store.write_model.ms", "ms", ("ms", "store.write_model")),
    ("store.storage_report.ms", "ms", ("ms", "store.storage_report")),
    ("store.file_bytes", "bytes", ("exact", "file_bytes")),
    ("store.payload_bits_per_weight.layer0", "bits", ("exact", "layer0_bits")),
    ("store.payload_bits_per_weight.layer1", "bits", ("exact", "layer1_bits")),
    ("store.payload_bits_per_weight.layer2", "bits", ("exact", "layer2_bits")),
    ("quantize.find_step_size.ms", "ms", ("ms", "quantize.find_step_size")),
    ("quantize.find_step_size.nonzeros", "count", ("counter", "quantize.find_step_size", "nonzeros")),
    ("quantize.quantize_weight.ms", "ms", ("ms", "quantize.quantize_weight")),
    ("quantize.quantize_weight.calls", "count", ("calls", "quantize.quantize_weight")),
    ("prune.structured_prune.ms", "ms", ("ms", "prune.structured_prune")),
    ("training.train_structured.ms", "ms", ("ms", "training.train_structured")),
    ("training.train_float.ms", "ms", ("ms", "training.train_float")),
    ("training.forward.train.ms", "ms", ("ms", "training.forward.train")),
    ("training.forward.eval.ms", "ms", ("ms", "training.forward.eval")),
    ("training.backward_masked.ms", "ms", ("ms", "training.backward_masked")),
    ("training.adam_step.ms", "ms", ("ms", "training.adam_step")),
    ("training.Layer.refresh_quantized.ms", "ms", ("ms", "training.Layer.refresh_quantized")),
    ("training.evaluate.ms", "ms", ("ms", "training.evaluate")),
    ("training.steps", "count", ("calls", "training.adam_step")),
    ("kernel.compressed_forward.ms", "ms", ("ms", "kernel.compressed_forward")),
    ("kernel.CompressedFCLayer.build.ms", "ms", ("ms", "kernel.CompressedFCLayer.build")),
    ("kernel.CompressedFCLayer.builds", "count", ("calls", "kernel.CompressedFCLayer.build")),
    ("kernel.CompressedFCLayer.matmul.layer0.ms", "ms", ("ms", "kernel.CompressedFCLayer.matmul.layer0")),
    ("kernel.CompressedFCLayer.matmul.layer1.ms", "ms", ("ms", "kernel.CompressedFCLayer.matmul.layer1")),
    ("kernel.addsub_ops_per_sample", "count", ("exact", "addsub")),
    ("kernel.table_lookups_per_sample", "count", ("exact", "lookups")),
    ("kernel.bytes_moved_per_sample", "bytes-computed", ("exact", "bytes")),
    ("datasets.read_idx.ms", "ms", ("ms", "datasets.read_idx")),
    ("datasets.read_idx.bytes", "bytes", ("counter", "datasets.read_idx", "bytes")),
    ("bench.request.ms", "ms", ("ms", "bench.request")),
    ("trace.overhead_ms", "ms", ("exact", "overhead_ms")),
    ("trace.overhead_pct", "%", ("exact", "overhead_pct")),
    ("trace.spans", "count", ("exact", "spans")),
)


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def blas_threads():
    """Threads the loaded OpenBLAS says it uses; None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(nproc, seed):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(),
            "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "nproc": nproc, "cpu": cpu, "seed": seed}


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(passes, latencies):
    values = {}
    for key in ("setup_s", "infer_samples_per_s", "compress_weights_per_s",
                "decompress_weights_per_s", "bits_per_weight", "train_epoch_s",
                "train_val_mcr_pct"):
        values[key] = _median([v for p in passes for v in p.get(key, ())])
    if len(latencies) >= 2:
        deciles = statistics.quantiles([1000.0 * v for v in latencies], n=10)
        values["infer_latency_p50_ms"] = _median([1000.0 * v for v in latencies])
        values["infer_latency_p90_ms"] = deciles[8]
    return values


def per_layer_metrics(totals, traced_passes, exact):
    values = {}
    for name, _unit, source in PER_LAYER:
        kind = source[0]
        if kind == "exact":
            values[name] = exact[source[1]]
            continue
        entry = totals.get(source[1], {"self_ns": 0, "calls": 0, "counters": {}})
        if kind == "ms":
            value = entry["self_ns"] / 1e6
        elif kind == "calls":
            value = entry["calls"]
        else:
            value = entry["counters"].get(source[2], 0)
        values[name] = value / traced_passes
    return values


def module_shares(totals, traced_wall_s):
    """Percent of traced pass wall time spent in each module's own code.

    A span's module is the first part of its name; ``other`` is the rest of
    the pass: the benchmark's checks, garbage collection and untraced code.
    """
    ns = {}
    for name, entry in totals.items():
        module = name.split(".")[0]
        ns[module] = ns.get(module, 0) + entry["self_ns"]
    shares = {m: 100.0 * v / 1e9 / traced_wall_s for m, v in ns.items()}
    shares["other"] = 100.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def measure(workload, seed, seconds, trace, smoke, out_dir):
    """Set up and measure one workload; returns (run, metrics, details)."""
    import workloads
    from tracing import NullTracer, Tracer, aggregate

    table = workloads.SMOKE_WORKLOADS if smoke else workloads.WORKLOADS
    cfg = table[workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = workloads.Run(cfg, seed, workdir)
    try:
        min_passes = 1 if smoke else workloads.MIN_PASSES
        seconds = 0 if smoke else seconds
        dims = cfg.served_dims
        layer_of = {(b, a): pos for pos, (a, b) in enumerate(zip(dims, dims[1:]))}
        tracer = Tracer()
        passes, latencies, walls, traced_walls = [], [], [], []
        start = time.perf_counter()
        deadline = start + seconds
        while len(walls) < min_passes or time.perf_counter() + (
                time.perf_counter() - start) / len(walls) <= deadline:
            metrics, lats, wall = run.run_pass(NullTracer())
            passes.append(metrics)
            latencies.extend(lats)
            walls.append(wall)
            if trace:
                tracer.patch_sstc(layer_of)
                try:
                    traced_walls.append(run.run_pass(tracer)[2])
                finally:
                    tracer.unpatch()
        run.verify_outputs()
        details = {"workload": workload, "seed": seed, "passes": passes,
                   "pass_wall_s": walls,
                   "latency_samples": len(latencies), "digests": run.digests,
                   "failures": run.failures}
        if not trace:
            return run, end_to_end_metrics(passes, latencies), details
        counts = run.kernel_counts()
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        exact = {"file_bytes": os.path.getsize(run.compressed_path),
                 "addsub": counts["addsub"], "lookups": counts["lookups"],
                 "bytes": counts["bytes"],
                 "overhead_ms": 1000.0 * (traced - untraced),
                 "overhead_pct": 100.0 * (traced - untraced) / untraced,
                 "spans": len(tracer.spans) / len(traced_walls)}
        exact.update({f"layer{i}_bits": bits for i, bits in enumerate(run.layer_bits)})
        totals = aggregate(tracer.spans)
        details["traced_pass_wall_s"] = traced_walls
        details["module_share_pct"] = module_shares(totals, sum(traced_walls))
        with open(os.path.join(out_dir, f"{workload}-seed{seed}-spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        return run, per_layer_metrics(totals, len(traced_walls), exact), details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, one pass")
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    # numpy asks the kernel for transparent huge pages on large arrays.
    # Whether the host grants them follows its memory fragmentation and
    # doubles or halves the time to fill a fresh array, so that pass times
    # flipped between two modes; the benchmark asks for none.  Set before
    # numpy loads.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "sstc")):
        print(f"error: no sstc package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import sstc
    if os.path.dirname(os.path.dirname(os.path.abspath(sstc.__file__))) != src:
        print(f"error: imported sstc from {sstc.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = environment(nproc, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = {m: u for m, u, _ in PER_LAYER} if args.trace else dict(END_TO_END)
    attempted = failed = 0
    complete = True
    result_metrics = {}
    for name in names:
        run, metrics, details = measure(name, args.seed, args.seconds, args.trace,
                                        args.smoke, out_dir)
        attempted += run.attempted
        failed += run.failed
        details["env"] = env
        with open(os.path.join(out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(details, fh, indent=1, sort_keys=True)
        print(f"\n{name}: {run.attempted} operations, {run.failed} failed, "
              f"failed_ops_frac {run.failed / max(run.attempted, 1):.6g}, "
              f"{len(details['passes'])} passes, {details['latency_samples']} latency samples")
        for key, digest in sorted(run.digests.items()):
            print(f"  sha256 {key}: {digest}")
        if "module_share_pct" in details:
            print("  share of traced pass wall: " + ", ".join(
                f"{m} {v:.1f}%" for m, v in details["module_share_pct"].items()))
        for failure in run.failures:
            print(f"  FAILED {failure}")
        for metric, unit in units.items():
            value = metrics.get(metric)
            if value is None:
                complete = False
                print(f"  {metric:<44} missing")
                continue
            print(f"  {metric:<44} {value:>16.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result_metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
