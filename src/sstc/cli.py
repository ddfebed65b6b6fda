"""Command-line front end for the coding pipeline.

Subcommands: tables, compress, decompress, infer, train, report, verify.
Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import datasets, kernel, store, training
from .codes import ORIENTATIONS, CodeParams, address_bits, count_entries, table_storage_kb
# build_table: unused, but perfbench/tracing.py wraps it here
from .codes import build_table
from .errors import SstcError, ValidationError
# structured_prune, find_step_size, quantize_weight: unused, but perfbench/tracing.py wraps them here
from .prune import SparsitySchedule, structured_prune
from .quantize import find_step_size, quantize_weight
from .store import (LayerFormat, ModelFile, decode_layer, encode_layer, read_model,
                    storage_report, write_model)

TABLE_I_CODES = ((16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1))


class _Parser(argparse.ArgumentParser):
    # bad flags are a validation failure (exit 1), not an I/O failure
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _emit(records, fmt, human_text=None):
    if fmt == "records":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        print(human_text if human_text is not None else "\n".join(str(r) for r in records))


def _parse_code(text) -> CodeParams:
    try:
        n, k = (int(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise ValidationError(f"expected a code as N,K, got {text!r}")
    return CodeParams(n, k)


# a target code prunes each sub-vector to at most k non-zeros, so k=0
# leaves nothing to fit a step size to; tables and the codec accept k=0
_NO_WEIGHT_KEPT = "k=0 keeps no weight, a target code needs k >= 1"


def _target_code(args):
    """``(params, orientation)`` of ``--code`` and ``--orientation``, or
    (None, None) without ``--code``, which ``--orientation`` needs."""
    if not args.code:
        if args.orientation:
            raise ValidationError("--orientation applies to --code only")
        return None, None
    params = _parse_code(args.code)
    if params.k == 0:
        raise ValidationError(f"--code {params}: {_NO_WEIGHT_KEPT}")
    return params, args.orientation or "column"


def _parse_dataset(spec, seed=0, splits=("train", "t10k")):
    """(X, y) of each named split, in one flat tuple, for a dataset spec.

    Spec: 'idx:DIR' (or a bare directory) or 'synthetic:k=v,...'; the
    synthetic set fills every split.  By default that is
    (X_train, y_train, X_test, y_test).
    """
    if spec.startswith("synthetic:") or spec == "synthetic":
        opts = {}
        if ":" in spec:
            for pair in filter(None, spec.split(":", 1)[1].split(",")):
                key, _, value = pair.partition("=")
                opts[key] = value
        X, y = datasets.gaussian_blobs(
            num_samples=int(opts.get("samples", 3000)),
            num_classes=int(opts.get("classes", 3)),
            dim=int(opts.get("dim", 32)),
            seed=int(opts.get("seed", seed)),
            separation=float(opts.get("separation", 3.0)),
        )
        return (X, y) * len(splits)
    directory = spec.split(":", 1)[1] if spec.startswith("idx:") else spec
    return tuple(a for split in splits for a in datasets.load_digit_split(directory, split))


_SST_POLICY_KEYS = ("n", "k", "orientation")


def _parse_policy_file(path) -> dict:
    """The `LayerFormat` of each line '<layer|default> key=value ...' of a
    policy file, by its layer name or 'default'.

    Keys: format (float32|fixed8|ternary|sst), and for sst only n and k
    (integers) and orientation (column|row).  A line that does not give a
    format, or names a layer (or 'default') an earlier line named, raises
    `ValidationError` naming the file and the line, and the key where one
    is at fault.
    """
    formats, first_lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                name, *pairs = line.split()
                try:
                    if name in first_lines:
                        raise ValidationError(f"{name} already given on line {first_lines[name]}")
                    first_lines[name] = lineno
                    formats[name] = _policy_format(pairs)
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return formats


def _policy_format(pairs) -> LayerFormat:
    """The `LayerFormat` of one policy line's key=value pairs."""
    entry = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not value:
            raise ValidationError(f"expected key=value, got {pair!r}")
        if key not in ("format", *_SST_POLICY_KEYS):
            raise ValidationError(f"key {key!r}: unknown key, expected one of "
                                  f"format, {', '.join(_SST_POLICY_KEYS)}")
        if key in entry:
            raise ValidationError(f"key {key!r}: given twice")
        choices = {"format": ("float32", "fixed8", "ternary", "sst"),
                   "orientation": ORIENTATIONS}.get(key)
        if choices is None:  # n or k
            try:
                value = int(value)
            except ValueError:
                raise ValidationError(f"key {key!r}: expected an integer, got {value!r}")
            if key == "k" and value == 0:
                raise ValidationError(f"key {key!r}: {_NO_WEIGHT_KEPT}")
        elif value not in choices:
            raise ValidationError(f"key {key!r}: unknown value {value!r}, expected one of "
                                  f"{', '.join(choices)}")
        entry[key] = value
    kind = entry.pop("format", "float32")
    if kind != "sst":
        if entry:
            raise ValidationError(f"key {next(iter(entry))!r}: applies to format=sst only")
        return LayerFormat("ternary2bit" if kind == "ternary" else kind)
    for key in ("n", "k"):
        if key not in entry:
            raise ValidationError(f"format=sst needs {key}=<int>")
    return LayerFormat("sst", CodeParams(entry["n"], entry["k"]),
                       entry.get("orientation", "column"))


def cmd_tables(args):
    codes = ([_parse_code(c) for c in args.codes.split(";")] if args.codes
             else [CodeParams(n, k) for n, k in TABLE_I_CODES])
    records = []
    lines = [f"{'code':>8} {'entries T':>10} {'table KB':>10} {'address bits I':>15} {'bits/weight':>12}"]
    for params in codes:
        t = count_entries(params)
        bits = address_bits(params)
        kb = table_storage_kb(params)
        records.append({"code": str(params), "n": params.n, "k": params.k,
                        "entries": t, "table_kb": kb, "address_bits": bits,
                        "bits_per_weight": bits / params.n})
        lines.append(f"{str(params):>8} {t:>10} {kb:>10.3f} {bits:>15} {bits / params.n:>12.4f}")
    _emit(records, args.format, "\n".join(lines))
    return 0


def _load_npz(path) -> ModelFile:
    data = np.load(path)
    pairs = []
    index = 0
    while f"W{index}" in data:
        bias = data[f"b{index}"] if f"b{index}" in data else None
        pairs.append((data[f"W{index}"], bias))
        index += 1
    if not pairs:
        raise ValidationError(f"{path}: no W0/W1/... arrays found")
    return store.model_from_arrays(pairs)


def cmd_compress(args):
    formats = _parse_policy_file(args.policy) if args.policy else {}
    params, orientation = _target_code(args)
    if params and "default" in formats:
        raise ValidationError(f"--code and the default line of {args.policy} both give the "
                              f"default format")
    default = formats.pop("default", LayerFormat("sst", params, orientation) if params
                          else LayerFormat("ternary2bit"))
    # a .sstw input is read as it is compressed, layer by layer
    source = _load_npz(args.input) if args.input.endswith(".npz") else args.input
    compressed = store.compress_model(source, formats, default)
    write_model(compressed, args.output)
    report = storage_report(compressed)
    _emit(report.to_records(), args.format, report.to_text())
    return 0


def cmd_decompress(args):
    model = read_model(args.input)
    store.write_decompressed(model, args.output)
    print(f"wrote float32 model with {len(model.layers)} layers to {args.output}")
    return 0


def cmd_report(args):
    model = read_model(args.model)
    report = storage_report(
        model,
        include_tables=not args.exclude_tables,
        include_bias=not args.exclude_bias,
        include_normalizers=not args.exclude_normalizers,
    )
    _emit(report.to_records(), args.format, report.to_text())
    return 0


def cmd_infer(args):
    model = read_model(args.model)
    X, y = _parse_dataset(args.data, seed=args.seed, splits=("t10k",))
    probs = kernel.compressed_forward(model, X)
    mcr = 100.0 * int((np.argmax(probs, axis=1) != y).sum()) / len(X)
    records = [{"layer": name,
                **dataclasses.asdict(kernel.pe_trace(kernel.CompressedFCLayer(layer)))}
               for name, layer in zip(model.layer_names(), model.layers)
               if args.trace and layer.format.kind == "sst"]
    records.append({"samples": len(X), "mcr_percent": mcr})
    trace_text = "".join(
        f"{r['layer']}: {r['table_lookups']} lookups, {r['addsub_ops']} add/subs, "
        f"max {r['max_ops_per_subvector']}/{r['op_budget']} ops per sub-vector\n"
        for r in records[:-1])
    _emit(records, args.format,
          trace_text + f"MCR over {len(X)} samples: {mcr:.2f}%")
    return 0


def _build_specs(dims, normalizer, params, orientation):
    """Hidden layers sst at ``params`` and normalized, the output layer
    ternary and unnormalized; every layer float32 when ``params`` is None."""
    hidden = LayerFormat("sst", params, orientation) if params else LayerFormat("float32")
    output = LayerFormat("ternary2bit") if params else LayerFormat("float32")
    specs = [training.LayerSpec(din, dout, normalizer, hidden)
             for din, dout in zip(dims[:-2], dims[1:-1])]
    return specs + [training.LayerSpec(dims[-2], dims[-1], format=output)]


def cmd_train(args):
    dims = [int(d) for d in args.arch.replace(",", " ").split()]
    if len(dims) < 2:
        raise ValidationError(f"--arch needs at least two dimensions, got {args.arch!r}")
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be at least 1, got {args.seeds}")
    config = training.TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                                  epochs=args.epochs, seed=args.seed)
    params, orientation = _target_code(args)
    if args.schedule and not params:
        raise ValidationError("--schedule applies to --code only")
    X, y = _parse_dataset(args.data, seed=args.seed, splits=("train",))
    seeds = [args.seed + i for i in range(args.seeds)]
    schedule = None
    if params:
        ks = ([int(v) for v in args.schedule.replace(",", " ").split()]
              if args.schedule else [params.k])
        if ks[-1] != params.k:
            raise ValidationError(f"schedule must end at the target k={params.k}")
        schedule = SparsitySchedule.gradual(params.n, ks)
    results = []
    model = None
    metrics = []
    for seed in seeds:
        specs = _build_specs(dims, args.normalizer, params, orientation)
        net = training.Network(specs, seed=seed)
        split = training.TrainData.from_arrays(X, y, args.val_fraction, seed)
        config = dataclasses.replace(config, seed=seed)
        if schedule is None:
            history = training.train_float(net, split, config)
        else:
            history = training.train_structured(net, split, schedule, config,
                                                float_epochs=args.float_epochs)
        # the last epoch of the final phase already measured this net
        final_stage = str(schedule.stages[-1]) if schedule else "float"
        if history and history[-1]["stage"] == final_stage:
            mcr = history[-1]["val_mcr"]
        else:
            mcr = training.evaluate(net, split.X_val, split.y_val,
                                    mode="quantized" if schedule else "float")
        results.append(mcr)
        metrics.extend({"seed": seed, **rec} for rec in history)
        if model is None:
            meta = {"schedule": [str(p) for p in schedule.stages]} if schedule else {}
            model = training.network_to_model(net, meta)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            for rec in metrics:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if args.out:
        write_model(model, args.out)
    summary = {"seeds": seeds, "val_mcr_percent": results,
               "mean_val_mcr_percent": float(np.mean(results))}
    _emit([summary], args.format,
          f"val MCR per seed: {[f'{m:.2f}' for m in results]} mean {np.mean(results):.2f}%")
    return 0


def _verify_model(model: ModelFile, trials: int, seed: int):
    """Property suites: codec roundtrip, code validity, kernel-vs-dense."""
    rng = np.random.default_rng(seed)
    suites = []

    def record(name, ok, detail=""):
        suites.append({"suite": name, "pass": bool(ok), "detail": detail})

    data = store.serialize_model(model)
    again = store.serialize_model(store.deserialize_model(data))
    record("serialization-involution", data == again)

    for name, layer in zip(model.layer_names(), model.layers):
        if layer.format.kind != "sst":
            continue
        try:
            W = decode_layer(layer)
            re_encoded = encode_layer(W, layer.delta, layer.format, bias=layer.bias,
                                      normalizer=layer.normalizer, layer_name=name)
        except (SstcError, ValueError) as exc:
            record(f"code-validity[{name}]", False, str(exc))
            continue
        record(f"code-validity[{name}]", True)
        record(f"codec-roundtrip[{name}]", re_encoded.payload == layer.payload)
        bias = layer.bias if layer.bias is not None else 0.0
        X = np.array([rng.integers(-50, 50, size=layer.cols) for _ in range(max(trials, 1))])
        # the served product and the add/subtract audit path, each exactly; the
        # audit kernel, built after serving, shares the served operand
        served = kernel.served_product(layer, X.astype(np.float64))
        comp = kernel.CompressedFCLayer(layer)
        want = np.array([kernel.dense_matvec(W, x) for x in X]) + bias
        bad = [path for path, got in (("served matmul", served),
                                      ("add/subtract accumulate",
                                       comp.delta * comp.accumulate(X) + comp.bias))
               if not np.array_equal(want, got)]
        record(f"kernel-vs-dense[{name}]", not bad,
               f"integer-mode mismatch of the {bad[0]} with the dense oracle" if bad else "")
    return suites


def cmd_verify(args):
    model = read_model(args.model)
    suites = _verify_model(model, args.trials, args.seed)
    failed = [s for s in suites if not s["pass"]]
    if args.format == "records":
        _emit(suites, "records")
    else:
        for s in suites:
            mark = "PASS" if s["pass"] else "FAIL"
            detail = f" ({s['detail']})" if s["detail"] else ""
            print(f"{mark} {s['suite']}{detail}")
    return 1 if failed else 0


def build_parser():
    parser = _Parser(prog="sstc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("human", "records"), default="human")
        return p

    p = add("tables", cmd_tables, "print entry counts, table sizes, and address widths")
    p.add_argument("--codes", help="semicolon-separated N,K list (default: the six standard codes)")

    p = add("compress", cmd_compress, "prune, quantize, and encode a float model")
    p.add_argument("--input", required=True, help=".sstw model or .npz with W0,b0,W1,...")
    p.add_argument("--output", required=True)
    p.add_argument("--policy", help="per-layer policy file")
    p.add_argument("--code", help="default sst code as N,K")
    p.add_argument("--orientation", choices=ORIENTATIONS, help="of --code (default: column)")

    p = add("decompress", cmd_decompress, "decode a model back to float32 weights")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("report", cmd_report, "storage accounting for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--exclude-tables", action="store_true")
    p.add_argument("--exclude-bias", action="store_true")
    p.add_argument("--exclude-normalizers", action="store_true")

    p = add("infer", cmd_infer, "run compressed inference and report the MCR")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="idx:DIR or synthetic:k=v,...")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="emit per-layer operation counts")

    p = add("train", cmd_train, "train (float or structured sparse ternary)")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", required=True, help="comma-separated layer dims, e.g. 784,256,256,10")
    p.add_argument("--normalizer", choices=training.NORMALIZERS, default="batch_norm")
    p.add_argument("--code", help="target sst code N,K for hidden layers (omit for float)")
    p.add_argument("--orientation", choices=ORIENTATIONS, help="of --code (default: column)")
    p.add_argument("--schedule", help="gradual k values, e.g. 4,3,2,1 (must end at target k)")
    p.add_argument("--epochs", type=int, default=5, help="epochs per stage")
    p.add_argument("--float-epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of repeated trials")
    p.add_argument("--out", help="write the trained model here")
    p.add_argument("--metrics", help="write per-epoch records here (JSON lines)")

    p = add("verify", cmd_verify, "run the model property suites")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SstcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
