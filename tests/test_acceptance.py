"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 7-9 exercise the desk-scale digit task and require the standard
28x28 dataset in IDX layout (see conftest.mnist); they skip with an
explanatory message when the files are not available.
"""

import time

import numpy as np
import pytest

from sstc.codes import (CodeParams, address_bits, build_table, count_entries,
                        from_subvectors, rank_subvectors, table_storage_kb,
                        unrank_subvectors)
from sstc.kernel import CompressedFCLayer, compressed_forward, dense_matvec, pe_trace
from sstc.prune import SparsitySchedule
from sstc.quantize import find_step_size
from sstc.store import (BatchNormParams, LayerFormat, ModelFile, decode_layer,
                        deserialize_model, encode_layer, payload_bits, serialize_model,
                        storage_report)
from sstc import training as tr

from conftest import grid_search_step_size, quantization_error, reference_group

ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]
SEEDS = [0, 1, 2, 3, 4]

# wall-clock of the shared training fixtures, for the runtime budgets
TIMINGS = {}


def _stamp(criterion, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}; {time.time() - started:.1f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_table_reproduction():
    started = time.time()
    expected = {
        (16, 4): (34113, 16, 136.452), (16, 3): (4993, 13, 19.972),
        (16, 2): (513, 10, 2.052), (8, 2): (129, 8, 0.258),
        (8, 1): (17, 5, 0.034), (4, 1): (9, 4, 0.009),
    }
    ok = True
    for (n, k), (t, i, kb) in expected.items():
        params = CodeParams(n, k)
        ok &= count_entries(params) == t
        ok &= address_bits(params) == i
        ok &= table_storage_kb(params) == kb
    elapsed = time.time() - started
    _stamp("1 table-reproduction", ok and elapsed < 1.0,
           f"six codes, zero tolerance, {elapsed:.3f}s", started)


def test_criterion_2_codec_roundtrip():
    started = time.time()
    mismatches = 0
    checked = 0
    for n, k in ALL_CODES:
        params = CodeParams(n, k)
        t = count_entries(params)
        if t <= 16384:
            table = build_table(params)
            ranks = rank_subvectors(table.trits, params)
            mismatches += int((ranks != np.arange(t)).sum())
            checked += t
        else:
            rng = np.random.default_rng(2)
            idx = rng.integers(0, t, size=10_000)
            vectors = unrank_subvectors(idx, params)
            mismatches += int((rank_subvectors(vectors, params) != idx).sum())
            checked += idx.size
    elapsed = time.time() - started
    _stamp("2 codec-roundtrip", mismatches == 0 and elapsed < 10.0,
           f"{checked} roundtrips, {mismatches} mismatches", started)


def _random_sst_layer(rng, params, table):
    groups = int(rng.integers(1, 128 // params.n + 1))
    rows, cols = groups * params.n, int(rng.integers(1, 129))
    idx = rng.integers(0, len(table.trits), size=groups * cols)
    trits = from_subvectors(table.trits[idx], rows, cols, params, "column")
    delta = float(np.float32(rng.uniform(0.05, 2.0)))
    bias = rng.normal(size=rows).astype(np.float32)
    layer = encode_layer(trits * delta, delta, LayerFormat("sst", params), bias=bias)
    return layer, trits.astype(np.int64), delta, bias


def test_criterion_3_kernel_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(3)
    tables = {CodeParams(n, k): build_table(CodeParams(n, k)) for n, k in ALL_CODES}
    failures = []
    for trial in range(1000):
        params = CodeParams(*ALL_CODES[trial % len(ALL_CODES)])
        table = tables[params]
        layer, trits, delta, bias = _random_sst_layer(rng, params, table)
        comp = CompressedFCLayer(layer, table)
        dense = decode_layer(layer)
        # integer mode: exact
        xi = rng.integers(-100, 101, size=layer.cols)
        if not np.array_equal(comp.accumulate(xi), trits @ xi):
            failures.append((trial, "integer accumulate"))
        if not np.array_equal(comp.matmul(xi),
                              dense_matvec(dense, xi) + bias):
            failures.append((trial, "integer matvec"))
        # real mode: 1e-6 relative
        xr = rng.normal(size=layer.cols)
        want = dense_matvec(dense, xr) + bias
        got = comp.matmul(xr)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        if rel.max() > 1e-6:
            failures.append((trial, f"real mode rel {rel.max():.2e}"))
        trace = pe_trace(comp)
        if trace.max_ops_per_subvector > params.k:
            failures.append((trial, "op budget"))
        if trace.addsub_ops != np.count_nonzero(trits):
            failures.append((trial, "op count"))
    elapsed = time.time() - started
    _stamp("3 kernel-oracle", not failures and elapsed < 30.0,
           f"1000 layers, failures: {failures[:3]}", started)


def test_criterion_4_quantizer_optimality():
    """100 random ternary sets against the grid oracle, error and delta;
    extra trials at 7 and 255 levels check the error bound alone (there the
    landscape has near-tied basins narrower than any affordable grid, so
    delta proximity only reflects oracle resolution, not optimality)."""
    started = time.time()
    rng = np.random.default_rng(4)
    worst_ratio = 0.0
    worst_delta = 0.0
    for _ in range(100):
        size = int(np.exp(rng.uniform(np.log(100), np.log(10_000))))
        shape = rng.choice(["normal", "uniform", "lognormal"])
        if shape == "normal":
            w = rng.normal(size=size)
        elif shape == "uniform":
            w = rng.uniform(-1, 1, size=size)
        else:
            w = rng.lognormal(sigma=1.0, size=size) * rng.choice([-1, 1], size=size)
        delta = find_step_size(w)
        oracle_delta, oracle_err = grid_search_step_size(w, grid_points=20_000)
        worst_ratio = max(worst_ratio, quantization_error(w, delta, 3) / oracle_err)
        worst_delta = max(worst_delta, abs(delta - oracle_delta) / oracle_delta)
    worst_high_p = 0.0
    for levels in (7, 255):
        for _ in range(10):
            w = rng.normal(size=int(rng.integers(100, 2000)))
            delta = find_step_size(w, levels)
            _, oracle_err = grid_search_step_size(w, levels)
            worst_high_p = max(worst_high_p,
                               quantization_error(w, delta, levels) / oracle_err)
    elapsed = time.time() - started
    ok = (worst_ratio <= 1 + 1e-6 and worst_delta <= 5e-3
          and worst_high_p <= 1 + 1e-6 and elapsed < 30.0)
    _stamp("4 quantizer-optimality", ok,
           f"100 ternary sets: worst error ratio {worst_ratio:.9f}, worst delta dev "
           f"{worst_delta * 100:.3f}%; 20 high-P sets: worst ratio {worst_high_p:.9f}",
           started)


def _fd_worst(net, X, y, targets, rng, samples, h=1e-5):
    fwd = tr.forward(net, X, "float", "train")
    grads = tr.backward_masked(net, y, fwd)
    worst = 0.0
    count = 0
    for layer_idx, name in targets:
        arr = getattr(net.layers[layer_idx], name)
        g = grads[layer_idx][name]
        for _ in range(samples):
            ix = tuple(rng.integers(s) for s in arr.shape)
            orig = arr[ix]
            arr[ix] = orig + h
            lp = tr.cross_entropy(tr.forward(net, X, "float", "train"), y)
            arr[ix] = orig - h
            lm = tr.cross_entropy(tr.forward(net, X, "float", "train"), y)
            arr[ix] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(g[ix]))
            if denom > 1e-8:
                worst = max(worst, abs(fd - g[ix]) / denom)
            count += 1
    return worst, count


def test_criterion_5_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(16, 6))
    y = rng.integers(3, size=16)

    bn_net = tr.Network([
        tr.LayerSpec(6, 8, normalizer="batch_norm"),
        tr.LayerSpec(8, 8, normalizer="batch_norm"),
        tr.LayerSpec(8, 3),
    ], seed=50)
    mask = (rng.random(bn_net.layers[0].W.shape) < 0.7).astype(float)
    mask[0, 0] = 1.0
    bn_net.layers[0].set_mask(mask)
    bn_targets = [(0, "W"), (0, "b"), (0, "gamma"), (0, "beta"),
                  (1, "W"), (1, "gamma"), (1, "beta"), (2, "W"), (2, "b")]
    worst_bn, n_bn = _fd_worst(bn_net, X, y, bn_targets, rng, samples=70)

    wn_net = tr.Network([
        tr.LayerSpec(6, 8, normalizer="weight_norm"),
        tr.LayerSpec(8, 8, normalizer="weight_norm"),
        tr.LayerSpec(8, 3),
    ], seed=51)
    wn_targets = [(0, "W"), (0, "b"), (1, "W"), (1, "b"), (2, "W"), (2, "b")]
    worst_wn, n_wn = _fd_worst(wn_net, X, y, wn_targets, rng, samples=70)

    masked_zero = np.all(
        tr.backward_masked(bn_net, y, tr.forward(bn_net, X, "float", "train"))[0]["W"][mask == 0] == 0
    )
    elapsed = time.time() - started
    worst = max(worst_bn, worst_wn)
    ok = worst < 1e-4 and masked_zero and elapsed < 60.0
    _stamp("5 gradient-correctness", ok,
           f"{n_bn + n_wn} coordinates, worst rel err {worst:.2e}, "
           f"masked grads zero: {masked_zero}", started)


def _zero_layer(fmt, rows, cols, bias=None, normalizer=None):
    """All-zero-weights layer built straight from the payload size formula
    (an all-zero payload decodes to the all-zero matrix in every format)."""
    from sstc.store import EncodedLayer
    return EncodedLayer(fmt, rows, cols, 1.0, bytes((payload_bits(fmt, rows, cols) + 7) // 8),
                        bias=bias, normalizer=normalizer)


def _address_width_bits(layer):
    """The payload bits of ``layer`` as the paper counts them: each sst index
    at its address width I, each ternary weight at 2 bits."""
    if layer.format.kind == "sst":
        return layer.num_indices() * address_bits(layer.format.params)
    if layer.format.kind == "ternary2bit":
        return 2 * layer.weight_count
    return layer.payload_bit_length()


def _vgg9_model(fc_format):
    """The nine-layer configuration: six conv blocks (stored as parameter
    matrices), two hidden FC layers, and the small output layer.

    Conv layers stay ternary (2 bit); hidden FC layers use ``fc_format``;
    the output layer is quantized but never pruned, hence ternary.  Batch
    norm parameters ride on the conv and hidden FC layers.
    """
    shapes = {
        "conv1_1": (128, 27), "conv1_2": (128, 1152),
        "conv2_1": (256, 1152), "conv2_2": (256, 2304),
        "conv3_1": (512, 2304), "conv3_2": (512, 4608),
        "fc1": (1024, 8192), "fc2": (1024, 1024), "fc3": (10, 1024),
    }
    layers = []
    names = []
    for name, (rows, cols) in shapes.items():
        is_hidden_fc = name in ("fc1", "fc2")
        fmt = fc_format if is_hidden_fc else LayerFormat("ternary2bit")
        norm = None
        if name.startswith("conv") or is_hidden_fc:
            ones = np.ones(rows)
            norm = BatchNormParams(ones, np.zeros(rows), np.zeros(rows), ones)
        layers.append(_zero_layer(fmt, rows, cols, bias=np.zeros(rows), normalizer=norm))
        names.append(name)
    return ModelFile(layers=layers, metadata={"layer_names": names})


def test_criterion_6_storage_arithmetic():
    started = time.time()
    published = {
        "ternary": (LayerFormat("ternary2bit"), 15.87),
        "(8,1)": (LayerFormat("sst", CodeParams(8, 1)), 29.32),
        "(16,4)": (LayerFormat("sst", CodeParams(16, 4)), 22.52),
    }
    deviations = {}
    ok = True
    for label, (fmt, target) in published.items():
        model = _vgg9_model(fmt)
        report = storage_report(model)
        # the published ratios count the paper's address-width payloads;
        # the stored mixed-radix payloads take fewer bits
        paper_bits = report.compressed_bits + sum(
            _address_width_bits(layer) - layer.payload_bit_length() for layer in model.layers)
        ratio = report.float_bits / paper_bits
        deviations[label] = (ratio, 100 * (ratio / target - 1), report.ratio)
        ok &= abs(ratio / target - 1) <= 0.03 and report.ratio > ratio

    # FC-only models: each layer's payload is its full words of g indices
    # at bitlen(T^g - 1) bits, then its short word, below I/N per weight
    for n, k in ALL_CODES:
        params = CodeParams(n, k)
        t, g = count_entries(params), reference_group(params)
        shapes = [(1024, 8192), (1024, 1024)]
        fc = ModelFile(layers=[_zero_layer(LayerFormat("sst", params), *shape)
                               for shape in shapes])
        rep = storage_report(fc, include_tables=False, include_bias=False,
                             include_normalizers=False)
        counts = [rows * cols // n for rows, cols in shapes]
        weights = 1024 * 8192 + 1024 * 1024
        ok &= rep.compressed_bits == sum(count // g * (t ** g - 1).bit_length()
                                         + (t ** (count % g) - 1).bit_length()
                                         for count in counts)
        ok &= rep.compressed_bits * n < address_bits(params) * weights
    elapsed = time.time() - started
    detail = ", ".join(f"{k} x{v[0]:.2f} ({v[1]:+.2f}%), stored x{v[2]:.2f}"
                       for k, v in deviations.items())
    _stamp("6 storage-arithmetic", ok and elapsed < 1.0, detail, started)


# --- desk-scale digit task (criteria 7-9) ----------------------------------

DESK_PARAMS = CodeParams(16, 3)


def _desk_specs(params, orientation):
    hidden = LayerFormat("sst", params, orientation)
    return [
        tr.LayerSpec(784, 256, normalizer="batch_norm", format=hidden),
        tr.LayerSpec(256, 256, normalizer="batch_norm", format=hidden),
        tr.LayerSpec(256, 10, format=LayerFormat("ternary2bit")),
    ]


def _float_specs():
    return [
        tr.LayerSpec(784, 256, normalizer="batch_norm"),
        tr.LayerSpec(256, 256, normalizer="batch_norm"),
        tr.LayerSpec(256, 10),
    ]


def _warm_start(trained, specs, seed):
    """Fresh network with the given specs, weights copied from ``trained``."""
    net = tr.Network(specs, seed=seed)
    for dst, src in zip(net.layers, trained.layers):
        dst.W = src.W.copy()
        dst.b = src.b.copy()
        if dst.spec.normalizer == "batch_norm":
            dst.gamma = src.gamma.copy()
            dst.beta = src.beta.copy()
            dst.run_mean = src.run_mean.copy()
            dst.run_var = src.run_var.copy()
    return net


@pytest.fixture(scope="session")
def desk_data(mnist):
    X_train, y_train, X_test, y_test = mnist
    assert X_train.shape == (60_000, 784) and X_test.shape == (10_000, 784)
    return mnist


@pytest.fixture(scope="session")
def float_baselines(desk_data):
    """Per-seed float nets (10 epochs) shared by criteria 7-9."""
    started = time.time()
    X_train, y_train, X_test, y_test = desk_data
    out = {}
    for seed in SEEDS:
        data = tr.TrainData.from_arrays(X_train, y_train, val_fraction=1 / 12, seed=seed)
        net = tr.Network(_float_specs(), seed=seed)
        cfg = tr.TrainConfig(epochs=10, batch_size=128, seed=seed)
        tr.train_float(net, data, cfg)
        mcr = tr.evaluate(net, X_test, y_test, mode="float")
        out[seed] = (net, data, mcr)
    TIMINGS["float"] = time.time() - started
    return out


def _retrain(float_baselines, desk_data, schedule, orientation, stage_epochs):
    X_train, y_train, X_test, y_test = desk_data
    target = schedule.target if isinstance(schedule, SparsitySchedule) else schedule
    results = {}
    for seed in SEEDS:
        float_net, data, _ = float_baselines[seed]
        net = _warm_start(float_net, _desk_specs(target, orientation), seed)
        cfg = tr.TrainConfig(epochs=stage_epochs, batch_size=128, seed=seed)
        tr.train_structured(net, data, schedule, cfg)
        results[seed] = (net, tr.evaluate(net, X_test, y_test, mode="quantized"))
    return results


@pytest.fixture(scope="session")
def sst_column_nets(float_baselines, desk_data):
    started = time.time()
    nets = _retrain(float_baselines, desk_data, DESK_PARAMS, "column", 6)
    TIMINGS["column"] = time.time() - started
    return nets


def test_criterion_7_desk_scale_training(float_baselines, sst_column_nets, desk_data):
    started = time.time()
    float_mean = float(np.mean([m for _, _, m in float_baselines.values()]))
    col_mean = float(np.mean([m for _, m in sst_column_nets.values()]))
    row_results = _retrain(float_baselines, desk_data, DESK_PARAMS, "row", 6)
    row_mean = float(np.mean([m for _, m in row_results.values()]))
    invariants = all(
        tr.mask_violation(net) == 0.0 and tr.check_code_validity(net)
        for net, _ in list(sst_column_nets.values()) + list(row_results.values())
    )
    total = TIMINGS["float"] + TIMINGS["column"] + (time.time() - started)
    ok = (float_mean <= 2.5
          and col_mean <= float_mean + 1.5
          and col_mean <= row_mean + 0.3
          and invariants
          and total < 20 * 60)
    _stamp("7 desk-scale-training", ok,
           f"float {float_mean:.2f}%, col(16,3) {col_mean:.2f}%, row {row_mean:.2f}%, "
           f"invariants {invariants}, {len(SEEDS)} seeds, {total:.0f}s total", started)


def test_criterion_8_gradual_vs_direct(float_baselines, desk_data):
    started = time.time()
    target = CodeParams(8, 1)
    gradual_sched = SparsitySchedule.gradual(8, [4, 3, 2, 1])
    gradual = _retrain(float_baselines, desk_data, gradual_sched, "column", 4)
    direct = _retrain(float_baselines, desk_data, target, "column", 16)
    gradual_mean = float(np.mean([m for _, m in gradual.values()]))
    direct_mean = float(np.mean([m for _, m in direct.values()]))
    total = TIMINGS["float"] + (time.time() - started)
    ok = gradual_mean <= direct_mean + 0.5 and total < 60 * 60
    _stamp("8 gradual-vs-direct", ok,
           f"gradual {gradual_mean:.2f}% vs direct {direct_mean:.2f}% "
           f"({len(SEEDS)} seeds, {total:.0f}s total)", started)


def test_criterion_9_end_to_end_consistency(sst_column_nets, desk_data):
    started = time.time()
    X_train, y_train, X_test, y_test = desk_data
    net, in_memory_mcr = sst_column_nets[SEEDS[0]]
    model = deserialize_model(serialize_model(tr.network_to_model(net)))
    wrong = 0
    for lo in range(0, len(X_test), 2048):
        probs = compressed_forward(model, X_test[lo:lo + 2048])
        wrong += int((np.argmax(probs, axis=1) != y_test[lo:lo + 2048]).sum())
    file_mcr = 100.0 * wrong / len(X_test)
    ok = file_mcr == in_memory_mcr and time.time() - started < 60
    _stamp("9 end-to-end-consistency", ok,
           f"model-file MCR {file_mcr:.3f}% vs in-memory {in_memory_mcr:.3f}%", started)
