"""Shared test helpers: brute-force oracles, reference pipelines and dataset discovery."""

import itertools
import os

import numpy as np
import pytest

from sstc import bitpack, kernel, prune, quantize
from sstc.codes import (CodeParams, address_bits, from_subvectors, grouped_view, rank_subvectors,
                        subvectors, unrank_subvectors)
from sstc.store import (BatchNormParams, EncodedLayer, LayerFormat, WeightNormTag, layer_indices,
                        ternary_trits)

# digit precedence of the canonical order: 0 < +1 < -1
_DIGIT_KEY = {0: 0, 1: 1, -1: 2}


def enumerate_by_brute_force(n, k):
    """Independent oracle: all ternary vectors with <= k non-zeros, sorted
    lexicographically under the canonical digit order."""
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=n)
               if sum(1 for t in v if t) <= k]
    vectors.sort(key=lambda v: tuple(_DIGIT_KEY[t] for t in v))
    return np.array(vectors, dtype=np.int8)


def _grid_errors(mags, deltas, half_levels):
    errs = np.empty(deltas.size)
    for start in range(0, deltas.size, 1024):
        chunk = deltas[start:start + 1024, np.newaxis]
        lev = mags[np.newaxis, :] / chunk
        lev += 0.5
        np.floor(lev, out=lev)
        np.minimum(lev, half_levels, out=lev)
        lev *= chunk
        lev -= mags[np.newaxis, :]
        np.square(lev, out=lev)
        errs[start:start + 1024] = lev.sum(axis=1)
    return errs


def grid_search_step_size(weights, levels=3, grid_points=100_000, coarse_stride=8):
    """Independent step-size oracle: 1-D grid scan over (0, 2*max|w|].

    The error of every candidate delta is evaluated by direct brute force.
    To keep large inputs affordable the uniform grid is scanned at a coarse
    stride first and the eight best coarse basins are then evaluated at
    full resolution, so the answer matches the exhaustive grid unless the
    global basin is narrower than the stride window.
    Returns (delta, squared_error) at the best grid point.
    """
    mags = np.abs(np.asarray(weights, dtype=np.float64).ravel())
    mags = mags[mags > 0]
    half_levels = (levels - 1) // 2
    wmax = mags.max()
    fine = np.linspace(2 * wmax / grid_points, 2 * wmax, grid_points)
    coarse_idx = np.arange(0, grid_points, coarse_stride)
    coarse_errs = _grid_errors(mags, fine[coarse_idx], half_levels)
    keep = np.zeros(grid_points, dtype=bool)
    for t in np.argsort(coarse_errs)[:8]:
        center = coarse_idx[t]
        keep[max(center - coarse_stride, 0):center + coarse_stride + 1] = True
    cand_idx = np.flatnonzero(keep)
    cand_errs = _grid_errors(mags, fine[cand_idx], half_levels)
    best = int(np.argmin(cand_errs))
    return float(fine[cand_idx[best]]), float(cand_errs[best])


def quantization_error(weights, delta, levels=3):
    mags = np.abs(np.asarray(weights, dtype=np.float64).ravel())
    half_levels = (levels - 1) // 2
    lev = np.minimum(np.floor(mags / delta + 0.5), half_levels)
    return float(((lev * delta - mags) ** 2).sum())


def argsort_sweep(mags, half_levels):
    """Reference: the breakpoint sweep of any level count over positive
    magnitudes, done in one piece.  One stable argsort orders the
    breakpoints 2a / (2l + 1), laid out level by level over the magnitudes
    sorted descending: ties cross level by level, whatever the order of
    ``mags``."""
    mags = np.sort(mags)[::-1]
    odd = 2 * np.arange(half_levels, dtype=np.float64) + 1
    breakpoints = (2 * mags / odd[:, np.newaxis]).ravel()
    order = np.argsort(-breakpoints, kind="stable")
    upper = breakpoints[order]
    num = np.cumsum(np.tile(mags, half_levels)[order])
    den = np.cumsum(np.repeat(odd, mags.size)[order])
    lower = np.concatenate((upper[1:], [0.0]))
    vertex = num / den
    inside = (vertex > lower) & (vertex <= upper)
    if not np.any(inside):
        return None
    return float(vertex[int(np.argmin(np.where(inside, -num * num / den, np.inf)))])


def put_along_axis_prune(W, params, orientation):
    """Reference: the whole-matrix prune kernel, marking picked positions with
    `np.put_along_axis`.  Returns ``(kept, mask)``: the (k, B, C) positions
    along W's grouped view, round r the r-th largest magnitude's, and the
    uint8 mask of W's shape."""
    W = np.asarray(W)
    view = grouped_view(W, params, orientation)
    mags = np.abs(view, dtype=np.result_type(view.dtype, np.float32))
    groups, n, cols = mags.shape
    kept = np.empty((params.k, groups, cols), dtype=np.intp)
    first = np.arange(n, 0, -1, dtype=np.uint8)[:, np.newaxis]
    for at in kept:
        top = mags.max(axis=1, keepdims=True)
        np.subtract(n, ((mags == top) * first).max(axis=1), out=at)
        np.put_along_axis(mags, at[:, np.newaxis], -1.0, axis=1)
    mask = np.zeros(W.shape, dtype=np.uint8)
    np.put_along_axis(grouped_view(mask, params, orientation), kept.transpose(1, 0, 2), 1,
                      axis=1)
    return kept, mask


def block_shapes(n, orientation):
    """Matrix shapes whose grouped view is one prune block, exactly two
    blocks and two blocks plus one group, then (column orientation only)
    three groups each larger than a block."""
    if orientation == "column":
        cols = 64
        per_block = quantize._BLOCK // (n * cols)
        shapes = [(g * n, cols) for g in (per_block, 2 * per_block, 2 * per_block + 1)]
        return shapes + [(3 * n, quantize._BLOCK // n + 1)]
    per_block = quantize._BLOCK // n  # a row group is one sub-vector
    return [(g, n) for g in (per_block, 2 * per_block, 2 * per_block + 1)]


def tie_heavy_weights(rng, shape, dtype):
    """Seeded random, all-equal, mostly-zero and +-x-pair matrices in ``dtype``."""
    yield rng.normal(size=shape).astype(dtype)
    yield np.full(shape, -0.5, dtype=dtype)
    yield (rng.integers(-2, 3, size=shape) * 0.25 * (rng.random(shape) < 0.3)).astype(dtype)
    # magnitudes of equal size but both signs
    yield (np.where(rng.random(shape) < 0.5, -0.75, 0.75)
           * rng.integers(1, 3, size=shape)).astype(dtype)


# The "small" cases shrink the block that the sweep, the prune and the
# decompress writer walk in, so a few hundred weights cross many chunks,
# merge windows and blocks.
@pytest.fixture(params=["default", "small"])
def block(request, monkeypatch):
    if request.param == "small":
        for module in (quantize, prune):
            monkeypatch.setattr(module, "_BLOCK", 5)
    return request.param


@pytest.fixture
def decoded_layers(monkeypatch):
    """The list of layers the kernel decodes to operands, call by call."""
    decoded = []
    decode = kernel._decoded_operand
    monkeypatch.setattr(kernel, "_decoded_operand",
                        lambda layer: decoded.append(layer) or decode(layer))
    return decoded


def random_sst_trits(rng, rows, cols, params, orientation="column"):
    """Random ternary matrix obeying the (n, k) sub-vector budget."""
    trits = np.zeros((rows, cols), dtype=np.int8)
    n, k = params.n, params.k
    if orientation == "column":
        for g in range(rows // n):
            for j in range(cols):
                nnz = rng.integers(0, k + 1)
                pos = rng.choice(n, size=nnz, replace=False)
                trits[g * n + pos, j] = rng.choice([-1, 1], size=nnz)
    else:
        for i in range(rows):
            for g in range(cols // n):
                nnz = rng.integers(0, k + 1)
                pos = rng.choice(n, size=nnz, replace=False)
                trits[i, g * n + pos] = rng.choice([-1, 1], size=nnz)
    return trits


def random_layer(rng):
    """(W, delta, fmt, bias, normalizer) of a random layer of any format, for `encode_layer`."""
    kind = rng.choice(["float32", "fixed8", "ternary2bit", "sst"])
    if kind == "sst":
        n = int(rng.choice([2, 4, 8]))
        k = int(rng.integers(1, n + 1))
        params = CodeParams(n, k)
        orientation = str(rng.choice(["column", "row"]))
        if orientation == "column":
            rows, cols = n * int(rng.integers(1, 4)), int(rng.integers(1, 9))
        else:
            rows, cols = int(rng.integers(1, 9)), n * int(rng.integers(1, 4))
        delta = float(np.float32(rng.uniform(0.1, 2.0)))
        W = random_sst_trits(rng, rows, cols, params, orientation) * delta
        fmt = LayerFormat("sst", params, orientation)
    else:
        rows, cols = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        if kind == "float32":
            W = rng.normal(size=(rows, cols)).astype(np.float32).astype(np.float64)
            delta = None
        elif kind == "fixed8":
            delta = float(np.float32(rng.uniform(0.01, 0.5)))
            W = rng.integers(-127, 128, size=(rows, cols)) * delta
        else:
            delta = float(np.float32(rng.uniform(0.1, 2.0)))
            W = rng.integers(-1, 2, size=(rows, cols)) * delta
        fmt = LayerFormat(kind)
    bias = rng.normal(size=rows).astype(np.float32) if rng.random() < 0.8 else None
    norm = None
    roll = rng.random()
    if roll < 0.4:
        norm = BatchNormParams(rng.normal(size=rows), rng.normal(size=rows),
                               rng.normal(size=rows), rng.random(size=rows) + 0.1)
    elif roll < 0.6:
        norm = WeightNormTag()
    return W, delta, fmt, bias, norm


def chained(layers):
    """``layers`` with a zero float32 layer put between any two whose widths
    do not fit, so that they make a model file that loads: a file's layers
    must chain, each taking the outputs of the one before."""
    out = []
    for layer in layers:
        if out and layer.cols != out[-1].rows:
            rows, cols = layer.cols, out[-1].rows
            out.append(EncodedLayer(LayerFormat("float32"), rows, cols, 0.0, bytes(4 * rows * cols)))
        out.append(layer)
    return out


def reference_encode(W_q, delta, fmt, bias=None, normalizer=None):
    """`store.encode_layer` of an sst layer as a payload-order pipeline, kept as its reference.

    `ternary_trits` recovers the trit matrix, `subvectors` cuts it into its
    (count, n) groups in payload order, `rank_subvectors` ranks each group
    and `bitpack.pack_indices` packs the ranks at the code's address width.
    """
    params = fmt.params
    trits = ternary_trits(W_q, delta)
    indices = rank_subvectors(subvectors(trits, params, fmt.orientation), params)
    payload = bitpack.pack_indices(indices, address_bits(params))
    return EncodedLayer(fmt, *trits.shape, delta, payload, bias, normalizer)


def reference_pack(indices, bits_per_index):
    """`bitpack.pack_indices` as a bit-matrix packer, kept as its reference.

    Each index is cast to the smallest big-endian unsigned width that holds
    a field, unpacked to bits, cut to its low ``bits_per_index`` bits, and
    the rows of bits packed in turn.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0 or bits_per_index == 0:
        return b""
    width = next(w for w in (8, 16, 32, 64) if w >= bits_per_index)
    wide = idx.astype(f">u{width // 8}").view(np.uint8)
    bits = np.unpackbits(wide).reshape(idx.size, width)[:, width - bits_per_index:]
    return np.packbits(bits).tobytes()


def reference_decode(layer):
    """`store.decode_layer` as a payload-order pipeline, kept as its reference.

    sst indices are unranked to (count, n) trits in payload order, laid out
    by `from_subvectors`, widened and scaled; the other formats widen their
    levels to float64 and scale them by the float64 delta.
    """
    kind, shape = layer.format.kind, (layer.rows, layer.cols)
    if kind == "float32":
        return np.frombuffer(layer.payload, dtype="<f4").astype(np.float64).reshape(shape)
    if kind == "fixed8":
        levels = np.frombuffer(layer.payload, dtype="<i1").astype(np.float64)
        return levels.reshape(shape) * np.float64(layer.delta)
    if kind == "ternary2bit":
        codes = bitpack.unpack_indices(layer.payload, 2, layer.weight_count)
        trits = np.where(codes == 2, -1, codes).astype(np.float64).reshape(shape)
        return trits * np.float64(layer.delta)
    params = layer.format.params
    groups = unrank_subvectors(layer_indices(layer), params)
    trits = from_subvectors(groups, *shape, params, layer.format.orientation)
    return trits.astype(np.float64) * np.float64(layer.delta)


def mnist_directory():
    candidates = [os.environ.get("SSTC_MNIST_DIR", "")]
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates += [os.path.join(here, "data", "mnist"), os.path.join("data", "mnist")]
    for cand in candidates:
        if cand and os.path.isdir(cand):
            try:
                from sstc.datasets import _find_idx
                _find_idx(cand, "train-images-idx3-ubyte")
                return cand
            except FileNotFoundError:
                continue
    return None


@pytest.fixture(scope="session")
def mnist():
    """The standard 28x28 digit dataset, or a skip when not present.

    The build environment has no network route to any dataset host, so the
    IDX files must be supplied out of band (SSTC_MNIST_DIR or data/mnist).
    """
    directory = mnist_directory()
    if directory is None:
        pytest.skip(
            "digit dataset not found: place the four IDX files under data/mnist "
            "or set SSTC_MNIST_DIR (this sandbox has no network access to fetch them)"
        )
    from sstc.datasets import load_digit_dataset
    return load_digit_dataset(directory)
