"""Shared test helpers: brute-force oracles, reference pipelines and dataset discovery."""

import itertools
import os

import numpy as np
import pytest

from sstc import bitpack
from sstc.codes import CodeParams, from_subvectors, unrank_subvectors
from sstc.store import BatchNormParams, LayerFormat, WeightNormTag, layer_indices

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
