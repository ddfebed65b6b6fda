"""Quantizer: Q function and step-size optimization."""

import tracemalloc
import warnings

import numpy as np
import pytest

from sstc import quantize
from sstc.errors import ValidationError
from sstc.quantize import find_step_size, quantize_weight

from conftest import argsort_sweep, grid_search_step_size, quantization_error


def test_quantize_weight_examples():
    assert quantize_weight(0.7, 0.5, 3) == 0.5
    assert quantize_weight(0.2, 0.5, 3) == 0.0
    assert quantize_weight(-3.0, 0.5, 3) == -0.5
    assert quantize_weight(0.74, 0.5, 7) == 0.5
    # a pruned weight stays exactly zero
    assert quantize_weight(np.zeros((2, 2)), 0.5, 3).tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_quantize_weight_tie_rounds_up():
    # |w|/delta + 0.5 exactly integral takes the floor of that integer
    assert quantize_weight(0.25, 0.5, 3) == 0.5
    assert quantize_weight(-0.25, 0.5, 3) == -0.5


def test_quantize_weight_rejects_bad_step():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="step size must be positive and finite"):
                quantize_weight(np.array([1.0, -0.5]), delta, 3)


def test_quantize_weight_is_odd():
    rng = np.random.default_rng(0)
    w = rng.normal(size=500)
    for levels in (3, 7, 255):
        q = quantize_weight(w, 0.3, levels)
        assert np.array_equal(quantize_weight(-w, 0.3, levels), -q)


def test_quantize_weight_idempotent():
    rng = np.random.default_rng(1)
    w = rng.normal(size=500)
    for levels in (3, 5):
        q = quantize_weight(w, 0.37, levels)
        assert np.array_equal(quantize_weight(q, 0.37, levels), q)


def test_quantize_weight_monotone():
    w = np.sort(np.random.default_rng(2).normal(size=400))
    for levels in (3, 9):
        q = quantize_weight(w, 0.21, levels)
        assert np.all(np.diff(q) >= 0)


def test_ternary_outputs_three_valued():
    rng = np.random.default_rng(3)
    q = quantize_weight(rng.normal(size=1000), 0.4, 3)
    assert set(np.unique(q)) <= {-0.4, 0.0, 0.4}


def test_level_assignment():
    q = quantize_weight(np.array([0.9, -0.4, 0.1, 2.0]), 0.4, 7)
    assert np.array_equal(q, 0.4 * np.array([2, -1, 0, 3]))


def test_find_step_size_examples():
    assert find_step_size([1.0, -1.0, 1.0, -1.0]) == pytest.approx(1.0)
    assert find_step_size([0.8, -0.8, 0.1, -0.1]) == pytest.approx(0.8)
    assert find_step_size([0.3, 0.3, 0.3, 0.3]) == pytest.approx(0.3)


def test_find_step_size_rejects_degenerate_input():
    with pytest.raises(ValidationError):
        find_step_size([])
    with pytest.raises(ValidationError):
        find_step_size([0.0, 0.0])


def test_find_step_size_matches_dense_grid_oracle():
    rng = np.random.default_rng(4)
    matrix = np.random.default_rng(8).normal(size=(64, 64))
    for levels in (3, 7):
        inputs = [rng.normal(size=int(rng.integers(20, 200))) for _ in range(10)]
        for w in inputs + [matrix]:
            delta = find_step_size(w, levels)
            oracle_delta, oracle_err = grid_search_step_size(w, levels)
            assert quantization_error(w, delta, levels) <= oracle_err * (1 + 1e-9)
            assert delta == pytest.approx(oracle_delta, rel=5e-3)


def test_find_step_size_is_locally_optimal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.normal(size=200)
        delta = find_step_size(w)
        err = quantization_error(w, delta, 3)
        assert quantization_error(w, delta * 1.001, 3) >= err - 1e-12
        assert quantization_error(w, delta * 0.999, 3) >= err - 1e-12


def test_find_step_size_scaling_invariance():
    rng = np.random.default_rng(6)
    w = rng.normal(size=300)
    base = find_step_size(w)
    base_levels = quantize_weight(w, base) / base
    for c in (0.25, 0.5, 2.0, 8.0):  # powers of two scale exactly
        scaled = find_step_size(c * w)
        assert scaled == c * base
        assert np.array_equal(quantize_weight(c * w, scaled) / scaled, base_levels)
    for c in (0.7, 3.3):
        assert find_step_size(c * w) == pytest.approx(c * base, rel=1e-9)


def test_find_step_size_ignores_masked_zeros():
    w = np.array([0.8, -0.8, 0.1, -0.1])
    padded = np.concatenate([w, np.zeros(50)])
    assert find_step_size(padded) == find_step_size(w)


def test_find_step_size_and_quantize_weight_reject_bad_levels():
    for levels in (4, 1, 2, 256):
        with pytest.raises(ValidationError, match=f"odd and >= 3, got {levels}"):
            find_step_size([0.5, -1.0], levels)
        with pytest.raises(ValidationError, match=f"odd and >= 3, got {levels}"):
            quantize_weight(np.array([0.5, -1.0]), 0.5, levels)


def test_ternary_sweep_matches_the_argsort_sweep():
    rng = np.random.default_rng(11)
    inputs = [np.array([0.3]), np.array([0.5, 0.5, 0.5]), np.array([1.0, 0.1, 1.0, 0.1])]
    for _ in range(30):
        size = int(rng.integers(1, 3000))
        inputs.append(np.abs(rng.normal(size=size)) * rng.random(size) ** 2)
        # tie-heavy: multiples of 0.25
        inputs.append(rng.integers(1, 9, size=size) * 0.25)
    for mags in inputs:
        want = argsort_sweep(mags, 1)
        assert want is not None
        assert find_step_size(mags) == want
        assert find_step_size(rng.permutation(mags)) == want
        assert find_step_size(-mags, 3) == want
    for levels in (5, 255):  # more levels merge the levels' runs
        # multiples of 0.01 tie across levels with sums that round
        for mags in (np.abs(rng.normal(size=500)), rng.integers(1, 9, size=500) * 0.25,
                     rng.integers(1, 128, size=3000) * 0.01):
            want = argsort_sweep(mags, (levels - 1) // 2)
            assert find_step_size(mags, levels) == want
            assert find_step_size(-rng.permutation(mags), levels) == want


@pytest.mark.parametrize("levels", [3, 255])
@pytest.mark.parametrize("extra", [-1, 0, 1, None])
def test_chunked_sweep_matches_the_argsort_sweep_at_chunk_edges(extra, levels, monkeypatch):
    if levels > 3:
        # a smaller block keeps the 255-level reference small; the non-zeros
        # still fall on both sides of _BLOCK, in thousands of windows
        monkeypatch.setattr(quantize, "_BLOCK", 1 << 12)
    c = quantize._BLOCK
    size = 3 * c + 5 if extra is None else c + extra
    rng = np.random.default_rng(size)
    w = rng.normal(size=size)
    w[rng.random(size) < 0.2] = 0.0
    w[rng.random(size) < 0.1] = -0.0
    w[: size // 3] = np.round(w[: size // 3], 1)  # many duplicates
    half_levels = (levels - 1) // 2
    want = argsort_sweep(np.abs(w[w != 0]), half_levels)
    assert want is not None
    assert find_step_size(w, levels) == want
    assert find_step_size(w.astype(np.float32), levels) == argsort_sweep(
        np.abs(w[w != 0].astype(np.float32).astype(np.float64)), half_levels)


@pytest.mark.parametrize("seed", range(6))
def test_fixed8_sweep_matches_the_argsort_sweep_past_the_old_sweep_limit(seed):
    # 40,000 non-zeros at 127 positive levels: 5,080,000 breakpoints, merged
    # in thousands of windows
    w = np.random.default_rng(seed).normal(size=40_000)
    assert find_step_size(w, 255) == argsort_sweep(np.abs(w), 127)


def test_fixed8_fit_peak_memory_stays_below_twice_the_weights():
    w = np.random.default_rng(17).normal(size=60_000)
    tracemalloc.start()
    try:
        find_step_size(w, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * w.nbytes


def test_float32_fit_peak_memory_stays_below_twice_its_float64_widening():
    # float32 magnitudes are sorted inside the float64 copy's own bytes
    w = np.random.default_rng(17).normal(size=60_000).astype(np.float32)
    tracemalloc.start()
    try:
        find_step_size(w, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * w.astype(np.float64).nbytes


def _float32_fit_inputs(rng, size):
    """Normal, all-equal, tied, subnormal-holding and signed-zero-holding float32 weights."""
    yield rng.normal(size=size).astype(np.float32)
    yield np.full(size, -0.375, dtype=np.float32)
    yield (rng.integers(-3, 4, size=size) * 0.125).astype(np.float32)
    tiny = np.finfo(np.float32).smallest_subnormal
    mixed = rng.normal(size=size).astype(np.float32)
    mixed[::3] = rng.integers(-50, 51, size=mixed[::3].size) * tiny
    yield mixed
    yield rng.integers(-50, 51, size=size).astype(np.float32) * tiny  # all subnormal
    zeros = rng.normal(size=size).astype(np.float32)
    zeros[rng.random(size) < 0.3] = -0.0
    zeros[rng.random(size) < 0.3] = 0.0
    yield zeros


@pytest.mark.parametrize("levels", [3, 255])
@pytest.mark.parametrize("above", [False, True])
def test_float32_fit_equals_the_fit_of_its_float64_widening(levels, above, monkeypatch):
    # sorting at float32 width then widening is exact and keeps the order
    if levels > 3:
        monkeypatch.setattr(quantize, "_BLOCK", 1 << 8)  # keeps the 255-level fits small
    size = 3 * quantize._BLOCK + 5 if above else quantize._BLOCK - 3
    rng = np.random.default_rng(size + levels)
    for w32 in _float32_fit_inputs(rng, size):
        assert w32.dtype == np.float32
        assert find_step_size(w32, levels) == find_step_size(w32.astype(np.float64), levels)


@pytest.mark.parametrize("levels", [3, 255])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_find_step_size_rejects_non_finite_weights(value, levels):
    with pytest.raises(ValidationError,
                       match=f"non-finite weight {value} at position 1 of the flattened"):
        find_step_size([1.0, value, 2.0, value], levels)
    W = np.ones((3, 4))
    W[2, 1] = value
    with pytest.raises(ValidationError, match="at position 9 of the flattened"):
        find_step_size(W, levels)
    # float32 weights, which sort at their own width, and a transposed view
    W32 = W.astype(np.float32)
    with pytest.raises(ValidationError, match=f"weight {value} at position 9 of the flattened"):
        find_step_size(W32, levels)
    with pytest.raises(ValidationError, match=f"weight {value} at position 5 of the flattened"):
        find_step_size(W32.T, levels)  # W32[2, 1] is W32.T[1, 2]


@pytest.mark.parametrize("levels", [3, 255])
def test_find_step_size_fits_finite_weights_of_any_scale(levels):
    w = np.random.default_rng(6).normal(size=300)
    base = find_step_size(w, levels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # powers of two scale the fit exactly, up to weights near 1e157
        for scale in (2.0 ** 520, 2.0 ** -520, 2.0 ** 1020):
            assert find_step_size(scale * w, levels) == scale * base
        for top in (8e307, np.finfo(np.float64).max):
            delta = find_step_size([top, top, -top, 1.0], levels)
            assert 0 < delta <= top
