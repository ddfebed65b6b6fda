"""Quantizer: Q function and step-size optimization."""

import numpy as np
import pytest

from sstc import quantize
from sstc.errors import ValidationError
from sstc.quantize import find_step_size, quantize_weight

from conftest import grid_search_step_size, quantization_error


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
    with pytest.raises(ValidationError):
        quantize_weight(1.0, 0.0, 3)
    with pytest.raises(ValidationError):
        quantize_weight(1.0, -1.0, 3)


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


def test_multi_start_fallback_matches_exact_sweep(monkeypatch):
    fits = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=int(rng.integers(10, 2000)))
        fits.append((w, find_step_size(w)))
    monkeypatch.setattr(quantize, "_SWEEP_LIMIT", 0)  # every input takes the fallback
    for w, exact in fits:
        best = quantization_error(w, exact, 3)
        fallback = quantization_error(w, find_step_size(w), 3)
        assert best * (1 - 1e-12) <= fallback <= best * (1 + 1e-5)


def test_find_step_size_rejects_bad_levels():
    for levels in (4, 1, 256):
        with pytest.raises(ValidationError, match="odd and >= 3"):
            find_step_size([0.5, -1.0], levels)
