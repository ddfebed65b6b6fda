"""Quantizer: Q function and step-size optimization."""

import numpy as np
import pytest

from sstc import quantize
from sstc.errors import ValidationError
from sstc.quantize import (find_step_size, quantize_layer,
                           quantize_to_levels, quantize_weight)

from conftest import grid_search_step_size, quantization_error


def test_quantize_weight_examples():
    assert quantize_weight(0.7, 0.5, 3) == 0.5
    assert quantize_weight(0.2, 0.5, 3) == 0.0
    assert quantize_weight(-3.0, 0.5, 3) == -0.5
    assert quantize_weight(0.74, 0.5, 7) == 0.5


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
    lev = quantize_to_levels([0.9, -0.4, 0.1, 2.0], 0.4, 7)
    assert lev.tolist() == [2, -1, 0, 3]


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
    for levels in (3, 7):
        for _ in range(10):
            w = rng.normal(size=int(rng.integers(20, 200)))
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
    base_levels = quantize_to_levels(w, base)
    for c in (0.25, 0.5, 2.0, 8.0):  # powers of two scale exactly
        scaled = find_step_size(c * w)
        assert scaled == c * base
        assert np.array_equal(quantize_to_levels(c * w, scaled), base_levels)
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


def test_quantize_layer():
    W = np.array([[1.0, -1.0]])
    M = np.array([[1.0, 0.0]])
    W_q, delta = quantize_layer(W, M)
    assert delta == 1.0
    assert W_q.tolist() == [[1.0, 0.0]]


def test_quantize_layer_masked_positions_zero():
    rng = np.random.default_rng(7)
    W = rng.normal(size=(16, 16))
    M = (rng.random((16, 16)) < 0.5).astype(float)
    if not M.any():
        M[0, 0] = 1.0
    W_q, delta = quantize_layer(W, M)
    assert np.all(W_q[M == 0] == 0)
    assert np.float32(delta) == delta  # stored precision


def test_quantize_layer_matches_oracle_on_random_matrix():
    rng = np.random.default_rng(8)
    W = rng.normal(size=(64, 64))
    M = np.ones_like(W)
    _, delta = quantize_layer(W, M)
    _, oracle_err = grid_search_step_size(W)
    assert quantization_error(W, delta, 3) <= oracle_err + 1e-9


def test_quantize_layer_all_masked_is_error():
    with pytest.raises(ValidationError):
        quantize_layer(np.ones((2, 2)), np.zeros((2, 2)))


def test_quantize_layer_shape_mismatch():
    with pytest.raises(ValidationError):
        quantize_layer(np.ones((2, 2)), np.ones((2, 3)))
