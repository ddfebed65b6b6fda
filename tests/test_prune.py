"""Structured magnitude pruning and sparsity schedules."""

import numpy as np
import pytest

from sstc.codes import CodeParams
from sstc.errors import ValidationError
from sstc.prune import SparsitySchedule, structured_prune

ALL_CODES = [(16, 4), (16, 3), (16, 2), (8, 2), (8, 1), (4, 1)]


def argsort_prune(W, params, orientation):
    """Reference: a stable argsort of each sub-vector's negated magnitudes,
    with the layout written out separately for each orientation."""
    W = np.asarray(W, dtype=np.float64)
    rows, cols = W.shape
    n, k = params.n, params.k
    if orientation == "column":
        mags = np.abs(W).reshape(rows // n, n, cols).transpose(0, 2, 1)
    else:
        mags = np.abs(W).reshape(rows, cols // n, n)
    order = np.argsort(-mags, axis=-1, kind="stable")
    keep = np.zeros_like(mags, dtype=np.uint8)
    np.put_along_axis(keep, order[..., :k], 1, axis=-1)
    if orientation == "column":
        return keep.transpose(0, 2, 1).reshape(rows, cols)
    return keep.reshape(rows, cols)


def test_prune_magnitude_order():
    col = np.array([[0.1], [-0.9], [0.5], [0.05]])
    mask = structured_prune(col, CodeParams(4, 2))
    assert mask.ravel().tolist() == [0, 1, 1, 0]


def test_prune_tie_breaks_to_lowest_index():
    col = np.array([[0.5], [-0.5], [0.5], [0.5]])
    mask = structured_prune(col, CodeParams(4, 2))
    assert mask.ravel().tolist() == [1, 1, 0, 0]


def test_prune_full_budget_keeps_everything():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(8, 5))
    assert structured_prune(W, CodeParams(8, 8)).all()
    assert structured_prune(W, CodeParams(4, 4)).all()


def test_prune_counts_and_threshold_property():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, n + 1))
        groups = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 12))
        W = rng.normal(size=(groups * n, cols))
        mask = structured_prune(W, CodeParams(n, k))
        blocks = mask.reshape(groups, n, cols)
        wblocks = np.abs(W).reshape(groups, n, cols)
        for g in range(groups):
            for j in range(cols):
                kept = wblocks[g, :, j][blocks[g, :, j] == 1]
                dropped = wblocks[g, :, j][blocks[g, :, j] == 0]
                assert blocks[g, :, j].sum() == k
                if kept.size and dropped.size:
                    assert kept.min() >= dropped.max()


def test_prune_orientation_transpose_symmetry():
    rng = np.random.default_rng(2)
    W = rng.normal(size=(12, 8))
    params = CodeParams(4, 2)
    col_mask = structured_prune(W, params, "column")
    row_mask = structured_prune(W.T, params, "row")
    assert np.array_equal(col_mask, row_mask.T)


def test_prune_scale_invariance():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(8, 6))
    params = CodeParams(8, 3)
    base = structured_prune(W, params)
    for c in (0.1, 7.0, 1e6):
        assert np.array_equal(structured_prune(c * W, params), base)


def test_prune_divisibility_error():
    with pytest.raises(ValidationError, match="divisible"):
        structured_prune(np.ones((6, 2)), CodeParams(4, 1))
    with pytest.raises(ValidationError, match="divisible"):
        structured_prune(np.ones((4, 6)), CodeParams(4, 1), "row")


def test_schedule_validation():
    with pytest.raises(ValidationError):
        SparsitySchedule(stages=(CodeParams(8, 2), CodeParams(8, 2)), epochs_per_stage=(1, 1))
    with pytest.raises(ValidationError):
        SparsitySchedule(stages=(CodeParams(8, 2), CodeParams(4, 1)), epochs_per_stage=(1, 1))
    with pytest.raises(ValidationError):
        SparsitySchedule(stages=(CodeParams(8, 2),), epochs_per_stage=(1, 2))
    sched = SparsitySchedule.gradual(8, [4, 3, 2, 1], 2)
    assert sched.target == CodeParams(8, 1)
    assert sched.epochs_per_stage == (2, 2, 2, 2)



@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("n,k", ALL_CODES + [(8, 0), (16, 16)])
def test_prune_matches_argsort_reference(n, k, orientation):
    rng = np.random.default_rng(100 * n + k)
    params = CodeParams(n, k)
    for trial in range(20):
        groups, other = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        shape = (groups * n, other) if orientation == "column" else (other, groups * n)
        if trial % 2:
            # many ties: few distinct magnitudes, both signs, zeros
            W = rng.integers(-2, 3, size=shape) * 0.5
        else:
            W = rng.normal(size=shape)
        mask = structured_prune(W, params, orientation)
        expected = argsort_prune(W, params, orientation)
        assert mask.dtype == expected.dtype == np.uint8
        assert mask.shape == expected.shape and mask.flags.c_contiguous
        assert np.array_equal(mask, expected)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("orientation", ["column", "row"])
def test_prune_rejects_non_finite_weights(value, orientation):
    W = np.ones((8, 8))
    W[5, 2] = value
    with pytest.raises(ValidationError, match="non-finite weight .* at row 5, column 2"):
        structured_prune(W, CodeParams(4, 1), orientation)


def test_prune_rejects_unknown_orientation():
    with pytest.raises(ValidationError, match="orientation must be one of"):
        structured_prune(np.ones((4, 4)), CodeParams(4, 1), "diagonal")
