"""Structured magnitude pruning to the (N, K) sub-vector sparsity pattern.

Each length-n sub-vector of the weight matrix keeps its k largest-magnitude
positions (ties break to the lowest position) and the rest are masked to
zero.  The sub-vectors are those of `sstc.codes.subvectors`, whose
docstring describes both orientations.
"""

from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, grouped_view
from .errors import ValidationError
from .quantize import _BLOCK


def structured_prune(W, params: CodeParams, orientation: str = "column") -> np.ndarray:
    """Mask keeping the k largest magnitudes of every sub-vector.

    Returns a C-contiguous uint8 matrix of W's shape with exactly k ones per
    sub-vector.  Raises on a non-finite weight, an unknown orientation or a
    grouped dimension not divisible by n.
    """
    W = np.asarray(W)
    mask = np.zeros(W.shape, dtype=np.uint8)
    # the grouped view of a C-order matrix is a view, so the ones land in place
    _largest_per_subvector(W, params, orientation, grouped_view(mask, params, orientation))
    return mask


def _largest_per_subvector(W, params: CodeParams, orientation: str, mask=None):
    """Positions and values of the k largest magnitudes along axis 1 of W's grouped view.

    Returns ``(kept, values)``, two (k, B, C) arrays on the (B, C) grid of
    `codes.grouped_view` of W: round r holds each sub-vector's r-th largest
    magnitude's position along it, and W's value there.  Ties keep the
    lowest position.  When given, ``mask`` is the grouped view of a uint8
    matrix of W's shape, and gets a one at every kept position.  Raises on a
    non-finite weight, naming the first.

    W is read once, in blocks of whole groups of about `quantize._BLOCK`
    weights, each into one reused magnitude buffer; no payload-order copy is
    made.  Magnitudes are compared in W's own precision when that is float32
    (widening is exact and keeps their order) and in float64 otherwise.
    """
    view = grouped_view(W, params, orientation)
    groups, n, cols = view.shape
    step = _groups_per_block(n, cols)
    kept = np.empty((params.k, groups, cols), dtype=np.intp)
    values = np.empty(kept.shape, dtype=view.dtype)
    buffer = np.empty((min(step, groups), n, cols), dtype=np.result_type(view.dtype, np.float32))
    marks = np.empty(buffer.shape, dtype=np.uint8)
    top = np.empty((buffer.shape[0], 1, cols), dtype=buffer.dtype)
    # flat offset of each sub-vector's position 0 within a block
    origin = np.arange(buffer.shape[0])[:, np.newaxis] * (n * cols) + np.arange(cols)
    offsets = np.empty(origin.shape, dtype=np.intp)
    # weight n - p at position p, so the largest weight holding the maximum
    # marks its first position: ties keep the lowest position
    first = np.arange(n, 0, -1, dtype=np.uint8)[:, np.newaxis]
    for start in range(0, groups, step):
        span = slice(start, start + step)
        block = view[span]
        size = len(block)
        mags = np.abs(block, out=buffer[:size])
        if not np.isfinite(mags.max(initial=0.0)):
            row, col = np.argwhere(~np.isfinite(W))[0]
            raise ValidationError(f"cannot prune a non-finite weight {W[row, col]} "
                                  f"at row {row}, column {col}")
        block_marks, block_top, block_offsets = marks[:size], top[:size], offsets[:size]
        # magnitudes are >= 0, so a kept position (set to -1) is not taken again
        for at, value in zip(kept[:, span], values[:, span]):
            if cols == 1:
                # row sub-vectors are contiguous, where argmax is fastest; it
                # returns the first maximum, so ties keep the lowest position
                mags.reshape(size, n).argmax(axis=1, out=at[:, 0])
            else:
                np.max(mags, axis=1, keepdims=True, out=block_top)
                np.equal(mags, block_top, out=block_marks.view(np.bool_))
                block_marks *= first
                np.subtract(n, block_marks.max(axis=1), out=at)
            np.multiply(at, cols, out=block_offsets)
            block_offsets += origin[:size]
            mags.reshape(-1)[block_offsets] = -1.0
            np.take(block.reshape(-1), block_offsets, out=value)
        if mask is not None:
            np.less(mags, 0, out=mask[span].view(np.bool_))
    return kept, values


def _groups_per_block(n: int, cols: int) -> int:
    """Whole (n, cols) groups per block of about `quantize._BLOCK` weights;
    a group larger than that is a block of its own."""
    return max(1, _BLOCK // (n * cols))


@dataclass(frozen=True)
class SparsitySchedule:
    """Gradual pruning plan: fixed n, strictly decreasing k per stage.

    Every stage retrains for `training.TrainConfig.epochs` epochs.
    """

    stages: tuple

    def __post_init__(self):
        if not self.stages:
            raise ValidationError("schedule needs at least one stage")
        stages = tuple(self.stages)
        n = stages[0].n
        for p in stages:
            if p.n != n:
                raise ValidationError("all schedule stages must share the same sub-vector length")
        ks = [p.k for p in stages]
        if any(b >= a for a, b in zip(ks, ks[1:])):
            raise ValidationError(f"stage k values must strictly decrease, got {ks}")
        object.__setattr__(self, "stages", stages)

    @classmethod
    def gradual(cls, n: int, k_values) -> "SparsitySchedule":
        return cls(tuple(CodeParams(n, k) for k in k_values))

    @property
    def target(self) -> CodeParams:
        return self.stages[-1]
