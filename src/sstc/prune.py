"""Structured magnitude pruning to the (N, K) sub-vector sparsity pattern.

Each length-n sub-vector of the weight matrix keeps its k largest-magnitude
positions (ties break to the lowest position) and the rest are masked to
zero.  The sub-vectors are those of `sstc.codes.subvectors`, whose
docstring describes both orientations.
"""

from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, grouped_shape, grouped_view
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
    magnitude's position along it, as uint8 (n <= 24), and W's value there.
    Ties keep the lowest position.  When given, ``mask`` is the grouped view
    of a uint8 matrix of W's shape, and gets a one at every kept position.
    Raises on a non-finite weight, naming the first.

    W is read once, in blocks of `_groups_per_block` whole groups, each one
    contiguous span of W's C-ordered weights, and each block's magnitudes
    go to one reused buffer; no payload-order copy is made.  ``W`` is a
    matrix, whose grouped view is sliced into the blocks, or a reader of one:
    an object with the matrix's ``shape`` and ``dtype`` whose
    ``blocks(size)`` yields its C-ordered weights in consecutive flat pieces
    of ``size`` (the last may be shorter), each read once before the next is
    asked for, and whose ``reject(piece, start)`` raises the reader's own
    error for a piece that holds a non-finite weight from the matrix's
    ``start``-th weight on.  `store` reads a float32 payload from its file
    so.  The max over each block's magnitudes is the one finite check, for
    a matrix and a reader alike.
    Magnitudes are compared in W's own precision when that is float32
    (widening is exact and keeps their order) and in float64 otherwise.
    """
    reader = not isinstance(W, np.ndarray)
    if reader:
        groups, n, cols = grouped_shape(*W.shape, params.n, orientation)
    else:
        view = grouped_view(W, params, orientation)
        groups, n, cols = view.shape
    step = _groups_per_block(n, cols)
    blocks = ((piece.reshape(-1, n, cols) for piece in W.blocks(step * n * cols)) if reader
              else (view[start:start + step] for start in range(0, groups, step)))
    kept = np.empty((params.k, groups, cols), dtype=np.uint8)
    values = np.empty(kept.shape, dtype=W.dtype)
    buffer = np.empty((min(step, groups), n, cols), dtype=np.result_type(W.dtype, np.float32))
    marks = np.empty(buffer.shape, dtype=np.uint8)
    top = np.empty((buffer.shape[0], 1, cols), dtype=buffer.dtype)
    # flat offset of each sub-vector's position 0 within a block
    origin = np.arange(buffer.shape[0])[:, np.newaxis] * (n * cols) + np.arange(cols)
    offsets = np.empty(origin.shape, dtype=np.intp)
    # weight n - p at position p, so the largest weight holding the maximum
    # marks its first position: ties keep the lowest position
    first = np.arange(n, 0, -1, dtype=np.uint8)[:, np.newaxis]
    for start, block in zip(range(0, groups, step), blocks):
        span = slice(start, start + step)
        size = len(block)
        mags = np.abs(block, out=buffer[:size])
        if not np.isfinite(mags.max(initial=0.0)):
            weights = block.reshape(-1)
            if reader:
                W.reject(weights, start * n * cols)
            pos = int(np.argmin(np.isfinite(weights)))
            # the block is the span of W's C-ordered weights from its first group on
            row, col = divmod(start * n * cols + pos, W.shape[1])
            raise ValidationError(f"cannot prune a non-finite weight {weights[pos]} "
                                  f"at row {row}, column {col}")
        block_marks, block_top, block_offsets = marks[:size], top[:size], offsets[:size]
        # magnitudes are >= 0, so a kept position (set to -1) is not taken
        # again; the last round's are set only for the mask
        for rounds_left, at, value in zip(range(params.k - 1, -1, -1), kept[:, span],
                                          values[:, span]):
            if cols == 1:
                # row sub-vectors are contiguous, where argmax is fastest; it
                # returns the first maximum, so ties keep the lowest position
                mags.reshape(size, n).argmax(axis=1, out=at[:, 0])
            else:
                np.max(mags, axis=1, keepdims=True, out=block_top)
                np.equal(mags, block_top, out=block_marks.view(np.bool_))
                block_marks *= first
                np.subtract(n, block_marks.max(axis=1), out=at)
            np.multiply(at, cols, out=block_offsets, dtype=np.intp)
            block_offsets += origin[:size]
            if rounds_left or mask is not None:
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
