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


def structured_prune(W, params: CodeParams, orientation: str = "column") -> np.ndarray:
    """Mask keeping the k largest magnitudes of every sub-vector.

    Returns a C-contiguous uint8 matrix of W's shape with exactly k ones per
    sub-vector.  Raises on a non-finite weight, an unknown orientation or a
    grouped dimension not divisible by n.
    """
    W = np.asarray(W)
    _, kept = _largest_per_subvector(W, params, orientation)
    mask = np.zeros(W.shape, dtype=np.uint8)
    # the grouped view of a C-order matrix is a view, so the ones land in place
    np.put_along_axis(grouped_view(mask, params, orientation), kept.transpose(1, 0, 2), 1,
                      axis=1)
    return mask


def _largest_per_subvector(W, params: CodeParams, orientation: str):
    """W's grouped view and the positions of the k largest magnitudes along its axis 1.

    Returns ``(view, kept)``: ``view`` is `codes.grouped_view` of W, of
    shape (B, n, C), and ``kept`` a (k, B, C) array, round r holding each
    sub-vector's r-th largest magnitude's position.  Ties keep the lowest
    position.  Magnitudes are compared in W's own precision when that is
    float32 (widening is exact and keeps their order) and in float64
    otherwise.  No payload-order copy of W is made.
    """
    view = grouped_view(W, params, orientation)
    mags = np.abs(view, dtype=np.result_type(view.dtype, np.float32))
    if not np.isfinite(mags.max(initial=0.0)):
        row, col = np.argwhere(~np.isfinite(W))[0]
        raise ValidationError(f"cannot prune a non-finite weight {W[row, col]} "
                              f"at row {row}, column {col}")
    groups, n, cols = mags.shape
    kept = np.empty((params.k, groups, cols), dtype=np.intp)
    # magnitudes are >= 0, so a picked position (set to -1) is not taken again
    if cols == 1:
        # row sub-vectors are contiguous, where argmax is fastest; it returns
        # the first maximum, so ties keep the lowest position
        flat = mags.reshape(groups, n)
        picked = np.arange(groups)
        for at in kept:
            flat.argmax(axis=1, out=at[:, 0])
            flat[picked, at[:, 0]] = -1.0
        return view, kept
    # weight n - p at position p, so the largest weight holding the maximum
    # marks its first position: ties keep the lowest position
    first = np.arange(n, 0, -1, dtype=np.uint8)[:, np.newaxis]
    for at in kept:
        top = mags.max(axis=1, keepdims=True)
        np.subtract(n, ((mags == top) * first).max(axis=1), out=at)
        np.put_along_axis(mags, at[:, np.newaxis], -1.0, axis=1)
    return view, kept


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
