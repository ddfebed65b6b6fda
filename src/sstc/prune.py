"""Structured magnitude pruning to the (N, K) sub-vector sparsity pattern.

Each length-n sub-vector of the weight matrix keeps its k largest-magnitude
positions (ties break to the lowest position) and the rest are masked to
zero.  The sub-vectors are those of `sstc.codes.subvectors`, whose
docstring describes both orientations.
"""

from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, from_subvectors, subvectors
from .errors import ValidationError


def structured_prune(W, params: CodeParams, orientation: str = "column") -> np.ndarray:
    """Mask keeping the k largest magnitudes of every sub-vector.

    Returns a C-contiguous uint8 matrix of W's shape with exactly k ones per
    sub-vector.  Raises on a non-finite weight, an unknown orientation or a
    grouped dimension not divisible by n.
    """
    W = np.asarray(W, dtype=np.float64)
    mags = subvectors(np.abs(W), params, orientation)
    if not np.isfinite(mags.max(initial=0.0)):
        row, col = np.argwhere(~np.isfinite(W))[0]
        raise ValidationError(f"cannot prune a non-finite weight {W[row, col]} "
                              f"at row {row}, column {col}")
    picked = np.arange(len(mags))
    keep = np.zeros(mags.shape, dtype=np.uint8)
    for _ in range(params.k):
        # argmax returns the first maximum, so ties keep the lowest position;
        # magnitudes are >= 0, so a picked position (set to -1) is not taken again
        at = mags.argmax(axis=1)
        keep[picked, at] = 1
        mags[picked, at] = -1.0
    # C order, like the weights callers multiply the mask with
    return np.ascontiguousarray(from_subvectors(keep, *W.shape, params, orientation))


@dataclass(frozen=True)
class SparsitySchedule:
    """Gradual pruning plan: fixed n, strictly decreasing k per stage."""

    stages: tuple
    epochs_per_stage: tuple

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
        epochs = tuple(self.epochs_per_stage)
        if len(epochs) != len(stages):
            raise ValidationError("need one epoch budget per stage")
        if any(e < 0 for e in epochs):
            raise ValidationError("epoch budgets must be non-negative")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "epochs_per_stage", epochs)

    @classmethod
    def single(cls, params: CodeParams, epochs: int) -> "SparsitySchedule":
        return cls(stages=(params,), epochs_per_stage=(epochs,))

    @classmethod
    def gradual(cls, n: int, k_values, epochs_per_stage) -> "SparsitySchedule":
        stages = tuple(CodeParams(n, k) for k in k_values)
        if isinstance(epochs_per_stage, int):
            epochs_per_stage = (epochs_per_stage,) * len(stages)
        return cls(stages=stages, epochs_per_stage=tuple(epochs_per_stage))

    @property
    def target(self) -> CodeParams:
        return self.stages[-1]
