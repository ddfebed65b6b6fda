"""Symmetric uniform quantization with an optimized step size.

A weight w maps to sgn(w) * delta * min(floor(|w|/delta + 0.5), (P-1)/2)
for an odd number of levels P (ternary is P = 3).  The step size delta is
chosen to minimize the total squared quantization error over the given
weights.

The squared error is piecewise quadratic in delta: level assignments only
change at the breakpoints delta = 2|w| / (2l + 1), and no breakpoint can be
a two-sided local minimum (the slope drops by 2|w| across it).  Every local
minimum is therefore the interior vertex of one quadratic piece, where
delta equals the closed-form least-squares optimum sum(l*w) / sum(l^2) of
its own assignment.  Sweeping the breakpoints in order enumerates every
piece with running sums, so the returned step size is the exact global
minimizer.  The sweep handles up to `_SWEEP_LIMIT` (magnitude, level)
pairs: every ternary layer below 5M non-zeros, but only 39,370 non-zeros
at fixed8's 127 levels.  Larger inputs fall back to alternating
optimization (assign levels, refit delta) from a spread of starting
points, which finds a local minimum and carries no optimality guarantee.
"""

import numpy as np

from .errors import ValidationError


def quantize_weight(w, delta: float, levels: int = 3):
    """Quantize w (scalar or array) to the symmetric grid of step ``delta``.

    Ties at level boundaries (|w|/delta + 0.5 exactly integral) round away
    from zero, i.e. plain floor of the shifted magnitude.
    """
    if delta <= 0:
        raise ValidationError(f"step size must be positive, got {delta}")
    arr = np.asarray(w, dtype=np.float64)
    half_levels = (levels - 1) // 2
    # sign(w) * delta * min(floor(|w| / delta + 0.5), half_levels), in place
    q = np.abs(arr, out=np.empty(arr.shape))
    q /= delta
    q += 0.5
    np.floor(q, out=q)
    np.minimum(q, half_levels, out=q)
    q *= delta
    q *= np.sign(arr)
    if np.isscalar(w) or arr.ndim == 0:
        return float(q)
    return q


def _squared_error(mags: np.ndarray, delta: float, half_levels: int) -> float:
    lev = np.minimum(np.floor(mags / delta + 0.5), half_levels)
    return float(np.sum((lev * delta - mags) ** 2))


def _lloyd_descend(mags, deltas, half_levels):
    """Run the alternating scheme from each start; returns settled deltas."""
    deltas = deltas.astype(np.float64).copy()
    for _ in range(_MAX_ITERATIONS):
        lev = np.minimum(np.floor(mags[np.newaxis, :] / deltas[:, np.newaxis] + 0.5), half_levels)
        num = lev @ mags
        den = np.einsum("ij,ij->i", lev, lev)
        # all-zero assignment: halve and retry instead of dividing by zero
        new = np.where(den > 0, num / np.maximum(den, 1), deltas / 2)
        moved = np.abs(new - deltas) > _TOLERANCE * deltas
        deltas = new
        if not np.any(moved):
            break
    return deltas


# sweeping is O(m * L log(m * L)) time and memory; larger inputs fall back
# to multi-start descent
_SWEEP_LIMIT = 5_000_000
_NUM_STARTS = 64
_MAX_ITERATIONS = 100
_TOLERANCE = 1e-8


def _exact_step_sweep(mags: np.ndarray, half_levels: int):
    """Exact global minimizer via the assignment-change breakpoints.

    A weight of magnitude a sits at level l+1 once delta <= 2a / (2l + 1).
    Walking the breakpoints from large delta to small maintains
    num = sum(l * a) and den = sum(l^2) incrementally; each piece's vertex
    num / den is the only possible local minimum inside it, with error
    sum(a^2) - num^2 / den.
    """
    lev = np.arange(half_levels, dtype=np.float64)
    odd = 2 * lev + 1
    breakpoints = (2 * mags[:, np.newaxis] / odd).ravel()
    inc_num = np.repeat(mags, half_levels)
    inc_den = np.tile(odd, mags.size)
    order = np.argsort(-breakpoints, kind="stable")
    upper = breakpoints[order]
    num = np.cumsum(inc_num[order])
    den = np.cumsum(inc_den[order])
    lower = np.concatenate((upper[1:], [0.0]))
    vertex = num / den
    inside = (vertex > lower) & (vertex <= upper)
    if not np.any(inside):
        return None
    errs = np.where(inside, -num * num / den, np.inf)
    best = int(np.argmin(errs))
    return float(vertex[best])


def find_step_size(weights, levels: int = 3) -> float:
    """Step size minimizing the squared quantization error over ``weights``.

    ``levels`` is the odd level count P (3 for ternary, 255 for fixed8).
    Zero entries (e.g. masked-out weights) contribute nothing to the error
    and are ignored; an all-zero input has no meaningful step size and is
    an error.
    """
    if levels < 3 or levels % 2 == 0:
        raise ValidationError(f"levels must be odd and >= 3, got {levels}")
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValidationError("cannot determine a step size for an empty weight collection")
    mags = np.abs(w)
    mags = mags[mags > 0]
    if mags.size == 0:
        raise ValidationError("cannot determine a step size for all-zero weights")
    half_levels = (levels - 1) // 2
    wmax = float(mags.max())

    if mags.size * half_levels <= _SWEEP_LIMIT:
        best = _exact_step_sweep(mags, half_levels)
        if best is not None:
            return best
    starts = np.linspace(2 * wmax / _NUM_STARTS, 2 * wmax, _NUM_STARTS)
    starts = np.append(starts, wmax / half_levels)
    settled = _lloyd_descend(mags, starts, half_levels)
    errs = [_squared_error(mags, d, half_levels) for d in settled]
    return float(settled[int(np.argmin(errs))])
