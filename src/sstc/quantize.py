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
minimizer.  At three levels each weight has one breakpoint, 2|w|, which
adds |w| to the numerator and 1 to the denominator, so the sweep walks one
float64 copy of the magnitudes, sorted in place, from the top, in chunks
of `_BLOCK` with reused buffers; more levels interleave their breakpoints,
which an argsort orders.  Tied breakpoints add equal values, so the
running sums, and the step size, do not depend on the input order.  A
non-finite weight is an error.  A three-level fit always sweeps.  With more
levels the sweep handles up to `_SWEEP_LIMIT` (magnitude, level) pairs,
only 39,370 non-zeros at fixed8's 127 positive levels; larger inputs fall
back to alternating optimization (assign levels, refit delta) from a spread
of starting points, which finds a local minimum and carries no optimality
guarantee; its sums follow the input order.
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


# sweeping is O(m * L log(m * L)) time and memory; inputs of more than
# three levels and more pairs than this fall back to multi-start descent
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
    sum(a^2) - num^2 / den.  Three levels have their own walk,
    `_ternary_step_sweep`.
    """
    odd = 2 * np.arange(half_levels, dtype=np.float64) + 1
    breakpoints = (2 * mags[:, np.newaxis] / odd).ravel()
    order = np.argsort(-breakpoints, kind="stable")
    upper = breakpoints[order]
    num = np.cumsum(np.repeat(mags, half_levels)[order])
    den = np.cumsum(np.tile(odd, mags.size)[order])
    lower = np.concatenate((upper[1:], [0.0]))
    vertex = num / den
    inside = (vertex > lower) & (vertex <= upper)
    if not np.any(inside):
        return None
    errs = np.where(inside, -num * num / den, np.inf)
    best = int(np.argmin(errs))
    return float(vertex[best])


# values a blocked kernel works at once, so its reused buffers stay in cache:
# the three-level sweep's chunk (five float64 buffers of 256 KB) and
# `prune`'s block of weights
_BLOCK = 1 << 15


def _ternary_step_sweep(ascending: np.ndarray):
    """`_exact_step_sweep` at three levels, of positive magnitudes sorted ascending.

    Each magnitude a has one breakpoint 2a, adding a to num and 1 to den, so
    the sweep walks the magnitudes in descending order, in chunks of
    `_BLOCK` with reused buffers.  A chunk's first value gets the running
    sum before its cumsum, so num is bitwise the cumsum of the whole
    descending order.  Errors are computed for the pieces whose vertex lies
    inside them, and the first strict minimum across chunks wins, as one
    argmin over every piece would pick.
    """
    descending = ascending[::-1]
    size = descending.size
    length = min(_BLOCK, size)
    num, den, vertex = (np.empty(length) for _ in range(3))
    # the chunk's breakpoints 2a and the next one down: 0 below the smallest
    doubled = np.zeros(length + 1)
    inside, spare = (np.empty(length, dtype=np.bool_) for _ in range(2))
    counts = np.arange(1, length + 1, dtype=np.float64)
    carry = 0.0
    best_err, best = np.inf, None
    for start in range(0, size, length):
        chunk = descending[start:start + length]
        m = chunk.size
        np.copyto(num[:m], chunk)
        num[0] += carry
        np.cumsum(num[:m], out=num[:m])
        carry = num[m - 1]
        np.add(counts[:m], start, out=den[:m])
        following = descending[start:start + m + 1]
        np.multiply(following, 2, out=doubled[:following.size])
        doubled[following.size:] = 0.0
        np.divide(num[:m], den[:m], out=vertex[:m])
        np.greater(vertex[:m], doubled[1:m + 1], out=inside[:m])
        inside[:m] &= np.less_equal(vertex[:m], doubled[:m], out=spare[:m])
        pieces = np.flatnonzero(inside[:m])
        if pieces.size:
            errs = -num[pieces] * num[pieces] / den[pieces]
            at = int(np.argmin(errs))
            if errs[at] < best_err:
                best_err, best = errs[at], float(vertex[pieces[at]])
    return best


def find_step_size(weights, levels: int = 3) -> float:
    """Step size minimizing the squared quantization error over ``weights``.

    ``levels`` is the odd level count P (3 for ternary, 255 for fixed8).
    Zero entries (e.g. masked-out weights) contribute nothing to the error
    and are ignored; an all-zero input has no meaningful step size and is
    an error, and so is a non-finite weight, named by its position in the
    flattened ``weights``, and finite weights so large that the fit
    overflows float64.
    """
    if levels < 3 or levels % 2 == 0:
        raise ValidationError(f"levels must be odd and >= 3, got {levels}")
    w = np.asarray(weights)
    if w.size == 0:
        raise ValidationError("cannot determine a step size for an empty weight collection")
    # the one magnitude copy; max propagates NaN, so this catches NaN and inf
    mags = np.abs(w, out=np.empty(w.shape), dtype=np.float64).ravel()
    wmax = float(mags.max())
    if not np.isfinite(wmax):
        pos = int(np.argmin(np.isfinite(mags)))
        raise ValidationError(f"cannot fit a step size to the non-finite weight "
                              f"{w.ravel()[pos]} at position {pos} of the flattened weights")
    if wmax == 0:
        raise ValidationError("cannot determine a step size for all-zero weights")
    try:
        with np.errstate(over="raise"):  # the fit's running sums of huge weights
            delta = _fit_step_size(w, mags, wmax, (levels - 1) // 2)
    except FloatingPointError:
        delta = np.inf
    if not np.isfinite(delta):
        raise ValidationError(f"step size overflows float64 in its fit to weights up to {wmax}")
    return delta


def _fit_step_size(w, mags, wmax: float, half_levels: int) -> float:
    """`find_step_size` of checked weights ``w``, whose magnitudes ``mags`` it may reorder."""
    if half_levels == 1:
        mags.sort()
        # the zeros sort first
        best = _ternary_step_sweep(mags[np.searchsorted(mags, 0.0, side="right"):])
        if best is not None:
            return best
        mags = np.abs(w, dtype=np.float64).ravel()  # the fallback sums in input order
    mags = mags[mags > 0]
    if half_levels > 1 and mags.size * half_levels <= _SWEEP_LIMIT:
        best = _exact_step_sweep(mags, half_levels)
        if best is not None:
            return best
    starts = np.linspace(2 * wmax / _NUM_STARTS, 2 * wmax, _NUM_STARTS)
    starts = np.append(starts, wmax / half_levels)
    settled = _lloyd_descend(mags, starts, half_levels)
    errs = [_squared_error(mags, d, half_levels) for d in settled]
    return float(settled[int(np.argmin(errs))])
