"""Symmetric uniform quantization with an optimized step size.

A weight w maps to sgn(w) * delta * min(floor(|w|/delta + 0.5), (P-1)/2)
for an odd number of levels P (ternary is P = 3).  The step size delta is
chosen to minimize the total squared quantization error over the given
weights.

The squared error is piecewise quadratic in delta: a weight of magnitude a
moves from level l to l+1 at the breakpoint delta = a / (l + 1/2), and no
breakpoint can be a two-sided local minimum (the slope drops by 2a across
it).  Every local minimum is therefore the vertex sum(l*a) / sum(l^2) of
one piece, inside it.  Sweeping the breakpoints from the top enumerates
every piece with running sums, so the step size is the exact global
minimizer, at every level count and size.  Level l's breakpoints are the
magnitudes, sorted descending once, over l + 1/2: the sweep merges these
(P-1)/2 runs in bounded windows.  Ties cross level by level, so the step
size does not depend on the input order.  A power of two first scales the
magnitudes, exactly, to a largest in [0.5, 1): no sum overflows and no
vertex is subnormal.  So some vertex lies inside its piece: the lowest
piece's exceeds 0, the highest's stays below its top, and a vertex above
its piece passes that to the next piece up, as a mediant, by a margin
rounding cannot close while den < 2^49.  A non-finite weight is an error.
"""

import math

import numpy as np

from .errors import ValidationError


def _half_levels(levels: int) -> int:
    """(P - 1) / 2, the positive levels of the odd level count P = ``levels``."""
    if levels < 3 or levels % 2 == 0:
        raise ValidationError(f"levels must be odd and >= 3, got {levels}")
    return (levels - 1) // 2


def quantize_weight(w, delta: float, levels: int = 3):
    """Quantize w (scalar or array) to the symmetric grid of step ``delta``.

    Ties at level boundaries (|w|/delta + 0.5 exactly integral) round away
    from zero, i.e. plain floor of the shifted magnitude.
    """
    half_levels = _half_levels(levels)
    if not 0 < delta < np.inf:
        raise ValidationError(f"step size must be positive and finite, got {delta}")
    arr = np.asarray(w, dtype=np.float64)
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


# values a blocked kernel works at once, so its reused buffers stay in cache:
# the three-level sweep's chunk, `prune`'s block of weights, and the most
# breakpoints a window merges
_BLOCK = 1 << 15


class _Sweep:
    """A breakpoint sweep's running sums and best piece so far.  A window,
    in crossing order, goes to reused buffers: magnitudes a to ``num``, the
    running sums of 2l + 1 to ``den``, breakpoints and the next to ``upper``."""

    def __init__(self, length):
        self.num, self.den, self.vertex = (np.empty(length) for _ in range(3))
        self.upper = np.empty(length + 1)
        self.inside, self.spare = (np.empty(length, dtype=np.bool_) for _ in range(2))
        self.carry_num = self.carry_den = 0.0
        self.best_err, self.best = np.inf, None

    def cross(self, m):
        """Cross the window's m breakpoints.  With the running sum added to
        the first magnitude, num is bitwise the cumsum of the whole order;
        the first strict minimum across windows wins, as one argmin would."""
        num, den, vertex, inside = self.num[:m], self.den[:m], self.vertex[:m], self.inside[:m]
        num[0] += self.carry_num
        np.cumsum(num, out=num)
        self.carry_num, self.carry_den = num[-1], den[-1]
        np.divide(num, den, out=vertex)
        np.greater(vertex, self.upper[1:m + 1], out=inside)
        inside &= np.less_equal(vertex, self.upper[:m], out=self.spare[:m])
        pieces = np.flatnonzero(inside)
        if pieces.size:
            errs = -num[pieces] * num[pieces] / den[pieces]
            at = int(np.argmin(errs))
            if errs[at] < self.best_err:
                self.best_err, self.best = errs[at], float(vertex[pieces[at]])

    def run(self, desc, size):
        """Cross the three-level breakpoints 2a of ``desc[:size]`` in chunks;
        returns the best vertex."""
        counts = np.arange(1, self.num.size + 1, dtype=np.float64)
        for start in range(0, size, self.num.size):
            m = min(self.num.size, size - start)
            np.copyto(self.num[:m], desc[start:start + m])
            np.add(counts[:m], start, out=self.den[:m])
            np.multiply(desc[start:start + m + 1], 2, out=self.upper[:m + 1])
            self.cross(m)
        return self.best

    def merge(self, desc, heads, counts, halves, after):
        """Cross the next ``counts`` breakpoints of every level, from its
        ``heads`` in ``desc``, in a stable sort by breakpoint."""
        m = int(counts.sum())
        mags = desc[np.arange(m) + np.repeat(heads - np.cumsum(counts) + counts, counts)]
        halves = np.repeat(halves, counts)
        descending = mags / -halves
        order = np.argsort(descending, kind="stable")
        upper = np.take(descending, order, out=self.upper[:m])
        np.negative(upper, out=upper)
        self.upper[m] = after
        np.take(mags, order, out=self.num[:m])
        den = np.take(halves, order, out=self.den[:m])
        den *= 2
        den[0] += self.carry_den
        np.cumsum(den, out=den)
        self.cross(m)


def _cuts(desc, asc, halves, threshold):
    """How many of the magnitudes ``desc`` have a breakpoint a / half above
    ``threshold``, per level: searched on the magnitudes, then settled on
    the computed breakpoints, which round.  desc[-1] and desc[size] are 0."""
    size = asc.size
    cuts = size - np.searchsorted(asc, threshold * halves, side="right")
    while True:
        over = desc[cuts] / halves > threshold
        under = (desc[cuts - 1] / halves <= threshold) & (cuts > 0)
        if not (over.any() or under.any()):
            return cuts
        # past, or back to the first of, the equal magnitudes at the cut
        cuts[over] = size - np.searchsorted(asc, desc[cuts[over]], side="left")
        cuts[under] = size - np.searchsorted(asc, desc[cuts[under] - 1], side="right")


def _step_sweep(mags, size: int, half_levels: int) -> float:
    """Vertex of the lowest-error piece of the breakpoint sweep over ``mags``:
    zeros, at least one, then ``size`` magnitudes, sorted.  Three levels cross
    the one descending run.  More levels merge windows: each takes every
    breakpoint above t, the largest one ``ahead`` places past any level's head,
    so at most ``ahead`` per level; ``ahead`` halves when a window would
    overflow and doubles while windows are under half full.  With nothing
    above t, the lowest level whose head is t crosses its ties at t.  So the
    order is a stable sort's by breakpoint, level and magnitude."""
    desc = mags[::-1]
    if half_levels == 1:
        return _Sweep(min(_BLOCK, size)).run(desc, size)
    asc = mags[mags.size - size:]
    halves = np.arange(half_levels) + 0.5
    # a window takes about 80 bytes a slot, so 1/16 of the magnitudes (counted
    # as at least _BLOCK) stays under their sorted copy's 8 bytes each: past
    # _BLOCK magnitudes a fit's peak stays below twice its float64 weights
    width = max(min(max(size, _BLOCK) // 16, _BLOCK), half_levels)
    sweep = _Sweep(width)
    heads = np.zeros(half_levels, dtype=np.intp)
    ahead = width // half_levels
    while True:
        threshold = float((desc[np.minimum(heads + ahead, size)] / halves).max())
        # a level may have crossed its ties at the threshold already
        counts = np.maximum(_cuts(desc, asc, halves, threshold) - heads, 0)
        crossing = int(counts.sum())
        if crossing > width:
            ahead //= 2
            continue
        if crossing < width // 2:
            ahead = min(2 * ahead, size)
        if crossing == 0:
            if threshold == 0:
                return sweep.best
            level = int(np.argmax(desc[heads] / halves))
            ties = _cuts(desc, asc, halves[level:level + 1], np.nextafter(threshold, 0))
            counts[level] = min(ties[0] - heads[level], width)
        heads += counts
        sweep.merge(desc, heads - counts, counts, halves, float((desc[heads] / halves).max()))


def _sorted_magnitudes(w: np.ndarray) -> np.ndarray:
    """The one float64 copy of |w|, flat and sorted ascending, behind a zero
    that the sweep reads past its ends.  float32 magnitudes are sorted at
    their own width, the faster sort, in the top half of the copy's own
    bytes, and widened into place once: widening is exact and keeps their
    order, so the copy is bitwise the float64 one.  Widened block by block
    from the front, each block's float64s end before the next block's
    float32s start, so no second copy is made."""
    mags = np.zeros(w.size + 1)
    if w.dtype == np.float32:
        top = mags.view(np.float32)[-w.size:]
        np.abs(w, out=top.reshape(w.shape))
        top.sort()
        for start in range(0, w.size, _BLOCK):
            mags[1 + start:1 + start + _BLOCK] = top[start:start + _BLOCK]
    else:
        np.abs(w, out=mags[:-1].reshape(w.shape), dtype=np.float64)
        mags.sort()
    return mags


def find_step_size(weights, levels: int = 3) -> float:
    """Step size minimizing the squared quantization error over ``weights``.

    ``levels`` is the odd level count P (3 for ternary, 255 for fixed8).
    Zero entries (e.g. masked-out weights) contribute nothing to the error
    and are ignored; an all-zero input has no meaningful step size and is
    an error, and so is a non-finite weight, named by its position in the
    flattened ``weights``.
    """
    half_levels = _half_levels(levels)
    w = np.asarray(weights)
    if w.size == 0:
        raise ValidationError("cannot determine a step size for an empty weight collection")
    mags = _sorted_magnitudes(w)
    wmax = float(mags[-1])  # NaN sorts last, so this catches NaN and inf
    if not np.isfinite(wmax):
        pos = int(np.argmin(np.isfinite(w).ravel()))
        raise ValidationError(f"cannot fit a step size to the non-finite weight "
                              f"{w.ravel()[pos]} at position {pos} of the flattened weights")
    if wmax == 0:
        raise ValidationError("cannot determine a step size for all-zero weights")
    positive = mags[np.searchsorted(mags, 0.0, side="right"):]  # the zeros sort first
    exponent = max(math.frexp(wmax)[1], -1021)
    positive *= 2.0 ** -exponent
    return math.ldexp(_step_sweep(mags, positive.size, half_levels), exponent)
