"""Model container: layer codecs, bit-exact serialization, storage reports.

A model file holds layers in network order, each in one of four weight
formats:

    float32      raw IEEE-754 weights, row-major
    fixed8       signed 8-bit quantization levels plus a step size
    ternary2bit  one trit per weight, as the (1, 1) code's indices, plus a step
                 (a historical name: version 1 stored two bits per weight)
    sst          structured sparse ternary: per-sub-vector table indices,
                 packed as mixed-radix words, plus a step size

An sst payload lists the indices of the layer's sub-vectors in the payload
order of its orientation, as `sstc.codes.subvectors` cuts them (the
`sstc.codes` module docstring describes the layout).  A ternary2bit payload
is that of the (1, 1) code in row order, so one codec writes and reads both
(`_code_of`); only the header and the storage report tell them apart.

Index payload (version 2).  A code of T entries stores its indices as
base-T words of g indices each, the first index the most significant digit,
so word = ((i0 * T + i1) * T + ...) * T + i(g-1).  Each word takes
w = bitlen(T^g - 1) <= 64 bits, and g is the count with the fewest bits per
index, the smallest on ties (`word_layout`): 29 trits in 46 bits, 11
(8, 1) indices in 45.  A last group of r < g indices is one short word of
bitlen(T^r - 1) bits.  The words are bit-packed MSB-first, the short word
straight after the last full one, and the payload's final byte is
zero-padded.  A word must be below T^g, the short one below T^r; a layer is
checked at construction (`EncodedLayer`).  Version 1 stored each index at
ceil(log2 T) bits; `read_model` still reads it, checks every index below T
and converts the payload to version 2 as it loads the layer, so a layer
holds one encoding.  Biases and
normalizer parameters are always stored as float32 and are never pruned or quantized; a bias, a
float32 weight, and the step a float32 layer stores but never reads, must
be finite.  Code tables are not serialized: the canonical enumeration is
deterministic, so the decoder builds its lookup tables from (n, k) alone,
and the storage report accounts for the tables analytically.
`write_decompressed` writes a model's float32 file through the same
serializer as `write_model`, decoding coded layers block by block.
`compress_model(source, formats, default)` compresses each layer to the
format ``formats`` gives its name, or ``default``.  It reads a model file as
it compresses it: after one header pass, each float32 layer going to a code
is read in blocks of whole groups into one reused buffer and pruned block by
block, and its indices are ranked and packed in tiles of payload order, so a
file's payloads are never held whole.  `_sst_payload` is the one index
payload writer: `compress_layer` and `encode_layer` both hand it each
sub-vector's kept positions and values on the grouped view.

Wire format (all integers little-endian, payload bits MSB-first):

    magic "SSTW" padded to 8 bytes | version u16 | layer count u16
      (version 2 when a layer holds an index payload, else 1: without one
      the two versions are the same bytes, as `sstc decompress` writes them)
    per layer:
        format u8 | orientation u8 | rows u32 | cols u32 | n u8 | k u8
          (orientation: the position in codes.ORIENTATIONS for sst, 0 column
          or 1 row; orientation, n and k are 0, 0, 0 for other formats)
        delta f32 | bias count u32 | bias f32[] | payload bits u64 | payload
        normalizer tag u8 (0 none, 1 batch norm, 2 weight norm)
        batch norm only: eps f32 | gamma f32[rows] | beta f32[rows]
                         | mean f32[rows] | var f32[rows]
    metadata byte length u32 | JSON object, ASCII, keys sorted, no spaces
      (json.dumps(metadata, sort_keys=True, separators=(",", ":")); loading
      rejects any other spelling, so a file re-serializes to its own bytes)
"""

import io
import json
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

import numpy as np

from . import bitpack, quantize
from .codes import (ORIENTATIONS, CodeParams, address_bits, count_entries, from_payload_order,
                    grouped_shape, grouped_view, rank_grouped, table_storage_bits,
                    to_payload_order, unrank_grouped)
# rank_subvectors, unrank_subvectors: unused, but perfbench/tracing.py wraps them here
from .codes import rank_subvectors, unrank_subvectors
from .errors import ValidationError
from .prune import _groups_per_block, _largest_per_subvector
from .quantize import find_step_size, quantize_weight

MAGIC = b"SSTW\x00\x00\x00\x00"
FORMAT_VERSION = 2
# versions `read_model` reads: a version 1 index payload is converted at load
_READ_VERSIONS = (1, FORMAT_VERSION)

FORMAT_KINDS = ("float32", "fixed8", "ternary2bit", "sst")
_FORMAT_TAGS = {name: tag for tag, name in enumerate(FORMAT_KINDS)}


@dataclass(frozen=True)
class LayerFormat:
    kind: str
    params: CodeParams = None
    orientation: str = "column"

    def __post_init__(self):
        if self.kind not in FORMAT_KINDS:
            raise ValidationError(f"unknown layer format {self.kind!r}")
        if self.kind == "sst":
            if self.params is None:
                raise ValidationError("sst format requires code parameters")
            if self.orientation not in ORIENTATIONS:
                raise ValidationError(f"unknown orientation {self.orientation!r}")
        elif self.params is not None:
            raise ValidationError(f"format {self.kind!r} takes no code parameters")
        elif self.orientation != "column":
            raise ValidationError(f"format {self.kind!r} is stored column-oriented only, "
                                  f"got {self.orientation!r}")

    def __str__(self):
        if self.kind == "sst":
            return f"sst{self.params}/{self.orientation}"
        return self.kind


@dataclass(frozen=True, eq=False)
class BatchNormParams:
    """Eval-time batch normalization state, stored float32.  Frozen, and
    each array is a read-only copy (`_read_only_f32`), so a checked
    normalizer cannot change under a layer that holds it."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "mean", "var"):
            values = _read_only_f32(getattr(self, name))
            if not np.isfinite(values).all():
                raise ValidationError(f"batch norm {name} holds a non-finite value")
            object.__setattr__(self, name, values)
        shapes = [arr.shape for arr in (self.gamma, self.beta, self.mean, self.var)]
        if len(set(shapes)) > 1:
            raise ValidationError(f"batch norm gamma, beta, mean and var differ in shape: "
                                  f"{', '.join(map(str, shapes))}")
        if not np.isfinite(self.eps):
            raise ValidationError(f"batch norm eps must be finite, got {self.eps}")
        # the eval fold divides by sqrt(var + eps) of the stored float32
        # values; that sum is positive exactly when var > -eps
        low = self.var <= -np.float32(self.eps)
        if low.any():
            pos = int(np.argmax(low))
            raise ValidationError(f"batch norm var + eps must be positive, got var "
                                  f"{float(self.var[pos])} at row {pos} with eps {self.eps}")

    def __reduce__(self):
        return _rebuilt(self)

    def __eq__(self, other):
        if not isinstance(other, BatchNormParams):
            return NotImplemented
        return (
            np.array_equal(self.gamma, other.gamma)
            and np.array_equal(self.beta, other.beta)
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.var, other.var)
            and np.float32(self.eps) == np.float32(other.eps)
        )

    @property
    def parameter_count(self):
        return 4 * self.gamma.size


@dataclass(frozen=True)
class WeightNormTag:
    """Marker: the layer was trained weight-normalized.

    Quantization is applied to the row-normalized weights, so the stored
    ternary weights already incorporate the normalization and inference
    needs no extra parameters.
    """

    @property
    def parameter_count(self):
        return 0


@dataclass(frozen=True, eq=False)
class EncodedLayer:
    """One stored layer.  Frozen, so every field passes the checks below:
    build a changed layer with `dataclasses.replace`, which re-runs them.
    The payload is bytes and the bias a read-only float32 copy, and a batch
    norm is frozen too, so a checked layer stays as it was checked (the
    kernel caches its serving state by layer identity)."""

    format: LayerFormat
    rows: int
    cols: int
    delta: float
    payload: bytes
    bias: np.ndarray = None
    normalizer: object = None

    def __post_init__(self):
        object.__setattr__(self, "payload", bytes(self.payload))
        delta, bias = _checked_fields(self.format, self.rows, self.cols, self.delta, self.bias,
                                      self.normalizer, len(self.payload))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "bias", bias)
        if self.format.kind == "float32":
            _check_finite(np.frombuffer(self.payload, dtype="<f4"), self.cols)
        elif _code_of(self.format) is not None:
            _check_words(self)

    @property
    def weight_count(self):
        return self.rows * self.cols

    def num_indices(self):
        code = _code_of(self.format)
        if code is None:
            raise ValidationError("only sst and ternary2bit layers carry index streams")
        return self.weight_count // code[0].n

    def payload_bit_length(self) -> int:
        return payload_bits(self.format, self.rows, self.cols)

    def __reduce__(self):
        return _rebuilt(self)

    def __eq__(self, other):
        if not isinstance(other, EncodedLayer):
            return NotImplemented
        bias_eq = (self.bias is None) == (other.bias is None) and (
            self.bias is None or np.array_equal(self.bias, other.bias)
        )
        return (
            self.format == other.format
            and self.rows == other.rows
            and self.cols == other.cols
            and self.delta == other.delta
            and self.payload == other.payload
            and bias_eq
            and self.normalizer == other.normalizer
        )


def _rebuilt(obj):
    """``__reduce__`` of a checked dataclass: a copy or an unpickled object
    is built by its constructor, so it passes the checks and owns read-only
    arrays too (pickling an array drops its read-only flag)."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


def _code_of(fmt: LayerFormat):
    """The (params, orientation) of the (N, K) code a layer's payload holds
    the indices of, or None for float32 and fixed8.  ternary2bit is the
    (1, 1) code in row order: its indices 0, 1, 2 are the trits 0, +1, -1."""
    if fmt.kind == "ternary2bit":
        return CodeParams(1, 1), "row"
    return (fmt.params, fmt.orientation) if fmt.kind == "sst" else None


def payload_bits(fmt: LayerFormat, rows: int, cols: int) -> int:
    """The bit length of the payload of a (rows, cols) layer in ``fmt``."""
    code = _code_of(fmt)
    if code is None:
        return (32 if fmt.kind == "float32" else 8) * rows * cols
    t, g, w = word_layout(code[0])
    words, rest = divmod(rows * cols // code[0].n, g)
    return words * w + (t ** rest - 1).bit_length()


@lru_cache(maxsize=None)
def word_layout(params: CodeParams):
    """``(T, g, w)`` of a code's index payload: its T entries, the g indices
    of a word and the w = bitlen(T^g - 1) <= 64 bits of a word, for the g
    with the fewest bits per index, the smallest on ties.  The one-entry
    code (k = 0) takes 0 bits, at g = 1."""
    t = count_entries(params)
    best = (1, (t - 1).bit_length())
    g = 2
    while t > 1 and (t ** g - 1).bit_length() <= 64:
        w = (t ** g - 1).bit_length()
        if w * best[0] < best[1] * g:
            best = (g, w)
        g += 1
    return (t, *best)


def _checked_fields(fmt: LayerFormat, rows: int, cols: int, delta, bias, normalizer,
                    payload_size: int):
    """The float32 step and bias of a layer, after every check `EncodedLayer`
    makes of it but the one of a float32 payload's values."""
    if rows < 1 or cols < 1:
        raise ValidationError("layer dimensions must be positive")
    delta = _stored_step(fmt.kind, delta)
    if fmt.kind == "sst":
        grouped_shape(rows, cols, fmt.params.n, fmt.orientation)
    if bias is not None:
        with np.errstate(over="ignore"):  # a finite bias that overflows is rejected below
            bias = _read_only_f32(bias)
        if bias.shape != (rows,):
            raise ValidationError(f"bias length {bias.shape} does not match the {rows} rows")
        finite = np.isfinite(bias)
        if not finite.all():
            pos = int(np.argmin(finite))
            raise ValidationError(f"bias {bias[pos]} at row {pos} is not finite")
    if isinstance(normalizer, BatchNormParams):
        if normalizer.gamma.shape != (rows,):
            raise ValidationError(f"batch norm parameter length {normalizer.gamma.shape} does "
                                  f"not match the {rows} rows")
    elif not (normalizer is None or isinstance(normalizer, WeightNormTag)):
        raise ValidationError(f"unknown normalizer {type(normalizer).__name__}")
    expected = payload_bits(fmt, rows, cols)
    if payload_size != (expected + 7) // 8:
        raise ValidationError(f"payload is {payload_size} bytes, expected {(expected + 7) // 8} "
                              f"for {expected} bits")
    return delta, bias


def _read_only_f32(values) -> np.ndarray:
    """A C-ordered float32 copy of ``values``, at least 1-D, that owns its
    memory and is read-only: a layer never aliases its caller's array."""
    copy = np.array(values, dtype=np.float32, order="C", ndmin=1)
    copy.setflags(write=False)
    return copy


def _stored_step(kind: str, given) -> float:
    """``given`` as the float32 step a file stores, so a layer decodes as its
    serialized copy does; raises unless it is finite, and positive for every
    format but float32, which stores a step it never reads."""
    with np.errstate(over="ignore"):  # a finite step that overflows is rejected below
        delta = float(np.float32(given or 0.0))
    float32 = kind == "float32"
    if not (np.isfinite(delta) and (float32 or delta > 0)):
        rounded = "" if np.isnan(delta) or delta == (given or 0.0) else f" ({delta} as float32)"
        raise ValidationError(f"format {kind} needs a finite "
                              f"{'' if float32 else 'positive '}step size, got {given}{rounded}")
    return delta


def _check_finite(weights: np.ndarray, cols: int, start: int = 0):
    """Raise on the first non-finite value of ``weights``, the flat C-ordered
    float32 weights of a ``cols``-column matrix from its ``start``-th weight
    on, naming its row and column."""
    # min and max propagate NaN, so two reductions check without a copy
    if not (np.isfinite(weights.min()) and np.isfinite(weights.max())):
        pos = int(np.argmin(np.isfinite(weights)))
        row, col = divmod(start + pos, cols)
        raise ValidationError(f"float32 weight {weights[pos]} at row {row}, "
                              f"column {col} is not finite")


@dataclass
class ModelFile:
    layers: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def layer_names(self):
        """Each layer's stored name (`_layer_names`), or ``layer{i}`` for
        every layer of a model that stores none."""
        count = len(self.layers)
        return _layer_names(self.metadata, count) or [f"layer{i}" for i in range(count)]


def _layer_names(metadata: dict, count: int):
    """The one naming rule: the metadata's "layer_names" when it is a list
    (or a tuple, which a file stores as a list) of ``count`` strings, else
    None.  An error names a layer ``layer i (name)`` by it, or ``layer i``
    when the model stores no names."""
    names = metadata.get("layer_names")
    if (isinstance(names, (list, tuple)) and len(names) == count
            and all(isinstance(name, str) for name in names)):
        return list(names)
    return None


def ternary_trits(W_q: np.ndarray, delta: float) -> np.ndarray:
    """Recover the {-1, 0, +1} pattern of a step-scaled ternary matrix whose
    quotients by ``delta`` are finite (`encode_layer` checks them)."""
    if delta <= 0:
        raise ValidationError(f"step size must be positive, got {delta}")
    W_q = np.asarray(W_q, dtype=np.float64)
    levels = np.rint(W_q / delta)
    if not np.array_equal(levels * np.float64(delta), W_q):
        raise ValidationError("matrix entries are not multiples of the step size in {-1,0,+1}")
    if np.any(np.abs(levels) > 1):
        raise ValidationError("matrix entries exceed +-delta; not a ternary layer")
    return levels.astype(np.int8)


def _check_shape(shape):
    """Raise unless ``shape`` is a matrix's with at least one row and column."""
    if len(shape) != 2:
        raise ValidationError("expected a 2-D weight matrix")
    if min(shape) < 1:
        raise ValidationError("layer dimensions must be positive")


def _check_steps(W_q: np.ndarray, delta: float, label: str):
    """Raise on the first entry of ``W_q`` whose quotient by ``delta`` is not
    finite (NaN, an infinity, or an overflow), naming its row and column.

    The quotient of the largest magnitude decides, so a finite matrix costs
    two reductions and no copy.
    """
    with np.errstate(over="ignore"):
        if np.isfinite(np.maximum(W_q.max(), -W_q.min()) / delta):
            return
        finite = np.isfinite(W_q / delta)
    pos = int(np.argmin(finite))
    row, col = divmod(pos, W_q.shape[1])
    raise ValidationError(f"{label}: entry {W_q.flat[pos]} at row {row}, column {col} "
                          f"is not a finite multiple of the step size {delta}")


def _budget_error(W_q: np.ndarray, params: CodeParams, orientation: str, label: str):
    """The `ValidationError` naming the first payload-order sub-vector of
    ``W_q`` with more than k non-zeros, or None when every one is within
    budget.  Counts on the grouped view (`codes.grouped_view`)."""
    counts = np.count_nonzero(grouped_view(W_q, params, orientation), axis=1)
    if counts.max(initial=0) <= params.k:
        return None
    counts = to_payload_order(counts)
    pos = int(np.argmax(counts > params.k))
    return ValidationError(f"{label}: sub-vector {pos} has {int(counts[pos])} non-zeros, over "
                           f"the k={params.k} budget; the pruning pipeline produced an invalid "
                           f"layer")


def encode_layer(W_q, delta, fmt: LayerFormat, bias=None, normalizer=None,
                 layer_name: str = None) -> EncodedLayer:
    """Encode a quantized weight matrix into the given storage format.

    Every entry must be a finite multiple of the step size: of at most 127
    steps for fixed8, 0 or +-delta for ternary2bit and sst.  An sst
    sub-vector over the non-zero budget is named by its payload-order
    position, since it signals a pruning-pipeline bug upstream.  An sst or
    ternary2bit layer is encoded on its grouped view through the tail of
    `compress_layer`: a sub-vector within budget has all its non-zeros
    among its k largest magnitudes (`prune._largest_per_subvector`), so
    only those are checked ternary and handed to `_sst_payload`.  A code
    that keeps every position (k = n) has no budget to check and hands on
    its whole grouped view (`_kept_weights`).
    """
    W_q = np.ascontiguousarray(W_q, dtype=np.float64)
    _check_shape(W_q.shape)
    rows, cols = W_q.shape
    label = layer_name or "layer"
    kind = fmt.kind
    if kind == "float32":
        with np.errstate(over="ignore"):  # a weight that overflows float32 is rejected as inf
            payload = W_q.astype("<f4").tobytes()
        return EncodedLayer(fmt, rows, cols, 0.0, payload, bias, normalizer)
    if delta is None or not 0 < delta < np.inf:
        raise ValidationError(f"{label}: format {kind} requires a finite positive step size, "
                              f"got {delta}")
    _check_steps(W_q, delta, label)
    if kind == "fixed8":
        levels = np.rint(W_q / delta)
        if np.any(np.abs(levels) > 127) or not np.array_equal(levels * np.float64(delta), W_q):
            raise ValidationError(f"{label}: entries are not 8-bit multiples of the step size")
        payload = levels.astype("<i1").tobytes()
        return EncodedLayer(fmt, rows, cols, delta, payload, bias, normalizer)
    params, orientation = _code_of(fmt)
    error = _budget_error(W_q, params, orientation, label) if params.k < params.n else None
    if error is not None:
        ternary_trits(W_q, delta)  # an entry that is not ternary is named first
        raise error
    kept, values = _kept_weights(W_q, params, orientation, finite=True)  # (k, B, C) each
    ternary_trits(values, delta)
    return EncodedLayer(fmt, rows, cols, delta, _sst_payload(kept, values, delta, params),
                        bias, normalizer)


def compress_layer(W, fmt: LayerFormat, bias=None, normalizer=None) -> EncodedLayer:
    """Prune, quantize and encode a float weight matrix into ``fmt``.

    Writes the bytes of the step-by-step pipeline: for sst `structured_prune`
    and ``W * mask``, then `find_step_size`, delta rounded to float32 as
    files store it, `quantize_weight` and `encode_layer`.  An sst or
    ternary2bit layer is worked on W's grouped view (`codes.grouped_view`),
    with no payload-order copy of W: `prune._largest_per_subvector` reads W
    once, in blocks with reused buffers, for the kept positions along each
    sub-vector (uint8) and their values.  Such a ``W`` may also be a
    `_PayloadReader`, which reads a float32 layer from its file block by
    block.  The step size is fitted on the kept values alone, widened to
    float64, and the indices are ranked and packed in tiles of payload
    order (`_sst_payload`).  So the only whole-layer arrays are the kept
    positions and values and the fit's float64 magnitudes.  There is no
    mask, no masked copy and no re-check of the trits.  A float32 ``W`` is
    pruned in float32, which keeps the kept positions and ties of its
    float64 widening and so its bytes.  Every step-size fit is the exact
    sweep, which does not depend on the order of its input.  A fitted step
    that is not a finite positive float32, as of float64 weights near 0 or
    near the float64 limit, is rejected before any weight is quantized.
    """
    if not isinstance(W, _PayloadReader):
        W = np.asarray(W)
    _check_shape(W.shape)
    kind = fmt.kind
    if kind == "float32":
        return encode_layer(W, None, fmt, bias, normalizer)
    if kind == "fixed8":
        delta = _stored_step(kind, find_step_size(W, 255))
        return encode_layer(quantize_weight(W, delta, 255), delta, fmt, bias, normalizer)
    params, orientation = _code_of(fmt)
    kept, values = _kept_weights(W, params, orientation)  # (k, B, C) each
    delta = _stored_step(kind, find_step_size(values))
    return EncodedLayer(fmt, *W.shape, delta, _sst_payload(kept, values, delta, params),
                        bias, normalizer)


def _kept_weights(W, params: CodeParams, orientation: str, finite: bool = False):
    """The (kept, values) of `prune._largest_per_subvector`, two (k, B, C)
    arrays, for `_sst_payload`.

    A code that keeps every position (k = n, as ternary2bit's (1, 1)) needs
    no prune rounds when ``W`` is a finite matrix: its kept positions are
    0 .. n-1 in order and its values the grouped view of W, no copy.  They
    rank to the same indices, since `codes.rank_grouped` does not depend on
    the order of the rounds, and the step fit does not depend on the order
    of its input.  ``finite`` says W was checked finite already; otherwise
    such a W is checked here.  A non-finite weight, or a `_PayloadReader`,
    goes through the prune, which names the weight or reads the file block
    by block.
    """
    if (params.k == params.n and isinstance(W, np.ndarray)
            and (finite or np.isfinite(W.min()) and np.isfinite(W.max()))):
        values = grouped_view(W, params, orientation).transpose(1, 0, 2)
        kept = np.broadcast_to(np.arange(params.n, dtype=np.uint8)[:, np.newaxis, np.newaxis],
                               values.shape)
        return kept, values
    return _largest_per_subvector(W, params, orientation)


def _trit_threshold(delta: float, dtype: np.dtype):
    """The least magnitude of ``dtype`` that is a trit at step ``delta``.

    quantize_weight's shifted level fl(fl(a / delta) + 0.5) of a magnitude
    a never falls as a grows, since each rounding keeps order, so a weight
    is a trit (level at least 1) exactly when its magnitude is at least the
    least float64 whose level is 1.  That is found by bisection on the
    ordered bit patterns of the float64s from 0 (level 0.5) to 2 delta
    (level 2.5), and rounded up to ``dtype``.
    """
    def as_float(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    delta = float(delta)  # divided in float64, as the level is
    low, high = 0, struct.unpack("<q", struct.pack("<d", 2.0 * delta))[0]
    while high - low > 1:
        mid = (low + high) // 2
        if as_float(mid) / delta + 0.5 >= 1:
            high = mid
        else:
            low = mid
    least = as_float(high)
    threshold = dtype.type(least)
    return threshold if float(threshold) >= least else np.nextafter(threshold, dtype.type(np.inf))


def _sst_payload(kept, values, delta: float, params: CodeParams) -> bytes:
    """The index payload of the kept positions ``kept`` and values ``values``
    of a (B, C) grid of sub-vectors, both (k, B, C), at step ``delta``.

    The one index payload writer: `compress_layer` hands it float weights,
    `encode_layer` quantized ones, each 0 or +-delta.  A kept weight is a
    trit where quantize_weight's level floor(|w| / delta + 0.5) is at least
    1, that is where |w| / delta + 0.5 >= 1, which holds exactly at
    +-delta: where |w| is at least `_trit_threshold`, compared in float32
    for float32 weights; its base-3 digit is 1 for +1, 2 for -1.  Each
    index is ranked straight from its kept (position, digit) pairs
    (`codes.rank_grouped`).  Payload order runs down each grid column in
    turn (`codes.to_payload_order`), so the grid is worked in tiles of about
    `quantize._BLOCK` indices that are each one span of payload order:
    whole columns, or, for a column longer than that, a run down one.  The
    tiles' ranks are packed as they come (`_index_payload`).
    """
    rounds, groups, cols = kept.shape
    down = min(groups, quantize._BLOCK)  # grid rows per tile
    across = max(1, quantize._BLOCK // groups)  # grid columns per tile
    size = down * min(across, cols)
    # per tile: |w|, digit, and whether the weight is a trit
    width = np.dtype(np.float32 if values.dtype == np.float32 else np.float64)
    threshold = _trit_threshold(delta, width)
    buffers = (np.empty(rounds * size, dtype=width), np.empty(rounds * size, dtype=np.uint8),
               np.empty(rounds * size, dtype=np.bool_))

    def tiles():
        for c0 in range(0, cols, across):
            for b0 in range(0, groups, down):
                tile = np.s_[:, b0:b0 + down, c0:c0 + across]
                value = values[tile]
                mags, digit, trit = (buffer[:value.size].reshape(value.shape)
                                     for buffer in buffers)
                np.abs(value, out=mags, dtype=width)
                np.less_equal(value, 0, out=digit.view(np.bool_))
                digit += 1
                digit *= np.greater_equal(mags, threshold, out=trit)
                yield rank_grouped(kept[tile], digit, params).T  # in payload order

    return _index_payload(tiles(), params, size)


def _index_payload(chunks, params: CodeParams, size: int) -> bytes:
    """The version 2 payload of the indices of ``params`` that ``chunks``
    yields in turn, each an int64 array of at most ``size`` indices in C
    order, which together are the layer's indices in payload order.

    A chunk goes to one reused buffer, behind the fewer than 8 words'
    worth left over from the one before.  Every 8 whole words fill w bytes,
    so each multiple of 8 g indices is combined into words (`_words`) and
    packed (`bitpack.pack_indices`) to bytes that join to the packing of
    the whole stream; the rest, with the short last word, is `_tail_bytes`.
    """
    t, g, w = word_layout(params)
    span = 8 * g
    ordered = np.empty(size + span - 1, dtype=np.int64)
    left = 0  # indices waiting in ordered[:left]
    parts = []
    for chunk in chunks:
        count = left + chunk.size
        np.copyto(ordered[left:count].reshape(chunk.shape), chunk)
        whole = count - count % span
        if whole:
            parts.append(bitpack.pack_indices(_words(ordered[:whole], t, g), w))
        left = count - whole
        ordered[:left] = ordered[whole:count]
    parts.append(_tail_bytes(ordered[:left], t, g))
    return b"".join(parts)


def _words(indices: np.ndarray, t: int, g: int) -> np.ndarray:
    """The uint64 base-``t`` words of ``indices``, g to a word, the first
    the most significant digit: one product with the powers of ``t``,
    which uint64 takes modulo 2^64 and so exactly, as a word is below it."""
    powers = np.array([pow(t, g - 1 - j, 1 << 64) for j in range(g)], dtype=np.uint64)
    return indices.view(np.uint64).reshape(-1, g) @ powers


def _tail_bytes(indices: np.ndarray, t: int, g: int) -> bytes:
    """The packed bytes of the fewer than 8 g last ``indices`` of a payload:
    their words of g, then the short word of the rest, each at the width of
    its digit count (`payload_bits`), MSB-first and zero-padded."""
    value = bits = 0
    for start in range(0, indices.size, g):
        word = 0
        digits = indices[start:start + g].tolist()
        for index in digits:
            word = word * t + index
        width = (t ** len(digits) - 1).bit_length()
        value, bits = value << width | word, bits + width
    return (value << -bits % 8).to_bytes((bits + 7) // 8, "big")


def _payload_words(layer: EncodedLayer):
    """``(words, short, rest)`` of an sst or ternary2bit layer's payload:
    its uint64 words of g indices, and the short last word of its ``rest``
    indices as an int (0 when ``rest`` is 0)."""
    params = _code_of(layer.format)[0]
    t, g, w = word_layout(params)
    full, rest = divmod(layer.num_indices(), g)
    words = bitpack.unpack_indices(layer.payload, w, full)
    start, width = full * w, (t ** rest - 1).bit_length()
    tail = layer.payload[start // 8:]
    short = int.from_bytes(tail, "big") >> (8 * len(tail) - start % 8 - width) & ((1 << width) - 1)
    return words, short, rest


def _check_words(layer: EncodedLayer):
    """Raise unless every word of ``layer``'s index payload is below T^g,
    and its short last word below T^r, so every index it holds is below T.
    A one-entry code's words take 0 bits, so they are 0 and not unpacked."""
    params = _code_of(layer.format)[0]
    t, g, _ = word_layout(params)
    if t == 1:
        return
    words, short, rest = _payload_words(layer)
    if words.size and int(words.max()) >= t ** g:
        pos = int(np.argmax(words >= np.uint64(t ** g)))
        raise ValidationError(f"corrupt word {int(words[pos])} at word {pos}: a word of "
                              f"{g} indices of code {params} must be below {t}^{g}")
    if short >= t ** rest:
        raise ValidationError(f"corrupt last word {short} at word {words.size}: a word of "
                              f"{rest} indices of code {params} must be below {t}^{rest}")


def layer_indices(layer: EncodedLayer) -> np.ndarray:
    """The int64 sub-vector indices of an sst or ternary2bit layer, in payload order.

    Each word is unpacked (`bitpack.unpack_indices`) and split by g divmods
    by T, its last digit first; every index is below T, since `EncodedLayer`
    checks the words.
    """
    t, g, _ = word_layout(_code_of(layer.format)[0])
    words, short, rest = _payload_words(layer)
    indices = np.empty(words.size * g + rest, dtype=np.int64)
    digits = indices[:words.size * g].view(np.uint64).reshape(-1, g)
    radix = np.uint64(t)
    for column in digits.T[::-1]:
        np.divmod(words, radix, out=(words, column))
    for pos in reversed(range(words.size * g, indices.size)):
        short, indices[pos] = divmod(short, t)
    return indices


def _v2_payload(payload: bytes, params: CodeParams, count: int) -> bytes:
    """The version 2 payload of the ``count`` indices a version 1 payload
    holds at the code's address width; raises on an index of T or more.
    A one-entry code's payload is empty in both versions."""
    if count_entries(params) == 1:
        return b""
    indices = bitpack.unpack_indices(payload, address_bits(params), count)
    t = count_entries(params)
    bad = indices >= t
    if np.any(bad):
        pos = int(np.argmax(bad))
        raise ValidationError(f"corrupt index {int(indices[pos])} at stream position {pos} "
                              f"(code {params} has {t} entries)")
    indices = indices.view(np.int64)
    size = max(1, min(count, quantize._BLOCK))
    return _index_payload((indices[i:i + size] for i in range(0, count, size)), params, size)


def decode_layer(layer: EncodedLayer) -> np.ndarray:
    """Dense float64 weight matrix of an encoded layer, C-ordered.

    Indices are put on the (B, C) grid of the layer's grouped view
    (`codes.from_payload_order`) and unranked straight into that view
    (`codes.unrank_grouped`): one gather from the code's cached T-entry
    table, or, for a code above `codes.ENTRY_TABLE_LIMIT` entries, the
    inverse walk over its rank table.  Decoding makes no transposed copy.
    """
    return _decoded(layer, np.float64)


def stored_weights(layer: EncodedLayer) -> np.ndarray:
    """The weights of ``layer`` at the precision it stores them.

    A float32 layer gives a read-only float32 view of its payload, any
    other layer its `decode_layer`.  This is what `sstc compress` prunes:
    float32 magnitudes keep the kept positions and ties of their float64
    widening.
    """
    if layer.format.kind == "float32":
        return np.frombuffer(layer.payload, dtype="<f4",
                             count=layer.weight_count).reshape(layer.rows, layer.cols)
    return decode_layer(layer)


def _decoded(layer: EncodedLayer, dtype) -> np.ndarray:
    """The (rows, cols) C-ordered weights of ``layer`` in ``dtype``."""
    kind = layer.format.kind
    rows, cols = layer.rows, layer.cols
    if kind == "float32":
        flat = np.frombuffer(layer.payload, dtype="<f4", count=layer.weight_count)
        return flat.astype(dtype).reshape(rows, cols)
    scale = dtype(layer.delta)
    if kind == "fixed8":
        levels = np.frombuffer(layer.payload, dtype="<i1", count=layer.weight_count)
        # 127 times a large float32 step overflows float32; `_check_finite` rejects it
        with np.errstate(over="ignore"):
            return levels.astype(dtype).reshape(rows, cols) * scale
    params, orientation = _code_of(layer.format)
    grid = from_payload_order(layer_indices(layer), rows, cols, params, orientation)
    return unrank_grouped(grid, params, scale).reshape(rows, cols)


# --- wire format ---------------------------------------------------------

def _f32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def serialize_model(model: ModelFile) -> bytes:
    return b"".join(_serialized_parts(model))


def _serialized_parts(model: ModelFile, decoded: bool = False):
    """The bytes of a model file, part by part, in file order.

    With ``decoded``, the parts of the float32 file `write_decompressed`
    writes for ``model``; a part may then be a reused buffer, valid only
    until the next part is asked for.  A `ValidationError` raised while a
    layer's parts are made names the layer.  A model whose layers do not
    chain, which `read_model` would reject, raises before the first part.
    """
    names = _layer_names(model.metadata, len(model.layers))
    _check_chain(model.layers, names)
    indexed = not decoded and any(_code_of(layer.format) for layer in model.layers)
    yield MAGIC
    yield struct.pack("<HH", FORMAT_VERSION if indexed else 1, len(model.layers))
    for index, layer in enumerate(model.layers):
        with _naming_layer(index, names):
            fmt = LayerFormat("float32") if decoded else layer.format
            n, k = (fmt.params.n, fmt.params.k) if fmt.params else (0, 0)
            yield struct.pack(
                "<BBIIBBf",
                _FORMAT_TAGS[fmt.kind],
                ORIENTATIONS.index(fmt.orientation),
                layer.rows, layer.cols, n, k,
                0.0 if decoded else layer.delta,
            )
            bias = layer.bias if layer.bias is not None else np.zeros(0, dtype=np.float32)
            yield struct.pack("<I", bias.size)
            yield _f32_bytes(bias)
            if decoded:
                yield struct.pack("<Q", 32 * layer.weight_count)
                yield from _float32_blocks(layer)
            else:
                yield struct.pack("<Q", layer.payload_bit_length())
                yield layer.payload
            norm = layer.normalizer
            if norm is None:
                yield struct.pack("<B", 0)
            elif isinstance(norm, BatchNormParams):
                yield struct.pack("<Bf", 1, np.float32(norm.eps))
                yield from map(_f32_bytes, (norm.gamma, norm.beta, norm.mean, norm.var))
            else:  # a WeightNormTag, as `EncodedLayer` checks
                yield struct.pack("<B", 2)
    meta = _metadata_block(model.metadata)
    yield struct.pack("<I", len(meta))
    yield meta


def _float32_blocks(layer: EncodedLayer):
    """The C-ordered float32 weights of ``layer``, in consecutive pieces.

    A float32 layer gives its payload.  An sst or ternary2bit layer is
    decoded in blocks of whole groups of its grouped view, each one
    contiguous span of the matrix, into one reused buffer.  Every decoded
    weight is the float32 delta a file stores times an integer level, which
    float32 rounds as it rounds the float64 product of `decode_layer`.  Only a fixed8 weight,
    up to 127 times the delta, can overflow; it is checked.
    """
    kind = layer.format.kind
    if kind == "float32":
        yield layer.payload
    elif kind == "fixed8":
        weights = _decoded(layer, np.float32).astype("<f4", copy=False)
        _check_finite(weights.ravel(), layer.cols)
        yield weights
    else:
        params, orientation = _code_of(layer.format)
        grid = from_payload_order(layer_indices(layer), layer.rows, layer.cols, params,
                                  orientation)
        groups, cols = grid.shape
        step = _groups_per_block(params.n, cols)
        buffer = np.empty((min(step, groups), params.n, cols), dtype="<f4")
        scale = np.float32(layer.delta)
        for start in range(0, groups, step):
            block = grid[start:start + step]
            yield unrank_grouped(block, params, scale, out=buffer[:len(block)])


def _metadata_block(metadata) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")


class _Reader:
    """Reads a model file's parts from a binary file, each part once.

    Every size is checked against what is left of the file before any of it
    is read or skipped, so a corrupt size allocates nothing.
    """

    def __init__(self, fh):
        self.fh = fh
        start = fh.tell()
        self.end = fh.seek(0, os.SEEK_END)
        self.remaining = self.end - start
        fh.seek(start)

    def _claim(self, size: int) -> int:
        """Where the next ``size`` bytes start; raises if the file is shorter."""
        if size > self.remaining:
            raise ValidationError("truncated model file")
        at = self.end - self.remaining
        self.remaining -= size
        return at

    def take(self, size: int) -> bytes:
        self._claim(size)
        return self._read(size)

    def skip(self, size: int) -> int:
        """Seek past the next ``size`` bytes; returns where they start."""
        at = self._claim(size)
        self.fh.seek(size, os.SEEK_CUR)
        return at

    def read_at(self, at: int, size: int) -> bytes:
        """The ``size`` bytes at ``at``, of a part skipped before."""
        self.fh.seek(at)
        return self._read(size)

    def _read(self, size: int) -> bytes:
        part = self.fh.read(size)
        if len(part) != size:  # the file shrank while being read
            raise ValidationError("truncated model file")
        return part

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4")


@dataclass(frozen=True)
class _Record:
    """One layer record of a model file as the header pass reads it; its
    payload stays in the file, ``payload_at`` bytes from the start."""

    version: int
    kind: str
    otag: int
    rows: int
    cols: int
    n: int
    k: int
    delta: float
    bias: np.ndarray
    payload_bits: int
    payload_at: int
    make_norm: object  # builds the normalizer, with the layer

    @property
    def payload_size(self) -> int:
        return (self.payload_bits + 7) // 8

    def layer(self, payload: bytes) -> EncodedLayer:
        """The layer of this record and its ``payload``; a version 1 index
        payload is checked and converted to version 2 (`_v2_payload`)."""
        fmt = (LayerFormat(self.kind, CodeParams(self.n, self.k), ORIENTATIONS[self.otag])
               if self.kind == "sst" else LayerFormat(self.kind))
        code = _code_of(fmt)
        if self.version == 1 and code is not None:
            params, orientation = code
            grouped_shape(self.rows, self.cols, params.n, orientation)
            count = self.rows * self.cols // params.n
            self._check_bits(count * address_bits(params))
            payload = _v2_payload(payload, params, count)
        layer = EncodedLayer(fmt, self.rows, self.cols, float(self.delta), payload, self.bias,
                             self.make_norm())
        if self.version != 1 or code is None:
            self._check_bits(layer.payload_bit_length())
        return layer

    def float32_fields(self):
        """The bias and normalizer of a float32 record, after every check
        `layer` makes of it but the one of its payload's values."""
        fmt, norm = LayerFormat("float32"), self.make_norm()
        _, bias = _checked_fields(fmt, self.rows, self.cols, float(self.delta), self.bias, norm,
                                  self.payload_size)
        self._check_bits(payload_bits(fmt, self.rows, self.cols))
        return bias, norm

    def _check_bits(self, expected: int):
        if self.payload_bits != expected:
            raise ValidationError(
                f"payload bit length {self.payload_bits} inconsistent with format "
                f"(expected {expected})"
            )


def _parse(r: _Reader):
    """``(records, metadata)`` of the model file ``r`` reads: the header pass.

    Reads every layer header, bias and normalizer, and the metadata, and
    checks them and that each layer takes as many inputs as the one before
    it emits; each payload's size is checked against the file, and the
    payload is skipped.
    """
    if r.take(len(MAGIC)) != MAGIC:
        raise ValidationError("not a model file: bad magic")
    version, layer_count = r.unpack("<HH")
    if version not in _READ_VERSIONS:
        raise ValidationError(f"unsupported format version {version}")
    records = []
    for _ in range(layer_count):
        ftag, otag, rows, cols, n, k, delta = r.unpack("<BBIIBBf")
        if ftag >= len(FORMAT_KINDS):
            raise ValidationError(f"unknown format tag {ftag}")
        kind = FORMAT_KINDS[ftag]
        if kind == "sst":
            if otag >= len(ORIENTATIONS):
                raise ValidationError(f"unknown orientation tag {otag}")
        elif (otag, n, k) != (0, 0, 0):
            raise ValidationError(f"{kind} layer header needs orientation, n and k all 0, "
                                  f"got {otag}, {n}, {k}")
        (bias_count,) = r.unpack("<I")
        bias = r.f32_array(bias_count) if bias_count else None
        (payload_bits,) = r.unpack("<Q")
        payload_at = r.skip((payload_bits + 7) // 8)
        (ntag,) = r.unpack("<B")
        if ntag == 0:
            make_norm = lambda: None
        elif ntag == 1:
            (eps,) = r.unpack("<f")
            gamma, beta, mean, var = (r.f32_array(rows) for _ in range(4))
            make_norm = partial(BatchNormParams, gamma, beta, mean, var, float(eps))
        elif ntag == 2:
            make_norm = WeightNormTag
        else:
            raise ValidationError(f"unknown normalizer tag {ntag}")
        records.append(_Record(version, kind, otag, rows, cols, n, k, delta, bias, payload_bits,
                               payload_at, make_norm))
    (meta_len,) = r.unpack("<I")
    block = r.take(meta_len)
    metadata = _parse_metadata(block)
    if r.remaining:
        raise ValidationError(f"{r.remaining} trailing bytes after model")
    if not isinstance(metadata, dict):
        raise ValidationError(f"metadata must be a JSON object, got {type(metadata).__name__}")
    if block != _metadata_block(metadata):
        raise ValidationError("metadata block is not in the canonical JSON form that "
                              "serialize_model writes, so it would not round-trip its bytes")
    _check_chain(records, _layer_names(metadata, len(records)))
    return records, metadata


def deserialize_model(data) -> ModelFile:
    """Parse a model file from its bytes, or from a binary file open at its start.

    The header pass (`_parse`) reads every layer record before any payload
    is read or any layer built, so a `ValidationError` raised while building
    one can name the layer (`_layer_names`).  Read from a file, each payload
    is read once, straight into its own bytes.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = io.BytesIO(data)
    r = _Reader(data)
    records, metadata = _parse(r)
    names = _layer_names(metadata, len(records))
    layers = []
    for index, record in enumerate(records):
        with _naming_layer(index, names):
            layers.append(record.layer(r.read_at(record.payload_at, record.payload_size)))
    return ModelFile(layers=layers, metadata=metadata)


def _parse_metadata(block: bytes):
    try:
        return json.loads(block.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"metadata block is not UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise ValidationError(f"metadata block does not parse as JSON: {exc}") from exc


@contextmanager
def _naming_layer(index: int, names=None):
    """Prefix a `ValidationError` raised inside with the layer's index and name."""
    try:
        yield
    except ValidationError as exc:
        raise _named_error(exc, index, names) from exc


def _named_error(exc: ValidationError, index: int, names=None) -> ValidationError:
    """``exc`` with `_layer_label` in front."""
    return ValidationError(f"{_layer_label(index, names)}: {exc}")


def _layer_label(index: int, names=None) -> str:
    """A layer's index and, where ``names`` (`_layer_names`) gives one, its name."""
    name = names[index] if names else None
    return f"layer {index} ({name})" if name else f"layer {index}"


def _check_chain(layers, names):
    """Raise `_chain_error` at the first of ``layers`` (with rows and cols)
    that takes other than as many inputs as the one before it emits."""
    for index in range(1, len(layers)):
        if layers[index].cols != layers[index - 1].rows:
            raise _chain_error(index, names, layers[index].cols, layers[index - 1].rows)


def _chain_error(index: int, names, expects: int, width: int) -> ValidationError:
    """The error for layer ``index`` > 0, which takes ``expects`` inputs,
    after a layer that emits ``width`` outputs."""
    return ValidationError(f"{_layer_label(index, names)} expects {expects} inputs, "
                           f"{_layer_label(index - 1, names)} emits {width}")


def write_model(model: ModelFile, path):
    """Serialize to ``path`` atomically (temp file + rename).

    The parts are written one after another, never joined in memory.
    """
    _write_atomically(_serialized_parts(model), path)


def write_decompressed(model: ModelFile, path):
    """Write the float32 model `sstc decompress` makes of ``model`` to ``path``.

    Its bytes are those of `write_model` of ``model`` with every layer
    replaced by `encode_layer` of its `decode_layer` in the float32 format,
    with the same bias and normalizer and a zero delta.  The weights are
    written as `_float32_blocks` makes them, and a failure midway, named by
    its layer, leaves any existing ``path`` untouched.
    """
    _write_atomically(_serialized_parts(model, decoded=True), path)


def _write_atomically(parts, path):
    """Write ``parts`` one after another to a temp file renamed to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".sstw.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_model(path) -> ModelFile:
    with open(path, "rb") as fh:
        return deserialize_model(fh)


def compress_model(source, formats: dict, default: LayerFormat) -> ModelFile:
    """The model `sstc compress` makes of ``source``, a `ModelFile` or the
    path of a model file.

    Layer i, named by the i-th of `ModelFile.layer_names`, becomes
    `compress_layer` of its `stored_weights` in the format ``formats[name]``,
    or ``default`` for a name ``formats`` lacks, with its bias and
    normalizer; the metadata gains those names.  A name of ``formats`` that
    no layer has is an error, raised before any layer is read.  Read from a
    path, the file's header pass (`deserialize_model`'s) comes first, then
    each layer is read, with every check of `read_model`, and compressed in
    turn.  A float32 layer going to sst or ternary2bit is never read whole:
    the prune reads it from the file, in blocks of whole groups, into one
    reused buffer (`_PayloadReader`).  A `ValidationError` of reading or
    compressing a layer names it as `read_model` does.
    """
    if isinstance(source, ModelFile):
        return _compress_layers(source, formats, default, lambda layer, fmt: layer)
    with open(source, "rb") as fh:
        r = _Reader(fh)
        records, metadata = _parse(r)

        def load(record, fmt):
            if record.kind == "float32" and _code_of(fmt) is not None:
                return _PayloadReader(fh, record, *record.float32_fields())
            return record.layer(r.read_at(record.payload_at, record.payload_size))

        return _compress_layers(ModelFile(records, metadata), formats, default, load)


def _compress_layers(model: ModelFile, formats: dict, default: LayerFormat, load) -> ModelFile:
    """`compress_model` of ``model``, whose layers may be the header pass's
    `_Record`s: ``load(layer, fmt)`` gives an `EncodedLayer`, or a
    `_PayloadReader` of a float32 one."""
    names, shown = _layer_names(model.metadata, len(model.layers)), model.layer_names()
    missing = [name for name in formats if name not in shown]
    if missing:
        raise ValidationError(f"no layer named {', '.join(missing)} in the model; its layers "
                              f"are {', '.join(shown)}")
    layers = []
    for index, (name, source) in enumerate(zip(shown, model.layers)):
        fmt = formats.get(name, default)
        with _naming_layer(index, names):
            layer = load(source, fmt)
            W = layer if isinstance(layer, _PayloadReader) else stored_weights(layer)
            layers.append(compress_layer(W, fmt, layer.bias, layer.normalizer))
    return ModelFile(layers=layers, metadata={**model.metadata, "layer_names": shown})


class _PayloadReader:
    """A float32 layer of an open model file, read block by block: the
    reader `prune._largest_per_subvector` takes in place of a matrix."""

    dtype = np.dtype("<f4")

    def __init__(self, fh, record: _Record, bias, normalizer):
        self.fh, self.record, self.bias, self.normalizer = fh, record, bias, normalizer
        self.shape = (record.rows, record.cols)

    def blocks(self, size: int):
        """The layer's C-ordered weights in consecutive pieces of ``size``.

        Each piece is read with `readinto` into one reused buffer, unchecked:
        the prune checks each block finite and hands one that is not to
        `reject`.  A file that shrank since its header pass raises
        "truncated model file".
        """
        rows, cols = self.shape
        total = rows * cols
        buffer = np.empty(min(size, total), dtype=self.dtype)
        self.fh.seek(self.record.payload_at)
        for start in range(0, total, size):
            piece = buffer[:min(size, total - start)]
            if self.fh.readinto(piece) != piece.nbytes:
                raise ValidationError("truncated model file")
            yield piece

    def reject(self, piece: np.ndarray, start: int):
        """Raise on the first non-finite weight of ``piece``, the layer's
        weights from its ``start``-th on, as `EncodedLayer` does for a float32
        payload: with the message `read_model` gives."""
        _check_finite(piece, self.shape[1], start)


def model_from_arrays(weights_and_biases, names=None, normalizers=None) -> ModelFile:
    """Build a float32 model from raw (W, b) matrix pairs (the import path),
    with one name, a string, and one normalizer per layer where given."""
    count = len(weights_and_biases)
    for label, given in (("names", names), ("normalizers", normalizers)):
        if given is not None and len(given) != count:
            raise ValidationError(f"{len(given)} {label} given for {count} layers")
    for index, name in enumerate(names or ()):
        if not isinstance(name, str):
            raise ValidationError(f"layer name {name!r} at position {index} is not a string")
    metadata = {"layer_names": list(names)} if names else {}
    names = _layer_names(metadata, count)
    layers = []
    for index, ((W, b), norm) in enumerate(zip(weights_and_biases,
                                               normalizers or [None] * count)):
        with _naming_layer(index, names):
            layers.append(encode_layer(W, None, LayerFormat("float32"), bias=b, normalizer=norm))
    return ModelFile(layers=layers, metadata=metadata)


# --- storage accounting --------------------------------------------------

@dataclass
class LayerStorage:
    name: str
    format: str
    rows: int
    cols: int
    weight_count: int
    payload_bits: int
    bias_bits: int
    normalizer_bits: int
    table_bits: float


@dataclass
class StorageReport:
    layers: list
    table_bits: int
    compressed_bits: int
    float_bits: int
    ratio: float
    include_tables: bool
    include_bias: bool
    include_normalizers: bool

    @staticmethod
    def _mib(bits):
        return bits / 8 / 2**20

    @staticmethod
    def _mb(bits):
        return bits / 8 / 1e6

    def to_records(self):
        recs = []
        for lay in self.layers:
            recs.append({
                "layer": lay.name, "format": lay.format,
                "rows": lay.rows, "cols": lay.cols, "weights": lay.weight_count,
                "payload_bits": lay.payload_bits, "bias_bits": lay.bias_bits,
                "normalizer_bits": lay.normalizer_bits, "table_bits": lay.table_bits,
                "payload_bits_per_weight": lay.payload_bits / lay.weight_count,
            })
        recs.append({
            "total_compressed_bits": self.compressed_bits,
            "total_float_bits": self.float_bits,
            "table_bits": self.table_bits,
            "compressed_mib": self._mib(self.compressed_bits),
            "compressed_mb": self._mb(self.compressed_bits),
            "float_mib": self._mib(self.float_bits),
            "float_mb": self._mb(self.float_bits),
            "compression_ratio": self.ratio,
            "include_tables": self.include_tables,
            "include_bias": self.include_bias,
            "include_normalizers": self.include_normalizers,
        })
        return recs

    def to_text(self):
        lines = [
            f"{'layer':<12} {'format':<16} {'shape':<14} {'payload bits':>14} "
            f"{'bits/weight':>12} {'bias bits':>10} {'norm bits':>10}"
        ]
        for lay in self.layers:
            lines.append(
                f"{lay.name:<12} {lay.format:<16} {f'{lay.rows}x{lay.cols}':<14} "
                f"{lay.payload_bits:>14} {lay.payload_bits / lay.weight_count:>12.4f} "
                f"{lay.bias_bits:>10} {lay.normalizer_bits:>10}"
            )
        lines.append(f"code tables: {self.table_bits} bits ({self.table_bits / 8 / 1000:.3f} KB)"
                     f"{'' if self.include_tables else ' [excluded from totals]'}")
        lines.append(
            f"compressed: {self.compressed_bits} bits = {self._mib(self.compressed_bits):.3f} MiB "
            f"({self._mb(self.compressed_bits):.3f} MB decimal)"
        )
        lines.append(
            f"float32 baseline: {self.float_bits} bits = {self._mib(self.float_bits):.3f} MiB "
            f"({self._mb(self.float_bits):.3f} MB decimal)"
        )
        lines.append(f"compression ratio: x{self.ratio:.2f}")
        return "\n".join(lines)


def storage_report(model: ModelFile, include_tables: bool = True,
                   include_bias: bool = True, include_normalizers: bool = True) -> StorageReport:
    """Bit-accurate storage accounting against an all-float32 baseline.

    Each distinct sst code contributes its table once; the per-layer
    ``table_bits`` column shows that cost split evenly across the layers
    sharing the code.
    """
    distinct = {}
    for layer in model.layers:
        if layer.format.kind == "sst":
            distinct.setdefault(layer.format.params, []).append(layer)
    table_total = sum(table_storage_bits(p) for p in distinct)
    shares = {p: table_storage_bits(p) / len(ls) for p, ls in distinct.items()}

    rows = []
    compressed = 0
    baseline = 0
    names = model.layer_names()
    for name, layer in zip(names, model.layers):
        payload_bits = layer.payload_bit_length()
        bias_bits = 32 * (layer.bias.size if layer.bias is not None else 0)
        norm_bits = 32 * (layer.normalizer.parameter_count if layer.normalizer is not None else 0)
        share = shares.get(layer.format.params, 0.0) if layer.format.kind == "sst" else 0.0
        rows.append(LayerStorage(
            name=name, format=str(layer.format), rows=layer.rows, cols=layer.cols,
            weight_count=layer.weight_count, payload_bits=payload_bits,
            bias_bits=bias_bits, normalizer_bits=norm_bits, table_bits=share,
        ))
        compressed += payload_bits
        baseline += 32 * layer.weight_count
        if include_bias:
            compressed += bias_bits
            baseline += bias_bits
        if include_normalizers:
            compressed += norm_bits
            baseline += norm_bits
    if include_tables:
        compressed += table_total
    ratio = baseline / compressed if compressed else float("inf")
    return StorageReport(
        layers=rows, table_bits=table_total, compressed_bits=compressed,
        float_bits=baseline, ratio=ratio, include_tables=include_tables,
        include_bias=include_bias, include_normalizers=include_normalizers,
    )
