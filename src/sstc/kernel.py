"""Inference over structured sparse ternary layers.

A compressed fully-connected layer, column or row oriented, is served from
its index stream, which is decoded once into an operand: its indices are
unpacked and unranked (one lookup in the code's cached entry table, for
codes of up to `codes.ENTRY_TABLE_LIMIT` entries), and the trits form a
dense float64 transposed matrix.  Other formats decode to their float64
weights the same way.  Operands are read-only and start on a cache line (8 B
per weight, plus one 64-byte cache line per row for an sst operand larger
than `_L2_BYTES`).

Serving keeps one cache, `_served_layers`: at most `_OPERAND_CACHE_SIZE`
loaded layers, keyed by layer identity and evicted least recently used
first (`_served_layer`).  An entry holds what a request needs of its layer:
the operand, an sst layer's `CompressedFCLayer`, another layer's float64
bias, and the batch norm folded to its float64 (scale, shift); so at most
`_OPERAND_CACHE_SIZE` operands are resident.  Identity keys are sound
because a layer is frozen and owns its payload and read-only copies of its
bias and batch-norm arrays, so it cannot change after its checks, and each
entry holds its layer, so no other object can take its id while the entry
lives.  A new entry, like a kernel built on its own, shares the operand of
an entry whose layer has equal content (the same rows, cols, delta, payload
and format; `_operand`) and decodes only when none has, so a re-read model
decodes nothing, and a layer whose payload, delta or format is replaced is
decoded anew, never served stale.  A warm request runs the input checks,
the products and the elementwise steps only.  Every request runs through
BLAS, one vector-matrix product per input row, so a row gives the same bits
alone or inside any batch at a given BLAS thread count.  The products run in
one of two loop orders (`_row_products`):

* row-outer, each row over the whole operand: single rows, batches of
  fewer than `_TILE_MIN_ROWS` rows, operands other than an sst operand
  larger than `_L2_BYTES`, and widths that are not a multiple of `_TILE`;
* tile-outer, for a batch of `_TILE_MIN_ROWS` or more rows on a larger
  sst operand: each block of `_TILE` output columns serves every row of
  the batch while it sits in one core's L2, so the operand streams from
  L3 once per batch instead of once per row (the GEMM cache blocking of
  Goto & van de Geijn, ACM TOMS 2008).  Each output is still one BLAS
  product over the same inputs, but BLAS splits a tile's outputs among
  its threads at other places than the whole width's, which at some
  thread counts sums a few outputs in another order; so a shape runs
  tile-outer only once a probe has shown the two orders give the same
  bits (`_tiles_keep_bits`).

Such an operand's row stride is one cache line longer than its row
(`_cache_line_aligned`), or the rows of a tile would share a few L2 sets.
The per-layer step size scales each sst output once, after which the bias
and any folded normalizer affine are applied.

The paper's multiplication-free datapath is kept as the audit path:
`CompressedFCLayer.accumulate` adds or subtracts the input value of every
non-zero (position, sign) pair of the decoded trits into an output
accumulator, exactly in int64 for integer inputs, and `pe_trace` counts its
operations.  Processing-element view: each decoded sub-vector costs one
table lookup and at most k add/subtract operations, and each output one
delta multiply.  PEs own disjoint outputs, so they run in parallel: in a
column layer PE p owns output rows [p*n, (p+1)*n) and walks the columns;
in a row layer PE i owns output row i and walks its cols / n sub-vectors.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codes import CodeTable, from_subvectors, subvectors, unrank_subvectors
# build_table: unused, but perfbench/tracing.py wraps it here
from .codes import build_table
from .errors import ValidationError
from .store import (BatchNormParams, EncodedLayer, ModelFile, _chain_error, _layer_label,
                    _layer_names, _named_error, decode_layer, layer_indices)

_BATCH_CHUNK = 256

# The loop-order constants, from medians of interleaved calls on a 2-CPU Xeon
# (2 MiB of L2 per core, 2 OpenBLAS threads) with (8,1)-sparse trit operands,
# in ms per batch of B rows:
#
#   operand    stride  order       B=1    B=2    B=8    B=16   B=256
#   784x1024   padded  row-outer   0.129  0.249  1.029  2.131  33.8
#              padded  tile-outer  0.336  0.431  0.944  1.539  21.4
#              plain   tile-outer  0.362  0.668  2.575  5.330  78.7
#   1024x1024  padded  row-outer   0.172  0.321  1.378  2.714  41.5
#              padded  tile-outer  0.461  0.594  1.337  2.261  30.0
#   784x256    plain   row-outer   0.030  0.052  0.169  0.337  5.41
#              padded  row-outer   0.058  0.085  0.212  0.374  5.50
#              padded  tile-outer  0.038  0.059  0.174  0.326  5.05
#
# Tiles lose at 1 and 2 rows and win from 16 rows on both wide operands; at 8
# rows they won here by 3-8% and lost by up to 3% in another run.  Padding
# 784x256 doubles a single row's time, which the wide operands do not show,
# and its tiles gain less than runs spread (another run read 4.75 ms by row,
# 5.08 ms tiled at 256 rows), so an operand of at most one L2 stays plain and
# row-outer.
# One core's L2: an sst operand larger than this gets padded rows and tiles.
_L2_BYTES = 2 << 20
# Outputs per tile: a tile of a 1024-row operand is 512 KiB.
_TILE = 64
# Fewest rows a batch runs tile-outer.
_TILE_MIN_ROWS = 16

# most served layers (`_served_layer`), each with its operand, kept at once;
# a model has a handful of layers, and each operand holds 8 B per weight of
# its layer
_OPERAND_CACHE_SIZE = 16


@dataclass
class PETrace:
    """Operation counts for one compressed matrix-vector product."""

    table_lookups: int
    addsub_ops: int
    skipped_zeros: int
    delta_multiplies: int
    max_ops_per_subvector: int
    op_budget: int


class CompressedFCLayer:
    """An sst layer, of either orientation, ready for inference.

    ``weights_t`` is the layer's trits as a read-only float64 (cols, rows)
    matrix that serves `matmul`: the operand of a served layer of equal
    content (`_operand`), so building a kernel for a layer served before
    costs microseconds, or else decoded for this kernel.  The kernel keeps
    the frozen ``layer`` it was built from.  The unpacked ``indices``, the
    add/subtract lanes of the audit path and the per-sub-vector non-zero
    counts are derived on first use.  ``table`` is unused, but perfbench
    passes one here; if given, it must be for the layer's code.
    """

    def __init__(self, layer: EncodedLayer, table: CodeTable = None):
        if layer.format.kind != "sst":
            raise ValidationError("compressed kernels require an sst layer")
        if table is not None and table.params != layer.format.params:
            raise ValidationError(
                f"table is for code {table.params}, layer uses {layer.format.params}"
            )
        self.params = layer.format.params
        self.rows = layer.rows
        self.cols = layer.cols
        self.delta = np.float64(layer.delta)
        self.bias = (layer.bias.astype(np.float64)
                     if layer.bias is not None else np.zeros(layer.rows))
        self.weights_t = _operand(layer)
        self.layer = layer

    @cached_property
    def indices(self) -> np.ndarray:
        """Unpacked sub-vector indices of the layer, in payload order."""
        return layer_indices(self.layer)

    @cached_property
    def nz_per_subvector(self) -> np.ndarray:
        """Non-zero count of each decoded sub-vector, in payload order."""
        return np.count_nonzero(subvectors(self.weights_t.T, self.params,
                                           self.layer.format.orientation), axis=1)

    @cached_property
    def _lanes(self):
        """Flat (output row, input column) scatter lists of the add and
        subtract lanes: (plus_rows, plus_cols, minus_rows, minus_cols),
        ordered by (column, row), the order of ``weights_t``."""
        cols, rows = np.nonzero(self.weights_t)
        plus = self.weights_t[cols, rows] > 0
        return rows[plus], cols[plus], rows[~plus], cols[~plus]

    plus_rows = property(lambda self: self._lanes[0])
    plus_cols = property(lambda self: self._lanes[1])
    minus_rows = property(lambda self: self._lanes[2])
    minus_cols = property(lambda self: self._lanes[3])

    def _input(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[-1] != self.cols:
            raise ValidationError(f"input shape {x.shape} incompatible with {self.cols} columns")
        return x

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """Raw accumulator values: sums of +-x before any scaling.

        The add/subtract audit path.  ``x`` is one input (cols,) or a batch
        (batch, cols), which runs in chunks of `_BATCH_CHUNK` rows; the
        result is (rows,) or (batch, rows).  Integer inputs accumulate
        exactly in int64; everything else in float64.
        """
        x = self._input(x)
        x = x.astype(np.int64 if np.issubdtype(x.dtype, np.integer) else np.float64, copy=False)
        if x.ndim == 1:
            return self._scatter(x)
        acc = np.empty((x.shape[0], self.rows), dtype=x.dtype)
        for start in range(0, x.shape[0], _BATCH_CHUNK):
            acc[start:start + _BATCH_CHUNK] = self._scatter(x[start:start + _BATCH_CHUNK].T).T
        return acc

    def _scatter(self, xt: np.ndarray) -> np.ndarray:
        """Add and subtract the inputs of ``xt``, (cols,) or (cols, b), into
        per-row accumulators, (rows,) or (rows, b)."""
        acc = np.zeros((self.rows,) + xt.shape[1:], dtype=xt.dtype)
        np.add.at(acc, self.plus_rows, xt[self.plus_cols])
        np.subtract.at(acc, self.minus_rows, xt[self.minus_cols])
        return acc

    def matmul(self, X: np.ndarray) -> np.ndarray:
        """delta * (X @ weights_t) + bias for one input, (cols,) -> (rows,),
        or over the rows of a batch, (batch, cols) -> (batch, rows)."""
        X = self._input(X).astype(np.float64, copy=False)
        out = _row_products(X if X.ndim == 2 else X[np.newaxis], self.weights_t)
        out *= self.delta
        out += self.bias
        return out if X.ndim == 2 else out[0]


def _operand(layer: EncodedLayer) -> np.ndarray:
    """The read-only float64 (cols, rows) matrix that serves ``layer``: the
    operand of a served layer of equal content (the same rows, cols, delta,
    format and payload, all that `_decoded_operand` reads), or else
    ``layer`` decoded anew."""
    content = (layer.rows, layer.cols, layer.delta, layer.format)
    with _served_lock:
        for served in _served_layers.values():
            other = served.layer
            if ((other.rows, other.cols, other.delta, other.format) == content
                    and other.payload == layer.payload):
                return served.operand
    return _decoded_operand(layer)


def _decoded_operand(layer: EncodedLayer) -> np.ndarray:
    """Decode ``layer`` to its operand; a corrupt payload raises.

    An sst layer gives its transposed trits, which `CompressedFCLayer`
    scales by delta per call, with padded rows when larger than
    `_L2_BYTES`; every other layer gives its decoded weights, transposed as
    a view.  A column layer's transposed trits are its C-ordered payload
    sub-vectors, copied once into the operand.
    """
    fmt = layer.format
    if fmt.kind == "sst":
        trits = from_subvectors(unrank_subvectors(layer_indices(layer), fmt.params),
                                layer.rows, layer.cols, fmt.params, fmt.orientation)
        operand = _cache_line_aligned(trits.T, padded=trits.size * 8 > _L2_BYTES)
    else:
        operand = _cache_line_aligned(decode_layer(layer)).T
    operand.setflags(write=False)
    return operand


def _cache_line_aligned(a: np.ndarray, padded: bool = False) -> np.ndarray:
    """A row-major float64 copy of the matrix ``a`` that starts on a 64-byte
    boundary, with its row stride one 64-byte line longer than a row if
    ``padded``.

    Large allocations start 16 bytes past a page boundary, and BLAS runs a
    batch slower on such an operand: 1024 rows against a 784x96 matrix took
    12.5-13.4 ms at offsets 16, 32 and 48 and 6.9-7.4 ms at offset 0 (2-CPU
    Xeon, OpenBLAS), with the same bits at every offset.  The padded stride
    serves `_row_products`' tile-outer order: with 8 KiB rows, as of a
    1024-wide operand, the rows of a (rows, `_TILE`) tile fall in 1/16 of
    the L2 sets and evict each other.  256 rows against a 784x1024 or a
    1024x1024 operand took 79 and 110 ms tile by tile at the plain stride
    and 21 and 30 ms at the padded one; row by row the two strides ran
    within 4% of each other (`_L2_BYTES` has the table).
    """
    rows, cols = a.shape
    stride = cols + 8 if padded else cols  # in float64s
    buf = np.empty(rows * stride * 8 + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + rows * stride * 8].view(np.float64).reshape(rows, stride)[:, :cols]
    out[...] = a
    return out


def _row_products(X: np.ndarray, W_t: np.ndarray) -> np.ndarray:
    """X @ W_t as one BLAS vector-matrix product per row of X, so each
    row's bits are those of a single-row call, whatever the batch size.
    A single 2-D product would be faster but blocks its sums by batch.

    A batch of at least `_TILE_MIN_ROWS` rows on an operand with padded
    rows (a large sst operand, `_decoded_operand`), whose width is a
    multiple of `_TILE`, runs tile-outer (`_tile_products`) where that is
    shown to give the same bits (`_tiles_keep_bits`).
    """
    cols, width = W_t.shape
    if (len(X) >= _TILE_MIN_ROWS and W_t.strides[0] > W_t.itemsize * width
            and width % _TILE == 0 and _tiles_keep_bits(cols, width)):
        return _tile_products(X, W_t)
    return np.matmul(X[:, np.newaxis, :], W_t)[:, 0]


def _tile_products(X: np.ndarray, W_t: np.ndarray) -> np.ndarray:
    """X @ W_t tile-outer: every row's vector-matrix product with one
    (cols, `_TILE`) block of W_t, then the next block."""
    rows = X[:, np.newaxis, :]
    width = W_t.shape[1]
    out = np.empty((len(X), 1, width), dtype=np.result_type(X, W_t))
    for start in range(0, width, _TILE):
        np.matmul(rows, W_t[:, start:start + _TILE], out=out[:, :, start:start + _TILE])
    return out[:, 0]


@lru_cache(maxsize=None)
def _tiles_keep_bits(cols: int, width: int) -> bool:
    """Whether `_tile_products` gives the bits of one product per row over
    the whole width on a padded (cols, width) operand, at the BLAS thread
    count of the first call.

    BLAS splits a product's outputs into one chunk per thread and sums the
    last outputs of a chunk in another order when the chunk is not a
    multiple of its kernel's block.  The whole width and a tile are split
    at the same places only at some thread counts: with OpenBLAS at 1, 2,
    4 or 8 threads every output of a 784x1024 or 1024x1024 product kept
    its bits tile by tile, while at 3 threads outputs 340, 341, 682 and
    1023 (the ends of 342/341/341-output chunks) changed, at 5 threads
    four and at 6 or 7 sixteen.  Which outputs change is a matter of the
    shape and the split, not of the values, so one product of random rows
    with a random operand of the served layout settles it for a shape.
    """
    rng = np.random.default_rng(0)
    W_t = _cache_line_aligned(rng.random((cols, width)) - 0.5, padded=True)
    X = rng.random((4, cols)) - 0.5
    return np.array_equal(_tile_products(X, W_t), np.matmul(X[:, np.newaxis, :], W_t)[:, 0])


def pe_trace(layer: CompressedFCLayer) -> PETrace:
    """Operation statistics for running ``layer`` on the add/subtract
    path; input-independent."""
    counts = layer.nz_per_subvector
    lookups = int(counts.size)
    addsub = int(counts.sum())
    params = layer.params
    return PETrace(
        table_lookups=lookups,
        addsub_ops=addsub,
        skipped_zeros=lookups * params.n - addsub,
        delta_multiplies=layer.rows,
        max_ops_per_subvector=int(counts.max()) if lookups else 0,
        op_budget=params.k,
    )


def dense_matvec(W, x) -> np.ndarray:
    """Plain dense product, the equivalence oracle for the compressed path."""
    W = np.asarray(W)
    x = np.asarray(x)
    if W.ndim != 2 or x.ndim != 1 or W.shape[1] != x.shape[0]:
        raise ValidationError(f"shape mismatch: {W.shape} @ {x.shape}")
    return W @ x


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def bn_eval_affine(gamma, beta, mean, var, eps):
    """Fold eval-phase batch norm into a per-output float64 (scale, shift) pair.

    Pass a stored model's float32 values to reproduce that model exactly.
    """
    gamma, beta, mean, var, eps = (np.asarray(a, dtype=np.float64)
                                   for a in (gamma, beta, mean, var, eps))
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    return scale, shift


class _ServedLayer:
    """What a request needs of one loaded layer, built once (`_served_layer`):
    its ``operand`` (`_operand`), an sst layer's `CompressedFCLayer` over it
    as ``kernel`` or another layer's float64 ``bias``, and the batch norm
    folded to its (scale, shift) as ``affine``, or None."""

    def __init__(self, layer: EncodedLayer):
        self.layer = layer  # keeps the id that keys this entry taken
        if layer.format.kind == "sst":
            self.kernel = CompressedFCLayer(layer)
            self.operand = self.kernel.weights_t
        else:
            self.kernel = None
            self.bias = layer.bias.astype(np.float64) if layer.bias is not None else 0.0
            self.operand = _operand(layer)
        norm = layer.normalizer
        self.affine = (bn_eval_affine(norm.gamma, norm.beta, norm.mean, norm.var,
                                      np.float32(norm.eps))
                       if isinstance(norm, BatchNormParams) else None)

    def product(self, X: np.ndarray) -> np.ndarray:
        if self.kernel is not None:
            return self.kernel.matmul(X)
        out = _row_products(X, self.operand)
        out += self.bias
        return out


# id(layer) -> _ServedLayer, least recently used first
_served_layers = OrderedDict()
_served_lock = threading.Lock()


def _served_layer(layer: EncodedLayer) -> _ServedLayer:
    """The serving state of ``layer``, from the one serving cache, of at
    most `_OPERAND_CACHE_SIZE` layers keyed by identity.

    A layer is frozen and owns read-only copies of its arrays, so its
    content cannot change after it is checked; each entry holds its layer,
    so no other object can take the id while the entry lives.  A failure
    raises and is not cached.
    """
    key = id(layer)
    with _served_lock:
        served = _served_layers.get(key)
        if served is not None:
            _served_layers.move_to_end(key)
            return served
    served = _ServedLayer(layer)
    with _served_lock:
        _served_layers[key] = served
        while len(_served_layers) > _OPERAND_CACHE_SIZE:
            _served_layers.popitem(last=False)
    return served


def served_product(layer: EncodedLayer, X: np.ndarray) -> np.ndarray:
    """The product plus bias that serving computes for ``layer`` on a
    float64 (batch, cols) batch, before any normalizer.

    An sst layer, of either orientation, runs through `CompressedFCLayer`:
    delta * (X @ trits.T) + bias.  Every other layer multiplies by its
    decoded weights: X @ weights.T + bias.  Both use one product per row
    (`_row_products`) and the layer's cached serving state, its operand
    included (`_served_layer`).
    """
    return _served_layer(layer).product(X)


def compressed_forward(model: ModelFile, X) -> np.ndarray:
    """Full-network class probabilities from a serialized model.

    Every layer computes its `served_product`, one product per row, so a
    sample's probabilities do not depend on the batch it arrives in.  Each
    layer's operand, kernel, bias and batch-norm fold are built on its
    first call and cached (`_served_layer`).  The layer-chain check runs on
    every call, as an in-memory model may have changed since it was read,
    and a `ValidationError` raised while serving a layer names the layer.  Hidden layers apply relu after any normalizer affine; the final
    layer emits softmax probabilities.  ``X`` is one sample (cols,) or a
    batch (batch, cols) of finite real values; anything else raises
    `ValidationError` before any layer runs.
    """
    try:
        X = np.asarray(X)
        kind = X.dtype.kind
        text = kind in "USV" or kind == "O" and any(isinstance(v, (str, bytes)) for v in X.flat)
        if not (text or kind == "c"):
            X = X.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:  # ragged rows, or values that are not numbers
        raise ValidationError(f"input is not an array of numbers: {exc}") from None
    if text:  # the cast would parse text and bytes as numbers
        raise ValidationError(f"input is not an array of numbers: it holds text, bytes or "
                              f"records ({X.dtype})")
    if kind == "c":  # casting would drop the imaginary parts
        raise ValidationError(f"input is {X.dtype}: expected real numbers")
    if X.ndim not in (1, 2):
        raise ValidationError(f"input shape {X.shape}: expected one sample or a batch of samples")
    X = np.atleast_2d(X)
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValidationError(f"input value {X[row, col]} at sample {row}, "
                              f"feature {col} is not finite")
    if not model.layers:
        raise ValidationError("model has no layers")
    last = len(model.layers) - 1
    out = X
    for pos, layer in enumerate(model.layers):
        if layer.cols != out.shape[1]:
            raise _width_error(model, pos, out.shape[1])
        # a try costs a request nothing until it raises, unlike store._naming_layer
        try:
            served = _served_layer(layer)
            out = served.product(out)
        except ValidationError as exc:
            raise _named_error(exc, pos, _layer_names(model.metadata, len(model.layers))) from exc
        # the products are new arrays, so the elementwise steps run in place
        if served.affine is not None:
            scale, shift = served.affine
            out *= scale
            out += shift
        if pos < last:
            np.maximum(out, 0.0, out=out)
        else:
            out = softmax(out)
    return out


def _width_error(model: ModelFile, pos: int, width: int) -> ValidationError:
    """The error for layer ``pos`` of ``model`` fed ``width`` values per row."""
    names = _layer_names(model.metadata, len(model.layers))
    expects = model.layers[pos].cols
    if pos == 0:
        return ValidationError(f"input has {width} features, {_layer_label(0, names)} "
                               f"expects {expects}")
    return _chain_error(pos, names, expects, width)
