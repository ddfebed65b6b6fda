"""Inference over structured sparse ternary layers.

A compressed fully-connected layer is served from its index stream, which
is decoded once per distinct layer content and reused across calls: its
indices are unpacked and unranked (one lookup in the code's cached entry
table, for codes of up to `codes.ENTRY_TABLE_LIMIT` entries), and the
trits form a dense float64 transposed matrix.  Other formats decode to
their float64 weights the same way.  The decoded operands are read-only,
start on a cache line and live in a content-keyed cache of at most
`_OPERAND_CACHE_SIZE` layers (8 B per weight each), so a request on a
layer served before does no decoding.  Every request runs through BLAS,
one vector-matrix product per input row, so a row gives the same bits
alone or inside any batch.  The per-layer step size scales each sst output
once, after which the bias and any folded normalizer affine are applied.

The paper's multiplication-free datapath is kept as the audit path:
`CompressedFCLayer.accumulate` adds or subtracts the input value of every
non-zero (position, sign) pair of the decoded trits into an output
accumulator, exactly in int64 for integer inputs, and `pe_trace` counts its
operations.  Processing-element view: group p owns output rows
[p*n, (p+1)*n) and spends at most k add/subtract operations per decoded
sub-vector.  Groups have disjoint output ranges, so they are trivially
parallel; columns are walked sequentially within a group.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codes import CodeTable, subvectors, unrank_subvectors
# build_table: unused, but perfbench/tracing.py wraps it here
from .codes import build_table
from .errors import ValidationError
from .store import (BatchNormParams, EncodedLayer, ModelFile, _named_error, decode_layer,
                    layer_indices)

_BATCH_CHUNK = 256

# decoded operands kept at once; a model has a handful of layers, and each
# entry holds 8 B per weight of its layer
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
    """A column-oriented sst layer ready for inference.

    ``weights_t`` is the layer's trits as a read-only float64 (cols, rows)
    matrix that serves `matmul`.  It comes from the operand cache, so
    building a kernel for a layer decoded before costs microseconds.  The
    unpacked ``indices``, the add/subtract lanes of the audit path and the
    per-sub-vector non-zero counts are derived on first use.  ``table`` is
    unused, but perfbench passes one here; if given, it must be for the
    layer's code.
    """

    def __init__(self, layer: EncodedLayer, table: CodeTable = None):
        if layer.format.kind != "sst":
            raise ValidationError("compressed kernels require an sst layer")
        if layer.format.orientation != "column":
            raise ValidationError("the compressed kernel runs column-oriented layers")
        if table is not None and table.params != layer.format.params:
            raise ValidationError(
                f"table is for code {table.params}, layer uses {layer.format.params}"
            )
        self.params = layer.format.params
        self.rows = layer.rows
        self.cols = layer.cols
        self.delta = np.float64(np.float32(layer.delta))
        self.bias = (layer.bias.astype(np.float64)
                     if layer.bias is not None else np.zeros(layer.rows))
        self.weights_t = _served_operand(layer)
        self._format = layer.format
        self._payload = bytes(layer.payload)

    @cached_property
    def indices(self) -> np.ndarray:
        """Unpacked sub-vector indices of the payload the kernel was built
        from, in payload order."""
        return layer_indices(EncodedLayer(self._format, self.rows, self.cols, self.delta,
                                          self._payload))

    @cached_property
    def nz_per_subvector(self) -> np.ndarray:
        """Non-zero count of each decoded sub-vector, in payload order."""
        return np.count_nonzero(subvectors(self.weights_t.T, self.params, "column"), axis=1)

    @cached_property
    def _lanes(self):
        """Flat (output row, input column) scatter lists of the add and
        subtract lanes: (plus_rows, plus_cols, minus_rows, minus_cols),
        ordered by (column, row) like the payload."""
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
        out = self.delta * _row_products(np.atleast_2d(X), self.weights_t) + self.bias
        return out if X.ndim == 2 else out[0]


def _is_column_sst(fmt) -> bool:
    return fmt.kind == "sst" and fmt.orientation == "column"


def _served_operand(layer: EncodedLayer) -> np.ndarray:
    """The read-only float64 (cols, rows) matrix that serves ``layer``.

    Looked up by the layer's content, so a layer whose payload, delta or
    format is replaced is decoded anew, never served stale.
    """
    return _decoded_operand(layer.format, layer.rows, layer.cols,
                            np.float32(layer.delta or 0.0), bytes(layer.payload))


@lru_cache(maxsize=_OPERAND_CACHE_SIZE)
def _decoded_operand(fmt, rows, cols, delta, payload) -> np.ndarray:
    """Decode one layer content; failures raise and are not cached.

    A column sst layer gives its trits, which `CompressedFCLayer` scales
    by delta per call; every other layer gives its decoded weights,
    transposed as a view.  Delta is the float32 value a file stores.
    """
    layer = EncodedLayer(fmt, rows, cols, float(delta), payload)
    if _is_column_sst(fmt):
        # the column payload lists each column's trits in turn, so its
        # sub-vectors are a C-ordered (cols, rows) matrix
        trits = unrank_subvectors(layer_indices(layer), fmt.params).reshape(cols, rows)
        operand = _cache_line_aligned(trits)
    else:
        operand = _cache_line_aligned(decode_layer(layer)).T
    operand.setflags(write=False)
    return operand


def _cache_line_aligned(a: np.ndarray) -> np.ndarray:
    """A C-ordered float64 copy of ``a`` that starts on a 64-byte boundary.

    Large allocations start 16 bytes past a page boundary, and BLAS runs a
    batch slower on such an operand: 1024 rows against a 784x96 matrix took
    12.5-13.4 ms at offsets 16, 32 and 48 and 6.9-7.4 ms at offset 0 (2-CPU
    Xeon, OpenBLAS), with the same bits at every offset.
    """
    buf = np.empty(a.size * 8 + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + a.size * 8].view(np.float64).reshape(a.shape)
    out[...] = a
    return out


def _row_products(X: np.ndarray, W_t: np.ndarray) -> np.ndarray:
    """X @ W_t as one BLAS vector-matrix product per row of X, so each
    row's bits are those of a single-row call, whatever the batch size.
    A single 2-D product would be faster but blocks its sums by batch."""
    return np.matmul(X[:, np.newaxis, :], W_t)[:, 0]


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


def served_product(layer: EncodedLayer, X: np.ndarray) -> np.ndarray:
    """The product plus bias that serving computes for ``layer`` on a
    float64 (batch, cols) batch, before any normalizer.

    Column sst layers run through `CompressedFCLayer`, which scales by
    delta; every other layer multiplies by its decoded weights.  Both use
    the cached operand (`_served_operand`) row by row (`_row_products`).
    """
    if _is_column_sst(layer.format):
        return CompressedFCLayer(layer).matmul(X)
    bias = layer.bias.astype(np.float64) if layer.bias is not None else 0.0
    return _row_products(X, _served_operand(layer)) + bias


def compressed_forward(model: ModelFile, X) -> np.ndarray:
    """Full-network class probabilities from a serialized model.

    Every layer computes its `served_product`, one row at a time, so a
    sample's probabilities do not depend on the batch it arrives in.  The
    batch-norm fold and the layer-chain check run on every call.  A
    `ValidationError` raised while serving a layer names the layer.
    Hidden layers apply relu after any normalizer affine; the final layer
    emits softmax probabilities.  ``X`` is one sample (cols,) or a batch
    (batch, cols) of finite values; anything else raises `ValidationError`
    before any layer runs.
    """
    try:
        X = np.asarray(X, dtype=np.float64)
    except ValueError as exc:  # ragged rows, or values that are not numbers
        raise ValidationError(f"input is not an array of numbers: {exc}") from None
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
    out = X
    for pos, layer in enumerate(model.layers):
        if layer.cols != out.shape[1]:
            raise ValidationError(
                f"layer {pos} expects {layer.cols} inputs, previous layer emits {out.shape[1]}"
            )
        # a try costs a request nothing until it raises, unlike store._naming_layer
        try:
            out = served_product(layer, out)
        except ValidationError as exc:
            raise _named_error(exc, pos, model.layer_names()) from exc
        norm = layer.normalizer
        if isinstance(norm, BatchNormParams):
            scale, shift = bn_eval_affine(norm.gamma, norm.beta, norm.mean, norm.var,
                                          np.float32(norm.eps))
            out = out * scale + shift
        if pos < len(model.layers) - 1:
            out = np.maximum(out, 0.0)
        else:
            out = softmax(out)
    return out
