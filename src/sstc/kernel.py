"""Inference over structured sparse ternary layers.

A compressed fully-connected layer is served from its index stream, which
is decoded once, when the layer is built: each index is looked up in the
code table and the resulting trits form a dense float64 transposed matrix.
Every request then runs through BLAS, one vector-matrix product per input
row, so a row gives the same bits alone or inside any batch.  The
per-layer step size scales each output once, after which the bias and any
folded normalizer affine are applied.

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
from functools import cached_property

import numpy as np

from .codes import CodeTable, build_table, from_subvectors, subvectors
from .errors import ValidationError
from .store import BatchNormParams, EncodedLayer, ModelFile, decode_layer, layer_indices

_BATCH_CHUNK = 256


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
    """An sst-format layer bound to its code table, ready for inference.

    The index stream is unpacked and decoded once, at build time, into
    ``weights_t``: the layer's trits as a float64 (cols, rows) matrix that
    serves `matmul`.  The add/subtract lanes of the audit path and the
    per-sub-vector non-zero counts are derived from it on first use.
    """

    def __init__(self, layer: EncodedLayer, table: CodeTable):
        if layer.format.kind != "sst":
            raise ValidationError("compressed kernels require an sst layer")
        if layer.format.orientation != "column":
            raise ValidationError("the compressed kernel runs column-oriented layers")
        if table.params != layer.format.params:
            raise ValidationError(
                f"table is for code {table.params}, layer uses {layer.format.params}"
            )
        self.params = table.params
        self.rows = layer.rows
        self.cols = layer.cols
        self.delta = np.float64(np.float32(layer.delta))
        self.bias = (layer.bias.astype(np.float64)
                     if layer.bias is not None else np.zeros(layer.rows))
        self.indices = layer_indices(layer)
        trits = from_subvectors(table.trits[self.indices], self.rows, self.cols, self.params, "column")
        # a C-ordered (cols, rows) matrix: the column payload lists each
        # column's trits in turn
        self.weights_t = trits.T.astype(np.float64)

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


def compressed_forward(model: ModelFile, X) -> np.ndarray:
    """Full-network class probabilities from a serialized model.

    sst layers in column orientation run on the compressed kernel; other
    formats are decoded to dense weights.  Every layer multiplies row by
    row (`_row_products`), so a sample's probabilities do not depend on the
    batch it arrives in.  Hidden layers apply relu after
    any normalizer affine; the final layer emits softmax probabilities.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not model.layers:
        raise ValidationError("model has no layers")
    tables = {}
    out = X
    for pos, layer in enumerate(model.layers):
        if layer.cols != out.shape[1]:
            raise ValidationError(
                f"layer {pos} expects {layer.cols} inputs, previous layer emits {out.shape[1]}"
            )
        if layer.format.kind == "sst" and layer.format.orientation == "column":
            params = layer.format.params
            if params not in tables:
                tables[params] = build_table(params)
            out = CompressedFCLayer(layer, tables[params]).matmul(out)
        else:
            W = decode_layer(layer)
            bias = layer.bias.astype(np.float64) if layer.bias is not None else 0.0
            out = _row_products(out, W.T) + bias
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
