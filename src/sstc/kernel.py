"""Multiplication-free inference over structured sparse ternary layers.

A compressed fully-connected layer is evaluated directly from its index
stream: each index is looked up in the code table, and every non-zero
(position, sign) pair of the decoded sub-vector either adds or subtracts
the corresponding input value into an output accumulator.  Weight values
multiply nothing; the per-layer step size scales each accumulator once at
the end, after which the bias and any folded normalizer affine are applied.

Processing-element view: group p owns output rows [p*n, (p+1)*n) and spends
at most k add/subtract operations per decoded sub-vector.  Groups have
disjoint output ranges, so they are trivially parallel; columns are walked
sequentially within a group.
"""

from dataclasses import dataclass

import numpy as np

from .codes import CodeTable, build_table
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

    @property
    def budget_ok(self) -> bool:
        return self.max_ops_per_subvector <= self.op_budget


class CompressedFCLayer:
    """An sst-format layer bound to its code table, ready for inference.

    The index stream is unpacked once and pre-analyzed into flat
    (output row, input column) scatter lists for the add and subtract
    lanes.
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
        self.encoded = layer
        self.table = table
        self.rows = layer.rows
        self.cols = layer.cols
        self.delta = np.float64(np.float32(layer.delta))
        self.bias = (layer.bias.astype(np.float64)
                     if layer.bias is not None else np.zeros(layer.rows))
        self.indices = layer_indices(layer)
        n = table.params.n
        k = table.params.k
        groups = self.rows // n
        # payload order is column-outer: stream position s covers
        # column s // groups, output rows [ (s % groups)*n, +n )
        stream = np.arange(self.indices.size, dtype=np.int64)
        col_of = stream // groups
        base_row = (stream % groups) * n
        counts = table.nz_count[self.indices].astype(np.int64)
        if k:
            slot_valid = np.arange(k)[np.newaxis, :] < counts[:, np.newaxis]
            pos = table.nz_pos[self.indices].astype(np.int64)
            sign = table.nz_sign[self.indices]
            out_rows = (base_row[:, np.newaxis] + pos)[slot_valid]
            in_cols = np.broadcast_to(col_of[:, np.newaxis], slot_valid.shape)[slot_valid]
            signs = sign[slot_valid]
        else:
            out_rows = np.zeros(0, dtype=np.int64)
            in_cols = np.zeros(0, dtype=np.int64)
            signs = np.zeros(0, dtype=np.int8)
        plus = signs > 0
        self.plus_rows = out_rows[plus]
        self.plus_cols = in_cols[plus]
        self.minus_rows = out_rows[~plus]
        self.minus_cols = in_cols[~plus]
        self.nz_per_subvector = counts

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """Raw accumulator values: sums of +-x before any scaling.

        Integer inputs accumulate exactly in int64; everything else in
        float64.
        """
        x = np.asarray(x)
        if x.shape != (self.cols,):
            raise ValidationError(f"input length {x.shape} != column count {self.cols}")
        if np.issubdtype(x.dtype, np.integer):
            x = x.astype(np.int64)
            acc = np.zeros(self.rows, dtype=np.int64)
        else:
            x = x.astype(np.float64)
            acc = np.zeros(self.rows, dtype=np.float64)
        np.add.at(acc, self.plus_rows, x[self.plus_cols])
        np.subtract.at(acc, self.minus_rows, x[self.minus_cols])
        return acc

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """delta * accumulate(x) + bias."""
        return self.delta * self.accumulate(x) + self.bias

    def matmul(self, X: np.ndarray) -> np.ndarray:
        """Batched matvec over the rows of X, shape (batch, cols) -> (batch, rows)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.cols:
            raise ValidationError(f"batch shape {X.shape} incompatible with {self.cols} columns")
        out = np.zeros((X.shape[0], self.rows))
        for start in range(0, X.shape[0], _BATCH_CHUNK):
            chunk = X[start:start + _BATCH_CHUNK].T  # (cols, b)
            acc = np.zeros((self.rows, chunk.shape[1]))
            np.add.at(acc, self.plus_rows, chunk[self.plus_cols])
            np.subtract.at(acc, self.minus_rows, chunk[self.minus_cols])
            out[start:start + _BATCH_CHUNK] = acc.T
        return self.delta * out + self.bias

    def trace(self) -> PETrace:
        counts = self.nz_per_subvector
        lookups = int(counts.size)
        addsub = int(counts.sum())
        n = self.table.params.n
        return PETrace(
            table_lookups=lookups,
            addsub_ops=addsub,
            skipped_zeros=lookups * n - addsub,
            delta_multiplies=self.rows,
            max_ops_per_subvector=int(counts.max()) if lookups else 0,
            op_budget=self.table.params.k,
        )


def compressed_matvec(layer: CompressedFCLayer, x) -> np.ndarray:
    """Output vector of a compressed layer for input ``x`` (bias included)."""
    return layer.matvec(x)


def pe_trace(layer: CompressedFCLayer) -> PETrace:
    """Operation statistics for running ``layer``; input-independent.

    Raises if any decoded sub-vector would exceed the k add/subtract
    budget, which cannot happen with an intact table and index stream.
    """
    trace = layer.trace()
    if not trace.budget_ok:
        raise ValidationError(
            f"sub-vector issues {trace.max_ops_per_subvector} ops, over budget k={trace.op_budget}"
        )
    return trace


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


def compressed_forward(model: ModelFile, X, tables: dict = None) -> np.ndarray:
    """Full-network class probabilities from a serialized model.

    sst layers in column orientation run on the compressed kernel; other
    formats are decoded to dense weights.  Hidden layers apply relu after
    any normalizer affine; the final layer emits softmax probabilities.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not model.layers:
        raise ValidationError("model has no layers")
    tables = tables if tables is not None else {}
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
            out = out @ W.T + bias
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
