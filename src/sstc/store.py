"""Model container: layer codecs, bit-exact serialization, storage reports.

A model file holds layers in network order, each in one of four weight
formats:

    float32      raw IEEE-754 weights, row-major
    fixed8       signed 8-bit quantization levels plus a step size
    ternary2bit  two bits per weight (00 zero, 01 plus, 10 minus) plus a step
    sst          structured sparse ternary: per-sub-vector table indices,
                 bit-packed at the code's address width, plus a step size

An sst payload lists the layer's sub-vectors in the payload order of its
orientation, as `sstc.codes.subvectors` cuts them (the `sstc.codes` module
docstring describes the layout).  Biases and normalizer parameters are
always stored as float32 and are never pruned or quantized; a float32
weight must be finite.  Code tables are not serialized: the canonical
enumeration is deterministic, so the decoder builds its lookup tables from
(n, k) alone, and the storage report accounts for the tables analytically.

Wire format (all integers little-endian, payload bits MSB-first):

    magic "SSTW" padded to 8 bytes | version u16 | layer count u16
    per layer:
        format u8 | orientation u8 | rows u32 | cols u32 | n u8 | k u8
          (orientation: the position in codes.ORIENTATIONS for sst, 0 column
          or 1 row; orientation, n and k are 0, 0, 0 for other formats)
        delta f32 | bias count u32 | bias f32[] | payload bits u64 | payload
        normalizer tag u8 (0 none, 1 batch norm, 2 weight norm)
        batch norm only: eps f32 | gamma f32[rows] | beta f32[rows]
                         | mean f32[rows] | var f32[rows]
    metadata byte length u32 | UTF-8 JSON
"""

import io
import json
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bitpack
from .codes import (ORIENTATIONS, CodeParams, address_bits, count_entries, from_payload_order,
                    rank_grouped, rank_subvectors, subvectors, table_storage_bits,
                    to_payload_order, unrank_grouped)
# unrank_subvectors: unused, but perfbench/tracing.py wraps it here
from .codes import unrank_subvectors
from .errors import ValidationError
from .prune import _largest_per_subvector
from .quantize import find_step_size, quantize_weight

MAGIC = b"SSTW\x00\x00\x00\x00"
FORMAT_VERSION = 1

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


@dataclass
class BatchNormParams:
    """Eval-time batch normalization state, stored float32."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "mean", "var"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float32))
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"batch norm {name} holds a non-finite value")
        if not np.isfinite(self.eps):
            raise ValidationError(f"batch norm eps must be finite, got {self.eps}")
        # the eval fold divides by sqrt(var + eps) of the stored float32
        # values; that sum is positive exactly when var > -eps
        low = self.var <= -np.float32(self.eps)
        if low.any():
            pos = int(np.argmax(low))
            raise ValidationError(f"batch norm var + eps must be positive, got var "
                                  f"{float(self.var[pos])} at row {pos} with eps {self.eps}")

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
    build a changed layer with `dataclasses.replace`, which re-runs them."""

    format: LayerFormat
    rows: int
    cols: int
    delta: float
    payload: bytes
    bias: np.ndarray = None
    normalizer: object = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("layer dimensions must be positive")
        if self.format.kind != "float32" and not (
                self.delta is not None and np.isfinite(self.delta) and self.delta > 0):
            raise ValidationError(f"format {self.format.kind} needs a finite positive "
                                  f"step size, got {self.delta}")
        if self.format.kind == "sst":
            n = self.format.params.n
            grouped = self.rows if self.format.orientation == "column" else self.cols
            if grouped % n:
                raise ValidationError(
                    f"{self.format.orientation} orientation needs the grouped dimension "
                    f"divisible by n={n}, got {self.rows}x{self.cols}"
                )
        if self.bias is not None:
            object.__setattr__(self, "bias", np.ascontiguousarray(self.bias, dtype=np.float32))
            if self.bias.shape != (self.rows,):
                raise ValidationError(
                    f"bias length {self.bias.shape} does not match the {self.rows} rows"
                )
        object.__setattr__(self, "payload", bytes(self.payload))
        expected = self.payload_bit_length()
        if len(self.payload) != (expected + 7) // 8:
            raise ValidationError(
                f"payload is {len(self.payload)} bytes, expected {(expected + 7) // 8} "
                f"for {expected} bits"
            )
        if self.format.kind == "float32":
            weights = np.frombuffer(self.payload, dtype="<f4")
            finite = np.isfinite(weights)
            if not finite.all():
                pos = int(np.argmin(finite))
                raise ValidationError(f"float32 weight {weights[pos]} at row {pos // self.cols}, "
                                      f"column {pos % self.cols} is not finite")

    @property
    def weight_count(self):
        return self.rows * self.cols

    def num_indices(self):
        if self.format.kind != "sst":
            raise ValidationError("only sst layers carry index streams")
        return self.weight_count // self.format.params.n

    def payload_bit_length(self) -> int:
        kind = self.format.kind
        if kind == "float32":
            return 32 * self.weight_count
        if kind == "fixed8":
            return 8 * self.weight_count
        if kind == "ternary2bit":
            return 2 * self.weight_count
        return self.num_indices() * address_bits(self.format.params)

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
            and np.float32(self.delta or 0.0) == np.float32(other.delta or 0.0)
            and self.payload == other.payload
            and bias_eq
            and self.normalizer == other.normalizer
        )


@dataclass
class ModelFile:
    layers: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def layer_names(self):
        names = self.metadata.get("layer_names")
        if names and len(names) == len(self.layers):
            return list(names)
        return [f"layer{i}" for i in range(len(self.layers))]


def ternary_trits(W_q: np.ndarray, delta: float) -> np.ndarray:
    """Recover the {-1, 0, +1} pattern of a step-scaled ternary matrix."""
    if delta <= 0:
        raise ValidationError(f"step size must be positive, got {delta}")
    scaled = np.asarray(W_q, dtype=np.float64) / delta
    trits = np.rint(scaled).astype(np.int8)
    if not np.array_equal(trits * np.float64(delta), np.asarray(W_q, dtype=np.float64)):
        raise ValidationError("matrix entries are not multiples of the step size in {-1,0,+1}")
    if np.any((trits < -1) | (trits > 1)):
        raise ValidationError("matrix entries exceed +-delta; not a ternary layer")
    return trits


def encode_layer(W_q, delta, fmt: LayerFormat, bias=None, normalizer=None,
                 layer_name: str = None) -> EncodedLayer:
    """Encode a quantized weight matrix into the given storage format.

    For sst, every sub-vector must satisfy the non-zero budget; a violation
    is reported with its position since it signals a pruning-pipeline bug
    upstream.
    """
    W_q = np.asarray(W_q, dtype=np.float64)
    if W_q.ndim != 2:
        raise ValidationError("expected a 2-D weight matrix")
    rows, cols = W_q.shape
    label = layer_name or "layer"
    kind = fmt.kind
    if kind == "float32":
        payload = np.ascontiguousarray(W_q, dtype="<f4").tobytes()
        return EncodedLayer(fmt, rows, cols, 0.0, payload, bias, normalizer)
    if delta is None or delta <= 0:
        raise ValidationError(f"{label}: format {kind} requires a positive step size")
    if kind == "fixed8":
        levels = np.rint(W_q / delta).astype(np.int64)
        if np.any(np.abs(levels) > 127) or not np.array_equal(levels * np.float64(delta), W_q):
            raise ValidationError(f"{label}: entries are not 8-bit multiples of the step size")
        payload = levels.astype("<i1").tobytes()
        return EncodedLayer(fmt, rows, cols, delta, payload, bias, normalizer)
    trits = ternary_trits(W_q, delta)
    if kind == "ternary2bit":
        codes = np.where(trits == -1, 2, trits).astype(np.int64).ravel()
        payload = bitpack.pack_indices(codes, 2)
        return EncodedLayer(fmt, rows, cols, delta, payload, bias, normalizer)
    # sst
    params = fmt.params
    groups = subvectors(trits, params, fmt.orientation)
    nnz = np.count_nonzero(groups, axis=1)
    if np.any(nnz > params.k):
        pos = int(np.argmax(nnz > params.k))
        raise ValidationError(
            f"{label}: sub-vector {pos} has {int(nnz[pos])} non-zeros, over the "
            f"k={params.k} budget; the pruning pipeline produced an invalid layer"
        )
    indices = rank_subvectors(groups, params)
    payload = bitpack.pack_indices(indices, address_bits(params))
    return EncodedLayer(fmt, rows, cols, delta, payload, bias, normalizer)


def compress_layer(W, fmt: LayerFormat, bias=None, normalizer=None,
                   name: str = None) -> EncodedLayer:
    """Prune, quantize and encode a float weight matrix into ``fmt``.

    Writes the bytes of the step-by-step pipeline: for sst `structured_prune`
    and ``W * mask``, then `find_step_size`, delta rounded to float32 as
    files store it, `quantize_weight` and `encode_layer`.  An sst layer is
    worked on W's grouped view (`codes.grouped_view`), with no payload-order
    copy of W: `prune._largest_per_subvector` finds the kept positions
    along each sub-vector, the step size is fitted on the kept values alone,
    widened to float64, and each index is ranked straight from its kept
    (position, digit) pairs (`codes.rank_grouped`).  Only the grid of
    indices is put in payload order.  There is no mask, no masked copy and
    no re-check of the trits.  A float32 ``W`` is pruned in float32, which
    keeps the kept positions and ties of its float64 widening and so its
    bytes.  The ternary step-size fit is the exact sweep, which does not
    depend on the order of its input.  ``name`` labels the errors of
    `encode_layer`.
    """
    kind = fmt.kind
    if kind == "float32":
        return encode_layer(W, None, fmt, bias, normalizer, name)
    if kind != "sst":
        levels = 255 if kind == "fixed8" else 3
        delta = float(np.float32(find_step_size(W, levels)))
        return encode_layer(quantize_weight(W, delta, levels), delta, fmt, bias, normalizer,
                            name)
    W = np.asarray(W)
    params = fmt.params
    view, kept = _largest_per_subvector(W, params, fmt.orientation)
    values = np.take_along_axis(view, kept.transpose(1, 0, 2), axis=1)  # (B, k, C)
    mags = np.abs(values, dtype=np.float64)
    delta = float(np.float32(find_step_size(mags)))
    # a kept weight is a trit where quantize_weight's level
    # floor(|w| / delta + 0.5) is at least 1; its base-3 digit is 1 for +1, 2 for -1
    level = mags / delta
    level += 0.5
    np.floor(level, out=level)
    digits = np.where(values > 0, 1, 2).astype(np.uint8)
    digits[level < 1] = 0
    ranks = rank_grouped(kept, digits.transpose(1, 0, 2), params)
    payload = bitpack.pack_indices(to_payload_order(ranks), address_bits(params))
    return EncodedLayer(fmt, *W.shape, delta, payload, bias, normalizer)


def layer_indices(layer: EncodedLayer) -> np.ndarray:
    """Unpacked sub-vector indices of an sst layer, in payload order.

    The one check that every index is below the entry count T: the address
    width also admits the values T .. 2^I - 1.
    """
    params = layer.format.params
    idx = bitpack.unpack_indices(layer.payload, address_bits(params), layer.num_indices())
    t_total = count_entries(params)
    bad = idx >= t_total
    if np.any(bad):
        pos = int(np.argmax(bad))
        raise ValidationError(
            f"corrupt index {int(idx[pos])} at stream position {pos} "
            f"(code {params} has {t_total} entries)"
        )
    return idx


def decode_layer(layer: EncodedLayer) -> np.ndarray:
    """Dense float64 weight matrix of an encoded layer, C-ordered.

    sst indices are put on the (B, C) grid of the layer's grouped view
    (`codes.from_payload_order`) and unranked straight into that view
    (`codes.unrank_grouped`): one gather from the code's cached T-entry
    table, or the half-table search for a code above
    `codes.ENTRY_TABLE_LIMIT` entries.  Decoding makes no transposed copy.
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


def decompress_layer(layer: EncodedLayer) -> EncodedLayer:
    """The float32 layer `sstc decompress` writes for ``layer``.

    Its bytes are those of `encode_layer` of `decode_layer` in the float32
    format, with the same bias and normalizer and a zero delta, but the
    weights are decoded straight to float32, with no float64 matrix: every
    decoded weight is the float32 delta a file stores times an integer
    level, which float32 rounds as it rounds the float64 product.  A
    float32 layer keeps its payload.
    """
    if layer.format.kind == "float32":
        payload = layer.payload
    else:
        payload = _decoded(layer, np.float32).astype("<f4", copy=False).tobytes()
    return EncodedLayer(LayerFormat("float32"), layer.rows, layer.cols, 0.0, payload,
                        layer.bias, layer.normalizer)


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
        return levels.astype(dtype).reshape(rows, cols) * scale
    if kind == "ternary2bit":
        codes = bitpack.unpack_indices(layer.payload, 2, layer.weight_count)
        if np.any(codes == 3):
            raise ValidationError("corrupt ternary payload: trit code 3")
        return np.where(codes == 2, -1, codes).astype(dtype).reshape(rows, cols) * scale
    params = layer.format.params
    grid = from_payload_order(layer_indices(layer), rows, cols, params,
                              layer.format.orientation)
    return unrank_grouped(grid, params, scale).reshape(rows, cols)


# --- wire format ---------------------------------------------------------

def _f32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def serialize_model(model: ModelFile) -> bytes:
    return b"".join(_serialized_parts(model))


def _serialized_parts(model: ModelFile):
    """The bytes of a model file, part by part, in file order."""
    yield MAGIC
    yield struct.pack("<HH", FORMAT_VERSION, len(model.layers))
    for layer in model.layers:
        fmt = layer.format
        n, k = (fmt.params.n, fmt.params.k) if fmt.params else (0, 0)
        yield struct.pack(
            "<BBIIBBf",
            _FORMAT_TAGS[fmt.kind],
            ORIENTATIONS.index(fmt.orientation),
            layer.rows, layer.cols, n, k,
            np.float32(layer.delta or 0.0),
        )
        bias = layer.bias if layer.bias is not None else np.zeros(0, dtype=np.float32)
        yield struct.pack("<I", bias.size)
        yield _f32_bytes(bias)
        yield struct.pack("<Q", layer.payload_bit_length())
        yield layer.payload
        norm = layer.normalizer
        if norm is None:
            yield struct.pack("<B", 0)
        elif isinstance(norm, BatchNormParams):
            yield struct.pack("<Bf", 1, np.float32(norm.eps))
            for arr in (norm.gamma, norm.beta, norm.mean, norm.var):
                if arr.size != layer.rows:
                    raise ValidationError("batch norm parameter length must equal the row count")
                yield _f32_bytes(arr)
        elif isinstance(norm, WeightNormTag):
            yield struct.pack("<B", 2)
        else:
            raise ValidationError(f"unknown normalizer {type(norm).__name__}")
    meta = json.dumps(model.metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    yield struct.pack("<I", len(meta))
    yield meta


class _Reader:
    """Reads a model file's parts from a binary file, each part once."""

    def __init__(self, fh):
        self.fh = fh
        start = fh.tell()
        self.remaining = fh.seek(0, os.SEEK_END) - start
        fh.seek(start)

    def take(self, size: int) -> bytes:
        # checked before reading, so a corrupt size allocates nothing
        if size > self.remaining:
            raise ValidationError("truncated model file")
        self.remaining -= size
        part = self.fh.read(size)
        if len(part) != size:  # the file shrank while being read
            raise ValidationError("truncated model file")
        return part

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4").copy()


def deserialize_model(data) -> ModelFile:
    """Parse a model file from its bytes, or from a binary file open at its start.

    Every layer record is read before any layer is built, so a
    `ValidationError` raised while building one can name the layer: its
    index and, where the metadata has one, its name.  Read from a file,
    each payload is read once, straight into its own bytes.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = io.BytesIO(data)
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise ValidationError("not a model file: bad magic")
    version, layer_count = r.unpack("<HH")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {version}")
    records = []  # per layer, a call that builds it
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
        payload = r.take((payload_bits + 7) // 8)
        (ntag,) = r.unpack("<B")
        # the normalizer is built with its layer, by calling make_norm()
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
        records.append(partial(_layer_from_record, kind, otag, rows, cols, n, k, delta, bias,
                               payload_bits, payload, make_norm))
    (meta_len,) = r.unpack("<I")
    metadata = _parse_metadata(r.take(meta_len)) if meta_len else {}
    if r.remaining:
        raise ValidationError(f"{r.remaining} trailing bytes after model")
    if not isinstance(metadata, dict):
        raise ValidationError(f"metadata must be a JSON object, got {type(metadata).__name__}")
    names = metadata.get("layer_names")
    names = names if isinstance(names, list) and len(names) == layer_count else None
    layers = []
    for index, build in enumerate(records):
        with _naming_layer(index, names):
            layers.append(build())
    return ModelFile(layers=layers, metadata=metadata)


def _parse_metadata(block: bytes):
    try:
        return json.loads(block.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"metadata block is not UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise ValidationError(f"metadata block does not parse as JSON: {exc}") from exc


def _layer_from_record(kind, otag, rows, cols, n, k, delta, bias, payload_bits, payload,
                       make_norm) -> EncodedLayer:
    fmt = (LayerFormat(kind, CodeParams(n, k), ORIENTATIONS[otag]) if kind == "sst"
           else LayerFormat(kind))
    layer = EncodedLayer(fmt, rows, cols, float(delta), payload, bias, make_norm())
    if layer.payload_bit_length() != payload_bits:
        raise ValidationError(
            f"payload bit length {payload_bits} inconsistent with format "
            f"(expected {layer.payload_bit_length()})"
        )
    return layer


@contextmanager
def _naming_layer(index: int, names=None):
    """Prefix a `ValidationError` raised inside with the layer's index and name."""
    try:
        yield
    except ValidationError as exc:
        raise _named_error(exc, index, names) from exc


def _named_error(exc: ValidationError, index: int, names=None) -> ValidationError:
    """``exc`` with the layer's index and, where ``names`` has one, its name in front."""
    name = names[index] if names and index < len(names) else None
    label = f"layer {index} ({name})" if name else f"layer {index}"
    return ValidationError(f"{label}: {exc}")


def write_model(model: ModelFile, path):
    """Serialize to ``path`` atomically (temp file + rename).

    The parts are written one after another, never joined in memory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".sstw.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in _serialized_parts(model):
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_model(path) -> ModelFile:
    with open(path, "rb") as fh:
        return deserialize_model(fh)


def model_from_arrays(weights_and_biases, names=None, normalizers=None,
                      metadata=None) -> ModelFile:
    """Build a float32 model from raw (W, b) matrix pairs (the import path)."""
    layers = []
    normalizers = normalizers or [None] * len(weights_and_biases)
    for index, ((W, b), norm) in enumerate(zip(weights_and_biases, normalizers)):
        with _naming_layer(index, names):
            W = np.asarray(W, dtype=np.float64)
            layers.append(encode_layer(W, None, LayerFormat("float32"), bias=b, normalizer=norm))
    meta = dict(metadata or {})
    if names:
        meta["layer_names"] = list(names)
    return ModelFile(layers=layers, metadata=meta)


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
