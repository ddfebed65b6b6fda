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
weight must be finite.  Code tables are not serialized; the canonical
enumeration is deterministic, so they are rebuilt from (n, k) at load and
the storage report accounts for them analytically.

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

import json
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bitpack
from .codes import (ORIENTATIONS, CodeParams, address_bits, count_entries, from_subvectors,
                    rank_subvectors, subvectors, table_storage_bits, unrank_subvectors)
from .errors import ValidationError

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


@dataclass
class EncodedLayer:
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
            self.bias = np.ascontiguousarray(self.bias, dtype=np.float32)
            if self.bias.shape != (self.rows,):
                raise ValidationError(
                    f"bias length {self.bias.shape} does not match the {self.rows} rows"
                )
        self.payload = bytes(self.payload)
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
    """Dense weight matrix of an encoded layer.

    sst entries are unranked through the code's half tables
    (`codes.unrank_subvectors`), so decoding needs no materialized code
    table.
    """
    kind = layer.format.kind
    if kind == "float32":
        flat = np.frombuffer(layer.payload, dtype="<f4", count=layer.weight_count)
        return flat.astype(np.float64).reshape(layer.rows, layer.cols)
    if kind == "fixed8":
        levels = np.frombuffer(layer.payload, dtype="<i1", count=layer.weight_count)
        return levels.astype(np.float64).reshape(layer.rows, layer.cols) * np.float64(layer.delta)
    if kind == "ternary2bit":
        codes = bitpack.unpack_indices(layer.payload, 2, layer.weight_count)
        if np.any(codes == 3):
            raise ValidationError("corrupt ternary payload: trit code 3")
        trits = np.where(codes == 2, -1, codes).astype(np.float64).reshape(layer.rows, layer.cols)
        return trits * np.float64(layer.delta)
    params = layer.format.params
    groups = unrank_subvectors(layer_indices(layer), params)
    trits = from_subvectors(groups, layer.rows, layer.cols, params, layer.format.orientation)
    return trits.astype(np.float64) * np.float64(layer.delta)


# --- wire format ---------------------------------------------------------

def _write_f32_array(parts: list, arr: np.ndarray):
    parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def serialize_model(model: ModelFile) -> bytes:
    parts = [MAGIC, struct.pack("<HH", FORMAT_VERSION, len(model.layers))]
    for layer in model.layers:
        fmt = layer.format
        n, k = (fmt.params.n, fmt.params.k) if fmt.params else (0, 0)
        parts.append(struct.pack(
            "<BBIIBBf",
            _FORMAT_TAGS[fmt.kind],
            ORIENTATIONS.index(fmt.orientation),
            layer.rows, layer.cols, n, k,
            np.float32(layer.delta or 0.0),
        ))
        bias = layer.bias if layer.bias is not None else np.zeros(0, dtype=np.float32)
        parts.append(struct.pack("<I", bias.size))
        _write_f32_array(parts, bias)
        parts.append(struct.pack("<Q", layer.payload_bit_length()))
        parts.append(layer.payload)
        norm = layer.normalizer
        if norm is None:
            parts.append(struct.pack("<B", 0))
        elif isinstance(norm, BatchNormParams):
            parts.append(struct.pack("<Bf", 1, np.float32(norm.eps)))
            for arr in (norm.gamma, norm.beta, norm.mean, norm.var):
                if arr.size != layer.rows:
                    raise ValidationError("batch norm parameter length must equal the row count")
                _write_f32_array(parts, arr)
        elif isinstance(norm, WeightNormTag):
            parts.append(struct.pack("<B", 2))
        else:
            raise ValidationError(f"unknown normalizer {type(norm).__name__}")
    meta = json.dumps(model.metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts.append(struct.pack("<I", len(meta)))
    parts.append(meta)
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise ValidationError("truncated model file")
        out = self.data[self.pos:self.pos + size]
        self.pos += size
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4").copy()


def deserialize_model(data: bytes) -> ModelFile:
    """Parse a model file.

    Every layer record is read before any layer is built, so a
    `ValidationError` raised while building one can name the layer: its
    index and, where the metadata has one, its name.
    """
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
    metadata = json.loads(r.take(meta_len).decode("utf-8")) if meta_len else {}
    if r.pos != len(data):
        raise ValidationError(f"{len(data) - r.pos} trailing bytes after model")
    if not isinstance(metadata, dict):
        raise ValidationError(f"metadata must be a JSON object, got {type(metadata).__name__}")
    names = metadata.get("layer_names")
    names = names if isinstance(names, list) and len(names) == layer_count else None
    layers = []
    for index, build in enumerate(records):
        with _naming_layer(index, names):
            layers.append(build())
    return ModelFile(layers=layers, metadata=metadata)


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
        name = names[index] if names and index < len(names) else None
        label = f"layer {index} ({name})" if name else f"layer {index}"
        raise ValidationError(f"{label}: {exc}") from exc


def write_model(model: ModelFile, path):
    """Serialize to ``path`` atomically (temp file + rename)."""
    data = serialize_model(model)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".sstw.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_model(path) -> ModelFile:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())


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
