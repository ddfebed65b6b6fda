"""Dataset ingestion: IDX-format digit files and a synthetic generator."""

import gzip
import os
import struct

import numpy as np

from .errors import ValidationError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_idx(path) -> np.ndarray:
    """Read a big-endian IDX file of unsigned bytes (images or labels)."""
    with _open_maybe_gzip(path) as fh:
        (magic,) = struct.unpack(">I", fh.read(4))
        if magic == IDX_IMAGES_MAGIC:
            count, rows, cols = struct.unpack(">III", fh.read(12))
            data = fh.read(count * rows * cols)
            if len(data) != count * rows * cols:
                raise ValidationError(f"{path}: truncated image data")
            return np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)
        if magic == IDX_LABELS_MAGIC:
            (count,) = struct.unpack(">I", fh.read(4))
            data = fh.read(count)
            if len(data) != count:
                raise ValidationError(f"{path}: truncated label data")
            return np.frombuffer(data, dtype=np.uint8)
    raise ValidationError(f"{path}: unknown IDX magic 0x{magic:08x}")


def _find_idx(directory, stem):
    for name in (stem, stem + ".gz"):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"no {stem}[.gz] under {directory}")


def load_digit_split(directory, split):
    """Load one split, "train" or "t10k", of the 28x28 digit dataset.

    Returns (X, y) with images flattened to float64 rows scaled to [0, 1].
    """
    images = read_idx(_find_idx(directory, f"{split}-images-idx3-ubyte"))
    labels = read_idx(_find_idx(directory, f"{split}-labels-idx1-ubyte"))
    if images.shape[0] != labels.shape[0]:
        raise ValidationError("image/label counts disagree")
    X = np.divide(images.reshape(images.shape[0], -1), 255.0, dtype=np.float64)
    return X, labels.astype(np.int64)


def load_digit_dataset(directory):
    """Load the standard 28x28 digit dataset from its four IDX files.

    Returns (X_train, y_train, X_test, y_test) as `load_digit_split` does.
    """
    return (*load_digit_split(directory, "train"), *load_digit_split(directory, "t10k"))


def gaussian_blobs(num_samples: int, num_classes: int = 3, dim: int = 32,
                   seed: int = 0, separation: float = 3.0):
    """Seeded isotropic Gaussian class clusters; linearly separable for
    separation comfortably above 2."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True) * np.sqrt(dim) / 2
    labels = rng.integers(num_classes, size=num_samples)
    X = means[labels] + rng.normal(size=(num_samples, dim))
    return X, labels.astype(np.int64)


def train_val_split(X, y, val_fraction: float = 0.1, seed: int = 0):
    """Seeded shuffle split into (X_train, y_train, X_val, y_val)."""
    if not 0 < val_fraction < 1:
        raise ValidationError("val_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(X))
    n_val = max(1, int(round(len(X) * val_fraction)))
    val, train = order[:n_val], order[n_val:]
    return X[train], y[train], X[val], y[val]
