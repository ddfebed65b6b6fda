"""IDX ingestion and the synthetic dataset generator."""

import gzip
import struct

import numpy as np
import pytest

from sstc.datasets import (gaussian_blobs, load_digit_dataset, load_digit_split, read_idx,
                           train_val_split)
from sstc.errors import ValidationError


def _idx_images_bytes(images):
    head = struct.pack(">IIII", 0x803, images.shape[0], images.shape[1], images.shape[2])
    return head + images.astype(np.uint8).tobytes()


def _idx_labels_bytes(labels):
    return struct.pack(">II", 0x801, labels.shape[0]) + labels.astype(np.uint8).tobytes()


def test_read_idx_images_and_labels(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    (tmp_path / "imgs").write_bytes(_idx_images_bytes(images))
    (tmp_path / "labs").write_bytes(_idx_labels_bytes(labels))
    assert np.array_equal(read_idx(tmp_path / "imgs"), images)
    assert np.array_equal(read_idx(tmp_path / "labs"), labels)


def test_read_idx_transparent_gzip(tmp_path):
    images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    path = tmp_path / "imgs.gz"
    path.write_bytes(gzip.compress(_idx_images_bytes(images)))
    assert np.array_equal(read_idx(path), images)


def test_read_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">I", 0xDEADBEEF))
    with pytest.raises(ValidationError, match="magic"):
        read_idx(path)


def test_read_idx_rejects_truncation(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    path = tmp_path / "short"
    path.write_bytes(_idx_images_bytes(images)[:-3])
    with pytest.raises(ValidationError, match="truncated"):
        read_idx(path)


def test_load_digit_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    xtr = rng.integers(0, 256, size=(20, 28, 28), dtype=np.uint8)
    ytr = rng.integers(0, 10, size=20, dtype=np.uint8)
    xte = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    yte = rng.integers(0, 10, size=5, dtype=np.uint8)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(_idx_images_bytes(xtr))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(_idx_labels_bytes(ytr))
    (tmp_path / "t10k-images-idx3-ubyte.gz").write_bytes(gzip.compress(_idx_images_bytes(xte)))
    (tmp_path / "t10k-labels-idx1-ubyte.gz").write_bytes(gzip.compress(_idx_labels_bytes(yte)))
    Xtr, Ytr, Xte, Yte = load_digit_dataset(tmp_path)
    assert Xtr.shape == (20, 784) and Xte.shape == (5, 784)
    assert Xtr.min() >= 0.0 and Xtr.max() <= 1.0
    assert np.array_equal(Ytr, ytr) and np.array_equal(Yte, yte)
    assert np.allclose(Xtr[3], xtr[3].reshape(-1) / 255.0)


def test_load_digit_dataset_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_digit_dataset(tmp_path)


def test_gaussian_blobs_deterministic_and_separable():
    X1, y1 = gaussian_blobs(500, num_classes=4, dim=16, seed=9)
    X2, y2 = gaussian_blobs(500, num_classes=4, dim=16, seed=9)
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
    assert X1.shape == (500, 16) and set(np.unique(y1)) <= set(range(4))
    # nearest-class-mean classification should be near perfect
    means = np.stack([X1[y1 == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((X1[:, None, :] - means) ** 2).sum(-1), axis=1)
    assert (pred == y1).mean() >= 0.98


def test_train_val_split_partitions():
    X = np.arange(100, dtype=float).reshape(50, 2)
    y = np.arange(50)
    Xt, yt, Xv, yv = train_val_split(X, y, val_fraction=0.2, seed=3)
    assert len(Xv) == 10 and len(Xt) == 40
    assert sorted(np.concatenate([yt, yv]).tolist()) == list(range(50))
    with pytest.raises(ValidationError):
        train_val_split(X, y, val_fraction=1.5)


def test_digit_scaling_matches_two_pass_float_division(tmp_path):
    # every byte value, scaled in one pass, gives the bits of astype then / 255
    images = np.arange(256, dtype=np.uint8).reshape(1, 16, 16).repeat(3, axis=0)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(_idx_images_bytes(images))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(_idx_labels_bytes(np.arange(3)))
    X, y = load_digit_split(tmp_path, "train")
    expected = images.reshape(3, -1).astype(np.float64) / 255.0
    assert X.dtype == np.float64 and X.tobytes() == expected.tobytes()
    assert y.dtype == np.int64 and list(y) == [0, 1, 2]
