"""Seeded inputs for the benchmark: synthetic class images and float models.

Everything here is a pure function of a numpy Generator, so one seed gives
byte-identical files.
"""

import os
import struct

import numpy as np

IMAGE_SIDE = 28
NUM_CLASSES = 10
# The class templates and the noise basis are one fixed task, like a real
# dataset; the workload seed draws the samples.  A task redrawn per seed
# changes how far the classes overlap, and validation MCR then varies by
# a factor of several between seeds.
TASK_SEED = 20170712
# Shared low-rank pixel noise makes the classes overlap, so a trained
# network keeps a few percent of validation errors instead of reaching 0.
# Every label is the class the image was drawn from: the errors are the
# model's own, so a worse model shows as a higher MCR.
NOISE_RANK = 24
NOISE_SCALE = 2.0
PIXEL_NOISE = 0.08


def _smooth_blobs(rng, count, side, blobs):
    """``count`` images of ``side``x``side`` made of random Gaussian blobs."""
    grid = np.arange(side, dtype=np.float64)
    out = np.zeros((count, side, side))
    for i in range(count):
        for _ in range(blobs):
            cy, cx = rng.uniform(4, side - 4, size=2)
            sy, sx = rng.uniform(1.5, 4.0, size=2)
            amp = rng.uniform(0.5, 1.0)
            out[i] += amp * np.exp(-((grid[:, None] - cy) / sy) ** 2 - ((grid[None, :] - cx) / sx) ** 2)
    return out.reshape(count, side * side)


def class_images(rng, count):
    """``count`` uint8 28x28 images and int labels from ten blob classes."""
    task = np.random.default_rng(TASK_SEED)
    templates = _smooth_blobs(task, NUM_CLASSES, IMAGE_SIDE, blobs=6)
    templates /= templates.max(axis=1, keepdims=True)
    basis = _smooth_blobs(task, NOISE_RANK, IMAGE_SIDE, blobs=3)
    basis /= np.linalg.norm(basis, axis=1, keepdims=True) / np.sqrt(basis.shape[1]) * 2.5
    labels = rng.integers(NUM_CLASSES, size=count)
    coeff = rng.normal(scale=NOISE_SCALE / np.sqrt(NOISE_RANK), size=(count, NOISE_RANK))
    pixels = templates[labels] + coeff @ basis + rng.normal(scale=PIXEL_NOISE, size=(count, templates.shape[1]))
    images = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    return images.reshape(count, IMAGE_SIDE, IMAGE_SIDE), labels.astype(np.uint8)


def write_idx_images(path, images):
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.size))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_digit_dir(directory, rng, train_count, test_count):
    """The four IDX files `sstc.datasets.load_digit_dataset` reads.

    Returns the test split as (float64 rows scaled to [0, 1], int labels),
    the same arrays the library derives from the files.
    """
    os.makedirs(directory, exist_ok=True)
    images, labels = class_images(rng, train_count + test_count)
    write_idx_images(os.path.join(directory, "train-images-idx3-ubyte"), images[:train_count])
    write_idx_labels(os.path.join(directory, "train-labels-idx1-ubyte"), labels[:train_count])
    write_idx_images(os.path.join(directory, "t10k-images-idx3-ubyte"), images[train_count:])
    write_idx_labels(os.path.join(directory, "t10k-labels-idx1-ubyte"), labels[train_count:])
    X_test = images[train_count:].reshape(test_count, -1).astype(np.float64) / 255.0
    return X_test, labels[train_count:].astype(np.int64)


def float_layers(rng, dims):
    """Seeded float32 (W, b, batch-norm arrays) per layer of an MLP.

    Hidden layers carry batch-norm statistics; the output layer has none.
    """
    layers = []
    for i, (din, dout) in enumerate(zip(dims, dims[1:])):
        W = (rng.normal(size=(dout, din)) / np.sqrt(din)).astype(np.float32)
        b = (rng.normal(size=dout) * 0.01).astype(np.float32)
        bn = None
        if i < len(dims) - 2:
            bn = (rng.uniform(0.5, 1.5, size=dout), rng.normal(scale=0.1, size=dout),
                  rng.normal(scale=0.05, size=dout), rng.uniform(0.01, 0.05, size=dout))
        layers.append((W, b, bn))
    return layers
