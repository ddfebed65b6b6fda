"""End-to-end pipeline on synthetic data: float pretrain, structured sparse
ternary retraining, serialization, and compressed evaluation.

Uses seeded Gaussian blobs so the whole script runs in a few seconds on a
laptop; swap in the 28x28 digit dataset via sstc.datasets.load_digit_dataset
for the full-size run.
"""

import numpy as np

from sstc import (CodeParams, LayerSpec, SparsitySchedule, TrainConfig, TrainData,
                  WeightPolicy, build_network, compressed_forward, evaluate,
                  network_to_model, serialize_model, storage_report, train_structured)
from sstc.datasets import gaussian_blobs


def main():
    X, y = gaussian_blobs(4000, num_classes=3, dim=32, seed=5)
    data = TrainData.from_arrays(X, y, val_fraction=0.15, seed=5)
    target = CodeParams(8, 1)
    hidden = WeightPolicy("sst", target)
    net = build_network([
        LayerSpec(32, 64, normalizer="batch_norm", policy=hidden),
        LayerSpec(64, 64, normalizer="batch_norm", policy=hidden),
        LayerSpec(64, 3, policy=WeightPolicy("ternary")),
    ], seed=5)

    schedule = SparsitySchedule.gradual(8, [4, 2, 1], epochs_per_stage=3)
    config = TrainConfig(epochs=3, batch_size=64, seed=5)
    history = train_structured(net, data, schedule, config, float_epochs=5)
    for rec in history:
        print(f"stage {rec['stage']:>7} epoch {rec['epoch']} "
              f"loss {rec['train_loss']:.4f} val MCR {rec['val_mcr']:5.2f}% lr {rec['lr']:.2e}")

    model = network_to_model(net)
    blob = serialize_model(model)
    print(f"\nserialized model: {len(blob)} bytes")
    probs = compressed_forward(model, data.X_val)
    kernel_mcr = 100.0 * np.mean(np.argmax(probs, axis=1) != data.y_val)
    eval_mcr = evaluate(net, data.X_val, data.y_val, mode="quantized")
    print(f"compressed-kernel MCR {kernel_mcr:.2f}% == in-memory MCR {eval_mcr:.2f}%")

    print("\nstorage accounting:")
    print(storage_report(model).to_text())


if __name__ == "__main__":
    main()
