"""Storage arithmetic for published network configurations.

Builds the VGG-9 and AlexNet layer shapes as stored parameter blocks (conv
weights flattened to matrices; contents zero, which costs the same bits)
and reports compression ratios for several codes.  Conv layers stay
ternary (8-bit fixed for the AlexNet variant), fully-connected
layers use the structured sparse code, and the small output layer is
quantized but not pruned.
"""

import numpy as np

from sstc import CodeParams, LayerFormat, ModelFile, storage_report
from sstc.store import BatchNormParams, EncodedLayer, payload_bits

VGG9 = {
    "conv1_1": (128, 27), "conv1_2": (128, 1152),
    "conv2_1": (256, 1152), "conv2_2": (256, 2304),
    "conv3_1": (512, 2304), "conv3_2": (512, 4608),
    "fc1": (1024, 8192), "fc2": (1024, 1024), "fc3": (10, 1024),
}

ALEXNET = {
    "conv1": (96, 363), "conv2": (256, 1200), "conv3": (384, 2304),
    "conv4": (384, 1728), "conv5": (256, 1728),
    "fc6": (4096, 9216), "fc7": (4096, 4096), "fc8": (1000, 4096),
}


def zero_layer(fmt, rows, cols, with_bn):
    bits = payload_bits(fmt, rows, cols)
    norm = None
    if with_bn:
        ones = np.ones(rows)
        norm = BatchNormParams(ones, np.zeros(rows), np.zeros(rows), ones)
    return EncodedLayer(fmt, rows, cols, 1.0, bytes((bits + 7) // 8),
                        bias=np.zeros(rows, dtype=np.float32), normalizer=norm)


def build(shapes, fc_fmt, conv_fmt):
    layers = []
    names = list(shapes)
    for name, (rows, cols) in shapes.items():
        hidden_fc = name.startswith("fc") and name != names[-1]
        fmt = fc_fmt if hidden_fc else (conv_fmt if name.startswith("conv")
                                        else LayerFormat("ternary2bit"))
        layers.append(zero_layer(fmt, rows, cols, with_bn=name != names[-1]))
    return ModelFile(layers=layers, metadata={"layer_names": names})


def main():
    configs = [("ternary", LayerFormat("ternary2bit"))] + [
        (str(CodeParams(n, k)), LayerFormat("sst", CodeParams(n, k)))
        for n, k in [(16, 4), (8, 2), (4, 1), (16, 3), (16, 2), (8, 1)]
    ]
    print("VGG-9 shapes, conv ternary + FC per code:")
    print(f"{'config':>10} {'weights MiB':>12} {'ratio':>8}")
    for label, fmt in configs:
        rep = storage_report(build(VGG9, fmt, LayerFormat("ternary2bit")))
        print(f"{label:>10} {rep.compressed_bits / 8 / 2**20:>12.3f} x{rep.ratio:>7.2f}")

    print("\nAlexNet shapes, conv 8-bit fixed + FC per code:")
    print(f"{'config':>10} {'weights MiB':>12} {'ratio':>8}")
    for label, fmt in configs:
        rep = storage_report(build(ALEXNET, fmt, LayerFormat("fixed8")))
        print(f"{label:>10} {rep.compressed_bits / 8 / 2**20:>12.3f} x{rep.ratio:>7.2f}")
    rep = storage_report(build(ALEXNET, LayerFormat("float32"), LayerFormat("float32")))
    print(f"\nAlexNet float32 baseline: {rep.float_bits / 8 / 2**20:.2f} MiB")


if __name__ == "__main__":
    main()
