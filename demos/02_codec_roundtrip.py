"""Encode a small ternary weight matrix into table indices and back.

Column orientation slices each column into length-N sub-vectors; each
sub-vector becomes one bit-packed table index of ceil(log2 T) bits.
"""

import numpy as np

from sstc import CodeParams, LayerFormat, build_table, decode_layer, encode_layer
from sstc.store import layer_indices


def main():
    params = CodeParams(8, 2)
    delta = 0.5
    rng = np.random.default_rng(7)
    trits = np.zeros((8, 4), dtype=np.int8)
    for j in range(4):
        pos = rng.choice(8, size=2, replace=False)
        trits[pos, j] = rng.choice([-1, 1], size=2)
    W = trits * delta

    print("quantized weights (delta = 0.5):")
    print(W)
    layer = encode_layer(W, delta, LayerFormat("sst", params), layer_name="demo")
    idx = layer_indices(layer)
    print(f"\ncode {params}: T = {build_table(params).entry_count}, "
          f"8-bit indices, payload {layer.payload_bit_length()} bits "
          f"({len(layer.payload)} bytes)")
    print("indices per column sub-vector:", idx.tolist())
    print("payload bytes:", layer.payload.hex())

    back = decode_layer(layer)
    print("\ndecode == original:", np.array_equal(back, W))
    print("storage: 2 bits/weight ternary vs",
          f"{layer.payload_bit_length() / W.size:.3f} bits/weight indexed")


if __name__ == "__main__":
    main()
