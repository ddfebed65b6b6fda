"""Run a matrix-vector product straight from the compressed index stream.

On the add/subtract path no weight ever multiplies anything: each decoded
sub-vector contributes at most K add/subtract operations of input values
into the output accumulators, and the single multiply per output is the
final step-size scale.  The trace below audits exactly that.  The served
`matmul` runs the trits decoded at build time through BLAS and gives the
same integers.
"""

import numpy as np

from sstc import (CodeParams, CompressedFCLayer, LayerFormat, build_table,
                  dense_matvec, encode_layer, pe_trace)
from sstc.store import decode_layer


def main():
    params = CodeParams(8, 2)
    rng = np.random.default_rng(11)
    trits = np.zeros((16, 12), dtype=np.int8)
    for g in range(2):
        for j in range(12):
            nnz = rng.integers(0, 3)
            pos = rng.choice(8, size=nnz, replace=False)
            trits[g * 8 + pos, j] = rng.choice([-1, 1], size=nnz)
    delta = 0.25
    layer = encode_layer(trits * delta, delta, LayerFormat("sst", params),
                         bias=np.zeros(16, dtype=np.float32))
    comp = CompressedFCLayer(layer, build_table(params))

    x = rng.integers(-9, 10, size=12)
    print("input x:", x.tolist())
    acc = comp.accumulate(x)
    print("accumulators (sums of +-x, before the delta scale):", acc.tolist())
    out = comp.delta * acc
    dense = dense_matvec(decode_layer(layer), x)
    print("delta * acc:", out.tolist())
    print("dense oracle agrees exactly:", np.array_equal(out, dense))
    print("served matmul agrees exactly:", np.array_equal(comp.matmul(x), dense))

    trace = pe_trace(comp)
    print(f"\ntrace: {trace.table_lookups} table lookups, "
          f"{trace.addsub_ops} add/sub ops, {trace.skipped_zeros} zeros skipped,")
    print(f"       {trace.delta_multiplies} delta multiplies (one per output row),")
    print(f"       worst sub-vector issued {trace.max_ops_per_subvector} ops "
          f"(budget k = {trace.op_budget})")


if __name__ == "__main__":
    main()
