"""Structured magnitude pruning and the gradual sparsity schedule.

Each length-N sub-vector keeps its K largest-magnitude weights.  Gradual
pruning walks K down one step at a time, re-pruning the retrained float
weights at every stage instead of the frozen quantized ones.  Every stage
retrains for `TrainConfig.epochs` epochs.
"""

import numpy as np

from sstc import CodeParams, SparsitySchedule, structured_prune


def main():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(8, 4)).round(2)
    print("float weights:")
    print(W)

    for k in (4, 2, 1):
        mask = structured_prune(W, CodeParams(8, k))
        print(f"\n(8,{k}) mask keeps the {k} largest |w| per column:")
        print(mask)

    sched = SparsitySchedule.gradual(8, [4, 3, 2, 1])
    print(f"\ngradual schedule: stages {[str(p) for p in sched.stages]}, "
          f"target {sched.target}")
    print(f"after stage 0 the float weights are re-pruned at {sched.stages[1]}:")
    print((W * structured_prune(W, sched.stages[1])).round(2))
    print("\nnote: the stage-1 mask is recomputed from the float weights, so a")
    print("connection pruned early can come back if retraining grew it again.")


if __name__ == "__main__":
    main()
