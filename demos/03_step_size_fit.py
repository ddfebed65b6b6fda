"""Fit the quantization step size that minimizes squared error.

The quantizer maps w to sgn(w) * delta * min(floor(|w|/delta + 0.5), (P-1)/2).
Shrinking delta resolves small weights but clips large ones; growing it
does the opposite.  The library finds the exact minimizer of the total
squared error; this script shows the error landscape around it.
"""

import numpy as np

from sstc import find_step_size, quantize_weight


def total_error(w, delta, levels):
    return float(((quantize_weight(w, delta, levels) - w) ** 2).sum())


def main():
    rng = np.random.default_rng(0)
    w = rng.normal(scale=0.8, size=2000)

    for levels in (3, 7):
        best = find_step_size(w, levels)
        print(f"P = {levels}: fitted delta = {best:.5f}, "
              f"error = {total_error(w, best, levels):.4f}")
        print("  delta sweep around the optimum:")
        for scale in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0):
            d = best * scale
            marker = " <- fitted" if scale == 1.0 else ""
            print(f"    {d:8.5f} ({scale:4.2f}x): error {total_error(w, d, levels):10.4f}{marker}")

    print("\nternary levels are just {-delta, 0, +delta}: at the fitted step a")
    print("large share of Gaussian weights falls below delta/2 and quantizes")
    print("to zero, which is what makes the structured sparsity constraint")
    print("cheap to satisfy after retraining.")
    best = find_step_size(w)
    q = quantize_weight(w, best, 3)
    print(f"zero fraction at the ternary optimum: {np.mean(q == 0) * 100:.1f}%")


if __name__ == "__main__":
    main()
