#!/usr/bin/env python3
"""Fat-shattering of a random class and of its dual class (the transposed
matrix) over a gamma grid, printed as CSV.

Usage: python scripts/fatdim_sweep.py [--hypotheses H] [--domain N] [--seed S]
"""

import argparse

import numpy as np

from robustreg import fat_shattering


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--hypotheses", type=int, default=16)
    ap.add_argument("--domain", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--levels", type=int, default=0,
                    help="quantize values to this many levels (0 = off)")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    matrix = rng.uniform(size=(args.hypotheses, args.domain))
    if args.levels > 1:
        matrix = np.round(matrix * (args.levels - 1)) / (args.levels - 1)

    print("gamma,fat,dual_fat")
    for gamma in np.arange(0.05, 0.55, 0.05):
        gamma = round(float(gamma), 2)
        fat = fat_shattering(matrix, gamma)
        dual = fat_shattering(matrix.T, gamma)  # the dual class
        print(f"{gamma},{fat},{dual}")


if __name__ == "__main__":
    main()
