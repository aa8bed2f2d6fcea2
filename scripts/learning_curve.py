#!/usr/bin/env python3
"""Sweep training-set sizes on a realizable block family and print the
median held-out robust error per size.

Usage: python scripts/learning_curve.py [--trials N] [--seed S] [--out runs.csv]
"""

import argparse
import collections

import numpy as np

from robustreg.harness import (
    CSV_HEADER,
    ExperimentConfig,
    InstanceSpec,
    PerturbationSpec,
    run_experiment,
    write_csv,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--eta", type=float, default=0.2)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    config = ExperimentConfig(
        instance=InstanceSpec(kind="blocks", n_hypotheses=60, domain_size=120,
                              blocks=24, defect_blocks=3),
        perturbation=PerturbationSpec(kind="grid_ball", radius=1),
        eta=args.eta, m_grid=(20, 40, 80, 160), holdout_size=120,
        trials=args.trials, seed=args.seed)
    rows = run_experiment(config)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_csv(rows))
        print(f"wrote {len(rows)} rows to {args.out}")

    errs = collections.defaultdict(list)
    for row in rows:
        record = dict(zip(CSV_HEADER, row))
        if record["status"] == "ok":
            errs[int(record["m"])].append(float(record["holdout_robust_err"]))
    print("m, median holdout robust error, runs")
    for m in config.m_grid:
        med = np.median(errs[m]) if errs[m] else float("nan")
        print(f"{m}, {med:.4f}, {len(errs[m])}")


if __name__ == "__main__":
    main()
