"""Shrink a median ensemble by categorical sampling with a majority
certificate.

Members are drawn i.i.d. from the normalized coefficient distribution
until, on every cover point, strictly fewer than half the drawn members
deviate beyond the radius.  That strict majority pins the unweighted
median inside the tube, which is re-asserted on every acceptance.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .boosting import WeightedEnsemble, weighted_median_columns
from .core import InflatedExample, examples_arrays
from .errors import InvalidParameter, RobustRegError, SparsifyFailed


def categorical_draws(rng: np.random.Generator, probs: np.ndarray,
                      size: int) -> np.ndarray:
    """Indices sampled i.i.d. from the categorical distribution."""
    return rng.choice(len(probs), size=size, p=probs)


def sparsify(ensemble: WeightedEnsemble, cover: Sequence[InflatedExample],
             eta: float, k: int, max_iters: int = 200,
             seed: int = 0) -> WeightedEnsemble:
    """First sampled k-subset whose per-point violators stay below k/2.

    The result keeps the drawn members' source sets and unit weights
    (the sparsified median is unweighted).  Raises
    :class:`SparsifyFailed` with the best violation count seen when the
    iteration budget runs out.
    """
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    total = sum(ensemble.alphas)
    if total <= 0:
        raise InvalidParameter("ensemble alphas are not normalizable")
    probs = np.asarray(ensemble.alphas, dtype=float) / total
    zs, ys = examples_arrays(cover)
    values = ensemble.matrix[:, zs]  # (T, n_cover)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, max_iters)):
        drawn = categorical_draws(rng, probs, k)
        picked = values[drawn]
        violators = (np.abs(picked - ys) > eta).sum(axis=0)
        worst = int(violators.max()) if len(cover) else 0
        if worst * 2 < k:
            med = weighted_median_columns(picked, np.ones(k))
            if not (np.abs(med - ys) <= eta).all():
                raise RobustRegError(
                    "majority certificate failed to pin the median"
                )  # unreachable: a strict majority inside the tube pins it
            return WeightedEnsemble(
                members=tuple(ensemble.members[int(j)] for j in drawn),
                alphas=(1.0,) * k,
                sources=tuple(ensemble.sources[int(j)] for j in drawn),
                aggregation="weighted_median",
            )
        best = worst if best is None else min(best, worst)
    raise SparsifyFailed(
        f"no accepted draw in {max_iters} iterations (best violation count {best})",
        best_violations=best,
    )


def default_k(fat_star: int, eta: float) -> int:
    """ceil(fat_star * ln^2(max(fat_star/eta, 2))), forced odd."""
    if fat_star < 1:
        raise InvalidParameter(f"fat_star must be >= 1, got {fat_star}")
    if not 0.0 < eta < 1.0:
        raise InvalidParameter(f"eta must be in (0, 1), got {eta}")
    k = math.ceil(fat_star * math.log(max(fat_star / eta, 2.0)) ** 2)
    return k + 1 if k % 2 == 0 else k
