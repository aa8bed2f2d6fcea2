"""Shrink a median ensemble by categorical sampling with a majority
certificate.

Members are drawn i.i.d. from the normalized coefficient distribution
until, on every cover point, strictly fewer than half the drawn members
deviate beyond the radius.  That strict majority pins the unweighted
median inside the tube, which is re-asserted on every acceptance.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from .boosting import WeightedEnsemble, weighted_median_columns
from .core import Sample
from .errors import InvalidParameter, RobustRegError, SparsifyFailed

# Draws of k members tried before sparsification gives up.
MAX_DRAWS = 200


def sparsify(ensemble: WeightedEnsemble, cover: Sample,
             eta: float, k: int, seed: int = 0) -> WeightedEnsemble:
    """First sampled k-subset whose per-point violators stay below k/2.

    The result keeps the drawn members' source sets and unit weights
    (the sparsified median is unweighted).  Raises
    :class:`SparsifyFailed` with the best violation count seen when
    ``MAX_DRAWS`` draws have all failed.
    """
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    # left to right: the builtin sum is compensated from Python 3.12 on
    total = reduce(operator.add, ensemble.alphas, 0.0)
    if total <= 0:
        raise InvalidParameter("ensemble alphas are not normalizable")
    probs = np.asarray(ensemble.alphas, dtype=float) / total
    values = np.stack([h.values[cover.xs] for h in ensemble.members])  # (T, n_cover)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(MAX_DRAWS):
        drawn = rng.choice(len(probs), size=k, p=probs)
        picked = values[drawn]
        violators = (np.abs(picked - cover.ys) > eta).sum(axis=0)
        worst = int(violators.max()) if len(cover) else 0
        if worst * 2 < k:
            med = weighted_median_columns(picked, np.ones(k))
            if not (np.abs(med - cover.ys) <= eta).all():
                raise RobustRegError(
                    "majority certificate failed to pin the median"
                )  # unreachable: a strict majority inside the tube pins it
            return WeightedEnsemble.from_picks(ensemble.members, ensemble.sources,
                                               drawn.tolist(), "median")
        best = worst if best is None else min(best, worst)
    raise SparsifyFailed(
        f"no accepted draw in {MAX_DRAWS} iterations (best violation count {best})",
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
