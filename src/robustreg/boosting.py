"""Median boosting over the pool the dual cover was built on.

Each round takes its base learner from the pool of RERM fits that the
cover certifies: the member with the least mass of violated cover points
under the current round distribution, ties to the lowest pool index.  It
is kept only if it passes the weak-learner mass check.  The same pick
serves the strong-learner rounds of ``mw``.  Aggregation is the lower
weighted median or the average.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Hypothesis, Sample
from .errors import DegenerateWeights, InvalidParameter, WeakLearnerNotFound

# The paper's refit radii, as fractions of eta: every RERM fit of a median
# scheme (pool, reconstruction) runs at eta/8, of an average scheme at
# eta/4, so that a stored scheme replays its run.
MEDIAN_REFIT = 1 / 8
AVERAGE_REFIT = 1 / 4


@dataclass(frozen=True)
class PointDistribution:
    """Normalized nonnegative weights over a finite point list."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidParameter("weights must be a nonempty vector")
        if not (np.isfinite(w) & (w >= 0)).all():
            raise InvalidParameter("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise InvalidParameter(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "PointDistribution":
        if n < 1:
            raise InvalidParameter("distribution needs at least one point")
        return cls(np.full(n, 1.0 / n))

    def reweight(self, multipliers: np.ndarray) -> "PointDistribution":
        w = self.weights * np.asarray(multipliers, dtype=float)
        total = w.sum()
        if total <= 0:
            raise InvalidParameter("reweighting zeroed the distribution")
        return PointDistribution(w / total)

    def mass(self, mask: np.ndarray):
        """P-mass of the points in ``mask``, or of each row of a C-ordered
        (k x n) mask.  Points outside the mask add as zeros, so each row
        sums as a one-row mask of it does."""
        return np.where(mask, self.weights, 0.0).sum(axis=-1)


def weighted_median_columns(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Column-wise lower weighted median of a (members x points) matrix:
    per column, the smallest value whose cumulative normalized weight
    reaches 1/2."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[0] != w.size:
        raise InvalidParameter("values and weights must be equal-length and nonempty")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise InvalidParameter("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise DegenerateWeights("total weight must be positive")
    order = np.argsort(v, axis=0, kind="stable")
    cum = np.cumsum(w[order], axis=0) / total
    idx = np.argmax(cum >= 0.5, axis=0)
    return np.take_along_axis(np.take_along_axis(v, order, 0), idx[None, :], 0)[0]


def aggregate(members: Sequence[Hypothesis], alphas: Sequence[float],
              median: bool) -> np.ndarray:
    """Per point, the lower weighted median or the average of the members,
    one row per member.  The average reduces rows of the (n x members)
    stack, as ``np.mean`` over a point does."""
    if not median:
        return np.stack([h.values for h in members], axis=1).mean(axis=1)
    return weighted_median_columns(np.stack([h.values for h in members]), alphas)


@dataclass(frozen=True)
class WeightedEnsemble:
    """Hypotheses with coefficients and the sample points that encode them.

    ``sources[t]`` lists the original-sample indices whose points refit
    member ``t`` through the RERM oracle.
    """

    members: tuple[Hypothesis, ...]
    alphas: tuple[float, ...]
    sources: tuple[tuple[int, ...], ...]
    aggregation: str  # "median" (lower weighted median) | "average"

    def __post_init__(self):
        if not (len(self.members) == len(self.alphas) == len(self.sources) >= 1):
            raise InvalidParameter("members, alphas, sources must be equal-length and nonempty")
        if self.aggregation not in ("median", "average"):
            raise InvalidParameter(f"unknown aggregation {self.aggregation!r}")
        if not all(math.isfinite(a) and a >= 0 for a in self.alphas):
            raise InvalidParameter("alphas must be finite and nonnegative")
        if self.aggregation == "median" and not any(self.alphas):
            raise InvalidParameter("weighted median needs some positive alpha")

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_picks(cls, pool: Sequence[Hypothesis], sources: Sequence[tuple[int, ...]],
                   picks: Sequence[int], aggregation: str,
                   alphas: Sequence[float] | None = None) -> "WeightedEnsemble":
        """``pool[i]`` with source ``sources[i]`` for each i in ``picks``, alphas default 1."""
        return cls(members=tuple(pool[i] for i in picks),
                   alphas=tuple(alphas) if alphas is not None else (1.0,) * len(picks),
                   sources=tuple(sources[i] for i in picks), aggregation=aggregation)

    @cached_property
    def values(self) -> np.ndarray:
        """The aggregated value vector, computed once."""
        return aggregate(self.members, self.alphas, self.aggregation == "median")


def medboost_alpha(P: PointDistribution, w: Sequence[int]) -> float:
    """Half log-odds of the correctly handled mass, with the 1/6 edge
    baked in.  Zero wrong mass returns +inf; zero right mass -inf."""
    w = np.asarray(w)
    if len(P) != w.size:
        raise InvalidParameter("distribution and vote vector lengths differ")
    right = P.mass(w == 1)
    wrong = P.mass(w == -1)
    if wrong == 0.0:
        return math.inf
    if right == 0.0:
        return -math.inf
    return 0.5 * math.log(((1 - 1 / 6) * right) / ((1 + 1 / 6) * wrong))


def least_violated(P: PointDistribution, violated: np.ndarray) -> tuple[int, float]:
    """The row of the (pool x cover) mask ``violated`` with the least
    P-mass, ties to the lowest index, and that mass."""
    if violated.ndim != 2 or violated.shape[1] != len(P):
        raise InvalidParameter("violated must have one column per distribution point")
    masses = P.mass(violated)
    best = int(np.argmin(masses))
    return best, float(masses[best])


def find_weak_learner(P: PointDistribution, violated: np.ndarray) -> int:
    """The pool index of ``least_violated``, where ``violated`` marks the
    cover points each member misses by more than eta/4, if it passes the
    (eta/4, 1/6) check: a mass strictly below 1/2 - 1/6.  A 1e-12 guard
    makes boundary masses such as 1/3 resolve as in exact arithmetic."""
    best, mass = least_violated(P, violated)
    if not mass < 0.5 - 1 / 6 - 1e-12:
        raise WeakLearnerNotFound(
            f"no (eta/4, 1/6)-weak learner in the pool (least violated mass {mass:.4f})",
            best_mass=mass)
    return best


def cover_values(cover: Sample, pool: Sequence[Hypothesis],
                 sources: Sequence[tuple[int, ...]], T: int) -> np.ndarray:
    """The (pool x cover) matrix of every member's values on the cover
    points, once a booster's inputs are checked."""
    if T < 1:
        raise InvalidParameter(f"T must be >= 1, got {T}")
    if not cover:
        raise InvalidParameter("cover must be nonempty")
    if not pool or len(pool) != len(sources):
        raise InvalidParameter("pool and sources must be equal-length and nonempty")
    return np.stack([h.values[cover.xs] for h in pool])


def medboost(cover: Sample, pool: Sequence[Hypothesis], sources: Sequence[tuple[int, ...]],
             eta: float, T: int) -> WeightedEnsemble:
    """Boost pool members into a weighted-median ensemble; ``sources[i]``
    are the sample indices whose fit is ``pool[i]``.

    Per round: votes are +1 on cover points the picked member handles
    within eta/4, the coefficient is the half log-odds with the 1/6 edge,
    and the distribution is exponentially tilted toward violations.  A
    passed check leaves less than 1/3 of the mass violated, so the
    coefficient is positive.  An infinite coefficient short-circuits to T
    copies of that member with unit weights.  The run stops once the
    median is within eta/4 on every cover point; T rounds that end short
    of it raise :class:`WeakLearnerNotFound`, as does a round with no weak
    learner in the pool.
    """
    values = cover_values(cover, pool, sources, T)
    violated = np.abs(values - cover.ys) > eta / 4
    P = PointDistribution.uniform(len(cover))
    picks: list[int] = []
    alphas: list[float] = []
    for _ in range(T):
        i = find_weak_learner(P, violated)
        w = np.where(violated[i], -1, 1)
        alpha = medboost_alpha(P, w)
        if math.isinf(alpha):
            picks, alphas = [i] * T, [1.0] * T
            break
        picks.append(i)
        alphas.append(alpha)
        P = P.reweight(np.exp(-alpha * w))
        med = weighted_median_columns(values[picks], np.array(alphas))
        if (np.abs(med - cover.ys) <= eta / 4).all():
            break
    else:
        raise WeakLearnerNotFound(
            f"the {T}-round median misses a cover point by more than {eta / 4:.6g}")
    return WeightedEnsemble.from_picks(pool, sources, picks, "median", alphas)
