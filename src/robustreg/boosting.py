"""Median boosting over a discretized point set.

Base learners are drawn by sampling cover points from the current round
distribution, mapping them back to their originating sample points, and
refitting with the RERM oracle at an eighth of the working radius; a
candidate is kept only if it passes the weak-learner mass check, making
the acquisition a verified Las Vegas draw.  Aggregation is the lower
weighted median.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Hypothesis, InflatedExample, LabeledExample, PerturbationMap, examples_arrays
from .errors import DegenerateWeights, Infeasible, InvalidParameter, WeakLearnerNotFound
from .oracles import PointDistribution, weak_learner_check


def weighted_median_columns(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Column-wise lower weighted median of a (members x points) matrix:
    per column, the smallest value whose cumulative normalized weight
    reaches 1/2."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.ndim != 2 or v.shape[0] == 0 or v.shape[0] != w.size:
        raise InvalidParameter("values and weights must be equal-length and nonempty")
    if (w < 0).any():
        raise InvalidParameter("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise DegenerateWeights("total weight must be positive")
    order = np.argsort(v, axis=0, kind="stable")
    cum = np.cumsum(w[order], axis=0) / total
    idx = np.argmax(cum >= 0.5, axis=0)
    return np.take_along_axis(np.take_along_axis(v, order, 0), idx[None, :], 0)[0]


def weighted_median(values: Sequence[float], weights: Sequence[float]) -> float:
    """Lower weighted median of one list of values."""
    return float(weighted_median_columns(np.asarray(values, dtype=float)[:, None], weights)[0])


def aggregate(matrix: np.ndarray, alphas: Sequence[float], median: bool) -> np.ndarray:
    """Per column of a (members x n) matrix, the lower weighted median or
    the average.  The average reduces rows of the contiguous (n x members)
    copy, adding as ``np.mean`` over one point's values does; ``mean(axis=0)``
    adds in another order and can differ in the last bit."""
    if median:
        return weighted_median_columns(matrix, alphas)
    return np.ascontiguousarray(matrix.T).mean(axis=1)


@dataclass(frozen=True)
class WeightedEnsemble:
    """Hypotheses with coefficients and the sample points that encode them.

    ``sources[t]`` lists the original-sample indices whose points refit
    member ``t`` through the RERM oracle.
    """

    members: tuple[Hypothesis, ...]
    alphas: tuple[float, ...]
    sources: tuple[tuple[int, ...], ...]
    aggregation: str  # "weighted_median" | "average"

    def __post_init__(self):
        if not (len(self.members) == len(self.alphas) == len(self.sources) >= 1):
            raise InvalidParameter("members, alphas, sources must be equal-length and nonempty")
        if self.aggregation not in ("weighted_median", "average"):
            raise InvalidParameter(f"unknown aggregation {self.aggregation!r}")
        if any(a < 0 for a in self.alphas):
            raise InvalidParameter("alphas must be nonnegative")
        if self.aggregation == "weighted_median" and not any(self.alphas):
            raise InvalidParameter("weighted median needs some positive alpha")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Member values, (members x n)."""
        return np.stack([h.values for h in self.members])

    @cached_property
    def values(self) -> np.ndarray:
        """The aggregated value vector, computed once."""
        return aggregate(self.matrix, self.alphas, self.aggregation == "weighted_median")

    def evaluate(self, z: int) -> float:
        return float(self.values[z])


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


def _draw_origins(P, cover, sample, d, rng) -> tuple[int, ...]:
    """Origins of d cover points drawn from P, topped up with uniform
    sample indices so the refit subset has the full working size."""
    drawn = P.sample(rng, d)
    origins = {cover[int(i)].origin for i in drawn}
    want = min(d, len(sample))
    if len(origins) < want:
        rest = [j for j in range(len(sample)) if j not in origins]
        extra = rng.choice(len(rest), size=want - len(origins), replace=False)
        origins.update(rest[int(j)] for j in extra)
    return tuple(sorted(origins))


def find_weak_learner(
    P: PointDistribution,
    cover: Sequence[InflatedExample],
    sample: Sequence[LabeledExample],
    U: PerturbationMap,
    eta: float,
    rerm,
    d: int,
    retries: int,
    rng: np.random.Generator,
    rerm_scale: float = 1 / 8,
) -> tuple[Hypothesis, tuple[int, ...]]:
    """Sample d cover points from P, refit their origins, keep the first
    candidate passing the (eta/4, 1/6) mass check."""
    if d < 1:
        raise InvalidParameter(f"d must be >= 1, got {d}")
    if not cover:
        raise InvalidParameter("cover must be nonempty")
    zs, ys = examples_arrays(cover)
    best = None
    for _ in range(max(1, retries)):
        origins = _draw_origins(P, cover, sample, d, rng)
        try:
            h = rerm([sample[j] for j in origins], U, eta * rerm_scale)
        except Infeasible:
            continue
        if weak_learner_check(h, P, cover, eta / 4, 1 / 6):
            return h, origins
        mass = P.mass(np.abs(h.values[zs] - ys) > eta / 4)
        best = mass if best is None else min(best, mass)
    raise WeakLearnerNotFound(
        f"no (eta/4, 1/6)-weak learner in {retries} draws"
        + (f" (best violated mass {best:.4f})" if best is not None else ""),
        best_mass=best,
    )


def medboost(
    cover: Sequence[InflatedExample],
    sample: Sequence[LabeledExample],
    U: PerturbationMap,
    eta: float,
    T: int,
    rerm,
    d: int,
    *,
    retries: int = 30,
    round_retries: int = 5,
    early_stop: bool = True,
    rng: np.random.Generator | None = None,
    rerm_scale: float = 1 / 8,
) -> WeightedEnsemble:
    """Boost weak learners into a weighted-median ensemble.

    Per round: votes are +1 on cover points the learner handles within
    eta/4, the coefficient is the half log-odds with the 1/6 edge, and
    the distribution is exponentially tilted toward violations.  An
    infinite coefficient short-circuits to T copies of that learner with
    unit weights.  Rounds with nonpositive coefficients are redrawn
    (they certify a failed draw and cannot occur after a passed check).
    """
    if T < 1:
        raise InvalidParameter(f"T must be >= 1, got {T}")
    if not cover:
        raise InvalidParameter("cover must be nonempty")
    rng = rng if rng is not None else np.random.default_rng(0)
    zs, ys = examples_arrays(cover)
    P = PointDistribution.uniform(len(cover))
    members: list[Hypothesis] = []
    alphas: list[float] = []
    sources: list[tuple[int, ...]] = []
    rows: list[np.ndarray] = []
    for _ in range(T):
        for attempt in range(max(1, round_retries)):
            h, src = find_weak_learner(P, cover, sample, U, eta, rerm, d,
                                       retries, rng, rerm_scale=rerm_scale)
            values = h.values[zs]
            w = np.where(np.abs(values - ys) > eta / 4, -1, 1)
            alpha = medboost_alpha(P, w)
            if alpha > 0:
                break
        else:
            raise WeakLearnerNotFound(
                f"{round_retries} accepted learners in a row had nonpositive alpha"
            )
        if math.isinf(alpha):
            return WeightedEnsemble(
                members=(h,) * T, alphas=(1.0,) * T, sources=(src,) * T,
                aggregation="weighted_median",
            )
        members.append(h)
        alphas.append(alpha)
        sources.append(src)
        rows.append(values)
        P = P.reweight(np.exp(-alpha * w))
        if early_stop:
            med = weighted_median_columns(np.stack(rows), np.array(alphas))
            if (np.abs(med - ys) <= eta / 4).all():
                break
    return WeightedEnsemble(
        members=tuple(members), alphas=tuple(alphas), sources=tuple(sources),
        aggregation="weighted_median",
    )
