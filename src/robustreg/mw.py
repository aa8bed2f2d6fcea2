"""Multiplicative-weights boosting with strong per-round learners.

Each round takes the pool member with the least mass of violated cover
points, which must already be epsilon-good under the current
distribution, then points the learner handles within half the
working radius are downweighted by e^(-XI).  Note the direction: the
update discounts correctly handled points rather than upweighting
mistakes, which is equivalent after renormalization but is kept as
written.  The output averages the T round learners, so for classes
closed under averaging the result stays inside the class.  An average
that misses the cover condition raises instead of being returned.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .boosting import PointDistribution, WeightedEnsemble, cover_values, least_violated
from .core import Hypothesis, Sample
from .errors import InvalidParameter, StrongLearnerNotFound

# The discount of a cover point the round's learner handles within eta/2.
XI = 0.5


def mw_update(P: PointDistribution, correct: np.ndarray) -> PointDistribution:
    """Downweight the points marked ``correct`` by e^(-XI), renormalize."""
    return P.reweight(np.exp(-XI * correct.astype(float)))


def find_strong_learner(P: PointDistribution, violated: np.ndarray,
                        epsilon: float) -> int:
    """The pool index of ``least_violated``, where ``violated`` marks the
    cover points each member misses by eta/2 or more, if that mass is at
    most epsilon."""
    if not 0.0 < epsilon <= 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1], got {epsilon}")
    best, mass = least_violated(P, violated)
    if mass > epsilon:
        raise StrongLearnerNotFound(
            f"no learner with P-error <= {epsilon} in the pool "
            f"(least violated mass {mass:.4f})", best_mass=mass)
    return best


def mw_boost(cover: Sample, pool: Sequence[Hypothesis], sources: Sequence[tuple[int, ...]],
             eta: float, epsilon: float, T: int) -> WeightedEnsemble:
    """Pick strong pool members for T rounds with the correctness-discount
    update and average them; ``sources[i]`` are the sample indices whose
    fit is ``pool[i]``.

    The average must meet the cover condition: at most an epsilon share
    of the cover points deviate by eta/2 or more.  A run that misses it
    raises :class:`StrongLearnerNotFound`, as does a round with no strong
    learner in the pool.
    """
    values = cover_values(cover, pool, sources, T)
    dev = np.abs(values - cover.ys)
    violated, correct = dev >= eta / 2, dev <= eta / 2
    P = PointDistribution.uniform(len(cover))
    picks: list[int] = []
    for _ in range(T):
        i = find_strong_learner(P, violated, epsilon)
        picks.append(i)
        P = mw_update(P, correct[i])
    ensemble = WeightedEnsemble.from_picks(pool, sources, picks, "average")
    # the aggregation the returned ensemble and its reconstruction use
    rate = float((np.abs(ensemble.values[cover.xs] - cover.ys) >= eta / 2).mean())
    if rate > epsilon:
        raise StrongLearnerNotFound(
            f"cover rate {rate:.6g} of the {T}-round average exceeds {epsilon}")
    return ensemble
