"""Multiplicative-weights boosting with strong per-round learners.

Each round fits a learner that must already be epsilon-good under the
current distribution, then points the learner handles within half the
working radius are downweighted by e^(-xi).  Note the direction: the
update discounts correctly handled points rather than upweighting
mistakes, which is equivalent after renormalization but is kept as
written.  The output averages the round learners, so for classes closed
under averaging the result stays inside the class.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .boosting import AVERAGE_REFIT, DRAW_RETRIES, WeightedEnsemble, draw_learner
from .core import Hypothesis, InflatedExample, LabeledExample, PerturbationMap, examples_arrays
from .errors import InvalidParameter, StrongLearnerNotFound
from .oracles import PointDistribution

MAX_DOUBLINGS = 4


def mw_update(P: PointDistribution, h: Hypothesis,
              cover: Sequence[InflatedExample], eta: float,
              xi: float) -> PointDistribution:
    """Downweight points the hypothesis handles within eta/2, renormalize."""
    if xi <= 0:
        raise InvalidParameter(f"xi must be positive, got {xi}")
    zs, ys = examples_arrays(cover)
    correct = np.abs(h.values[zs] - ys) <= eta / 2
    return P.reweight(np.exp(-xi * correct.astype(float)))


def find_strong_learner(
    P: PointDistribution,
    cover: Sequence[InflatedExample],
    sample: Sequence[LabeledExample],
    U: PerturbationMap,
    eta: float,
    epsilon: float,
    rerm,
    d: int,
    retries: int,
    rng: np.random.Generator,
) -> tuple[Hypothesis, tuple[int, ...]]:
    """Like the weak-learner draw, but refits at eta/4 and accepts only
    candidates whose P-mass of deviations >= eta/2 is at most epsilon."""
    if not 0.0 < epsilon <= 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1], got {epsilon}")
    zs, ys = examples_arrays(cover)

    def violated(h):
        return P.mass(np.abs(h.values[zs] - ys) >= eta / 2)

    return draw_learner(
        P, cover, sample, U, rerm, eta * AVERAGE_REFIT, d, retries, rng,
        accept=lambda h: violated(h) <= epsilon, violated=violated,
        failure=StrongLearnerNotFound, wanted=f"learner with P-error <= {epsilon}")


def mw_boost(
    cover: Sequence[InflatedExample],
    sample: Sequence[LabeledExample],
    U: PerturbationMap,
    eta: float,
    epsilon: float,
    xi: float,
    T: int,
    rerm,
    d: int,
    *,
    seed: int = 0,
) -> WeightedEnsemble:
    """Run T rounds of strong-learner draws with the correctness-discount
    update; average the learners.

    The round count has no sharp constant, so the run verifies the
    cover condition (fraction of cover points where the average deviates
    by >= eta/2 is at most epsilon) and restarts with doubled T until it
    holds or the doubling budget runs out.  The last ensemble is
    returned either way; callers recompute the condition and fail loudly.
    """
    if T < 1:
        raise InvalidParameter(f"T must be >= 1, got {T}")
    if not cover:
        raise InvalidParameter("cover must be nonempty")
    zs, ys = examples_arrays(cover)
    seq = np.random.SeedSequence(seed)
    ensemble = None
    for attempt, child in enumerate(seq.spawn(MAX_DOUBLINGS + 1)):
        rng = np.random.default_rng(child)
        rounds = T * (2 ** attempt)
        P = PointDistribution.uniform(len(cover))
        members, sources = [], []
        for _ in range(rounds):
            h, src = find_strong_learner(P, cover, sample, U, eta, epsilon,
                                         rerm, d, DRAW_RETRIES, rng)
            members.append(h)
            sources.append(src)
            P = mw_update(P, h, cover, eta, xi)
        ensemble = WeightedEnsemble(
            members=tuple(members), alphas=(1.0,) * len(members),
            sources=tuple(sources), aggregation="average",
        )
        # the aggregation the returned ensemble and its reconstruction use
        rate = float((np.abs(ensemble.values[zs] - ys) >= eta / 2).mean())
        if rate <= epsilon:
            break
    return ensemble
