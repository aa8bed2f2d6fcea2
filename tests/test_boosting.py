import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from robustreg import (
    Hypothesis,
    PerturbationMap,
    PointDistribution,
    WeightedEnsemble,
    build_pool,
    constant_hypothesis,
    find_weak_learner,
    inflate,
    medboost,
    medboost_alpha,
)
from robustreg.boosting import aggregate, weighted_median_columns
from robustreg.errors import DegenerateWeights, InvalidParameter, WeakLearnerNotFound
from robustreg.oracles import rerm_finite

from conftest import LEVELS, labeled, make_class, pool_cases, pool_setup, violations
from reference import (
    scalar_pick,
    scalar_weighted_median,
    stacked_aggregate,
    weak_learner_check,
)


def weighted_median(values, weights):
    """The lower weighted median of one list, as a one-column matrix."""
    return weighted_median_columns(np.asarray(values, dtype=float)[:, None], weights)[0]


class TestWeightedMedian:
    def test_odd_uniform(self):
        assert weighted_median([0.1, 0.5, 0.9], [1, 1, 1]) == 0.5

    def test_heavy_first_value(self):
        assert weighted_median([0.1, 0.9], [3, 1]) == 0.1

    def test_single_value(self):
        assert weighted_median([0.7], [2.0]) == 0.7

    def test_zero_weight_raises(self):
        with pytest.raises(DegenerateWeights):
            weighted_median([0.1, 0.2], [0.0, 0.0])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=9),
           st.floats(0, 1))
    def test_translation_invariance(self, values, y):
        weights = [1.0] * len(values)
        shifted = weighted_median([v - y for v in values], weights)
        assert shifted == weighted_median(values, weights) - y

    @given(st.data())
    def test_columnwise_matches_scalar(self, data):
        rows = data.draw(st.integers(1, 200))
        cols = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        values = rng.uniform(size=(rows, cols))
        if data.draw(st.booleans()):  # ties exercise the stable order
            values = np.round(values * 4) / 4
        weights = rng.uniform(0.1, 1.0, size=rows)
        if data.draw(st.booleans()):
            weights[rng.uniform(size=rows) < 0.3] = 0.0
            weights[0] = 0.5
        med = weighted_median_columns(values, weights)
        for j in range(cols):
            assert med[j] == scalar_weighted_median(values[:, j], weights)
            assert weighted_median(values[:, j], weights) == med[j]

    @pytest.mark.parametrize("values, weights, error", [
        (np.zeros((0, 2)), [], InvalidParameter),
        (np.zeros((3, 2)), [1.0, 1.0], InvalidParameter),
        (np.zeros((2, 2)), [1.0, -1.0], InvalidParameter),
        (np.zeros((2, 2)), [0.0, 0.0], DegenerateWeights),
        # a NaN or infinite weight once gave 0.1 on [[0.1], [0.9]]
        (np.array([[0.1], [0.9]]), [math.nan, 1.0], InvalidParameter),
        (np.array([[0.1], [0.9]]), [math.inf, 1.0], InvalidParameter),
        (np.array([[0.1], [0.9]]), [1.0, math.inf], InvalidParameter),
    ])
    def test_columnwise_checks_its_inputs(self, values, weights, error):
        with pytest.raises(error):
            weighted_median_columns(values, weights)

    @given(st.integers(8, 200), st.integers(0, 10 ** 6))
    def test_average_aggregation_equals_the_per_point_mean(self, members, seed):
        values = np.random.default_rng(seed).uniform(size=(members, 7))
        hs = [Hypothesis(row, ("row", i)) for i, row in enumerate(values)]
        avg = aggregate(hs, (1.0,) * members, median=False)
        for j in range(7):
            assert avg[j] == np.mean(values[:, j].tolist())


@st.composite
def repeated_ensembles(draw):
    """(members, alphas): a few distinct member objects on a few value
    levels, so that distinct members tie at some points, each repeated any
    number of times.  All share one descriptor, so only identity tells
    them apart.  Alphas are all 1, whole numbers, or floats, with zeros."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    distinct = [Hypothesis(np.asarray(r, dtype=float), ("table",)) for r in rows]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    members = [distinct[i] for i in picks]
    alpha = draw(st.sampled_from([
        st.just(1.0), st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        st.one_of(st.just(0.0), st.floats(0.01, 2.0))]))
    alphas = [draw(alpha) for _ in members]
    if not any(alphas):
        alphas[0] = 1.0
    return members, alphas


class TestAggregate:
    @given(repeated_ensembles(), st.booleans())
    def test_equals_the_full_stack(self, ensemble, median):
        members, alphas = ensemble
        got = aggregate(members, alphas, median)
        assert got.tobytes() == stacked_aggregate(members, alphas, median).tobytes()

    def test_merges_by_identity_not_by_descriptor(self):
        # three copies of one object outweigh a lone member that shares
        # its descriptor but not its values
        low = Hypothesis(np.array([0.1, 0.9]), ("table",))
        high = Hypothesis(np.array([0.8, 0.2]), ("table",))
        got = aggregate([high, low, low, low], [1.0] * 4, median=True)
        assert got.tolist() == [0.1, 0.9]
        assert aggregate([high, low], [1.0] * 2, median=True).tolist() == [0.1, 0.2]


class TestMedboostAlpha:
    def test_all_right_is_infinite(self):
        P = PointDistribution.uniform(3)
        assert medboost_alpha(P, [1, 1, 1]) == math.inf

    def test_three_of_four(self):
        P = PointDistribution.uniform(4)
        # 0.5 * ln((5/6 * 3/4) / (7/6 * 1/4)) = 0.5 * ln(15/7)
        assert medboost_alpha(P, [1, 1, 1, -1]) == pytest.approx(0.3810700, abs=1e-6)

    def test_half_mass_wrong_is_negative(self):
        P = PointDistribution.uniform(4)
        assert medboost_alpha(P, [1, 1, -1, -1]) == pytest.approx(-0.1682361, abs=1e-6)

    def test_all_wrong_is_negative_infinity(self):
        P = PointDistribution.uniform(2)
        assert medboost_alpha(P, [-1, -1]) == -math.inf


PICK_ETA = 0.2


class TestFindWeakLearner:
    # the former weak_learner_check cases: one member missing by a full
    # 1.0 or 0.5, and a tie of two members at a mass of 1/3
    @example(case=([[0.5, 0.5]], [0.5, 0.5], None))  # an exact fit passes
    @example(case=([[0.0] * 4], [0.0, 0.0, 0.0, 1.0], None))  # a quarter passes
    @example(case=([[0.0] * 3], [0.0, 0.0, 1.0], None))  # a third fails, strictly
    @example(case=([[0.5] * 5], [0.5, 0.5, 0.5, 0.5, 1.0], None))  # error below a half
    @example(case=([[0.0] * 6, [0.0] * 6], [0.0] * 4 + [1.0] * 2, [1.0] * 6))
    @given(pool_cases())
    def test_weak_pick_equals_the_scalar_loop(self, case):
        pool, cover, P = pool_setup(*case)
        expected, mass = scalar_pick(
            pool, P, cover, lambda v, y: abs(v - y) > PICK_ETA / 4,
            lambda h, m: weak_learner_check(h, P, cover, PICK_ETA / 4, 1 / 6))
        violated = violations(pool, cover, lambda dev: dev > PICK_ETA / 4)
        if expected is None:
            with pytest.raises(WeakLearnerNotFound) as err:
                find_weak_learner(P, violated)
            assert err.value.best_mass == mass
        else:
            assert find_weak_learner(P, violated) == expected

    def test_realizable_accepts_first_try(self):
        # the pool holds the labeling function: it is picked at zero mass
        pool, cover, P = pool_setup([[0.5, 0.5, 0.5, 0.5], [0.2, 0.4, 0.6, 0.8]],
                                    [0.2, 0.4, 0.6, 0.8])
        violated = violations(pool, cover, lambda dev: dev > PICK_ETA / 4)
        assert find_weak_learner(P, violated) == 1

    def test_large_d_uses_the_whole_sample(self):
        # the pool clamps d to the sample size: one subset, every point
        sample = labeled([(0, 0.1), (1, 0.5), (2, 0.9)])
        U = PerturbationMap.identity(3)
        cls = make_class([[0.1, 0.5, 0.9], [0.5, 0.5, 0.5]])
        rerm = lambda pts, subsets, u, e: rerm_finite(cls, pts, subsets, u, e)
        pool, sources, _ = build_pool(sample, U, rerm, 0.2 / 8, 64,
                                      rng=np.random.default_rng(1))
        assert sources == [(0, 1, 2)]
        cover = inflate(sample, U)
        P = PointDistribution.uniform(len(cover))
        violated = violations(pool, cover, lambda dev: dev > PICK_ETA / 4)
        assert find_weak_learner(P, violated) == 0
        assert pool[0].descriptor == ("finite", 0)

    def test_ties_go_to_the_lowest_index(self):
        pool, cover, P = pool_setup([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                                    [0.0, 0.0])
        violated = violations(pool, cover, lambda dev: dev > PICK_ETA / 4)
        assert find_weak_learner(P, violated) == 2

    def test_adversarial_pool_raises_with_the_least_mass(self):
        # both members miss half the points by a full 0.4
        pool, cover, P = pool_setup([[0.5, 0.5, 0.1, 0.1], [0.1, 0.1, 0.5, 0.5]],
                                    [0.5] * 4)
        violated = violations(pool, cover, lambda dev: dev > PICK_ETA / 4)
        with pytest.raises(WeakLearnerNotFound) as err:
            find_weak_learner(P, violated)
        assert err.value.best_mass == 0.5

    def test_one_column_per_point(self):
        with pytest.raises(InvalidParameter):
            find_weak_learner(PointDistribution.uniform(3), np.zeros((2, 2), dtype=bool))


# nine points labeled 0.5; member i misses points 2i and 2i + 1 (mod 9) by
# 0.5, so each misses 2/9 of a uniform mass and none is within eta/4 everywhere
SPREAD = [[0.0 if j in (2 * i % 9, (2 * i + 1) % 9) else 0.5 for j in range(9)]
          for i in range(5)]


class TestMedboost:
    def test_perfect_first_learner_returns_t_copies(self):
        pool, cover, _ = pool_setup([[0.0, 0.0, 0.0], [0.3, 0.3, 0.3]], [0.3] * 3)
        ens = medboost(cover, pool, [(0,), (1, 2)], eta=0.2, T=5)
        assert len(ens) == 5
        assert ens.alphas == (1.0,) * 5
        assert ens.members == (pool[1],) * 5 and ens.sources == ((1, 2),) * 5

    def test_uniform_quarter_eta_on_cover(self):
        pool, cover, _ = pool_setup(SPREAD, [0.5] * 9)
        ens = medboost(cover, pool, [(i,) for i in range(5)], eta=0.2,
                       T=math.ceil(4 * math.log(9)))
        assert len(set(ens.sources)) > 1
        assert (np.abs(ens.values[:9] - 0.5) <= 0.05).all()

    def test_members_and_sources_come_from_the_pool(self):
        pool, cover, _ = pool_setup(SPREAD, [0.5] * 9)
        sources = [(i, i + 1) for i in range(5)]
        ens = medboost(cover, pool, sources, eta=0.2, T=9)
        for h, src in zip(ens.members, ens.sources):
            assert src == sources[pool.index(h)]

    def test_a_deviation_of_exactly_eta_over_4_is_handled(self):
        # at eta = 1/2 the member misses every label by exactly 1/8
        pool, cover, _ = pool_setup([[0.625] * 3], [0.5] * 3)
        ens = medboost(cover, pool, [(0,)], eta=0.5, T=2)
        assert ens.members == (pool[0],) * 2

    def test_no_weak_learner_in_the_pool_raises(self):
        pool, cover, _ = pool_setup([[0.5, 0.5, 0.1, 0.1], [0.1, 0.1, 0.5, 0.5]],
                                    [0.5] * 4)
        with pytest.raises(WeakLearnerNotFound):
            medboost(cover, pool, [(0,), (1,)], eta=0.2, T=3)

    @pytest.mark.parametrize("T", [1, 2, 3, 9])
    def test_t_rounds_meet_the_cover_condition_or_raise(self, T):
        # on SPREAD three rounds bring the median within eta/4 of every label
        pool, cover, _ = pool_setup(SPREAD, [0.5] * 9)
        sources = [(i,) for i in range(5)]
        if T < 3:
            with pytest.raises(WeakLearnerNotFound,
                               match=f"the {T}-round median misses a cover point"):
                medboost(cover, pool, sources, eta=0.2, T=T)
            return
        ens = medboost(cover, pool, sources, eta=0.2, T=T)
        assert len(ens) == 3
        assert (np.abs(ens.values[:9] - 0.5) <= 0.05).all()

    def test_reweighting_concentrates_on_violations(self):
        # one violated point must gain mass when 0 < alpha < inf
        P = PointDistribution.uniform(4)
        w = np.array([1, 1, 1, -1])
        alpha = medboost_alpha(P, w)
        assert 0 < alpha < math.inf
        Q = P.reweight(np.exp(-alpha * w))
        assert Q.weights[3] > P.weights[3]
        assert abs(Q.weights.sum() - 1.0) <= 1e-9

    def test_validation(self):
        pool, cover, _ = pool_setup([[0.2, 0.8]], [0.2, 0.8])
        with pytest.raises(InvalidParameter):
            medboost(cover, pool, [(0,)], eta=0.2, T=0)
        with pytest.raises(InvalidParameter):
            medboost([], pool, [(0,)], eta=0.2, T=1)
        with pytest.raises(InvalidParameter):
            medboost(cover, pool, [(0,), (1,)], eta=0.2, T=1)


class TestWeightedEnsemble:
    def test_lengths_must_match(self):
        h = constant_hypothesis(0.5, 1)
        with pytest.raises(InvalidParameter):
            WeightedEnsemble(members=(h,), alphas=(1.0, 1.0), sources=((0,),),
                             aggregation="median")

    def test_median_requires_positive_alpha(self):
        h = constant_hypothesis(0.5, 1)
        with pytest.raises(InvalidParameter):
            WeightedEnsemble(members=(h,), alphas=(0.0,), sources=((0,),),
                             aggregation="median")

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("aggregation", ["median", "average"])
    def test_alphas_must_be_finite_and_nonnegative(self, alpha, aggregation):
        h = constant_hypothesis(0.5, 1)
        with pytest.raises(InvalidParameter, match="alphas"):
            WeightedEnsemble(members=(h, h), alphas=(1.0, alpha), sources=((0,), (1,)),
                             aggregation=aggregation)

    def test_average_evaluation(self):
        ens = WeightedEnsemble(
            members=(constant_hypothesis(0.2, 1), constant_hypothesis(0.6, 1)),
            alphas=(1.0, 1.0), sources=((0,), (1,)), aggregation="average")
        assert ens.values[0] == pytest.approx(0.4)
