import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustreg import (
    PerturbationMap,
    PointDistribution,
    WeightedEnsemble,
    constant_hypothesis,
    find_weak_learner,
    inflate,
    medboost,
    medboost_alpha,
    weighted_median,
)
from robustreg.boosting import aggregate, weighted_median_columns
from robustreg.errors import DegenerateWeights, InvalidParameter, WeakLearnerNotFound
from robustreg.oracles import rerm_finite

from conftest import labeled, make_class
from reference import scalar_weighted_median


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
    ])
    def test_columnwise_checks_its_inputs(self, values, weights, error):
        with pytest.raises(error):
            weighted_median_columns(values, weights)

    @given(st.integers(8, 200), st.integers(0, 10 ** 6))
    def test_average_aggregation_equals_the_per_point_mean(self, members, seed):
        values = np.random.default_rng(seed).uniform(size=(members, 7))
        avg = aggregate(values, (1.0,) * members, median=False)
        for j in range(7):
            assert avg[j] == np.mean(values[:, j].tolist())


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


def realizable_setup(values, eta=0.2, extra_rows=()):
    """A finite class containing the exact labeling function."""
    n = len(values)
    cls = make_class([values, *extra_rows])
    U = PerturbationMap.identity(n)
    sample = labeled([(i, values[i]) for i in range(n)])
    cover = inflate(sample, U)
    rerm = lambda pts, u, e: rerm_finite(cls, pts, u, e)
    return cls, U, sample, cover, rerm


class TestFindWeakLearner:
    def test_realizable_accepts_first_try(self):
        values = [0.2, 0.4, 0.6, 0.8]
        cls, U, sample, cover, rerm = realizable_setup(values)
        P = PointDistribution.uniform(len(cover))
        h, sources = find_weak_learner(P, cover, sample, U, 0.2, rerm, d=2,
                                       retries=1, rng=np.random.default_rng(0))
        assert all(abs(h(pt.z) - pt.y) <= 0.05 for pt in cover)
        assert all(0 <= i < len(sample) for i in sources)

    def test_large_d_uses_the_whole_sample(self):
        values = [0.1, 0.5, 0.9]
        cls, U, sample, cover, rerm = realizable_setup(values)
        P = PointDistribution.uniform(len(cover))
        h, sources = find_weak_learner(P, cover, sample, U, 0.2, rerm, d=64,
                                       retries=1, rng=np.random.default_rng(1))
        assert sources == (0, 1, 2)
        assert h.descriptor == ("finite", 0)

    def test_adversarial_class_exhausts_retries(self):
        # both hypotheses miss half the points by a full 0.8
        cls = make_class([[0.1, 0.1, 0.9, 0.9], [0.9, 0.9, 0.1, 0.1]])
        U = PerturbationMap.identity(4)
        sample = labeled([(i, 0.5) for i in range(4)])
        cover = inflate(sample, U)
        rerm = lambda pts, u, e: rerm_finite(cls, pts, u, 1.0)
        P = PointDistribution.uniform(len(cover))
        with pytest.raises(WeakLearnerNotFound) as err:
            find_weak_learner(P, cover, sample, U, 0.2, rerm, d=2, retries=1,
                              rng=np.random.default_rng(2))
        assert err.value.best_mass >= 0.5


class TestMedboost:
    def test_perfect_first_learner_returns_t_copies(self):
        values = [0.3, 0.3, 0.3]
        cls, U, sample, cover, rerm = realizable_setup(values)
        ens = medboost(cover, sample, U, eta=0.2, T=5, rerm=rerm, d=2,
                       rng=np.random.default_rng(0))
        assert len(ens) == 5
        assert ens.alphas == (1.0,) * 5
        assert len(set(ens.sources)) == 1
        for pt in cover:
            assert ens.evaluate(pt.z) == ens.members[0](pt.z)

    def test_uniform_quarter_eta_on_cover(self):
        rng = np.random.default_rng(7)
        values = np.round(rng.uniform(0.1, 0.9, size=8), 3).tolist()
        extra = [np.round(rng.uniform(0, 1, size=8), 3).tolist() for _ in range(6)]
        cls, U, sample, cover, rerm = realizable_setup(values, extra_rows=extra)
        T = math.ceil(4 * math.log(8))
        ens = medboost(cover, sample, U, eta=0.2, T=T, rerm=rerm, d=3,
                       rng=np.random.default_rng(3))
        for pt in cover:
            assert abs(ens.evaluate(pt.z) - pt.y) <= 0.05

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
        values = [0.2, 0.8]
        cls, U, sample, cover, rerm = realizable_setup(values)
        with pytest.raises(InvalidParameter):
            medboost(cover, sample, U, eta=0.2, T=0, rerm=rerm, d=1)
        with pytest.raises(InvalidParameter):
            medboost([], sample, U, eta=0.2, T=1, rerm=rerm, d=1)


class TestWeightedEnsemble:
    def test_lengths_must_match(self):
        h = constant_hypothesis(0.5, 1)
        with pytest.raises(InvalidParameter):
            WeightedEnsemble(members=(h,), alphas=(1.0, 1.0), sources=((0,),),
                             aggregation="weighted_median")

    def test_median_requires_positive_alpha(self):
        h = constant_hypothesis(0.5, 1)
        with pytest.raises(InvalidParameter):
            WeightedEnsemble(members=(h,), alphas=(0.0,), sources=((0,),),
                             aggregation="weighted_median")

    def test_average_evaluation(self):
        ens = WeightedEnsemble(
            members=(constant_hypothesis(0.2, 1), constant_hypothesis(0.6, 1)),
            alphas=(1.0, 1.0), sources=((0,), (1,)), aggregation="average")
        assert ens.evaluate(0) == pytest.approx(0.4)
