import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustreg import (
    PerturbationMap,
    PointDistribution,
    compress,
    constant_hypothesis,
    find_strong_learner,
    inflate,
    mw_boost,
    mw_update,
    reconstruct,
)
from robustreg.errors import StrongLearnerNotFound
from robustreg.oracles import ConstantClassOracle, rerm_constant, rerm_finite

from conftest import labeled, make_class


def cover_of(values, labels):
    U = PerturbationMap.identity(len(values))
    sample = labeled(list(enumerate(labels)))
    return U, sample, inflate(sample, U)


class TestMwUpdate:
    def test_correct_nowhere_leaves_p_unchanged(self):
        U, sample, cover = cover_of([0, 1], [1.0, 1.0])
        h = constant_hypothesis(0.0, len(cover))
        P = PointDistribution.uniform(2)
        Q = mw_update(P, h, cover, eta=0.2, xi=0.5)
        assert np.allclose(Q.weights, P.weights)

    def test_downweights_the_handled_point(self):
        U, sample, cover = cover_of([0, 1], [0.0, 1.0])
        h = constant_hypothesis(0.0, len(cover))  # handles the first point only
        P = PointDistribution.uniform(2)
        Q = mw_update(P, h, cover, eta=0.2, xi=math.log(2.0))
        assert np.allclose(Q.weights, [1 / 3, 2 / 3])

    def test_correct_everywhere_leaves_p_unchanged(self):
        U, sample, cover = cover_of([0, 1], [0.5, 0.5])
        h = constant_hypothesis(0.5, len(cover))
        P = PointDistribution.uniform(2)
        Q = mw_update(P, h, cover, eta=0.2, xi=0.7)
        assert np.allclose(Q.weights, P.weights)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8),
           st.floats(0.1, 2.0))
    def test_support_is_preserved(self, labels, xi):
        U, sample, cover = cover_of(range(len(labels)), labels)
        P = PointDistribution.uniform(len(labels))
        Q = mw_update(P, constant_hypothesis(0.5, len(cover)), cover, eta=0.3, xi=xi)
        assert (Q.weights > 0).all()


class TestFindStrongLearner:
    def test_target_in_class_accepted_immediately(self):
        values = [0.2, 0.5, 0.8]
        cls = make_class([values])
        U, sample, cover = cover_of(values, values)
        P = PointDistribution.uniform(len(cover))
        rerm = lambda pts, u, e: rerm_finite(cls, pts, u, e)
        h, src = find_strong_learner(P, cover, sample, U, eta=0.2, epsilon=0.05,
                                     rerm=rerm, d=2, retries=1,
                                     rng=np.random.default_rng(0))
        assert h.descriptor == ("finite", 0)

    def test_epsilon_one_is_vacuous(self):
        cls = make_class([[0.0, 1.0]])
        U, sample, cover = cover_of([0, 1], [1.0, 0.0])
        P = PointDistribution.uniform(len(cover))
        rerm = lambda pts, u, e: rerm_finite(cls, pts, u, 1.0)
        h, _ = find_strong_learner(P, cover, sample, U, eta=0.2, epsilon=1.0,
                                   rerm=rerm, d=1, retries=1,
                                   rng=np.random.default_rng(0))
        assert h.descriptor == ("finite", 0)

    def test_never_good_enough_raises(self):
        # the only hypothesis misses one of five points at full deviation
        cls = make_class([[0.5, 0.5, 0.5, 0.5, 0.5]])
        U, sample, cover = cover_of(range(5), [0.5, 0.5, 0.5, 0.5, 1.0])
        P = PointDistribution.uniform(len(cover))
        rerm = lambda pts, u, e: rerm_finite(cls, pts, u, 1.0)
        with pytest.raises(StrongLearnerNotFound) as err:
            find_strong_learner(P, cover, sample, U, eta=0.2, epsilon=0.1,
                                rerm=rerm, d=2, retries=3,
                                rng=np.random.default_rng(1))
        assert err.value.best_mass == pytest.approx(0.2)


class TestMwBoost:
    def test_constant_class_realizable_target(self):
        U, sample, cover = cover_of(range(4), [0.45] * 4)
        ens = mw_boost(cover, sample, U, eta=0.2, epsilon=0.1, xi=0.5, T=3,
                       rerm=rerm_constant, d=2, seed=0)
        assert ens.aggregation == "average"
        assert ens.values[0] == pytest.approx(0.45)
        rate = np.mean([abs(ens.values[pt.z] - pt.y) >= 0.1 for pt in cover])
        assert rate == 0.0

    def test_cover_condition_on_a_finite_class(self):
        rng = np.random.default_rng(11)
        values = np.round(rng.uniform(0.2, 0.8, size=8), 3).tolist()
        rows = [values] + [np.round(rng.uniform(0, 1, size=8), 3).tolist()
                           for _ in range(5)]
        cls = make_class(rows)
        U, sample, cover = cover_of(values, values)
        rerm = lambda pts, u, e: rerm_finite(cls, pts, u, e)
        T = math.ceil(4 * math.log(8))
        ens = mw_boost(cover, sample, U, eta=0.2, epsilon=0.1, xi=0.5, T=T,
                       rerm=rerm, d=3, seed=5)
        # the condition must hold for what a reconstruction evaluates
        scheme = compress(ens, sample, eta=0.2, group_size=3, store_alphas=False)
        h = reconstruct(scheme, sample, rerm, U)
        assert np.array_equal(h.values, ens.values)
        avg = h.values[[pt.z for pt in cover]]
        ys = np.array([pt.y for pt in cover])
        assert float((np.abs(avg - ys) >= 0.1).mean()) <= 0.1

    def test_average_of_constants_folds_to_a_member(self):
        U, sample, cover = cover_of(range(3), [0.6, 0.6, 0.6])
        ens = mw_boost(cover, sample, U, eta=0.2, epsilon=0.5, xi=0.5, T=4,
                       rerm=rerm_constant, d=1, seed=2)
        folded = ConstantClassOracle().fold_average(ens.members)
        assert folded is not None
        for z in range(3):
            assert folded(z) == pytest.approx(ens.values[z])
