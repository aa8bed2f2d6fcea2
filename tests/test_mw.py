import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from robustreg import (
    PerturbationMap,
    PointDistribution,
    build_pool,
    compress,
    find_strong_learner,
    inflate,
    mw_boost,
    mw_update,
    reconstruct,
)
from robustreg.errors import InvalidParameter, StrongLearnerNotFound
from robustreg.mw import XI
from robustreg.oracles import ConstantClassOracle, rerm_constant, rerm_finite

from conftest import labeled, make_class, pool_cases, pool_setup, violations
from reference import scalar_pick


def cover_of(values, labels):
    U = PerturbationMap.identity(len(values))
    sample = labeled(list(enumerate(labels)))
    return U, sample, inflate(sample, U)


class TestMwUpdate:
    def test_correct_nowhere_leaves_p_unchanged(self):
        P = PointDistribution.uniform(2)
        Q = mw_update(P, np.array([False, False]))
        assert np.allclose(Q.weights, P.weights)

    def test_downweights_the_handled_point(self):
        P = PointDistribution.uniform(2)
        Q = mw_update(P, np.array([True, False]))
        kept = math.exp(-XI)
        assert np.allclose(Q.weights, [kept / (1 + kept), 1 / (1 + kept)])

    def test_correct_everywhere_leaves_p_unchanged(self):
        P = PointDistribution.uniform(2)
        Q = mw_update(P, np.array([True, True]))
        assert np.allclose(Q.weights, P.weights)

    @given(st.lists(st.booleans(), min_size=1, max_size=8))
    def test_support_is_preserved(self, correct):
        P = PointDistribution.uniform(len(correct))
        Q = mw_update(P, np.array(correct))
        assert (Q.weights > 0).all()


PICK_ETA = 0.2


class TestFindStrongLearner:
    @example(case=([[0.0] * 3], [0.0, 0.0, 1.0], None), epsilon=1 / 3)
    @example(case=([[0.0] * 6, [0.0] * 6], [0.0] * 4 + [1.0] * 2, None), epsilon=1 / 3)
    @given(pool_cases(), st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 1.0]))
    def test_strong_pick_equals_the_scalar_loop(self, case, epsilon):
        pool, cover, P = pool_setup(*case)
        expected, mass = scalar_pick(
            pool, P, cover, lambda v, y: abs(v - y) >= PICK_ETA / 2,
            lambda h, m: m <= epsilon)
        violated = violations(pool, cover, lambda dev: dev >= PICK_ETA / 2)
        if expected is None:
            with pytest.raises(StrongLearnerNotFound) as err:
                find_strong_learner(P, violated, epsilon)
            assert err.value.best_mass == mass
        else:
            assert find_strong_learner(P, violated, epsilon) == expected

    def test_target_in_class_accepted_immediately(self):
        values = [0.2, 0.5, 0.8]
        pool, cover, P = pool_setup([[0.5, 0.5, 0.5], values], values)
        violated = violations(pool, cover, lambda dev: dev >= PICK_ETA / 2)
        assert find_strong_learner(P, violated, 0.05) == 1

    def test_epsilon_one_is_vacuous(self):
        pool, cover, P = pool_setup([[0.0, 1.0]], [1.0, 0.0])
        violated = violations(pool, cover, lambda dev: dev >= PICK_ETA / 2)
        assert find_strong_learner(P, violated, 1.0) == 0

    def test_never_good_enough_raises(self):
        # the only member misses one of five points at full deviation
        pool, cover, P = pool_setup([[0.5] * 5], [0.5, 0.5, 0.5, 0.5, 1.0])
        violated = violations(pool, cover, lambda dev: dev >= PICK_ETA / 2)
        with pytest.raises(StrongLearnerNotFound) as err:
            find_strong_learner(P, violated, 0.1)
        assert err.value.best_mass == pytest.approx(0.2)

    def test_a_deviation_of_exactly_eta_over_2_is_violated(self):
        # at eta = 1/2 the member misses every label by exactly 1/4
        pool, cover, _ = pool_setup([[0.75] * 3], [0.5] * 3)
        with pytest.raises(StrongLearnerNotFound):
            mw_boost(cover, pool, [(0,)], eta=0.5, epsilon=0.5, T=1)

    def test_epsilon_range(self):
        pool, cover, P = pool_setup([[0.5]], [0.5])
        with pytest.raises(InvalidParameter):
            find_strong_learner(P, violations(pool, cover, lambda dev: dev >= 0.1), 0.0)


def finite_pool_case():
    rng = np.random.default_rng(11)
    values = np.round(rng.uniform(0.2, 0.8, size=8), 3).tolist()
    rows = [values] + [np.round(rng.uniform(0, 1, size=8), 3).tolist()
                       for _ in range(5)]
    cls = make_class(rows)
    U, sample, cover = cover_of(values, values)
    rerm = lambda pts, subsets, u, e: rerm_finite(cls, pts, subsets, u, e)
    pool, sources, _ = build_pool(sample, U, rerm, 0.2 / 4, 3,
                                  rng=np.random.default_rng(5))
    return U, sample, cover, rerm, pool, sources


class TestMwBoost:
    def test_constant_class_realizable_target(self):
        U, sample, cover = cover_of(range(4), [0.45] * 4)
        pool, sources, _ = build_pool(sample, U, rerm_constant, 0.2 / 4, 2,
                                      rng=np.random.default_rng(0))
        ens = mw_boost(cover, pool, sources, eta=0.2, epsilon=0.1, T=3)
        assert ens.aggregation == "average"
        assert ens.values[0] == pytest.approx(0.45)
        rate = np.mean(np.abs(ens.values[cover.xs] - cover.ys) >= 0.1)
        assert rate == 0.0

    def test_cover_condition_on_a_finite_class(self):
        U, sample, cover, rerm, pool, sources = finite_pool_case()
        T = math.ceil(4 * math.log(8))
        ens = mw_boost(cover, pool, sources, eta=0.2, epsilon=0.1, T=T)
        # the condition must hold for what a reconstruction evaluates
        scheme = compress(ens, sample, eta=0.2)
        h = reconstruct(scheme, sample, rerm, U)
        assert np.array_equal(h.values, ens.values)
        assert float((np.abs(h.values[cover.xs] - cover.ys) >= 0.1).mean()) <= 0.1

    @pytest.mark.parametrize("T, rate", [(1, None), (2, "0.444444"), (3, "0.666667"),
                                         (4, None), (6, None)])
    def test_t_rounds_meet_the_cover_condition_or_raise(self, T, rate):
        # nine points labeled 0.5; member i misses points 2i and 2i + 1
        # (mod 9) by 0.3, so the averages of T = 2 and T = 3 rounds miss
        # more than a quarter of the cover and raise, naming their rate
        rows = [[0.2 if j in (2 * i % 9, (2 * i + 1) % 9) else 0.5 for j in range(9)]
                for i in range(5)]
        pool = [make_class(rows).hypothesis(i) for i in range(5)]
        U, sample, cover = cover_of(range(9), [0.5] * 9)
        sources = [(i, i + 1) for i in range(5)]
        if rate is not None:
            with pytest.raises(StrongLearnerNotFound,
                               match=f"cover rate {rate} of the {T}-round average"):
                mw_boost(cover, pool, sources, eta=0.2, epsilon=0.25, T=T)
            return
        ens = mw_boost(cover, pool, sources, eta=0.2, epsilon=0.25, T=T)
        assert len(ens) == T
        assert ens.sources == tuple(sources[h.descriptor[1]] for h in ens.members)
        assert float((np.abs(ens.values[:9] - 0.5) >= 0.1).mean()) <= 0.25

    def test_a_deviation_of_exactly_eta_over_2_is_discounted(self):
        # at eta = 1/2, member 0 handles point 1 with a deviation of exactly
        # 1/4 and member 1 handles point 0 so.  Both points are discounted
        # alike, P stays uniform and the tie picks member 0 again; were the
        # boundary point not discounted, round two would pick member 1.
        pool, cover, _ = pool_setup([[0.5, 0.75], [0.75, 0.5]], [0.5, 0.5])
        ens = mw_boost(cover, pool, [(0,), (1,)], eta=0.5, epsilon=0.5, T=2)
        assert [h.descriptor for h in ens.members] == [("row", 0), ("row", 0)]

    def test_average_of_constants_folds_to_a_member(self):
        U, sample, cover = cover_of(range(3), [0.6, 0.6, 0.6])
        pool, sources, _ = build_pool(sample, U, rerm_constant, 0.2 / 4, 1,
                                      rng=np.random.default_rng(2))
        ens = mw_boost(cover, pool, sources, eta=0.2, epsilon=0.5, T=4)
        folded = ConstantClassOracle().fold_average(ens.members)
        assert folded is not None
        for z in range(3):
            assert folded(z) == pytest.approx(ens.values[z])
