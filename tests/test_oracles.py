import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustreg import (
    FiniteClass,
    PerturbationMap,
    PointDistribution,
    constant_hypothesis,
    find_weak_learner,
    rerm_constant,
    rerm_finite,
    robust_deviations,
)
from robustreg.errors import InvalidParameter, WeakLearnerNotFound
from robustreg.oracles import ConstantClassOracle, FiniteClassOracle, load_class_csv

from conftest import LEVELS, labeled, make_class, pool_setup, violations
from reference import loop_rerm_constant, sweep_max_fit_constant


TWO_CONSTANTS = make_class([[0.2], [0.8]])
ID1 = PerturbationMap.identity(1)


def fit_all(rerm, pts, U, eta):
    """One batched fit of every point of ``pts``: the single-subset call."""
    return rerm(pts, [range(len(pts))], U, eta)[0]


class TestRermFinite:
    def test_empty_subset_returns_first_row(self):
        h = fit_all(partial(rerm_finite, TWO_CONSTANTS), labeled([]), ID1, 0.1)
        assert h.descriptor == ("finite", 0)

    def test_feasibility_scan(self):
        h = fit_all(partial(rerm_finite, TWO_CONSTANTS), labeled([(0, 0.75)]), ID1, 0.1)
        assert h.descriptor == ("finite", 1)

    def test_infeasible_subset_is_none(self):
        # both rows miss 0.5 by 0.3; the fits around it are unaffected
        pts = labeled([(0, 0.5), (0, 0.2)])
        fits = rerm_finite(TWO_CONSTANTS, pts, [[0], [1], [0, 1]], ID1, 0.1)
        assert fits[0] is None and fits[2] is None
        assert fits[1].descriptor == ("finite", 0)

    @given(st.data())
    @settings(max_examples=40)
    def test_output_meets_the_contract(self, data):
        n_h = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(1, 5))
        matrix = data.draw(st.lists(
            st.lists(st.floats(0, 1), min_size=n, max_size=n),
            min_size=n_h, max_size=n_h))
        cls = make_class(matrix)
        U = PerturbationMap.grid_ball(n, 1)
        pts = labeled(data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.floats(0, 1)), max_size=4)))
        eta = data.draw(st.floats(0.05, 1.0))
        h = fit_all(partial(rerm_finite, cls), pts, U, eta)
        if h is None:
            assert (robust_deviations(cls.matrix, pts, U).max(axis=1) > eta).all()
            return
        assert (robust_deviations(h.values, pts, U) <= eta).all()

    def test_one_hypothesis_per_fitted_row(self, monkeypatch):
        # subsets 0, 2 and 3 fit row 0 and subset 1 fits row 1: one object each
        calls = []
        build = FiniteClass.hypothesis
        monkeypatch.setattr(FiniteClass, "hypothesis",
                            lambda cls, row: calls.append(row) or build(cls, row))
        pts = labeled([(0, 0.25), (0, 0.75), (0, 0.5)])
        fits = rerm_finite(TWO_CONSTANTS, pts, [[0], [1], [0, 0], [0], [2]], ID1, 0.1)
        assert sorted(calls) == [0, 1]
        assert fits[0] is fits[2] is fits[3] and fits[4] is None
        assert [h.descriptor for h in fits[:4]] == [("finite", 0), ("finite", 1),
                                                    ("finite", 0), ("finite", 0)]

    @given(st.floats(0.05, 0.5), st.floats(0.5, 1.0))
    def test_monotone_in_eta(self, small, large):
        pts = labeled([(0, 0.55)])
        if fit_all(partial(rerm_finite, TWO_CONSTANTS), pts, ID1, small) is None:
            return  # feasibility at the smaller radius is the premise
        assert fit_all(partial(rerm_finite, TWO_CONSTANTS), pts, ID1, large) is not None


class TestRermConstant:
    def test_single_point_midpoint(self):
        h = fit_all(rerm_constant, labeled([(0, 0.4)]), ID1, 0.2)
        assert h.descriptor[1] == pytest.approx(0.4)

    def test_interval_intersection(self):
        h = fit_all(rerm_constant, labeled([(0, 0.3), (0, 0.5)]), ID1, 0.2)
        assert h.descriptor[1] == pytest.approx(0.4)

    def test_disjoint_intervals(self):
        assert fit_all(rerm_constant, labeled([(0, 0.3), (0, 0.5)]), ID1, 0.05) is None

    @given(st.data())
    @settings(max_examples=30)
    def test_agrees_with_gridded_finite_class(self, data):
        # a 1e-3 grid of constants stands in for the continuous class
        ys = data.draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))
        eta = data.draw(st.floats(0.05, 0.9))
        pts = labeled([(0, round(y, 3)) for y in ys])
        grid = np.round(np.linspace(0.0, 1.0, 1001), 3)
        ours = fit_all(rerm_constant, pts, ID1, eta)
        theirs = fit_all(partial(rerm_finite, make_class(grid[:, None])), pts, ID1, eta)
        if ours is None:
            assert theirs is None
            return
        # both must be feasible constants (grid may miss a sub-resolution window)
        assert all(abs(ours.descriptor[1] - y) <= eta + 1e-12 for y in pts.ys.tolist())
        if theirs is not None:
            assert all(abs(theirs(0) - y) <= eta + 1e-9 for y in pts.ys.tolist())


@given(st.data())
@settings(max_examples=150)
def test_constant_class_equals_the_former_sweeps(data):
    # labels and radii on a few levels, so that endpoints and midpoints tie
    ys = data.draw(st.lists(st.sampled_from(LEVELS), max_size=8))
    eta = data.draw(st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.5, 1.0]))
    pts = labeled([(i, y) for i, y in enumerate(ys)])
    U = PerturbationMap.identity(max(len(ys), 1))
    subsets = data.draw(st.lists(st.lists(st.integers(0, len(ys) - 1), max_size=4)
                                 if ys else st.just([]), max_size=5))
    for ours, theirs in zip(rerm_constant(pts, subsets, U, eta),
                            loop_rerm_constant(pts, subsets, U, eta), strict=True):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.descriptor == theirs.descriptor
            assert ours.values.tobytes() == theirs.values.tobytes()
    fit, witness = ConstantClassOracle().max_fit_subset(pts, U, eta)
    old_fit, old_witness = sweep_max_fit_constant(pts, U, eta)
    assert fit == old_fit and witness.descriptor == old_witness.descriptor


class TestWeakLearnerCheck:
    """The (eta/4, 1/6) check that ``find_weak_learner`` applies, on
    one-member pools at eta = 0.2; each member misses by a full 1.0."""

    def passes(self, ys):
        pool, cover, P = pool_setup([[0.0] * len(ys)], ys)
        try:
            return find_weak_learner(P, violations(pool, cover, lambda d: d > 0.05)) == 0
        except WeakLearnerNotFound:
            return False

    def test_exact_fit_passes_any_beta(self):
        assert self.passes([0.0, 0.0])

    def test_quarter_mass_violation_passes(self):
        assert self.passes([0.0, 0.0, 0.0, 1.0])

    def test_third_mass_violation_fails_strictly(self):
        assert not self.passes([0.0, 0.0, 1.0])
        assert not self.passes([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])


class TestPointDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(InvalidParameter):
            PointDistribution(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            PointDistribution(np.array([1.5, -0.5]))

    # [nan, 1.0] once passed, since abs(nan - 1) > 1e-9 is False
    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [1.0, math.nan],
                                         [math.inf, 0.0], [math.inf, -math.inf]])
    def test_rejects_non_finite(self, weights):
        with pytest.raises(InvalidParameter, match="finite"):
            PointDistribution(np.array(weights))

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10))
    def test_reweight_renormalizes(self, mults):
        P = PointDistribution.uniform(len(mults))
        Q = P.reweight(np.asarray(mults))
        assert abs(Q.weights.sum() - 1.0) <= 1e-9


class TestOracleWrappers:
    def test_finite_max_fit_subset_single_outlier(self):
        cls = make_class([[0.5, 0.5, 0.5]])
        U = PerturbationMap.identity(3)
        sample = labeled([(0, 0.5), (1, 0.5), (2, 1.0)])
        fit, witness = FiniteClassOracle(cls).max_fit_subset(sample, U, 0.2)
        assert fit == (0, 1)
        assert witness.descriptor == ("finite", 0)

    def test_constant_max_fit_subset(self):
        U = PerturbationMap.identity(4)
        sample = labeled([(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.9)])
        fit, witness = ConstantClassOracle().max_fit_subset(sample, U, 0.15)
        assert fit == (0, 1, 2)
        c = witness.descriptor[1]
        assert all(abs(c - sample.ys[i]) < 0.15 for i in fit)

    def test_constant_fold_average(self):
        members = [constant_hypothesis(v, 1) for v in (0.2, 0.4)]
        folded = ConstantClassOracle().fold_average(members)
        assert folded.descriptor == ("constant", pytest.approx(0.3))

    def test_constant_fat_values(self):
        oracle = ConstantClassOracle()
        assert oracle.fat(0.5) == 1 and oracle.fat(0.51) == 0
        assert oracle.dual_fat(0.1) == 0

    def test_finite_fat_falls_back_past_caps(self):
        cls = make_class(np.full((4, 40), 0.5))
        oracle = FiniteClassOracle(cls)
        assert oracle.fat(0.1) == 2  # log2(4) bound, exact search capped


@pytest.mark.parametrize("matrix", [
    [[0.5, 0.25], [0.75]],
    [["a", "b"], ["c", "d"]],
    [[0.5, "0.25"]],
    [[0.5, None]],
    np.array([[0.5, 0.25]]) + 0j,
], ids=["ragged", "strings", "a-string", "none", "complex"])
def test_a_class_of_other_than_real_numbers_is_refused(matrix):
    with pytest.raises(InvalidParameter, match="class"):
        FiniteClass(matrix)


def test_a_boolean_class_reads_as_its_float_copy():
    cls = FiniteClass(np.array([[True, False], [False, True]]))
    assert cls.matrix.dtype == float and cls.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestClassCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cls.csv"
        path.write_text("1,0\n0.25,0.5\n0.75,1.0\n")
        cls = load_class_csv(path)
        # header permutes columns back into id order
        assert cls.matrix.tolist() == [[0.5, 0.25], [1.0, 0.75]]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cls.csv"
        path.write_text("0,2\n0.5,0.5\n")
        with pytest.raises(InvalidParameter):
            load_class_csv(path)
