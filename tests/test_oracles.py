import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustreg import (
    PerturbationMap,
    PointDistribution,
    constant_hypothesis,
    rerm_constant,
    rerm_finite,
    robust_deviations,
    weak_learner_check,
)
from robustreg.core import InflatedExample
from robustreg.errors import Infeasible, InvalidParameter
from robustreg.oracles import ConstantClassOracle, FiniteClassOracle, load_class_csv

from conftest import labeled, make_class


TWO_CONSTANTS = make_class([[0.2], [0.8]])
ID1 = PerturbationMap.identity(1)


class TestRermFinite:
    def test_empty_subset_returns_first_row(self):
        h = rerm_finite(TWO_CONSTANTS, [], ID1, 0.1)
        assert h.descriptor == ("finite", 0)

    def test_feasibility_scan(self):
        h = rerm_finite(TWO_CONSTANTS, labeled([(0, 0.75)]), ID1, 0.1)
        assert h.descriptor == ("finite", 1)

    def test_infeasible_carries_min_deviation(self):
        with pytest.raises(Infeasible) as err:
            rerm_finite(TWO_CONSTANTS, labeled([(0, 0.5)]), ID1, 0.1)
        assert err.value.min_deviation == pytest.approx(0.3)

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
        try:
            h = rerm_finite(cls, pts, U, eta)
        except Infeasible:
            return
        assert (robust_deviations(h.values, pts, U) <= eta).all()

    @given(st.floats(0.05, 0.5), st.floats(0.5, 1.0))
    def test_monotone_in_eta(self, small, large):
        pts = labeled([(0, 0.55)])
        try:
            rerm_finite(TWO_CONSTANTS, pts, ID1, small)
        except Infeasible:
            return  # feasibility at the smaller radius is the premise
        rerm_finite(TWO_CONSTANTS, pts, ID1, large)  # must not raise


class TestRermConstant:
    def test_single_point_midpoint(self):
        assert rerm_constant(labeled([(0, 0.4)]), ID1, 0.2).descriptor[1] == pytest.approx(0.4)

    def test_interval_intersection(self):
        h = rerm_constant(labeled([(0, 0.3), (0, 0.5)]), ID1, 0.2)
        assert h.descriptor[1] == pytest.approx(0.4)

    def test_disjoint_intervals(self):
        with pytest.raises(Infeasible):
            rerm_constant(labeled([(0, 0.3), (0, 0.5)]), ID1, 0.05)

    @given(st.data())
    @settings(max_examples=30)
    def test_agrees_with_gridded_finite_class(self, data):
        # a 1e-3 grid of constants stands in for the continuous class
        ys = data.draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))
        eta = data.draw(st.floats(0.05, 0.9))
        pts = labeled([(0, round(y, 3)) for y in ys])
        grid = np.round(np.linspace(0.0, 1.0, 1001), 3)
        gridded = make_class(grid[:, None])
        try:
            ours = rerm_constant(pts, ID1, eta)
        except Infeasible:
            ours = None
        try:
            theirs = rerm_finite(gridded, pts, ID1, eta)
        except Infeasible:
            theirs = None
        if ours is None:
            assert theirs is None
            return
        # both must be feasible constants (grid may miss a sub-resolution window)
        assert all(abs(ours.descriptor[1] - ex.y) <= eta + 1e-12 for ex in pts)
        if theirs is not None:
            assert all(abs(theirs(0) - ex.y) <= eta + 1e-9 for ex in pts)


class TestWeakLearnerCheck:
    def cover(self, ys):
        return [InflatedExample(z=0, y=y, origin=0) for y in ys]

    def test_exact_fit_passes_any_beta(self):
        h = constant_hypothesis(0.5, 1)
        pts = self.cover([0.5, 0.5])
        assert weak_learner_check(h, PointDistribution.uniform(2), pts, 0.1, 0.49)

    def test_quarter_mass_violation_passes(self):
        h = constant_hypothesis(0.0, 1)
        pts = self.cover([0.0, 0.0, 0.0, 1.0])
        assert weak_learner_check(h, PointDistribution.uniform(4), pts, 0.1, 1 / 6)

    def test_third_mass_violation_fails_strictly(self):
        h = constant_hypothesis(0.0, 1)
        pts = self.cover([0.0, 0.0, 1.0])
        assert not weak_learner_check(h, PointDistribution.uniform(3), pts, 0.1, 1 / 6)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_implied_by_indicator_error_below_half(self, ys):
        h = constant_hypothesis(0.5, 1)
        pts = self.cover(ys)
        P = PointDistribution.uniform(len(ys))
        err = np.mean([abs(h(p.z) - p.y) >= 0.2 for p in pts])
        if err < 0.5:
            assert weak_learner_check(h, P, pts, 0.2, 0.0)


class TestPointDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(InvalidParameter):
            PointDistribution(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            PointDistribution(np.array([1.5, -0.5]))

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
        assert all(abs(c - sample[i].y) < 0.15 for i in fit)

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
