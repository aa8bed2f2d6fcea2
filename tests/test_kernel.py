"""The robust-deviation kernel and its users against scalar loops.

Every comparison is exact: the kernel takes maxima over the same finite
sets and the errors add in the same order, so vectorised and scalar
results must agree to the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustreg import (
    EtaBall,
    FiniteClass,
    FiniteClassOracle,
    Hypothesis,
    Infeasible,
    LabeledExample,
    Lp,
    MissingPerturbation,
    PerturbationMap,
    empirical_error,
    rerm_finite,
    robust_deviations,
)

from reference import (
    brute_max_fit_subsets,
    scalar_empirical_error,
    scalar_max_fit_subset,
    scalar_rerm,
    scalar_robust_deviation,
)


@st.composite
def instances(draw, max_m=10):
    """(class matrix, perturbation map, sample) with uneven perturbation
    sets: clipped grid balls or random sets of 1-4 ids."""
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrix = rng.uniform(size=(rows, n))
    levels = draw(st.sampled_from([None, 3, 5]))
    if levels:  # coarse values put deviations exactly on the radius
        matrix = np.round(matrix * (levels - 1)) / (levels - 1)
    if draw(st.booleans()):
        U = PerturbationMap.grid_ball(n, draw(st.integers(0, 2)))
    else:
        U = PerturbationMap({
            x: [x] + [z for z in draw(st.lists(st.integers(0, n - 1), max_size=3,
                                               unique=True)) if z != x]
            for x in range(n)
        })
    m = draw(st.integers(0, max_m))
    xs = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    ys = rng.uniform(size=m)
    if levels:
        ys = np.round(ys * (levels - 1)) / (levels - 1)
    sample = [LabeledExample(x, float(y)) for x, y in zip(xs, ys)]
    return matrix, U, sample


ETAS = st.sampled_from([0.125, 0.25, 0.5, 0.3, 0.75, 1.0])


@given(instances())
def test_kernel_matches_scalar_maxima(inst):
    matrix, U, sample = inst
    devs = robust_deviations(matrix, sample, U)
    assert devs.shape == (matrix.shape[0], len(sample))
    for r, row in enumerate(matrix):
        for i, ex in enumerate(sample):
            assert devs[r, i] == scalar_robust_deviation(row, ex, U)


@given(instances(), ETAS)
def test_rerm_matches_scalar(inst, eta):
    matrix, U, sample = inst
    row, worst = scalar_rerm(matrix, sample, U, eta)
    if row is None:
        with pytest.raises(Infeasible) as err:
            rerm_finite(FiniteClass(matrix), sample, U, eta)
        assert err.value.min_deviation == min(worst)
    else:
        assert rerm_finite(FiniteClass(matrix), sample, U, eta).descriptor == ("finite", row)


@given(instances(max_m=8), ETAS)
@settings(max_examples=60)
def test_max_fit_subset_matches_scalar_and_brute_force(inst, eta):
    matrix, U, sample = inst
    fit, witness = FiniteClassOracle(FiniteClass(matrix)).max_fit_subset(sample, U, eta)
    best_fit, best_row = scalar_max_fit_subset(matrix, sample, U, eta)
    assert fit == best_fit and witness.descriptor == ("finite", best_row)
    size, subsets = brute_max_fit_subsets(matrix, sample, U, eta)
    assert len(fit) == size and frozenset(fit) in subsets


@given(instances(max_m=40), ETAS, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_empirical_error_matches_scalar(inst, eta, p):
    matrix, U, sample = inst
    if not sample:
        return
    # a class row, and a vector no class row equals (an aggregate's values)
    vectors = [matrix[0], matrix.mean(axis=0) / 3 + 0.1]
    for values in vectors:
        h = Hypothesis(values, ("table",))
        if eta < 1.0:
            assert (empirical_error(h, sample, U, EtaBall(eta))
                    == scalar_empirical_error(values, sample, U, eta=eta))
        assert (empirical_error(h, sample, U, Lp(p))
                == scalar_empirical_error(values, sample, U, p=p))


class TestMissingPerturbation:
    U = PerturbationMap({0: (0, 1), 1: (1,), 3: (3, 2)})  # no entry for 2
    cls = FiniteClass(np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.5, 0.5, 0.5]]))

    @pytest.mark.parametrize("x", [2, 4, 9, -1])
    def test_every_user_of_the_kernel_raises(self, x):
        sample = [LabeledExample(0, 0.1), LabeledExample(x, 0.3)]
        h = self.cls.hypothesis(0)
        with pytest.raises(MissingPerturbation, match=str(x)):
            robust_deviations(self.cls.matrix, sample, self.U)
        with pytest.raises(MissingPerturbation):
            rerm_finite(self.cls, sample, self.U, 0.5)
        with pytest.raises(MissingPerturbation):
            FiniteClassOracle(self.cls).max_fit_subset(sample, self.U, 0.5)
        with pytest.raises(MissingPerturbation):
            empirical_error(h, sample, self.U, Lp(1.0))

    def test_ids_with_entries_still_evaluate(self):
        sample = [LabeledExample(3, 0.3)]
        # U(3) = {3, 2}: id 2 is a perturbation even without its own entry
        assert robust_deviations(self.cls.matrix, sample, self.U)[:, 0].tolist() == [
            pytest.approx(0.1), pytest.approx(0.2)]
