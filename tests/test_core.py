import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustreg import (
    EtaBall,
    Hypothesis,
    LabeledExample,
    Lp,
    PerturbationMap,
    Sample,
    as_sample,
    constant_hypothesis,
    empirical_error,
    inflate,
    load_domain,
    robust_deviations,
)
from robustreg.errors import EmptySample, InvalidParameter, MissingPerturbation

from conftest import labeled
from reference import left_to_right_sum, pairs, scalar_empirical_error


def hyp_from_values(values):
    v = np.asarray(values, dtype=float)
    return Hypothesis(v, ("table", tuple(v)))


class TestSample:
    def test_as_sample_reads_ids_and_labels_in_order(self):
        sample = as_sample(labeled([(2, 0.5), (0, 1.0), (2, 0.0)]))
        assert sample.xs.tolist() == [2, 0, 2] and sample.ys.tolist() == [0.5, 1.0, 0.0]
        assert sample.xs.dtype == np.intp and sample.ys.dtype == float
        assert len(sample) == 3 and as_sample(sample) is sample
        assert len(as_sample([])) == 0

    def test_take_keeps_the_given_order(self):
        sample = Sample(np.array([4, 5, 6]), np.array([0.1, 0.2, 0.3]))
        part = sample.take([2, 0, 2])
        assert part.xs.tolist() == [6, 4, 6] and part.ys.tolist() == [0.3, 0.1, 0.3]

    @pytest.mark.parametrize("y", [1.5, -0.25, math.nan, math.inf])
    def test_refuses_labels_outside_the_unit_interval(self, y):
        with pytest.raises(InvalidParameter) as err:
            Sample(np.array([0, 1]), np.array([0.5, y]))
        # the same check, with the same message, when a list is converted
        with pytest.raises(InvalidParameter) as single:
            as_sample([LabeledExample(1, y)])
        assert str(err.value) == str(single.value) == f"label must be in [0, 1], got {y}"

    @pytest.mark.parametrize("x", [2.5, math.nan, math.inf, 1e30])
    def test_refuses_ids_that_are_not_integers(self, x):
        for make in (lambda: Sample(np.array([1.0, x]), np.array([0.3, 0.3])),
                     lambda: as_sample([LabeledExample(1, 0.3), LabeledExample(x, 0.3)])):
            with pytest.raises(InvalidParameter, match=re.escape(f"an integer, got {x}")):
                make()

    def test_reads_whole_float_ids(self):
        assert Sample(np.array([2.0, 0.0]), np.array([0.3, 0.3])).xs.tolist() == [2, 0]

    def test_refuses_ids_and_labels_of_different_lengths(self):
        with pytest.raises(InvalidParameter, match="one length"):
            Sample(np.array([0, 1, 2]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("xs, ys", [
        (np.zeros((2, 2), dtype=int), np.full((2, 2), 0.5)),
        (np.array(3), np.array(0.5)),
        (np.array([0, 1]), np.full((2, 1), 0.5)),
    ])
    def test_refuses_arrays_that_are_not_1d(self, xs, ys):
        with pytest.raises(InvalidParameter, match="1-D"):
            Sample(xs, ys)


def test_hypotheses_compare_by_identity():
    # hand-built hypotheses may share a descriptor and differ in value
    low = Hypothesis(np.array([0.1, 0.9]), ("table",))
    high = Hypothesis(np.array([0.8, 0.2]), ("table",))
    assert low != high and low == low
    assert len({low, high, low}) == 2


class TestInflate:
    def test_identity_perturbation_is_the_sample(self):
        out = inflate(labeled([(0, 0.3)]), PerturbationMap.identity(1))
        assert pairs(out) == [(0, 0.3)]

    def test_shared_perturbation_takes_min_index_label(self):
        U = PerturbationMap({0: (0, 2), 1: (1, 2), 2: (2,)})
        out = inflate(labeled([(0, 0.3), (1, 0.7)]), U)
        assert pairs(out) == [(0, 0.3), (2, 0.3), (1, 0.7)]

    def test_duplicate_point_suppressed_with_min_index_label(self):
        U = PerturbationMap({0: (0, 1), 1: (1,)})
        out = inflate(labeled([(0, 0.2), (1, 0.9)]), U)
        assert pairs(out) == [(0, 0.2), (1, 0.2)]

    def test_missing_entry_names_the_instance(self):
        with pytest.raises(MissingPerturbation, match="3"):
            inflate(labeled([(3, 0.5)]), PerturbationMap.identity(2))

    @given(st.lists(st.tuples(st.integers(0, 14),
                              st.floats(0, 1, allow_nan=False)),
                    min_size=1, max_size=10, unique_by=lambda t: t[0]))
    def test_identity_inflation_is_a_bijection(self, examples):
        out = inflate(labeled(examples), PerturbationMap.identity(15))
        assert out.xs.dtype == np.intp and out.ys.dtype == float
        assert pairs(out) == [(x, float(y)) for x, y in examples]

    @given(st.data())
    @settings(max_examples=60)
    def test_origin_is_the_minimal_index_by_rescan(self, data):
        n = data.draw(st.integers(2, 8))
        table = {
            x: [x] + data.draw(st.lists(st.integers(0, n - 1), max_size=3,
                                        unique=True).map(
                lambda zs, x=x: [z for z in zs if z != x]))
            for x in range(n)
        }
        U = PerturbationMap(table)
        examples = [(x, (x + 1) / (n + 1)) for x in range(n)]
        out = inflate(labeled(examples), U)
        # the origin of a point is the first example whose set holds it
        origins = [next(j for j, (x, _) in enumerate(examples) if z in U.of(x))
                   for z in out.xs.tolist()]
        assert out.ys.tolist() == [examples[j][1] for j in origins]
        keys = [(j, z) for j, z in zip(origins, out.xs.tolist())]
        assert keys == sorted(set(keys))
        assert set(out.xs.tolist()) == {z for x, _ in examples for z in U.of(x)}


def robust_loss(h, ex, U, mode):
    return empirical_error(h, labeled([ex]), U, mode)


def robust_deviation(h, ex, U):
    return robust_deviations(h.values, labeled([ex]), U)[0, 0]


class TestRobustLoss:
    """The loss of one example ``(id, label)``, read through
    ``empirical_error`` and the deviation kernel."""

    def test_zero_deviation(self):
        h = constant_hypothesis(0.5, 1)
        ex = (0, 0.5)
        assert robust_loss(h, ex, PerturbationMap.identity(1), EtaBall(0.1)) == 0.0

    def test_sup_over_two_points(self):
        h = hyp_from_values([0.3, 0.9])
        U = PerturbationMap({0: (0, 1)})
        ex = (0, 0.5)
        # worst deviation is |0.9 - 0.5| = 0.4
        assert robust_loss(h, ex, U, EtaBall(0.3)) == 1.0
        assert robust_loss(h, ex, U, Lp(2)) == pytest.approx(0.16)

    def test_boundary_deviation_counts(self):
        h = constant_hypothesis(0.75, 1)
        ex = (0, 0.5)
        assert robust_loss(h, ex, PerturbationMap.identity(1), EtaBall(0.25)) == 1.0

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_eta_ball_monotone_in_eta(self, v, y, eta):
        h = constant_hypothesis(v, 1)
        ex = (0, round(y, 6))
        U = PerturbationMap.identity(1)
        small = robust_loss(h, ex, U, EtaBall(min(eta, 0.5)))
        large = robust_loss(h, ex, U, EtaBall(max(eta, 0.5)))
        assert small >= large

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(1, 4))
    def test_lp_loss_is_power_of_deviation(self, v, y, p):
        h = constant_hypothesis(v, 1)
        ex = (0, y)
        U = PerturbationMap.identity(1)
        dev = robust_deviation(h, ex, U)
        assert robust_loss(h, ex, U, Lp(p)) == pytest.approx(dev ** p)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_singleton_set_equals_plain_loss(self, v, y):
        h = constant_hypothesis(v, 1)
        ex = (0, y)
        U = PerturbationMap.identity(1)
        assert robust_deviation(h, ex, U) == abs(v - y)


class TestEmpiricalError:
    def test_single_zero_loss(self):
        h = constant_hypothesis(0.5, 1)
        U = PerturbationMap.identity(1)
        assert empirical_error(h, labeled([(0, 0.5)]), U, EtaBall(0.1)) == 0.0

    def test_mean_of_indicators(self):
        h = constant_hypothesis(0.0, 2)
        U = PerturbationMap.identity(2)
        sample = labeled([(0, 0.9), (1, 0.0)])
        assert empirical_error(h, sample, U, EtaBall(0.5)) == 0.5

    def test_mean_of_lp_losses(self):
        h = constant_hypothesis(0.0, 3)
        U = PerturbationMap.identity(3)
        sample = labeled([(0, 0.1), (1, 0.2), (2, 0.3)])
        assert empirical_error(h, sample, U, Lp(1)) == pytest.approx(0.2)

    def test_losses_add_left_to_right(self):
        # 1 + 1e-16 rounds back to 1 at each step; a compensated sum (the
        # builtin sum from Python 3.12 on) would keep the ten small losses
        values = np.array([1.0] + [1e-16] * 10)
        h = Hypothesis(values, ("table",))
        sample = labeled([(x, 0.0) for x in range(11)])
        U = PerturbationMap.identity(11)
        assert math.fsum(values.tolist()) != left_to_right_sum(values.tolist())
        err = empirical_error(h, sample, U, Lp(1.0))
        assert err == scalar_empirical_error(values, sample, U, p=1.0) == 1.0 / 11

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            empirical_error(constant_hypothesis(0.5, 1), labeled([]),
                            PerturbationMap.identity(1), EtaBall(0.1))


class TestValidation:
    def test_perturbation_must_contain_self(self):
        with pytest.raises(InvalidParameter):
            PerturbationMap({0: (1,), 1: (1,)})

    def test_perturbation_rejects_duplicates(self):
        with pytest.raises(InvalidParameter):
            PerturbationMap({0: (0, 0)})

    @pytest.mark.parametrize("table", [{-1: (-1,)}, {0: (0, -2)}])
    def test_perturbation_rejects_negative_ids(self, table):
        # a negative id would index the padded matrix from its end
        with pytest.raises(InvalidParameter):
            PerturbationMap(table)

    def test_label_range(self):
        with pytest.raises(InvalidParameter):
            as_sample([LabeledExample(0, 1.5)])

    def test_loss_mode_ranges(self):
        with pytest.raises(InvalidParameter):
            EtaBall(0.0)
        with pytest.raises(InvalidParameter):
            Lp(0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_lp_needs_a_finite_p(self, p):
        with pytest.raises(InvalidParameter, match="^p must be finite and >= 1"):
            Lp(p)


class TestDomainDocument:
    DOC = {
        "domain_size": 3,
        "samples": [[0, 0.25], [2, 0.75]],
        "perturbations": {"0": [0, 1], "1": [1], "2": [2]},
        "class_matrix": [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]],
        "holdout": [[1, 0.5]],
    }

    def test_roundtrip(self):
        dom = load_domain(dict(self.DOC))
        assert dom.domain_size == 3
        assert isinstance(dom.sample, Sample) and isinstance(dom.holdout, Sample)
        assert pairs(dom.sample) == [(0, 0.25), (2, 0.75)]
        assert dom.perturbations.of(0) == (0, 1)
        assert dom.class_matrix.tolist() == self.DOC["class_matrix"]
        assert pairs(dom.holdout) == [(1, 0.5)]
        assert len(load_domain({**self.DOC, "holdout": []}).holdout) == 0

    def test_missing_key(self):
        doc = dict(self.DOC)
        del doc["perturbations"]
        with pytest.raises(InvalidParameter, match="perturbations"):
            load_domain(doc)

    @pytest.mark.parametrize("key, value", [
        ("domain_size", None), ("domain_size", "3"),
        ("samples", None), ("samples", [[0, "x"]]), ("samples", [[0.0, 0.5, 1]]),
        ("samples", [[True, 0.5]]), ("samples", [[0.5, 0.5]]), ("perturbations", {"0": None}),
        ("perturbations", {"a": [0]}), ("perturbations", {"0": ["1"]}),
        ("class_matrix", [[0.1, 0.2], [0.3]]), ("class_matrix", "rows"),
        ("holdout", [[1, None]]),
        ("class_matrix", []), ("class_matrix", [[0.1, 0.2, 0.3], "row"]),
        # strings, booleans and non-finite entries are not JSON numbers
        ("class_matrix", [["0.5", "1e-1", "0"], [0.1, 0.2, 0.3]]),
        ("class_matrix", [[True, 0, 0.5], [0.1, 0.2, 0.3]]),
        ("class_matrix", [[0.1, None, 0.3], [0.1, 0.2, 0.3]]),
        ("class_matrix", [[0.1, math.nan, 0.3], [0.1, 0.2, 0.3]]),
    ])
    def test_ill_typed_field_names_its_key(self, key, value):
        with pytest.raises(InvalidParameter, match=key):
            load_domain({**self.DOC, key: value})

    def test_out_of_range_id(self):
        doc = dict(self.DOC)
        doc["samples"] = [[7, 0.5]]
        with pytest.raises(InvalidParameter):
            load_domain(doc)
