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
    constant_hypothesis,
    empirical_error,
    inflate,
    load_domain,
    robust_deviations,
)
from robustreg.errors import EmptySample, InvalidParameter, MissingPerturbation

from conftest import labeled


def hyp_from_values(values):
    v = np.asarray(values, dtype=float)
    return Hypothesis(v, ("table", tuple(v)))


class TestInflate:
    def test_identity_perturbation_is_the_sample(self):
        sample = labeled([(0, 0.3)])
        out = inflate(sample, PerturbationMap.identity(1))
        assert [(e.z, e.y, e.origin) for e in out] == [(0, 0.3, 0)]

    def test_shared_perturbation_takes_min_index_label(self):
        U = PerturbationMap({0: (0, 2), 1: (1, 2), 2: (2,)})
        out = inflate(labeled([(0, 0.3), (1, 0.7)]), U)
        by_z = {e.z: e for e in out}
        assert by_z[2].y == 0.3 and by_z[2].origin == 0

    def test_duplicate_point_suppressed_with_min_index_label(self):
        U = PerturbationMap({0: (0, 1), 1: (1,)})
        out = inflate(labeled([(0, 0.2), (1, 0.9)]), U)
        assert [(e.z, e.y, e.origin) for e in out] == [(0, 0.2, 0), (1, 0.2, 0)]

    def test_missing_entry_names_the_instance(self):
        with pytest.raises(MissingPerturbation, match="3"):
            inflate(labeled([(3, 0.5)]), PerturbationMap.identity(2))

    @given(st.lists(st.tuples(st.integers(0, 14),
                              st.floats(0, 1, allow_nan=False)),
                    min_size=1, max_size=10, unique_by=lambda t: t[0]))
    def test_identity_inflation_is_a_bijection(self, pairs):
        sample = labeled(pairs)
        out = inflate(sample, PerturbationMap.identity(15))
        assert sorted((e.z, e.y) for e in out) == sorted((x, y) for x, y in pairs)
        assert all(e.z == sample[e.origin].x for e in out)

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
        sample = labeled([(x, (x + 1) / (n + 1)) for x in range(n)])
        for e in inflate(sample, U):
            assert e.z in U.of(sample[e.origin].x)
            assert all(e.z not in U.of(sample[j].x) for j in range(e.origin))
            assert e.y == sample[e.origin].y


def robust_loss(h, ex, U, mode):
    return empirical_error(h, [ex], U, mode)


def robust_deviation(h, ex, U):
    return robust_deviations(h.values, [ex], U)[0, 0]


class TestRobustLoss:
    """The loss of one example, read through ``empirical_error`` and the
    deviation kernel."""

    def test_zero_deviation(self):
        h = constant_hypothesis(0.5, 1)
        ex = LabeledExample(0, 0.5)
        assert robust_loss(h, ex, PerturbationMap.identity(1), EtaBall(0.1)) == 0.0

    def test_sup_over_two_points(self):
        h = hyp_from_values([0.3, 0.9])
        U = PerturbationMap({0: (0, 1)})
        ex = LabeledExample(0, 0.5)
        # worst deviation is |0.9 - 0.5| = 0.4
        assert robust_loss(h, ex, U, EtaBall(0.3)) == 1.0
        assert robust_loss(h, ex, U, Lp(2)) == pytest.approx(0.16)

    def test_boundary_deviation_counts(self):
        h = constant_hypothesis(0.75, 1)
        ex = LabeledExample(0, 0.5)
        assert robust_loss(h, ex, PerturbationMap.identity(1), EtaBall(0.25)) == 1.0

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_eta_ball_monotone_in_eta(self, v, y, eta):
        h = constant_hypothesis(v, 1)
        ex = LabeledExample(0, round(y, 6))
        U = PerturbationMap.identity(1)
        small = robust_loss(h, ex, U, EtaBall(min(eta, 0.5)))
        large = robust_loss(h, ex, U, EtaBall(max(eta, 0.5)))
        assert small >= large

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(1, 4))
    def test_lp_loss_is_power_of_deviation(self, v, y, p):
        h = constant_hypothesis(v, 1)
        ex = LabeledExample(0, y)
        U = PerturbationMap.identity(1)
        dev = robust_deviation(h, ex, U)
        assert robust_loss(h, ex, U, Lp(p)) == pytest.approx(dev ** p)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_singleton_set_equals_plain_loss(self, v, y):
        h = constant_hypothesis(v, 1)
        ex = LabeledExample(0, y)
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

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            empirical_error(constant_hypothesis(0.5, 1), [],
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
            LabeledExample(0, 1.5)

    def test_loss_mode_ranges(self):
        with pytest.raises(InvalidParameter):
            EtaBall(0.0)
        with pytest.raises(InvalidParameter):
            Lp(0.5)


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
        assert [(e.x, e.y) for e in dom.sample] == [(0, 0.25), (2, 0.75)]
        assert dom.perturbations.of(0) == (0, 1)
        assert dom.class_matrix.shape == (2, 3)
        assert [(e.x, e.y) for e in dom.holdout] == [(1, 0.5)]

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
    ])
    def test_ill_typed_field_names_its_key(self, key, value):
        with pytest.raises(InvalidParameter, match=key):
            load_domain({**self.DOC, key: value})

    def test_out_of_range_id(self):
        doc = dict(self.DOC)
        doc["samples"] = [[7, 0.5]]
        with pytest.raises(InvalidParameter):
            load_domain(doc)
