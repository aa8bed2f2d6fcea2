import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustreg import (
    CompressionScheme,
    EtaBall,
    PerturbationMap,
    WeightedEnsemble,
    compress,
    constant_hypothesis,
    empirical_error,
    generalization_bound,
    reconstruct,
)
from robustreg.errors import InvalidParameter, NotCompressible, ReconstructionFailed
from robustreg.oracles import rerm_constant

from conftest import labeled


def median_ensemble(members, sources, alphas=None):
    alphas = alphas or (1.0,) * len(members)
    return WeightedEnsemble(members=tuple(members), alphas=tuple(alphas),
                            sources=tuple(sources), aggregation="weighted_median")


class TestCompress:
    def test_single_member(self):
        ens = median_ensemble([constant_hypothesis(0.4, 3)], [(0, 1)])
        scheme = compress(ens, labeled([(0, 0.4), (1, 0.4)]), 0.2, 2, True)
        assert scheme.groups == ((0, 1),)
        assert scheme.size == 2

    def test_three_members_group_size_two(self):
        ens = median_ensemble([constant_hypothesis(0.5, 3)] * 3,
                              [(0, 1), (1, 2), (0, 2)])
        scheme = compress(ens, labeled([(i, 0.5) for i in range(3)]), 0.2, 2, True)
        assert scheme.size == 6

    def test_padding_repeats_last_index(self):
        ens = median_ensemble([constant_hypothesis(0.5, 3)] * 2, [(0,), (1, 2)])
        scheme = compress(ens, labeled([(i, 0.5) for i in range(3)]), 0.2, 2, True)
        assert scheme.groups == ((0, 0), (1, 2))

    def test_empty_sources_not_compressible(self):
        ens = median_ensemble([constant_hypothesis(0.5, 3)], [()])
        with pytest.raises(NotCompressible):
            compress(ens, labeled([(0, 0.5)]), 0.2, 1, True)

    def test_average_schemes_store_no_alphas(self):
        ens = WeightedEnsemble(members=(constant_hypothesis(0.5, 3),),
                               alphas=(1.0,), sources=((0,),),
                               aggregation="average")
        scheme = compress(ens, labeled([(0, 0.5)]), 0.2, 1, False)
        assert scheme.aggregation == "average" and scheme.alphas is None


class TestReconstruct:
    U3 = PerturbationMap.identity(3)

    def test_constant_group_midpoint(self):
        scheme = CompressionScheme(eta=0.2, aggregation="median",
                                   groups=((0,),), alphas=(1.0,))
        h = reconstruct(scheme, labeled([(0, 0.4)]), rerm_constant, self.U3)
        assert h(1) == pytest.approx(0.4)

    def test_round_trip_evaluates_identically(self):
        sample = labeled([(0, 0.2), (1, 0.21), (2, 0.22)])
        members = [rerm_constant(sample[:2], self.U3, 0.2 / 8),
                   rerm_constant(sample[1:], self.U3, 0.2 / 8)]
        ens = median_ensemble(members, [(0, 1), (1, 2)], alphas=(0.7, 1.3))
        scheme = compress(ens, sample, 0.2, 2, True)
        h = reconstruct(scheme, sample, rerm_constant, self.U3)
        for z in range(3):
            assert h(z) == ens.values[z]

    def test_tampered_group_fails_loudly(self):
        sample = labeled([(0, 0.0), (1, 1.0)])
        scheme = CompressionScheme(eta=0.2, aggregation="median",
                                   groups=((0, 1),), alphas=(1.0,))
        with pytest.raises(ReconstructionFailed):
            reconstruct(scheme, sample, rerm_constant, PerturbationMap.identity(2))


class TestVerifyApproximation:
    """The audit every pipeline makes of its reconstruction: the robust
    eta-rate over the sample, ``empirical_error`` under ``EtaBall``, which
    counts a deviation of exactly eta."""

    U = PerturbationMap.identity(4)

    def test_exact_interpolant(self):
        h = constant_hypothesis(0.5, 4)
        assert empirical_error(h, labeled([(0, 0.5)] * 3), self.U, EtaBall(0.1)) == 0.0

    def test_one_violation_in_four(self):
        h = constant_hypothesis(0.0, 4)
        sample = labeled([(0, 0.0), (1, 0.0), (2, 0.0), (3, 1.0)])
        assert empirical_error(h, sample, self.U, EtaBall(0.5)) == 0.25

    def test_exact_eta_deviation_counts(self):
        h = constant_hypothesis(0.75, 4)
        assert empirical_error(h, labeled([(0, 0.5)]), self.U, EtaBall(0.25)) == 1.0


class TestGeneralizationBound:
    def test_frozen_values(self):
        delta = math.exp(-1.0)
        assert generalization_bound("realizable", 10, 1000, delta) == \
            pytest.approx(0.0700776, abs=1e-7)
        assert generalization_bound("agnostic", 10, 1000, delta) == \
            pytest.approx(0.2647217, abs=1e-7)

    def test_bernstein_with_zero_empirical_equals_realizable(self):
        assert generalization_bound("bernstein", 5, 200, 0.1, empirical=0.0) == \
            generalization_bound("realizable", 5, 200, 0.1)

    @given(st.integers(1, 20), st.integers(100, 2000), st.floats(0.01, 0.5),
           st.floats(0, 1))
    def test_bernstein_below_agnostic_plus_realizable(self, k, m, delta, emp):
        if k > m / 2:
            return
        b = generalization_bound("bernstein", k, m, delta, empirical=emp)
        a = generalization_bound("agnostic", k, m, delta)
        r = generalization_bound("realizable", k, m, delta)
        assert b <= a + r + 1e-12

    def test_monotonicities(self):
        for kind in ("realizable", "agnostic", "bernstein"):
            in_m = [generalization_bound(kind, 10, m, 0.05, empirical=0.3)
                    for m in (100, 200, 400, 800)]
            assert in_m == sorted(in_m, reverse=True)
            in_k = [generalization_bound(kind, k, 1000, 0.05, empirical=0.3)
                    for k in (1, 5, 25, 125)]
            assert in_k == sorted(in_k)
            in_delta = [generalization_bound(kind, 10, 1000, d, empirical=0.3)
                        for d in (0.2, 0.1, 0.05, 0.01)]
            assert in_delta == sorted(in_delta)

    def test_ranges(self):
        with pytest.raises(InvalidParameter):
            generalization_bound("realizable", 0, 100, 0.1)
        with pytest.raises(InvalidParameter):
            generalization_bound("realizable", 80, 100, 0.1)
        with pytest.raises(InvalidParameter):
            generalization_bound("realizable", 5, 100, 1.5)
        with pytest.raises(InvalidParameter):
            generalization_bound("bernstein", 5, 100, 0.1, empirical=2.0)
        with pytest.raises(InvalidParameter):
            generalization_bound("quantum", 5, 100, 0.1)


class TestSchemeJson:
    def test_golden_bytes(self):
        scheme = CompressionScheme(eta=0.25, aggregation="median",
                                   groups=((0, 1), (2, 2)), alphas=(1.0, 0.5))
        expected = ('{"eta":0.25,"aggregation":"median",'
                    '"groups":[[0,1],[2,2]],"alphas":[1.0,0.5]}')
        assert scheme.to_json() == expected

    def test_null_alphas(self):
        scheme = CompressionScheme(eta=0.5, aggregation="average",
                                   groups=((1,),), alphas=None)
        assert scheme.to_json() == \
            '{"eta":0.5,"aggregation":"average","groups":[[1]],"alphas":null}'

    @given(st.integers(0, 10 ** 6))
    def test_json_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        groups = tuple(tuple(int(i) for i in rng.integers(0, 9, size=3))
                       for _ in range(int(rng.integers(1, 4))))
        scheme = CompressionScheme(eta=float(rng.uniform(0.01, 0.99)),
                                   aggregation="median", groups=groups,
                                   alphas=tuple(float(a) for a in
                                                rng.uniform(0.1, 1, len(groups))))
        assert CompressionScheme.from_json(scheme.to_json()) == scheme

    def test_group_sizes_must_match(self):
        with pytest.raises(InvalidParameter):
            CompressionScheme(eta=0.2, aggregation="median",
                              groups=((0,), (1, 2)), alphas=None)
