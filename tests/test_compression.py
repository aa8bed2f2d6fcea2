import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from robustreg import (
    CompressionScheme,
    EtaBall,
    FiniteClass,
    FiniteClassOracle,
    PerturbationMap,
    WeightedEnsemble,
    compress,
    constant_hypothesis,
    empirical_error,
    generalization_bound,
    reconstruct,
)
from robustreg.boosting import AVERAGE_REFIT, MEDIAN_REFIT
from robustreg.errors import InvalidParameter, NotCompressible, ReconstructionFailed
from robustreg.oracles import rerm_constant

from conftest import LEVELS, labeled
from reference import stacked_aggregate


def median_ensemble(members, sources, alphas=None):
    alphas = alphas or (1.0,) * len(members)
    return WeightedEnsemble(members=tuple(members), alphas=tuple(alphas),
                            sources=tuple(sources), aggregation="median")


class TestCompress:
    def test_single_member(self):
        ens = median_ensemble([constant_hypothesis(0.4, 3)], [(0, 1)])
        scheme = compress(ens, labeled([(0, 0.4), (1, 0.4)]), 0.2)
        assert scheme.groups == ((0, 1),)
        assert scheme.size == 2

    def test_three_members_group_size_two(self):
        ens = median_ensemble([constant_hypothesis(0.5, 3)] * 3,
                              [(0, 1), (1, 2), (0, 2)])
        scheme = compress(ens, labeled([(i, 0.5) for i in range(3)]), 0.2)
        assert scheme.size == 6

    def test_sources_of_different_sizes_are_refused(self):
        ens = median_ensemble([constant_hypothesis(0.5, 3)] * 2, [(0,), (1, 2)])
        with pytest.raises(InvalidParameter, match="one fixed size"):
            compress(ens, labeled([(i, 0.5) for i in range(3)]), 0.2)

    @pytest.mark.parametrize("alphas, stored", [
        ((1.0, 1.0), None), ((1.0, 0.5), (1.0, 0.5)), ((2.0, 2.0), (2.0, 2.0))])
    def test_alphas_are_stored_unless_all_one(self, alphas, stored):
        ens = median_ensemble([constant_hypothesis(0.5, 3)] * 2, [(0,), (1,)], alphas)
        assert compress(ens, labeled([(0, 0.5), (1, 0.5)]), 0.2).alphas == stored

    def test_empty_sources_not_compressible(self):
        ens = median_ensemble([constant_hypothesis(0.5, 3)], [()])
        with pytest.raises(NotCompressible):
            compress(ens, labeled([(0, 0.5)]), 0.2)

    @given(st.lists(st.lists(st.integers(-3, 8), min_size=2, max_size=2),
                    min_size=1, max_size=4),
           st.lists(st.integers(0, 3), min_size=1, max_size=20))
    def test_names_the_first_outside_index_of_all_sources(self, distinct, picks):
        sources = [distinct[i % len(distinct)] for i in picks]  # lists, some repeated
        ens = median_ensemble([constant_hypothesis(0.5, 3)] * len(sources), sources)
        sample = labeled([(i % 3, 0.5) for i in range(5)])
        every = np.concatenate(sources)
        outside = every[(every < 0) | (every >= len(sample))]
        if not outside.size:
            assert compress(ens, sample, 0.2).groups == tuple(map(tuple, sources))
            return
        with pytest.raises(NotCompressible, match=f"^source index {outside[0]} outside"):
            compress(ens, sample, 0.2)

    def test_average_schemes_store_no_alphas(self):
        ens = WeightedEnsemble(members=(constant_hypothesis(0.5, 3),),
                               alphas=(1.0,), sources=((0,),),
                               aggregation="average")
        scheme = compress(ens, labeled([(0, 0.5)]), 0.2)
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
        members = rerm_constant(sample, [(0, 1), (1, 2)], self.U3, 0.2 / 8)
        ens = median_ensemble(members, [(0, 1), (1, 2)], alphas=(0.7, 1.3))
        scheme = compress(ens, sample, 0.2)
        assert scheme.alphas == (0.7, 1.3)
        h = reconstruct(scheme, sample, rerm_constant, self.U3)
        for z in range(3):
            assert h(z) == ens.values[z]
        # a scheme read back from its JSON (lists, not tuples) replays the same
        read = CompressionScheme(**json.loads(scheme.to_json()))
        assert reconstruct(read, sample, rerm_constant, self.U3).values.tolist() == \
            h.values.tolist()

    @given(st.data())
    def test_repeated_and_padded_groups_equal_a_refit_per_group(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        n = 6
        cls = FiniteClass(rng.choice(LEVELS, size=(4, n)))
        U = PerturbationMap.identity(n)
        # every label is some row's value, so small groups often fit
        sample = labeled([(x, float(cls.matrix[rng.integers(4), x])) for x in range(n)]
                         + [(x, float(cls.matrix[0, x])) for x in range(n)])
        size = data.draw(st.integers(1, 3))
        sets = data.draw(st.lists(
            st.lists(st.integers(0, len(sample) - 1), min_size=1, max_size=size, unique=True),
            min_size=1, max_size=4))
        # a set smaller than the group size is padded with its last index
        distinct = [tuple(s) + (s[-1],) * (size - len(s)) for s in sets]
        groups = tuple(data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=25)))
        alphas = data.draw(st.one_of(st.none(), st.lists(
            st.floats(0.1, 2.0), min_size=len(groups), max_size=len(groups))))
        median = data.draw(st.booleans())
        scheme = CompressionScheme(eta=0.2, aggregation="median" if median else "average",
                                   groups=groups, alphas=alphas and tuple(alphas))
        rerm = FiniteClassOracle(cls).rerm
        scale = 0.2 * (MEDIAN_REFIT if median else AVERAGE_REFIT)
        refits = [rerm(sample, [sorted(set(g))], U, scale)[0] for g in groups]
        if any(h is None for h in refits):
            with pytest.raises(ReconstructionFailed):
                reconstruct(scheme, sample, rerm, U)
            return
        h = reconstruct(scheme, sample, rerm, U)
        expected = stacked_aggregate(refits, alphas or [1.0] * len(groups), median)
        assert h.values.tobytes() == expected.tobytes()

    def test_tampered_group_fails_loudly(self):
        sample = labeled([(0, 0.0), (1, 1.0)])
        scheme = CompressionScheme(eta=0.2, aggregation="median",
                                   groups=((0, 1),), alphas=(1.0,))
        with pytest.raises(ReconstructionFailed, match=r"group 0 \(0, 1\)"):
            reconstruct(scheme, sample, rerm_constant, PerturbationMap.identity(2))


class TestSharedSlots:
    """Repeated picks share one source object (``from_picks``); a scheme read
    back from JSON holds an equal copy in every slot.  Which one a scheme
    holds never changes its bytes, its replay or its refits."""

    @given(st.data())
    def test_sharing_never_changes_the_output(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        n = 6
        oracle = FiniteClassOracle(FiniteClass(rng.choice(LEVELS, size=(4, n))))
        U = PerturbationMap.identity(n)
        sample = labeled([(x, float(oracle.cls.matrix[rng.integers(4), x])) for x in range(n)])
        median = data.draw(st.booleans())
        scale = 0.2 * (MEDIAN_REFIT if median else AVERAGE_REFIT)
        size = data.draw(st.integers(1, 3))
        sets = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
            .map(lambda s: tuple(sorted(s))), min_size=1, max_size=4, unique=True))
        fitted = [(h, s) for h, s in zip(oracle.rerm(sample, sets, U, scale), sets)
                  if h is not None]
        assume(fitted)
        pool, sources = zip(*fitted)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        alphas = data.draw(st.one_of(st.none(), st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=len(picks), max_size=len(picks))))
        shared = WeightedEnsemble.from_picks(pool, sources, picks,
                                             "median" if median else "average", alphas)
        copied = replace(shared, sources=tuple(map(tuple, json.loads(json.dumps(shared.sources)))))
        assert len(set(map(id, copied.sources))) == len(picks)
        scheme, copy = compress(shared, sample, 0.2), compress(copied, sample, 0.2)
        assert scheme.to_json() == copy.to_json()
        calls = []

        def rerm(sample, subsets, U, eta):
            calls.append(list(subsets))
            return oracle.rerm(sample, subsets, U, eta)

        read = CompressionScheme(**json.loads(copy.to_json()))
        values = {reconstruct(s, sample, rerm, U).values.tobytes() for s in (scheme, copy, read)}
        assert values == {shared.values.tobytes()}
        assert calls == [list(dict.fromkeys(sources[i] for i in picks))] * 3


K = 7  # slots of the schemes below; each fault sits in the last one only


def last_differs(shared, fault):
    """K slots: K - 1 that share ``shared``, then ``fault``."""
    return (shared,) * (K - 1) + (fault,)


class TestValidationReachesEverySlot:
    sample = labeled([(0, 0.5), (1, 0.5), (2, 1.0)])
    h = constant_hypothesis(0.5, 3)

    def ensemble(self, sources, alphas=(1.0,) * K):
        return median_ensemble([self.h] * K, sources, alphas)

    @pytest.mark.parametrize("alpha", [math.nan, -1.0])
    def test_a_bad_alpha(self, alpha):
        with pytest.raises(InvalidParameter, match="^alphas must be finite and nonnegative$"):
            self.ensemble(((0, 1),) * K, last_differs(1.0, alpha))

    @pytest.mark.parametrize("fault, error, message", [
        ((), NotCompressible, "an ensemble member carries no source indices"),
        ((0,), InvalidParameter, "groups must share one fixed size"),
        ((1, 7), NotCompressible, "source index 7 outside the sample"),
    ])
    def test_a_bad_source(self, fault, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            compress(self.ensemble(last_differs((0, 1), fault)), self.sample, 0.2)

    @pytest.mark.parametrize("fault, message", [
        ((), "groups must be nonempty"), ((0,), "groups must share one fixed size")])
    def test_a_bad_group(self, fault, message):
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            CompressionScheme(eta=0.2, aggregation="median", groups=last_differs((0, 1), fault))

    @pytest.mark.parametrize("read_back", [False, True])
    def test_an_infeasible_group_names_its_first_slot(self, read_back):
        scheme = CompressionScheme(eta=0.2, aggregation="median",
                                   groups=last_differs((0, 1), (0, 2)))
        if read_back:  # every slot its own object
            scheme = CompressionScheme(**json.loads(scheme.to_json()))
        with pytest.raises(ReconstructionFailed,
                           match=rf"^group {K - 1} \(0, 2\) is infeasible at 0.025$"):
            reconstruct(scheme, self.sample, rerm_constant, PerturbationMap.identity(3))


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

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_c_must_be_positive_and_finite(self, c):
        with pytest.raises(InvalidParameter, match="c must be"):
            generalization_bound("agnostic", 10, 1000, 0.05, c=c)


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

    def test_group_sizes_must_match(self):
        with pytest.raises(InvalidParameter):
            CompressionScheme(eta=0.2, aggregation="median",
                              groups=((0,), (1, 2)), alphas=None)
