"""The robust-deviation kernel and its users against scalar loops.

Every comparison is exact: the kernel takes maxima over the same finite
sets and the errors add in the same order, so vectorised and scalar
results must agree to the last bit.  Inflation is checked against the
former one-example-at-a-time loop, the cover of the dual over the
distinct pool members against the cover of the dual with a column for
every pool entry, and the pool's drawn subsets against one
``rng.choice`` call per subset.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustreg import (
    EtaBall,
    FiniteClass,
    FiniteClassOracle,
    Hypothesis,
    Lp,
    MissingPerturbation,
    PerturbationMap,
    build_pool,
    dual_embed,
    empirical_error,
    greedy_cover,
    inflate,
    reconstruct,
    rerm_constant,
    rerm_finite,
    robust_deviations,
)
from robustreg.compression import CompressionScheme
from robustreg.errors import ReconstructionFailed
from robustreg.pipelines import POOL_DRAWS, POOL_ENUMERATE_MAX, _choice_subsets

from conftest import labeled
from reference import (
    brute_max_fit_subsets,
    choice_draws,
    full_dual,
    pairs,
    scalar_empirical_error,
    scalar_inflate,
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
    return matrix, U, labeled(zip(xs, ys.tolist()))


ETAS = st.sampled_from([0.125, 0.25, 0.5, 0.3, 0.75, 1.0])


@given(instances())
def test_kernel_matches_scalar_maxima(inst):
    matrix, U, sample = inst
    devs = robust_deviations(matrix, sample, U)
    assert devs.shape == (matrix.shape[0], len(sample))
    for r, row in enumerate(matrix):
        for i, (x, y) in enumerate(pairs(sample)):
            assert devs[r, i] == scalar_robust_deviation(row, x, y, U)


@st.composite
def subsets_of(draw, m, max_subsets=6):
    """Ragged lists of sample indices, repeats and empty lists allowed."""
    subset = st.lists(st.integers(0, max(m - 1, 0)), max_size=6 if m else 0)
    return draw(st.lists(subset, max_size=max_subsets))


@given(instances(), ETAS, st.data())
def test_rerm_matches_scalar(inst, eta, data):
    matrix, U, sample = inst
    # drawn subsets, and the whole sample as one
    subsets = data.draw(subsets_of(len(sample))) + [range(len(sample))]
    fits = rerm_finite(FiniteClass(matrix), sample, subsets, U, eta)
    assert len(fits) == len(subsets)
    for subset, h in zip(subsets, fits):
        row, _ = scalar_rerm(matrix, sample.take(subset), U, eta)
        assert (h is None) if row is None else h.descriptor == ("finite", row)


@given(instances(), ETAS, st.data())
def test_rerm_fits_one_object_per_row(inst, eta, data):
    matrix, U, sample = inst
    subsets = data.draw(subsets_of(len(sample), max_subsets=12)) + [[], []]
    fitted = [h for h in rerm_finite(FiniteClass(matrix), sample, subsets, U, eta) if h]
    by_row = {}
    assert all(by_row.setdefault(h.descriptor, h) is h for h in fitted)
    assert len({id(h) for h in fitted}) == len(by_row)


@pytest.mark.parametrize("subsets, rows", [
    ([[]], [0]),  # nothing to fit: the first row
    ([[1], [1, 1, 1], [0, 1]], [1, 1, None]),  # repeats count once
    ([[2], [0, 2], [2, 0, 2]], [None, None, None]),  # no row fits point 2
    ([[0], [0, 3], [], [1]], [0, 0, 0, 1]),  # ragged
])
def test_rerm_on_exact_ties(subsets, rows):
    # rows 0.25 and 0.75; points 0 and 1 sit exactly eta = 1/8 from one row
    cls = FiniteClass(np.array([[0.25] * 4, [0.75] * 4]))
    sample = labeled(enumerate([0.125, 0.875, 0.5, 0.25]))
    fits = rerm_finite(cls, sample, subsets, PerturbationMap.identity(4), 0.125)
    assert [None if h is None else h.descriptor[1] for h in fits] == rows


@given(instances(max_m=16))
def test_inflate_matches_the_scalar_loop(inst):
    _, U, sample = inst
    out = inflate(sample, U)
    assert list(zip(out.xs.tolist(), out.ys.tolist())) == scalar_inflate(sample, U)


@pytest.mark.parametrize("U", [PerturbationMap.identity(5), PerturbationMap.grid_ball(5, 2)])
def test_inflate_keeps_labels_at_the_ends_of_the_range(U):
    # repeated ids and overlapping balls, labels exactly 0 and 1
    sample = labeled([(3, 1.0), (0, 0.0), (3, 0.0), (4, 1.0)])
    out = inflate(sample, U)
    assert list(zip(out.xs.tolist(), out.ys.tolist())) == scalar_inflate(sample, U)


@given(instances(max_m=12), st.sampled_from([0.05, 0.125, 0.25]), st.data())
@settings(max_examples=60)
def test_cover_of_the_distinct_member_dual_equals_the_full_dual(inst, t, data):
    matrix, U, sample = inst
    subsets = data.draw(subsets_of(len(sample), max_subsets=10))
    fits = rerm_finite(FiniteClass(matrix), sample, subsets, U, 0.5)
    # repeated objects, distinct objects with equal values, and one that
    # shares a descriptor but not its values
    copies = [Hypothesis(matrix[r].copy(), ("finite", r)) for r in range(len(matrix))]
    impostor = Hypothesis(1.0 - matrix[0], ("finite", 0))
    order = data.draw(st.permutations([h for h in fits if h] + copies + copies[:1] + [impostor]))
    pool = list(order)
    inflated = inflate(sample, U)
    distinct, full = dual_embed(pool, inflated), full_dual(pool, inflated)
    assert distinct.shape == (len(inflated), len({id(h) for h in pool}))
    (c1, a1), (c2, a2) = greedy_cover(distinct, t), greedy_cover(full, t)
    assert c1 == c2 and a1 == a2
    assert (np.abs(distinct - distinct[a1]).max(initial=0.0)
            == np.abs(full - full[a2]).max(initial=0.0))


def interval_midpoint(ys, eta):
    lo, hi = 0.0, 1.0
    for y in ys:
        lo, hi = max(lo, y - eta), min(hi, y + eta)
    return (lo + hi) / 2.0 if lo <= hi else None


@given(instances(), ETAS, st.data())
def test_rerm_constant_matches_interval_intersection(inst, eta, data):
    _, U, sample = inst
    subsets = data.draw(subsets_of(len(sample)))
    fits = rerm_constant(sample, subsets, U, eta)
    assert len(fits) == len(subsets)
    for subset, h in zip(subsets, fits):
        mid = interval_midpoint(sample.ys[subset].tolist(), eta)
        assert (h is None) if mid is None else h.descriptor == ("constant", mid)


@pytest.mark.parametrize("d", [3, 4])
def test_build_pool_equals_a_scalar_rerm_loop(d):
    # 11 choose 3 subsets are few enough to enumerate; of 11 choose 4 the pool
    # draws POOL_DRAWS
    enumerate_all = math.comb(11, d) <= POOL_ENUMERATE_MAX
    assert enumerate_all == (d == 3)
    rng = np.random.default_rng(7)
    matrix = np.round(rng.uniform(size=(12, 16)) * 4) / 4
    U = PerturbationMap.grid_ball(16, 1)
    sample = labeled(zip(rng.integers(0, 16, size=11).tolist(),
                         (np.round(rng.uniform(size=11) * 4) / 4).tolist()))
    pool, sources, skipped = build_pool(
        sample, U, FiniteClassOracle(FiniteClass(matrix)).rerm, 0.25, d,
        rng=np.random.default_rng(3))
    if enumerate_all:
        subsets = list(itertools.combinations(range(11), d))
    else:
        subsets = list(dict.fromkeys(choice_draws(np.random.default_rng(3), 11, d, POOL_DRAWS)))
    rows = [scalar_rerm(matrix, sample.take(s), U, 0.25)[0] for s in subsets]
    assert [h.descriptor for h in pool] == [("finite", r) for r in rows if r is not None]
    assert sources == [s for s, r in zip(subsets, rows) if r is not None]
    assert skipped == rows.count(None) > 0


@st.composite
def choice_shapes(draw):
    m = draw(st.integers(2, 400))
    return m, draw(st.integers(1, m))


# numpy's choice shuffles the tail of range(m) instead of running Floyd's
# sampling from m = 10001 and d = m // 50 + 1 on
@example((10000, 200), 0)
@example((10000, 201), 1)
@example((10001, 200), 2)
@example((10001, 201), 3)
# above 2^22 // m rows a call runs its rows in blocks
@example((100000, 10), 8)
@example((100000, 2001), 9)
@example((400, 1), 4)
@example((400, 399), 5)
@example((2, 1), 6)
# the benchmark workloads' pool shapes
@example((40, 6), 701)
@example((190, 88), 701)
@example((320, 180), 701)
@example((1280, 15), 701)
@given(choice_shapes(), st.integers(0, 2 ** 64 - 1))
def test_choice_subsets_equal_one_choice_call_per_subset(shape, seed):
    m, d = shape
    rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    subsets = _choice_subsets(rng, m, d, POOL_DRAWS)
    expected = np.array(choice_draws(loop, m, d, POOL_DRAWS), dtype=np.int64)
    assert subsets.dtype == np.int64 and subsets.shape == (POOL_DRAWS, d)
    assert subsets.tobytes() == expected.tobytes()
    # the generator stream continues where the calls would leave it
    assert rng.bit_generator.state == loop.bit_generator.state


def test_reconstruct_names_the_infeasible_group():
    # group 1 holds labels 0 and 1, which no row fits within 0.2 / 8
    cls = FiniteClass(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    sample = labeled([(0, 0.0), (1, 0.0), (2, 1.0)])
    scheme = CompressionScheme(eta=0.2, aggregation="median",
                               groups=((0, 1), (0, 2), (1, 0)), alphas=(1.0, 1.0, 1.0))
    with pytest.raises(ReconstructionFailed, match=r"group 1 \(0, 2\) is infeasible at 0.025"):
        reconstruct(scheme, sample, FiniteClassOracle(cls).rerm,
                    PerturbationMap.identity(3))


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
        sample = labeled([(0, 0.1), (x, 0.3)])
        h = self.cls.hypothesis(0)
        with pytest.raises(MissingPerturbation, match=str(x)):
            robust_deviations(self.cls.matrix, sample, self.U)
        with pytest.raises(MissingPerturbation):
            rerm_finite(self.cls, sample, [[0], [1]], self.U, 0.5)
        with pytest.raises(MissingPerturbation):
            FiniteClassOracle(self.cls).max_fit_subset(sample, self.U, 0.5)
        with pytest.raises(MissingPerturbation):
            empirical_error(h, sample, self.U, Lp(1.0))

    def test_ids_with_entries_still_evaluate(self):
        sample = labeled([(3, 0.3)])
        # U(3) = {3, 2}: id 2 is a perturbation even without its own entry
        assert robust_deviations(self.cls.matrix, sample, self.U)[:, 0].tolist() == [
            pytest.approx(0.1), pytest.approx(0.2)]
