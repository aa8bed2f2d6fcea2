import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustreg import dual_fat_upper_bound, fat_shattering, greedy_cover
from robustreg.errors import CapExceeded, InvalidParameter, UnrealizableSpec
from robustreg.harness import ExperimentConfig, InstanceSpec, PerturbationSpec, gen_instance
from robustreg.pipelines import AVERAGE_FAT, MEDIAN_FAT

from conftest import make_class
from reference import (
    array_fat,
    brute_fat,
    brute_min_cover_size,
    prefix_fat,
    scalar_greedy_cover,
    subset_fat,
)


@st.composite
def tie_heavy_classes(draw, n_rows=st.integers(1, 48), max_points=16):
    """(matrix, gamma): n_rows rows (up to 48 by default) over up to
    max_points points (by default 16, the point cap) on a grid of 2-5 value
    levels, rows and columns repeated in shuffled order.  2*gamma is one or
    two level gaps half the time, so that gaps land exactly on the margin,
    and 1.5 gaps or 0.2 otherwise."""
    n_levels = draw(st.integers(2, 5))
    levels = np.linspace(0.0, 1.0, n_levels)
    n_rows, n_pts = draw(n_rows), draw(st.integers(1, max_points))
    d_rows, d_pts = draw(st.integers(1, n_rows)), draw(st.integers(1, n_pts))
    distinct = levels[np.array(draw(st.lists(
        st.lists(st.integers(0, n_levels - 1), min_size=d_pts, max_size=d_pts),
        min_size=d_rows, max_size=d_rows)))]
    rows = draw(st.lists(st.integers(0, d_rows - 1), min_size=n_rows, max_size=n_rows))
    cols = draw(st.lists(st.integers(0, d_pts - 1), min_size=n_pts, max_size=n_pts))
    gap = 1.0 / (n_levels - 1)
    gamma = draw(st.sampled_from([gap / 2, gap, 0.75 * gap, 0.1]))
    return distinct[np.ix_(rows, cols)], gamma


def small_exact_classes(seeds):
    """The smooth 16 x 16 classes the small_exact benchmark draws, at other seeds."""
    config = ExperimentConfig(
        instance=InstanceSpec(kind="smooth", n_hypotheses=16, domain_size=16,
                              smooth_step=0.05),
        perturbation=PerturbationSpec(kind="grid_ball", radius=1), eta=0.2,
        m_grid=(40,), holdout_size=0)
    for seed in seeds:
        try:
            yield gen_instance(config, seed)[0].matrix
        except UnrealizableSpec:
            continue


class TestFatShattering:
    def test_two_constants_margin_boundary(self):
        matrix = make_class([[0.2], [0.8]]).matrix
        assert fat_shattering(matrix, 0.3) == 1
        assert fat_shattering(matrix, 0.31) == 0

    def test_empty_class(self):
        assert fat_shattering(np.zeros((0, 3)), 0.1) == 0

    def test_single_hypothesis_shatters_nothing(self):
        assert fat_shattering(make_class([[0.0, 1.0, 0.5]]).matrix, 0.1) == 0

    def test_full_sign_pattern_class(self):
        matrix = make_class([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]).matrix
        assert fat_shattering(matrix, 0.5) == 2
        assert fat_shattering(matrix, 0.51) == 0

    def test_constants_cannot_shatter_two_points(self):
        matrix = make_class([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]).matrix
        assert fat_shattering(matrix, 0.25) == 1

    def test_mixed_margins(self):
        matrix = make_class([[0.4, 0.1], [0.4, 0.9], [0.6, 0.1], [0.6, 0.9]]).matrix
        assert fat_shattering(matrix, 0.1) == 2
        assert fat_shattering(matrix, 0.11) == 1  # first point's spread is only 0.2
        assert fat_shattering(matrix, 0.41) == 0

    def test_boolean_class_reads_as_its_float_copy(self):
        rng = np.random.default_rng(4)
        for matrix in (np.array([[True, False], [False, True]]),
                       np.eye(4, dtype=bool), rng.random((16, 5)) < 0.5):
            for gamma in (0.1, 0.25, 0.5, 0.51):
                assert fat_shattering(matrix, gamma) == fat_shattering(matrix.astype(float), gamma)
        assert fat_shattering(np.array([[True, False], [False, True]]), 0.5) == 1

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((4, 20), 0.5), 0.1)
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((300, 4), 0.5), 0.1)
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((257, 4), 0.5), 0.1)
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((4, 17), 0.5), 0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_entries_must_be_finite(self, bad):
        # with v = inf a row lands in both halves of a cutoff, so the
        # infinite class read as shattering 2 points, where brute_fat reads 1
        matrix = np.array([[bad, bad], [bad, bad], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidParameter, match="finite"):
            fat_shattering(matrix, 0.1)

    @pytest.mark.parametrize("caps", [{"max_points": -3}, {"max_hypotheses": -1}])
    def test_caps_must_be_nonnegative(self, caps):
        with pytest.raises(InvalidParameter, match="caps"):
            fat_shattering(np.full((2, 2), 0.5), 0.1, **caps)

    def test_at_the_row_cap_matches_the_array_search(self):
        # the 2^6 sign patterns sit in rows 192..255 only, so the search
        # needs every bit of a 256-bit row mask
        patterns = (np.arange(64)[:, None] >> np.arange(6)) & 1
        matrix = np.vstack([np.full((192, 6), 0.5), patterns])
        assert fat_shattering(matrix, 0.5) == array_fat(matrix, 0.5) == 6
        grid = np.linspace(0, 1, 6)[np.random.default_rng(5).integers(0, 6, (256, 8))]
        assert fat_shattering(grid, 0.1) == array_fat(grid, 0.1)

    def test_memory_is_bounded_at_the_caps(self):
        # 12 six-level points and 4 constant ones at a margin below one level
        # gap: a level search that held each level whole peaked near 70 MB
        levels = np.random.default_rng(0).integers(0, 6, (256, 16))
        levels[:, 12:] = 0
        matrix = np.linspace(0.0, 1.0, 6)[levels]
        tracemalloc.start()
        try:
            fat = fat_shattering(matrix, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert fat == array_fat(matrix, 0.05) == 6

    @given(tie_heavy_classes())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_set_search_on_ties_up_to_the_caps(self, case):
        matrix, gamma = case
        fat = fat_shattering(matrix, gamma)
        assert fat == subset_fat(matrix, gamma) == prefix_fat(matrix, gamma)
        if matrix.shape[1] <= 5:
            assert fat == brute_fat(matrix, gamma)

    # rows fill one word less one bit, one word, one word and one bit, two
    # words, two words and one bit, and four words (the row cap)
    @given(tie_heavy_classes(n_rows=st.sampled_from([63, 64, 65, 128, 129, 256]),
                             max_points=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_former_search_at_word_boundaries(self, case):
        matrix, gamma = case
        assert fat_shattering(matrix, gamma) == prefix_fat(matrix, gamma)

    def test_matches_the_per_set_search_on_smooth_classes(self):
        # the pipelines ask for fat at eta/64 or eta/32 and dual fat at eta
        seen = 0
        for matrix in small_exact_classes(range(1000, 1012)):
            for m in (matrix, matrix.T):
                for gamma in (0.2 * MEDIAN_FAT, 0.2 * AVERAGE_FAT, 0.2):
                    fat = fat_shattering(m, gamma)
                    assert fat == subset_fat(m, gamma) == prefix_fat(m, gamma)
            seen += 1
        assert seen >= 8

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 2, 2)])
    def test_class_must_be_two_dimensional(self, shape):
        with pytest.raises(InvalidParameter, match="2-D"):
            fat_shattering(np.full(shape, 0.5), 0.1)

    def test_gamma_must_be_positive(self):
        with pytest.raises(InvalidParameter):
            fat_shattering(make_class([[0.5]]), 0.0)
        with pytest.raises(InvalidParameter):
            fat_shattering(make_class([[0.5]]).matrix, float("nan"))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, data):
        n_h = data.draw(st.integers(1, 24))
        n = data.draw(st.integers(1, 5))
        levels = np.linspace(0, 1, 6)
        matrix = levels[data.draw(st.lists(
            st.lists(st.integers(0, 5), min_size=n, max_size=n),
            min_size=n_h, max_size=n_h).map(np.array))]
        gamma = data.draw(st.sampled_from([0.1, 0.2, 0.3]))
        assert fat_shattering(matrix, gamma) == brute_fat(matrix, gamma)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_array_search_on_ties(self, data):
        n_h = data.draw(st.integers(1, 64))
        n = data.draw(st.integers(1, 6))
        levels = np.linspace(0, 1, 6)
        matrix = levels[data.draw(st.lists(
            st.lists(st.integers(0, 5), min_size=n, max_size=n),
            min_size=n_h, max_size=n_h).map(np.array))]
        gamma = data.draw(st.sampled_from([0.05, 0.1, 0.25]))
        assert fat_shattering(matrix, gamma) == array_fat(matrix, gamma)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_gamma_and_capped_by_log2(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        matrix = rng.uniform(size=(data.draw(st.integers(1, 10)),
                                   data.draw(st.integers(1, 4))))
        fats = [fat_shattering(matrix, g) for g in (0.05, 0.15, 0.3)]
        assert fats == sorted(fats, reverse=True)
        assert fats[0] <= math.log2(max(matrix.shape[0], 1)) + 1e-9


class TestDualClass:
    @given(st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_dual_fat_within_the_stated_bound(self, seed, rounded):
        # the bound has no free constant: dual fat at gamma is at most
        # (1/gamma) 2^(fat at gamma/2 + 1) on classes up to 12 x 6, with
        # values on a 5-level grid half the time so that ties occur
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(size=(rng.integers(1, 13), rng.integers(1, 7)))
        if rounded:
            matrix = np.round(matrix * 4) / 4
        for g in (0.1, 0.2, 0.3, 0.4):
            dual = fat_shattering(matrix.T, g)
            assert dual <= dual_fat_upper_bound(fat_shattering(matrix, g / 2), g)


class TestDualFatUpperBound:
    def test_formula(self):
        assert dual_fat_upper_bound(2, 0.1) == pytest.approx(80.0)
        assert dual_fat_upper_bound(0, 1.0) == pytest.approx(2.0)

    def test_ranges(self):
        with pytest.raises(InvalidParameter):
            dual_fat_upper_bound(2, 0.0)
        with pytest.raises(InvalidParameter):
            dual_fat_upper_bound(-1, 0.5)


@st.composite
def duplicated_rows(draw):
    """A few rows on a 2-5 level grid, each repeated, in shuffled order, so
    that balls coincide and gains tie."""
    levels = np.linspace(0.0, 1.0, draw(st.integers(2, 5))).tolist()
    d = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.lists(st.sampled_from(levels), min_size=d, max_size=d),
                             min_size=1, max_size=4))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(distinct),
                           max_size=len(distinct)))
    rows = [row for row, c in zip(distinct, counts) for _ in range(c)]
    return np.array(draw(st.permutations(rows)), dtype=float)


class TestGreedyCover:
    def test_empty(self):
        assert greedy_cover([], 0.1) == ([], [])

    def test_two_close_points_one_center(self):
        centers, assignment = greedy_cover([[0.0, 0.0], [0.1, 0.0]], 0.15)
        assert len(centers) == 1
        assert assignment == [centers[0], centers[0]]

    def test_two_far_points_two_centers(self):
        centers, _ = greedy_cover([[0.0, 0.0], [0.1, 0.0]], 0.05)
        assert len(centers) == 2

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_certificate_and_internal_centers(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        pts = rng.uniform(size=(data.draw(st.integers(1, 40)),
                                data.draw(st.integers(1, 8))))
        t = data.draw(st.sampled_from([0.05, 0.2, 0.5]))
        centers, assignment = greedy_cover(pts, t)
        assert set(assignment) == set(centers)
        for i, c in enumerate(assignment):
            assert np.abs(pts[i] - pts[c]).max() <= t

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_within_log_factor_of_the_exact_minimum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        pts = rng.uniform(size=(n, int(rng.integers(1, 5))))
        t = float(rng.choice([0.1, 0.25, 0.4]))
        centers, _ = greedy_cover(pts, t)
        assert len(centers) <= (1 + math.log(n)) * brute_min_cover_size(pts, t)

    # [0.0] is duplicated and first occurs after [1.0], whose gain is equal:
    # the tie goes to index 0, not to the row that sorts first
    @example(pts=np.array([[1.0], [0.0], [0.0], [1.0]]), t=0.1)
    # 0.0 and -0.0 are equal rows with different bytes
    @example(pts=np.array([[1.0], [-0.0], [0.0], [1.0], [-0.0]]), t=0.1)
    @given(duplicated_rows(), st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_all_pairs_cover_on_duplicated_rows(self, pts, t):
        centers, assignment = greedy_cover(pts, t)
        assert (centers, assignment) == scalar_greedy_cover(pts, t)
        if len(pts) <= 12:
            assert brute_min_cover_size(pts, t) <= len(centers)

    @pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, t):
        with pytest.raises(InvalidParameter):
            greedy_cover([[0.0], [1.0]], t)

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2), (0, 2, 2), (3, 0)])
    def test_points_must_be_two_dimensional(self, shape):
        with pytest.raises(InvalidParameter, match="2-D"):
            greedy_cover(np.full(shape, 0.5), 0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_points_must_be_finite(self, bad):
        with pytest.raises(InvalidParameter):
            greedy_cover([[0.0], [bad]], 0.1)
