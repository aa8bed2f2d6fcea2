import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustreg import (
    dual_class,
    dual_fat_shattering,
    dual_fat_upper_bound,
    fat_shattering,
    greedy_cover,
)
from robustreg.errors import CapExceeded, InvalidParameter

from conftest import make_class
from reference import array_fat, brute_fat, brute_min_cover_size


class TestFatShattering:
    def test_two_constants_margin_boundary(self):
        cls = make_class([[0.2], [0.8]])
        assert fat_shattering(cls, 0.3) == 1
        assert fat_shattering(cls, 0.31) == 0

    def test_empty_class(self):
        assert fat_shattering(np.zeros((0, 3)), 0.1) == 0

    def test_single_hypothesis_shatters_nothing(self):
        assert fat_shattering(make_class([[0.0, 1.0, 0.5]]), 0.1) == 0

    def test_full_sign_pattern_class(self):
        cls = make_class([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert fat_shattering(cls, 0.5) == 2
        assert fat_shattering(cls, 0.51) == 0

    def test_constants_cannot_shatter_two_points(self):
        cls = make_class([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert fat_shattering(cls, 0.25) == 1

    def test_mixed_margins(self):
        cls = make_class([[0.4, 0.1], [0.4, 0.9], [0.6, 0.1], [0.6, 0.9]])
        assert fat_shattering(cls, 0.1) == 2
        assert fat_shattering(cls, 0.11) == 1  # first point's spread is only 0.2
        assert fat_shattering(cls, 0.41) == 0

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((4, 20), 0.5), 0.1)
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((300, 4), 0.5), 0.1)
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((257, 4), 0.5), 0.1)
        with pytest.raises(CapExceeded):
            fat_shattering(np.full((4, 17), 0.5), 0.1)

    def test_at_the_row_cap_matches_the_array_search(self):
        # the 2^6 sign patterns sit in rows 192..255 only, so the search
        # needs every bit of a 256-bit row mask
        patterns = (np.arange(64)[:, None] >> np.arange(6)) & 1
        matrix = np.vstack([np.full((192, 6), 0.5), patterns])
        assert fat_shattering(matrix, 0.5) == array_fat(matrix, 0.5) == 6
        grid = np.linspace(0, 1, 6)[np.random.default_rng(5).integers(0, 6, (256, 8))]
        assert fat_shattering(grid, 0.1) == array_fat(grid, 0.1)

    def test_gamma_must_be_positive(self):
        with pytest.raises(InvalidParameter):
            fat_shattering(make_class([[0.5]]), 0.0)

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
    def test_one_by_one(self):
        cls = make_class([[0.5]])
        assert dual_class(cls).matrix.tolist() == [[0.5]]

    def test_transpose(self):
        cls = make_class([[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]])
        assert dual_class(cls).matrix.tolist() == [[0.1, 0.7], [0.2, 0.8], [0.3, 0.9]]

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_double_dual_has_the_same_fat(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        matrix = rng.uniform(size=(data.draw(st.integers(1, 8)),
                                   data.draw(st.integers(1, 4))))
        double = dual_class(dual_class(matrix)).matrix
        for g in (0.1, 0.25):
            assert fat_shattering(matrix, g) == fat_shattering(double, g)

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
            dual = dual_fat_shattering(matrix, g)
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
