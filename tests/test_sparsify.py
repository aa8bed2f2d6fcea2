import numpy as np
import pytest

from robustreg import WeightedEnsemble, constant_hypothesis, default_k, sparsify
from robustreg.core import InflatedExample
from robustreg.errors import InvalidParameter, SparsifyFailed
from robustreg.sparsify import categorical_draws


def cover_points(labels):
    return [InflatedExample(z=i, y=y, origin=i) for i, y in enumerate(labels)]


def ensemble_of(constants, alphas, sources=None, domain_size=3):
    members = tuple(constant_hypothesis(c, domain_size) for c in constants)
    sources = sources or tuple((i,) for i in range(len(members)))
    return WeightedEnsemble(members=members, alphas=tuple(alphas),
                            sources=tuple(sources), aggregation="weighted_median")


class TestSparsify:
    def test_identical_perfect_members_k_one(self):
        ens = ensemble_of([0.5] * 4, [1.0] * 4)
        cover = cover_points([0.5, 0.5])
        out = sparsify(ens, cover, eta=0.1, k=1, seed=0)
        assert len(out) == 1
        assert out.members[0].descriptor == ("constant", 0.5)
        assert out.alphas == (1.0,)

    def test_all_members_perfect_any_draw_accepted(self):
        ens = ensemble_of([0.5, 0.52, 0.48], [0.2, 0.5, 0.3])
        cover = cover_points([0.5, 0.5, 0.5])
        for seed in range(5):
            out = sparsify(ens, cover, eta=0.1, k=3, max_iters=1, seed=seed)
            assert len(out) == 3

    def test_heavy_bad_member_needs_a_minority_draw(self):
        # one member misses the point badly and owns 0.9 of the mass
        ens = ensemble_of([0.9, 0.5, 0.5], [0.9, 0.05, 0.05])
        cover = cover_points([0.5])
        accepted = 0
        for seed in range(30):
            try:
                out = sparsify(ens, cover, eta=0.1, k=3, max_iters=1, seed=seed)
            except SparsifyFailed as err:
                assert err.best_violations is not None
                continue
            accepted += 1
            med = sorted(m(0) for m in out.members)[1]
            assert abs(med - 0.5) <= 0.1
        assert 0 < accepted < 30  # the draw must sometimes fail and sometimes win

    def test_exhausted_budget_reports_best_count(self):
        ens = ensemble_of([0.9, 0.9, 0.9], [1.0, 1.0, 1.0])
        cover = cover_points([0.1])
        with pytest.raises(SparsifyFailed) as err:
            sparsify(ens, cover, eta=0.1, k=3, max_iters=5, seed=1)
        assert err.value.best_violations == 3

    def test_certificate_pins_the_median_on_every_acceptance(self):
        rng = np.random.default_rng(8)
        constants = rng.uniform(0.3, 0.7, size=6)
        ens = ensemble_of(constants, rng.uniform(0.1, 1.0, size=6))
        cover = cover_points([0.5, 0.45, 0.55])
        for seed in range(20):
            try:
                out = sparsify(ens, cover, eta=0.12, k=5, max_iters=1, seed=seed)
            except SparsifyFailed:
                continue
            for pt in cover:
                assert abs(out.values[pt.z] - pt.y) <= 0.12

    def test_sparsified_size_shrinks_when_k_below_t(self):
        ens = ensemble_of([0.5] * 9, [1.0] * 9, sources=tuple((i, i) for i in range(9)))
        cover = cover_points([0.5])
        out = sparsify(ens, cover, eta=0.1, k=3, seed=0)
        assert sum(len(s) for s in out.sources) <= sum(len(s) for s in ens.sources)

    def test_k_must_be_positive(self):
        ens = ensemble_of([0.5], [1.0])
        with pytest.raises(InvalidParameter):
            sparsify(ens, cover_points([0.5]), eta=0.1, k=0)


class TestCategoricalSampler:
    def test_matches_weights_within_three_sigma(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        draws = categorical_draws(np.random.default_rng(123), probs, 100_000)
        freq = np.bincount(draws, minlength=4) / 100_000
        sigma = np.sqrt(probs * (1 - probs) / 100_000)
        assert (np.abs(freq - probs) <= 3 * sigma).all()


class TestDefaultK:
    def test_smallest_case(self):
        assert default_k(1, 0.5) == 1

    def test_always_odd(self):
        for fat_star in range(1, 12):
            for eta in (0.05, 0.2, 0.7):
                assert default_k(fat_star, eta) % 2 == 1

    def test_ranges(self):
        with pytest.raises(InvalidParameter):
            default_k(0, 0.1)
        with pytest.raises(InvalidParameter):
            default_k(2, 1.0)
