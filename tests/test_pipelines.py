import math

import numpy as np
import pytest

from robustreg import (
    PerturbationMap,
    PipelineConfig,
    agnostic_eta_learn,
    agnostic_regression,
    build_pool,
    dual_embed,
    improper_learn,
    inflate,
    proper_learn,
    realizable_regression,
    reconstruct,
    sample_complexity,
    theta_grid,
)
from robustreg.errors import EmptyPool, InvalidParameter
from robustreg.harness import (
    ExperimentConfig,
    InstanceSpec,
    PerturbationSpec,
    TargetSpec,
    gen_instance,
)
from robustreg.oracles import ConstantClassOracle, FiniteClassOracle, rerm_constant

from conftest import labeled, make_class
from reference import brute_max_fit_subsets


def smooth_instance(seed, m=40, eta=0.2, n_hyp=25, domain=30, noise=0.0,
                    radius=1, margin=None):
    cfg = ExperimentConfig(
        instance=InstanceSpec(kind="smooth", n_hypotheses=n_hyp,
                              domain_size=domain, smooth_step=0.02),
        perturbation=PerturbationSpec(kind="grid_ball", radius=radius),
        target=TargetSpec(noise_rate=noise),
        eta=eta, m_grid=(m,), holdout_size=30, seed=seed,
        realizable_margin=margin,
    )
    cls, U, sample, holdout = gen_instance(cfg, seed, m=m)
    return FiniteClassOracle(cls), U, sample, holdout


class TestBuildPool:
    U3 = PerturbationMap.identity(3)
    SAMPLE = labeled([(0, 0.2), (1, 0.2), (2, 0.2)])

    def test_enumerate_three_choose_two(self):
        pool, skipped = build_pool(self.SAMPLE, self.U3, rerm_constant, 0.1, 2)
        assert len(pool) == 3 and skipped == 0

    def test_d_at_least_m_gives_one_subset(self):
        pool, _ = build_pool(self.SAMPLE, self.U3, rerm_constant, 0.1, 10)
        assert len(pool) == 1

    def test_sample_mode_is_reproducible(self):
        draws = [build_pool(self.SAMPLE, self.U3, rerm_constant, 0.1, 2,
                            mode="sample", n_samples=10,
                            rng=np.random.default_rng(5))[0]
                 for _ in range(2)]
        assert len(draws[0]) <= 10
        assert [h.descriptor for h in draws[0]] == [h.descriptor for h in draws[1]]

    def test_infeasible_subsets_are_counted(self):
        spread = labeled([(0, 0.0), (1, 1.0), (2, 0.5)])
        pool, skipped = build_pool(spread, self.U3, rerm_constant, 0.3, 2)
        assert skipped == 1  # only the {0.0, 1.0} pair exceeds the 0.3 radius
        assert len(pool) == 2

    def test_all_infeasible_is_empty_pool(self):
        spread = labeled([(0, 0.0), (1, 1.0)])
        with pytest.raises(EmptyPool):
            build_pool(spread, self.U3, rerm_constant, 0.1, 2)

    def test_enumerate_cap(self):
        sample = labeled([(i % 3, 0.5) for i in range(20)])
        with pytest.raises(InvalidParameter):
            build_pool(sample, self.U3, rerm_constant, 0.1, 10, cap=100)


class TestDualEmbed:
    def test_target_pool_gives_zero_column(self):
        cls = make_class([[0.3, 0.7]])
        U = PerturbationMap.identity(2)
        sample = labeled([(0, 0.3), (1, 0.7)])
        dual = dual_embed([cls.hypothesis(0)], inflate(sample, U))
        assert np.allclose(dual, 0.0)

    def test_constant_zero_pool_entry_is_the_label(self):
        from robustreg import constant_hypothesis
        U = PerturbationMap.identity(1)
        dual = dual_embed([constant_hypothesis(0.0, 1)],
                          inflate(labeled([(0, 0.7)]), U))
        assert dual.tolist() == [[0.7]]

    def test_pool_reorder_permutes_columns(self):
        from robustreg import constant_hypothesis
        U = PerturbationMap.identity(2)
        inflated = inflate(labeled([(0, 0.1), (1, 0.9)]), U)
        a, b = constant_hypothesis(0.2, 2), constant_hypothesis(0.8, 2)
        m1 = dual_embed([a, b], inflated)
        m2 = dual_embed([b, a], inflated)
        assert np.allclose(m1, m2[:, ::-1])


class TestProperLearn:
    def test_constants_realizable(self):
        U = PerturbationMap.identity(5)
        sample = labeled([(i, 0.45) for i in range(5)])
        rep = proper_learn(ConstantClassOracle(), sample, U, eta=0.2,
                           epsilon=0.1, seed=3)
        assert rep.status == "ok"
        assert rep.emp_eta_robust_err == 0.0
        assert rep.properness == ("constant", pytest.approx(0.45))

    def test_fifty_point_finite_instance(self):
        oracle, U, sample, _ = smooth_instance(17, m=50, margin=0.2 / 8)
        rep = proper_learn(oracle, sample, U, eta=0.2, epsilon=0.1, seed=17)
        assert rep.emp_eta_robust_err <= 0.1
        assert rep.extra["cover_rate"] <= 0.1
        assert rep.extra["inflated_rate"] <= 0.1
        assert rep.compression_size == rep.scheme.size

    def test_epsilon_one_is_vacuous(self):
        oracle, U, sample, _ = smooth_instance(23, m=20)
        rep = proper_learn(oracle, sample, U, eta=0.2, epsilon=1.0, seed=5)
        assert rep.status == "ok"

    def test_eta_range(self):
        oracle, U, sample, _ = smooth_instance(29, m=10)
        with pytest.raises(InvalidParameter):
            proper_learn(oracle, sample, U, eta=1.2, epsilon=0.1)


class TestImproperLearn:
    def test_constants_realizable_compression_size(self):
        U = PerturbationMap.identity(8)
        sample = labeled([(i, 0.5) for i in range(8)])
        rep = improper_learn(ConstantClassOracle(), sample, U, eta=0.25, seed=2)
        assert rep.uniform is True
        assert rep.compression_size == len(rep.scheme.groups) * len(rep.scheme.groups[0])
        assert rep.compression_size == rep.extra["k"] * min(rep.extra["d"], len(sample))

    def test_uniform_condition_over_seeds(self):
        ok = 0
        for seed in range(20):
            oracle, U, sample, _ = smooth_instance(100 + seed, m=30, eta=0.25,
                                                   n_hyp=10)
            rep = improper_learn(oracle, sample, U, eta=0.25, seed=seed)
            ok += rep.uniform
        assert ok == 20

    def test_epsilon_is_never_read(self):
        oracle, U, sample, _ = smooth_instance(41, m=25)
        reports = [improper_learn(oracle, sample, U, eta=0.2,
                                  config=PipelineConfig(epsilon=eps), seed=9)
                   for eps in (0.05, 0.2)]
        assert reports[0].scheme.to_json() == reports[1].scheme.to_json()

    def test_round_trip_on_domain(self):
        oracle, U, sample, _ = smooth_instance(43, m=20)
        rep = improper_learn(oracle, sample, U, eta=0.2, seed=4)
        rebuilt = reconstruct(rep.scheme, sample, oracle.rerm, U)
        for z in U.instances():
            assert rebuilt(z) == rep.hypothesis(z)

    def test_sparsify_fallback_keeps_the_run_sound(self, monkeypatch):
        import robustreg.pipelines as pl
        from robustreg.errors import SparsifyFailed

        def refuse(*args, **kwargs):
            raise SparsifyFailed("forced", best_violations=1)

        monkeypatch.setattr(pl, "sparsify", refuse)
        oracle, U, sample, _ = smooth_instance(47, m=15)
        rep = improper_learn(oracle, sample, U, eta=0.2, seed=8)
        assert rep.sparsify_failed is True
        assert rep.uniform is True
        assert rep.scheme.alphas is not None  # pre-sparsification side info kept


class TestAgnosticEtaLearn:
    def test_realizable_subset_is_everything(self):
        oracle, U, sample, _ = smooth_instance(53, m=20)
        rep = agnostic_eta_learn(oracle, sample, U, eta=0.2, seed=6)
        assert rep.subset_size == 20
        assert rep.emp_eta_robust_err == 0.0

    def test_single_outlier(self):
        cls = make_class([[0.5] * 6])
        U = PerturbationMap.identity(6)
        sample = labeled([(i, 0.5) for i in range(5)] + [(5, 1.0)])
        rep = agnostic_eta_learn(FiniteClassOracle(cls), sample, U, eta=0.2, seed=1)
        assert rep.subset_size == 5
        assert rep.emp_eta_robust_err == pytest.approx(1 / 6)
        assert rep.extra["subset_error_bound"] == pytest.approx(1 / 6)

    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            n = int(rng.integers(4, 9))
            cls = make_class(rng.uniform(size=(int(rng.integers(2, 6)), n)))
            U = PerturbationMap.grid_ball(n, 1)
            sample = labeled([(int(rng.integers(n)), round(float(rng.uniform()), 3))
                              for _ in range(int(rng.integers(4, 10)))])
            eta = float(rng.choice([0.2, 0.35, 0.5]))
            fit, _ = FiniteClassOracle(cls).max_fit_subset(sample, U, eta)
            size, subsets = brute_max_fit_subsets(cls.matrix, sample, U, eta)
            assert len(fit) == size
            assert frozenset(fit) in subsets

    def test_infeasible_certificate(self):
        cls = make_class([[0.0, 0.0]])
        U = PerturbationMap.identity(2)
        sample = labeled([(0, 1.0), (1, 1.0)])
        rep = agnostic_eta_learn(FiniteClassOracle(cls), sample, U, eta=0.5, seed=0)
        assert rep.status == "infeasible"
        assert rep.subset_size == 0
        assert rep.hypothesis is None


class TestRealizableRegression:
    def test_eta_is_epsilon_root(self):
        oracle, U, sample, _ = smooth_instance(61, m=20, eta=0.2)
        rep = realizable_regression(oracle, sample, U, epsilon=0.04, p=2.0, seed=2)
        assert rep.eta == pytest.approx(0.2)
        assert rep.extra["eta_from_epsilon"] == pytest.approx(0.2)

    def test_zero_tube_error_bounds_the_power_loss(self):
        oracle, U, sample, _ = smooth_instance(67, m=25, eta=0.3)
        rep = realizable_regression(oracle, sample, U, epsilon=0.3, p=1.0, seed=3)
        assert rep.emp_eta_robust_err == 0.0
        assert rep.emp_lp_robust_err <= 0.3

    def test_reduction_identity_holds(self):
        for seed in range(5):
            oracle, U, sample, _ = smooth_instance(71 + seed, m=20, eta=0.25)
            rep = realizable_regression(oracle, sample, U, epsilon=0.25, p=1.0,
                                        seed=seed)
            eta = rep.extra["eta_from_epsilon"]
            bound = rep.emp_eta_robust_err * (1 - eta ** rep.p) + eta ** rep.p
            assert rep.emp_lp_robust_err <= bound

    def test_paper_style_arithmetic(self):
        # a tube error of 0.1 at radius 0.1 caps the p=1 loss at 0.19
        assert 0.1 * (1 - 0.1) + 0.1 == pytest.approx(0.19)


class TestThetaGrid:
    def test_doubling_grid_m8(self):
        assert theta_grid(8) == [1 / 8, 1 / 4, 1 / 2, 1.0]

    def test_contains_a_point_between_root_opt_and_twice(self):
        rng = np.random.default_rng(4)
        grid = theta_grid(200)
        for opt in rng.uniform(1 / 200 ** 2, 1.0, size=50):
            root = math.sqrt(opt)
            assert any(root < t < 2 * root for t in grid if t < 1.0 or root < 1.0)


class TestAgnosticRegression:
    def test_realizable_selects_a_small_radius(self):
        oracle, U, sample, holdout = smooth_instance(83, m=32, eta=0.2)
        rep = agnostic_regression(oracle, sample, holdout, U, epsilon=0.3,
                                  delta=0.2, p=1.0, seed=7)
        assert rep.status == "ok"
        assert rep.holdout_eta_err == 0.0
        grid_errs = [e for _, s, e in rep.extra["grid"] if s == "ok"]
        assert all(rep.holdout_eta_err <= e for e in grid_errs)
        # points inside the selected tube contribute at most theta^p each
        assert rep.holdout_lp_err <= (rep.selected_theta ** rep.p
                                      + rep.holdout_eta_err + 1e-12)

    def test_holdout_size_precondition(self):
        oracle, U, sample, holdout = smooth_instance(89, m=10)
        with pytest.raises(InvalidParameter):
            agnostic_regression(oracle, sample, holdout[:2], U, epsilon=0.05,
                                delta=0.05, p=1.0)


class TestSampleComplexity:
    def test_known_shapes(self):
        delta = math.exp(-1.0)
        assert sample_complexity("4.1", 2, 3, 0.1, delta) == pytest.approx(70.0)
        assert sample_complexity("4.2", 2, 3, 0.1, delta) == pytest.approx(700.0)

    def test_exponent_gap_between_shapes(self):
        a = sample_complexity("3.1", 2, 3, 0.1, 0.5)
        b = sample_complexity("4.1", 2, 3, 0.1, 0.5)
        assert a / b == pytest.approx(1 / 0.1 ** 2)

    def test_log_factor_multiplies_the_leading_term(self):
        plain = sample_complexity("4.1", 2, 3, 0.1, 0.5)
        logged = sample_complexity("4.1", 2, 3, 0.1, 0.5, suppress_logs=False)
        assert logged > plain

    def test_ranges(self):
        with pytest.raises(InvalidParameter):
            sample_complexity("9.9", 1, 1, 0.1, 0.1)
        with pytest.raises(InvalidParameter):
            sample_complexity("4.1", -1, 1, 0.1, 0.1)
        with pytest.raises(InvalidParameter):
            sample_complexity("4.1", 1, 1, 1.5, 0.1)


class TestReportSerialization:
    def test_json_is_deterministic_and_excludes_timings(self):
        oracle, U, sample, _ = smooth_instance(97, m=15)
        reports = [improper_learn(oracle, sample, U, eta=0.2, seed=12)
                   for _ in range(2)]
        assert reports[0].to_json() == reports[1].to_json()
        assert "timings" not in reports[0].to_json()
        assert reports[0].timings  # kept in memory
