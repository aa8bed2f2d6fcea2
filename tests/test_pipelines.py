import json
import math

import numpy as np
import pytest

from robustreg import (
    Lp,
    PerturbationMap,
    PipelineConfig,
    agnostic_eta_learn,
    agnostic_regression,
    build_pool,
    dual_embed,
    empirical_error,
    improper_learn,
    inflate,
    proper_learn,
    realizable_regression,
    reconstruct,
    run_pipeline,
    theta_grid,
)
import robustreg.pipelines as pl
from robustreg.errors import EmptyPool, InvalidParameter, ReconstructionFailed
from robustreg.harness import (
    ExperimentConfig,
    InstanceSpec,
    PerturbationSpec,
    TargetSpec,
    gen_instance,
)
from robustreg.oracles import ConstantClassOracle, FiniteClassOracle, rerm_constant

from conftest import labeled, make_class, shifted_reconstruct
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


def recording_rerm():
    """rerm_constant that records the sample ids of every subset it fits,
    and one entry in ``batches`` per call."""
    calls, batches = [], []

    def rerm(sample, subsets, U, eta):
        batches.append(len(subsets))
        calls.extend(tuple(int(sample.xs[i]) for i in s) for s in subsets)
        return rerm_constant(sample, subsets, U, eta)
    return rerm, calls, batches


class TestBuildPool:
    U3 = PerturbationMap.identity(3)
    SAMPLE = labeled([(0, 0.2), (1, 0.2), (2, 0.2)])
    U11 = PerturbationMap.identity(11)
    SAMPLE11 = labeled([(i, 0.5) for i in range(11)])

    RNG = np.random.default_rng(0)

    def test_enumerate_three_choose_two(self):
        pool, sources, skipped = build_pool(self.SAMPLE, self.U3, rerm_constant, 0.1, 2,
                                            rng=self.RNG)
        assert len(pool) == 3 and skipped == 0
        assert sources == [(0, 1), (0, 2), (1, 2)]

    def test_d_at_least_m_gives_one_subset(self):
        pool, sources, _ = build_pool(self.SAMPLE, self.U3, rerm_constant, 0.1, 10,
                                      rng=self.RNG)
        assert len(pool) == 1 and sources == [(0, 1, 2)]

    def test_sample_mode_is_reproducible(self):
        # beyond POOL_ENUMERATE_MAX subsets exactly the deduplicated drawn
        # subsets are refit, in the order drawn
        assert math.comb(11, 4) > pl.POOL_ENUMERATE_MAX
        rng = np.random.default_rng(5)
        drawn = [tuple(sorted(rng.choice(11, size=4, replace=False).tolist()))
                 for _ in range(pl.POOL_DRAWS)]
        runs = []
        for _ in range(2):
            rerm, calls, batches = recording_rerm()
            pool, sources, _ = build_pool(self.SAMPLE11, self.U11, rerm, 0.1, 4,
                                          rng=np.random.default_rng(5))
            assert calls == list(dict.fromkeys(drawn)) == sources
            assert len(pool) == len(calls) and batches == [len(calls)]
            runs.append(calls)
        assert len(runs[0]) < pl.POOL_DRAWS and runs[0] == runs[1]

    def test_infeasible_subsets_are_counted(self):
        spread = labeled([(0, 0.0), (1, 1.0), (2, 0.5)])
        pool, sources, skipped = build_pool(spread, self.U3, rerm_constant, 0.3, 2,
                                            rng=self.RNG)
        assert skipped == 1  # only the {0.0, 1.0} pair exceeds the 0.3 radius
        assert len(pool) == 2 and sources == [(0, 2), (1, 2)]

    def test_all_infeasible_is_empty_pool(self):
        spread = labeled([(0, 0.0), (1, 1.0)])
        with pytest.raises(EmptyPool):
            build_pool(spread, self.U3, rerm_constant, 0.1, 2, rng=self.RNG)

    @pytest.mark.parametrize("d", [2.5, 2.0, True])
    def test_d_must_be_an_integer(self, d):
        with pytest.raises(InvalidParameter, match="d must be an integer"):
            build_pool(self.SAMPLE11, self.U11, rerm_constant, 0.1, d, rng=self.RNG)

    def test_enumerate_cap(self):
        # up to POOL_ENUMERATE_MAX subsets every one is refit, in
        # lexicographic order; beyond, at most POOL_DRAWS are drawn
        cap = pl.POOL_ENUMERATE_MAX
        rerm, calls, batches = recording_rerm()
        build_pool(labeled([(i, 0.5) for i in range(cap)]), PerturbationMap.identity(cap),
                   rerm, 0.1, 1, rng=self.RNG)
        assert calls == [(i,) for i in range(cap)] and batches == [cap]
        rerm, calls, batches = recording_rerm()
        build_pool(labeled([(i, 0.5) for i in range(cap + 1)]),
                   PerturbationMap.identity(cap + 1), rerm, 0.1, 1, rng=self.RNG)
        assert 1 <= len(calls) <= pl.POOL_DRAWS and batches == [len(calls)]


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
        # the kept ensemble is a short-circuit one, whose unit weights are not stored
        assert len(rep.scheme.groups) == rep.rounds
        assert rep.scheme.alphas is None


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
        # no class member fits any point, so every pool subset is infeasible
        cls = make_class([[0.0, 0.0]])
        U = PerturbationMap.identity(2)
        sample = labeled([(0, 1.0), (1, 1.0)])
        with pytest.raises(EmptyPool, match="no class member fits any point"):
            agnostic_eta_learn(FiniteClassOracle(cls), sample, U, eta=0.5, seed=0)


def staged_radii(monkeypatch, oracle, stages):
    """Shadow the oracle's rerm and wrap each (module, name) in ``stages``;
    returns the (innermost running stage, radius) of every rerm call."""
    calls, running, rerm = [], ["run"], oracle.rerm

    def recording(sample, subsets, U, eta):
        calls.append((running[-1], eta))
        return rerm(sample, subsets, U, eta)
    oracle.rerm = recording
    for module, name in stages:
        def wrapped(*args, _fn=getattr(module, name), _name=name, **kwargs):
            running.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                running.pop()
        monkeypatch.setattr(module, name, wrapped)
    return calls


class TestRefitRadius:
    # one batched RERM call for the pool and one for the replay; boosting
    # picks from the pool and fits nothing
    REFITTING = ["build_pool", "reconstruct"]
    MEDIAN = [(pl, "build_pool"), (pl, "medboost"), (pl, "reconstruct")]
    AVERAGE = [(pl, "build_pool"), (pl, "mw_boost"), (pl, "reconstruct")]

    def test_median_runs_refit_at_an_eighth(self, monkeypatch):
        oracle, U, sample, _ = smooth_instance(43, m=20)
        calls = staged_radii(monkeypatch, oracle, self.MEDIAN)
        rep = improper_learn(oracle, sample, U, eta=0.2, seed=4)
        assert rep.rounds >= 1
        assert [stage for stage, _ in calls] == self.REFITTING
        assert {radius for _, radius in calls} == {0.2 / 8}

    def test_average_runs_refit_at_a_quarter(self, monkeypatch):
        oracle, U, sample, _ = smooth_instance(17, m=50, margin=0.2 / 8)
        calls = staged_radii(monkeypatch, oracle, self.AVERAGE)
        rep = proper_learn(oracle, sample, U, eta=0.2, epsilon=0.1, seed=17)
        assert rep.rounds >= 1
        assert [stage for stage, _ in calls] == self.REFITTING
        assert {radius for _, radius in calls} == {0.2 / 4}

    def test_agnostic_runs_refit_at_an_eighth_and_time_every_stage(self, monkeypatch):
        oracle, U, sample, _ = smooth_instance(53, m=20)
        calls = staged_radii(monkeypatch, oracle, self.MEDIAN)
        rep = agnostic_eta_learn(oracle, sample, U, eta=0.2, seed=6)
        assert rep.rounds >= 1
        assert [stage for stage, _ in calls] == self.REFITTING
        assert {radius for _, radius in calls} == {0.2 / 8}
        assert list(rep.timings) == ["pool", "cover", "boost", "sparsify", "verify"]


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

    def test_p_reaches_the_report(self):
        oracle, U, sample, _ = smooth_instance(61, m=20, eta=0.2)
        rep = realizable_regression(oracle, sample, U, epsilon=0.04, p=2.0, seed=2)
        assert rep.p == 2.0
        assert rep.emp_lp_robust_err == empirical_error(rep.hypothesis, sample, U, Lp(2.0))

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

    def test_p_reaches_the_report(self):
        oracle, U, sample, holdout = smooth_instance(83, m=32, eta=0.2)
        rep = agnostic_regression(oracle, sample, holdout, U, epsilon=0.3,
                                  delta=0.2, p=2.0, seed=7)
        assert rep.p == 2.0
        assert rep.emp_lp_robust_err == empirical_error(rep.hypothesis, sample, U, Lp(2.0))
        assert rep.holdout_lp_err == empirical_error(rep.hypothesis, holdout, U, Lp(2.0))

    def test_a_broken_replay_stops_the_sweep(self, monkeypatch):
        # every radius refits groups the pool fit at that radius, so a
        # replay that differs from its run is a fault, not a failed radius
        monkeypatch.setattr(pl, "reconstruct", shifted_reconstruct)
        oracle, U, sample, holdout = smooth_instance(83, m=32, eta=0.2)
        with pytest.raises(ReconstructionFailed, match="differs from the run"):
            agnostic_regression(oracle, sample, holdout, U, epsilon=0.3,
                                delta=0.2, p=1.0, seed=7)

    def test_radii_that_fit_nothing_are_empty_pools_in_the_trail(self):
        # the class row is 0.09 from every label: the refit radius theta/8
        # reaches it from theta = 0.8 on, and theta = 1 is outside (0, 1)
        oracle = FiniteClassOracle(make_class([[0.5] * 5]))
        U = PerturbationMap.identity(5)
        sample = labeled([(i, 0.41) for i in range(5)])
        rep = agnostic_regression(oracle, sample, sample[:3], U, epsilon=0.5,
                                  delta=0.5, p=1.0, seed=3)
        assert rep.extra["grid"] == [(0.2, "EmptyPool", None), (0.4, "EmptyPool", None),
                                     (0.8, "ok", 0.0), (1.0, "InvalidParameter", None)]
        assert rep.selected_theta == 0.8 and rep.subset_size == 5

    def test_holdout_size_precondition(self):
        oracle, U, sample, holdout = smooth_instance(89, m=10)
        with pytest.raises(InvalidParameter):
            agnostic_regression(oracle, sample, holdout[:2], U, epsilon=0.05,
                                delta=0.05, p=1.0)


@pytest.mark.parametrize("key", ["d", "T"])
@pytest.mark.parametrize("value", [0, -2])
def test_pipeline_config_refuses_overrides_below_one(key, value):
    # the message an experiment config gives for the same value
    with pytest.raises(InvalidParameter, match=f"^bad value {value} for '{key}', below 1$"):
        PipelineConfig(**{key: value})


@pytest.mark.parametrize("key", ["d", "T"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(2.0)])
def test_pipeline_config_refuses_overrides_that_are_not_integers(key, value):
    with pytest.raises(InvalidParameter, match=f"^bad value .* for '{key}', not an integer$"):
        PipelineConfig(**{key: value})


def test_pipeline_config_and_build_pool_accept_numpy_integers():
    assert PipelineConfig(d=np.int64(3), T=np.int32(2)).d == 3
    pool, sources, _ = build_pool(labeled([(0, 0.2), (1, 0.2), (2, 0.2)]),
                                  PerturbationMap.identity(3), rerm_constant, 0.1, np.int64(2),
                                  rng=np.random.default_rng(0))
    assert sources == [(0, 1), (0, 2), (1, 2)]


class TestReportSerialization:
    def test_json_is_deterministic_and_excludes_timings(self):
        oracle, U, sample, _ = smooth_instance(97, m=15)
        reports = [improper_learn(oracle, sample, U, eta=0.2, seed=12)
                   for _ in range(2)]
        assert reports[0].to_json() == reports[1].to_json()
        assert "timings" not in reports[0].to_json()
        assert reports[0].timings  # kept in memory

    def test_json_keys_in_order(self):
        U = PerturbationMap.identity(5)
        sample = labeled([(i, 0.45) for i in range(5)])
        rep = proper_learn(ConstantClassOracle(), sample, U, eta=0.2,
                           epsilon=0.1, seed=3)
        doc = json.loads(rep.to_json())
        assert list(doc) == [
            "pipeline", "eta", "epsilon", "p", "seed", "status",
            "emp_eta_robust_err", "emp_lp_robust_err", "uniform",
            "compression_size", "cover_size", "pool_size", "rounds",
            "bound_realizable", "bound_agnostic", "sparsify_failed",
            "subset_size", "selected_theta", "holdout_eta_err", "holdout_lp_err",
            "properness", "scheme", "extra"]
        assert doc["properness"] == list(rep.properness)
        assert doc["scheme"] == json.loads(rep.scheme.to_json())


class TestRunPipeline:
    @pytest.mark.parametrize("name, given, missing", [
        ("improper", {}, "eta"),
        ("proper", {"epsilon": 0.1}, "eta"),
        ("proper", {"eta": 0.2}, "epsilon"),
        ("agnostic-eta", {}, "eta"),
        ("regress", {}, "epsilon"),
        ("agnostic-regress", {"delta": 0.1}, "epsilon"),
        ("agnostic-regress", {"epsilon": 0.2}, "delta"),
    ])
    def test_a_missing_parameter_is_named(self, name, given, missing):
        oracle, U, sample, _ = smooth_instance(43, m=10)
        with pytest.raises(InvalidParameter, match=missing):
            run_pipeline(name, oracle, sample, U, **given)


GRID = PerturbationSpec(kind="grid_ball", radius=1)


class TestFormerFailures:
    """Instances on which boosting used to pick members outside the pool
    the cover was built on, or the agnostic learner picked its subset at
    eta while refitting it at eta/8."""

    def test_improper_on_large_blocks(self):
        cfg = ExperimentConfig(
            instance=InstanceSpec(kind="blocks", n_hypotheses=60, domain_size=2000,
                                  blocks=24, defect_blocks=3),
            perturbation=GRID, eta=0.2, m_grid=(1280,), holdout_size=0)
        cls, U, sample, _ = gen_instance(cfg, 2636081076)
        rep = improper_learn(FiniteClassOracle(cls), sample, U, 0.2, seed=1222616834)
        assert rep.uniform is True

    @pytest.mark.parametrize("instance_seed, run_seed", [
        (485786207, 1298801294), (2972200149, 2900916593), (775842676, 3995194491)])
    def test_agnostic_regression_on_a_noisy_grid(self, instance_seed, run_seed):
        cfg = ExperimentConfig(
            instance=InstanceSpec(kind="smooth", n_hypotheses=20, domain_size=50,
                                  smooth_step=0.001),
            perturbation=GRID, target=TargetSpec(noise_rate=0.1), eta=0.25,
            m_grid=(200,), holdout_size=500, realizable_margin=0.001)
        cls, U, sample, holdout = gen_instance(cfg, instance_seed)
        rep = agnostic_regression(FiniteClassOracle(cls), sample, holdout, U,
                                  epsilon=0.15, delta=0.1, p=1.0, seed=run_seed)
        # every radius below 1 runs to the end (theta = 1 is refused)
        assert rep.status == "ok"
        assert [s for t, s, _ in rep.extra["grid"] if t < 1.0] == ["ok"] * 8
