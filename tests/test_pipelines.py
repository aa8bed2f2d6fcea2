import json
import math

import numpy as np
import pytest

from robustreg import (
    Lp,
    PerturbationMap,
    PipelineConfig,
    WeightedEnsemble,
    agnostic_eta_learn,
    agnostic_regression,
    as_sample,
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
from robustreg.errors import (
    ChainAssertionFailed,
    EmptyPool,
    InvalidParameter,
    ReconstructionFailed,
    StrongLearnerNotFound,
    UnrealizableSpec,
    WeakLearnerNotFound,
)
from robustreg.harness import (
    ExperimentConfig,
    InstanceSpec,
    PerturbationSpec,
    TargetSpec,
    _build_class,
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
    return FiniteClassOracle(cls), U, as_sample(sample), as_sample(holdout)


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


# the median and the averaged scheme on TestWeakLearnerDoubling.drawn_blocks,
# whose pools at d = 1 and 2 hold no weak or (at epsilon 0.2) strong learner
SCHEMES = {
    "median": lambda oracle, sample, U, config: improper_learn(oracle, sample, U, 0.3, config),
    "average": lambda oracle, sample, U, config: proper_learn(oracle, sample, U, 0.3, 0.2, config),
}


class TestWeakLearnerDoubling:
    """Realizable samples whose pool at the starting d has no weak or strong
    learner; the learner reruns pool, cover and boost with d doubled."""

    @staticmethod
    def drawn_blocks():
        cfg = ExperimentConfig(
            instance=InstanceSpec(kind="blocks", n_hypotheses=22, domain_size=12,
                                  blocks=3, defect_blocks=1),
            eta=0.3, m_grid=(6,))
        cls, U, sample, _ = gen_instance(cfg, 9374)
        return FiniteClassOracle(cls), U, as_sample(sample)

    @staticmethod
    def pool_sizes(monkeypatch):
        """The d of every pool the learners build from here on."""
        sizes = []

        def recording_pool(sample, U, rerm, eta, d, **kwargs):
            sizes.append(d)
            return build_pool(sample, U, rerm, eta, d, **kwargs)
        monkeypatch.setattr(pl, "build_pool", recording_pool)
        return sizes

    def test_a_drawn_blocks_sample(self):
        oracle, U, sample = self.drawn_blocks()
        rep = improper_learn(oracle, sample, U, 0.3)
        assert rep.uniform is True
        assert rep.extra["d"] == 4 and rep.extra["d_doublings"] == 1  # from d = 2

    def test_a_hand_picked_blocks_sample(self):
        spec = InstanceSpec(kind="blocks", n_hypotheses=8, domain_size=8, blocks=4,
                            defect_blocks=2)
        cls = _build_class(spec, np.random.default_rng(2), 0)
        sample = labeled([(x, cls.matrix[3, x]) for x in (2, 4, 6)])
        rep = improper_learn(FiniteClassOracle(cls), sample, PerturbationMap.identity(8), 0.4)
        assert rep.uniform is True
        # from d = 2 to every point: the whole sample is stored
        assert rep.extra["d"] == len(sample) and rep.extra["d_doublings"] == 1

    def test_the_golden_proper_instance_learns(self):
        # tests/golden's proper config at m = 40, seed 2: no strong learner at d = 6
        cfg = ExperimentConfig(
            instance=InstanceSpec(kind="blocks", n_hypotheses=40, domain_size=120,
                                  blocks=12, defect_blocks=3),
            perturbation=PerturbationSpec(kind="grid_ball", radius=1),
            pipeline="proper", eta=0.2, epsilon=0.2, m_grid=(40,), holdout_size=50)
        cls, U, sample, _ = gen_instance(cfg, 2)
        rep = proper_learn(FiniteClassOracle(cls), sample, U, 0.2, 0.2,
                           PipelineConfig(d=6, T=9), seed=2)
        assert rep.extra["d"] == 12 and rep.extra["d_doublings"] == 1

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_a_given_d_is_where_the_doubling_starts(self, scheme):
        oracle, U, sample = self.drawn_blocks()
        for d, doublings in ((1, 2), (2, 1), (3, 0)):
            rep = SCHEMES[scheme](oracle, sample, U, PipelineConfig(d=d))
            assert rep.extra.get("d_doublings", 0) == doublings

    @pytest.mark.parametrize("scheme, booster, error, config", [
        ("median", "medboost", WeakLearnerNotFound, None),  # its own d is 2
        ("average", "mw_boost", StrongLearnerNotFound, PipelineConfig(d=2)),
    ], ids=["median", "average"])
    def test_d_stops_at_the_fitted_points(self, monkeypatch, scheme, booster, error, config):
        def refuse(*args):
            raise error("forced", best_mass=0.5)

        sizes = self.pool_sizes(monkeypatch)
        monkeypatch.setattr(pl, booster, refuse)
        oracle, U, sample = self.drawn_blocks()
        with pytest.raises(error, match="forced"):
            SCHEMES[scheme](oracle, sample, U, config)
        assert sizes == [2, 4, 6]

    @pytest.mark.parametrize("scheme, booster, link", [
        ("median", "medboost", "median deviation on the cover"),
        ("average", "mw_boost", "cover rate"),
    ], ids=["median", "average"])
    def test_a_broken_chain_link_is_not_retried(self, monkeypatch, scheme, booster, link):
        def farthest_member(cover, pool, sources, *args):
            # a pool member, so the replay matches, that is far from the cover
            dev = [np.abs(h.values[cover.xs] - cover.ys).mean() for h in pool]
            return WeightedEnsemble.from_picks(pool, sources, [int(np.argmax(dev))], scheme)

        sizes = self.pool_sizes(monkeypatch)
        monkeypatch.setattr(pl, booster, farthest_member)
        oracle, U, sample = self.drawn_blocks()
        with pytest.raises(ChainAssertionFailed, match=f"^{link} "):
            SCHEMES[scheme](oracle, sample, U, PipelineConfig(d=2))
        assert sizes == [2]

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_a_doubling_inflates_and_sizes_d_once(self, monkeypatch, scheme):
        calls = []
        oracle, U, sample = self.drawn_blocks()
        fat = oracle.fat
        monkeypatch.setattr(pl, "inflate", lambda *args: calls.append("inflate") or inflate(*args))
        monkeypatch.setattr(oracle, "fat", lambda *args: calls.append("fat") or fat(*args))
        rep = SCHEMES[scheme](oracle, sample, U, PipelineConfig(d=2))
        assert rep.extra["d_doublings"] == 1
        assert calls == ["inflate", "fat"]

    @pytest.mark.parametrize("learn", [
        lambda seed, *args: (improper_learn, agnostic_eta_learn)[seed // 4 % 2](*args, seed=seed),
        # one round's median misses a cover point unless the pool holds a
        # member within eta/4 of all of them
        lambda seed, *args: (improper_learn, agnostic_eta_learn)[seed // 4 % 2](
            *args, PipelineConfig(T=1), seed=seed),
        # at the paper's d every pool of the family holds a strong learner, so
        # the averaged scheme starts at d = 1, where 107 of the 200 are too small
        lambda seed, *args: proper_learn(*args, 0.2, PipelineConfig(d=1), seed=seed),
        # at epsilon 0.5 a round's learner may miss half the cover, and the
        # average of T such rounds may miss more
        lambda seed, *args: proper_learn(*args, 0.5, PipelineConfig(d=1), seed=seed),
    ], ids=["median", "median-T1", "average", "average-eps0.5"])
    def test_a_realizable_blocks_family_always_learns(self, learn):
        doubled = 0
        for seed in range(20000, 20200):
            rng = np.random.default_rng(seed)
            blocks = int(rng.integers(2, 5))
            spec = InstanceSpec(kind="blocks", n_hypotheses=int(rng.integers(4, 25)),
                                domain_size=int(rng.integers(6, 17)), blocks=blocks,
                                defect_blocks=int(rng.integers(1, blocks)))
            eta = (0.3, 0.4)[seed // 2 % 2]
            cfg = ExperimentConfig(
                instance=spec, eta=eta, m_grid=(int(rng.integers(3, 9)),), holdout_size=0,
                perturbation=PerturbationSpec(kind=("identity", "grid_ball")[seed % 2]))
            try:
                cls, U, sample, _ = gen_instance(cfg, seed)
            except UnrealizableSpec:
                continue
            rep = learn(seed, FiniteClassOracle(cls), sample, U, eta)
            doubled += "d_doublings" in rep.extra
        assert doubled >= 10  # the family holds samples that need it


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


@pytest.mark.parametrize("learn, instance", [
    (lambda o, s, U: improper_learn(o, s, U, eta=0.2, seed=4), {"seed": 43, "m": 20}),
    (lambda o, s, U: agnostic_eta_learn(o, s, U, eta=0.2, seed=6), {"seed": 53, "m": 20}),
    (lambda o, s, U: proper_learn(o, s, U, eta=0.2, epsilon=0.1, seed=17),
     {"seed": 17, "m": 50, "margin": 0.2 / 8}),
], ids=["improper", "agnostic-eta", "proper"])
def test_the_stages_sum_to_the_span_of_the_clock(monkeypatch, learn, instance):
    """With a clock that ticks once per read, no stretch of a learner call
    between its first and last reading goes untimed or is timed twice."""
    oracle, U, sample, _ = smooth_instance(**instance)
    reads = []

    def tick():
        reads.append(float(len(reads)))
        return reads[-1]

    monkeypatch.setattr(pl.time, "perf_counter", tick)
    rep = learn(oracle, sample, U)
    assert len(reads) >= 2
    assert sum(rep.timings.values()) == reads[-1] - reads[0]


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


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
@pytest.mark.parametrize("learner", ["regress", "agnostic-regress"])
def test_both_regressions_refuse_a_p_outside_the_lp_rule(learner, p):
    # past the check, an infinite p makes the tube radius epsilon^(1/p) = 1,
    # and a NaN p runs the sweep and reports "p": NaN, which is not JSON
    oracle, U, sample, holdout = smooth_instance(83, m=32, eta=0.2)
    with pytest.raises(InvalidParameter, match="^p must be finite and >= 1"):
        run_pipeline(learner, oracle, sample, U, holdout=holdout, epsilon=0.3,
                     delta=0.2, p=p)


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
        rep = agnostic_regression(oracle, sample, sample.take(range(3)), U, epsilon=0.5,
                                  delta=0.5, p=1.0, seed=3)
        assert rep.extra["grid"] == [(0.2, "EmptyPool", None), (0.4, "EmptyPool", None),
                                     (0.8, "ok", 0.0), (1.0, "InvalidParameter", None)]
        assert rep.selected_theta == 0.8 and rep.subset_size == 5

    def test_holdout_size_precondition(self):
        oracle, U, sample, holdout = smooth_instance(89, m=10)
        with pytest.raises(InvalidParameter):
            agnostic_regression(oracle, sample, holdout.take(range(2)), U, epsilon=0.05,
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
