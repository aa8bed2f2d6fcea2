"""Acceptance gates for the whole package.

Each test prints one PASS line; the assertions pin the tolerances the
gates demand.  Oracles used here live in reference.py and take
independent algorithmic routes from the library.
"""

import math
import time

import numpy as np

from robustreg import (
    PerturbationMap,
    agnostic_regression,
    compress,
    default_k,
    fat_shattering,
    generalization_bound,
    greedy_cover,
    improper_learn,
    inflate,
    medboost,
    mw_boost,
    proper_learn,
    realizable_regression,
    reconstruct,
    robust_deviations,
    sparsify,
)
from robustreg.errors import RobustRegError
from robustreg.harness import (
    CSV_HEADER,
    ExperimentConfig,
    InstanceSpec,
    PerturbationSpec,
    TargetSpec,
    gen_instance,
    run_experiment,
)
from robustreg.oracles import FiniteClassOracle

from conftest import labeled, make_class
from reference import brute_fat, brute_max_fit_subsets, brute_min_cover_size


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_dimension_oracle_equivalence():
    t0 = time.perf_counter()
    hand_cases = [
        # (matrix, gamma, expected)
        ([[0.2], [0.8]], 0.3, 1),
        ([[0.2], [0.8]], 0.31, 0),
        ([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], 0.5, 2),
        ([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], 0.25, 1),  # constants
        ([[0.1, 0.9, 0.5]], 0.1, 0),  # a single hypothesis shatters nothing
        ([[0.4, 0.1], [0.4, 0.9], [0.6, 0.1], [0.6, 0.9]], 0.1, 2),
        ([[0.45], [0.55]], 0.05, 1),
    ]
    for matrix, gamma, expected in hand_cases:
        assert fat_shattering(make_class(matrix), gamma) == expected

    rng = np.random.default_rng(20240817)
    for trial in range(50):
        domain = int(rng.integers(3, 7))
        if trial % 2 == 0:
            n_hyp = int(rng.integers(4, 33))
            levels = np.linspace(0, 1, 6)
            matrix = levels[rng.integers(0, 6, size=(n_hyp, domain))]
        else:
            n_hyp = int(rng.integers(4, 17))
            matrix = rng.uniform(size=(n_hyp, domain))
        for gamma in (0.1, 0.25):
            assert fat_shattering(matrix, gamma) == brute_fat(matrix, gamma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"dimension oracle equivalence ({elapsed:.1f}s)")


def test_cover_certificate():
    rng = np.random.default_rng(4099)
    for trial in range(100):
        if trial < 30:
            n = int(rng.integers(2, 13))
        else:
            n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 51))
        pts = rng.uniform(size=(n, d))
        t = float(rng.choice([0.1, 0.25, 0.4]))
        centers, assignment = greedy_cover(pts, t)
        for i, c in enumerate(assignment):
            assert np.abs(pts[i] - pts[c]).max() <= t
        if n <= 12:
            minimum = brute_min_cover_size(pts, t)
            assert len(centers) <= (1 + math.log(n)) * minimum
    report("cover certificate")


def _medboost_family(seed):
    rng = np.random.default_rng(seed)
    n_hyp = int(rng.integers(20, 101))
    domain = int(rng.integers(30, 61))
    m = int(rng.integers(30, 61))
    eta = float(rng.choice([0.15, 0.2, 0.25]))
    cfg = ExperimentConfig(
        instance=InstanceSpec(kind="smooth", n_hypotheses=n_hyp,
                              domain_size=domain, smooth_step=0.02),
        perturbation=PerturbationSpec(kind="grid_ball",
                                      radius=int(rng.choice([1, 2]))),
        eta=eta, m_grid=(m,), holdout_size=10, seed=seed)
    cls, U, sample, _ = gen_instance(cfg, seed, m=m)
    return FiniteClassOracle(cls), U, sample, eta


def test_medboost_uniform_approximation():
    successes = 0
    worst = 0.0
    for seed in range(50):
        oracle, U, sample, eta = _medboost_family(seed)
        t0 = time.perf_counter()
        try:
            rep = improper_learn(oracle, sample, U, eta, seed=seed)
            ok = bool((robust_deviations(rep.hypothesis.values, sample, U) <= eta).all())
        except RobustRegError:
            ok = False
        worst = max(worst, time.perf_counter() - t0)
        successes += ok
        assert worst < 10.0
    assert successes >= 48  # 95% of 50
    report(f"medboost uniform approximation ({successes}/50, worst {worst:.2f}s)")


def test_compression_epsilon_independence():
    # the scheme's size is set by the dimensions, k * min(d, m), not by
    # accuracy: on m/2 and on m points of one instance it is the same
    for seed in (3, 11, 29):
        oracle, U, sample, eta = _medboost_family(200 + seed)
        k = default_k(max(1, oracle.dual_fat(eta)), eta)
        log_factor = max(1, math.ceil(math.log(1.0 / eta) ** 2))
        d = max(1, math.ceil(oracle.fat(eta / 64) * log_factor))
        sizes = []
        for m in (len(sample) // 2, len(sample)):
            rep = improper_learn(oracle, sample[:m], U, eta, seed=seed)
            assert not rep.sparsify_failed
            assert rep.scheme.size == k * min(d, m)
            sizes.append(rep.scheme.size)
        assert sizes[0] == sizes[1]
    report("compression epsilon-independence")


def test_round_trip():
    checked = 0
    # median-boosted, sparsified, and averaged ensembles from live runs
    for seed in (5, 17):
        oracle, U, sample, eta = _medboost_family(300 + seed)
        inflated = inflate(sample, U)
        ens = medboost(inflated, sample, U, eta, T=6, rerm=oracle.rerm, d=8,
                       rng=np.random.default_rng(seed))
        small = sparsify(ens, inflated, eta / 2, k=3, seed=seed)
        for ensemble, store in ((ens, True), (small, False)):
            scheme = compress(ensemble, sample, eta, min(8, len(sample)), store)
            rebuilt = reconstruct(scheme, sample, oracle.rerm, U)
            for z in U.instances():
                assert rebuilt(z) == ensemble.values[z]
            checked += 1
        avg = mw_boost(inflated, sample, U, eta, epsilon=0.5, xi=0.5, T=4,
                       rerm=oracle.rerm, d=8, seed=seed)
        scheme = compress(avg, sample, eta, min(8, len(sample)), False)
        rebuilt = reconstruct(scheme, sample, oracle.rerm, U)
        for z in U.instances():
            assert rebuilt(z) == avg.values[z]
        checked += 1
    # every pipeline's stored scheme reconstructs to its reported hypothesis
    for seed in (7, 23):
        oracle, U, sample, eta = _medboost_family(400 + seed)
        reports = [
            improper_learn(oracle, sample, U, eta, seed=seed),
            proper_learn(oracle, sample, U, eta, 0.25, seed=seed),
            realizable_regression(oracle, sample, U, epsilon=eta, p=1.0, seed=seed),
        ]
        for rep in reports:
            rebuilt = reconstruct(rep.scheme, sample, oracle.rerm, U)
            for z in U.instances():
                assert rebuilt(z) == rep.hypothesis(z)
            checked += 1
    report(f"round trip ({checked} ensembles)")


def test_reverse_markov_identity():
    runs = 0
    for seed in range(8):
        oracle, U, sample, eta = _medboost_family(500 + seed)
        p = [1.0, 2.0][seed % 2]
        epsilon = round(eta ** p, 6)
        rep = realizable_regression(oracle, sample, U, epsilon=epsilon, p=p,
                                    seed=seed)
        eta_run = rep.extra["eta_from_epsilon"]
        bound = rep.emp_eta_robust_err * (1.0 - eta_run ** p) + eta_run ** p
        assert rep.emp_lp_robust_err <= bound
        runs += 1
    report(f"reverse-Markov identity ({runs} runs)")


def test_agnostic_maximal_subset():
    rng = np.random.default_rng(8191)
    for trial in range(30):
        n = int(rng.integers(4, 10))
        cls = make_class(rng.uniform(size=(int(rng.integers(2, 7)), n)))
        U = PerturbationMap.grid_ball(n, int(rng.choice([0, 1])))
        m = int(rng.integers(4, 13))
        sample = labeled([(int(rng.integers(n)), round(float(rng.uniform()), 3))
                          for _ in range(m)])
        eta = float(rng.choice([0.15, 0.3, 0.5]))
        fit, witness = FiniteClassOracle(cls).max_fit_subset(sample, U, eta)
        size, subsets = brute_max_fit_subsets(cls.matrix, sample, U, eta)
        assert len(fit) == size
        if size:
            assert frozenset(fit) in subsets
    report("agnostic maximal subset")


def test_agnostic_regression_guarantee():
    t0 = time.perf_counter()
    successes = 0
    for trial in range(40):
        q = 0.05 if trial % 2 == 0 else 0.1
        cfg = ExperimentConfig(
            instance=InstanceSpec(kind="smooth", n_hypotheses=20,
                                  domain_size=50, smooth_step=0.001),
            perturbation=PerturbationSpec(kind="grid_ball", radius=1),
            target=TargetSpec(noise_rate=q),
            eta=0.25, m_grid=(200,), holdout_size=500, seed=7000 + trial,
            realizable_margin=0.001)
        cls, U, sample, holdout = gen_instance(cfg, 7000 + trial, m=200)
        try:
            rep = agnostic_regression(FiniteClassOracle(cls), sample, holdout,
                                      U, epsilon=0.15, delta=0.1, p=1.0,
                                      seed=trial)
            successes += rep.holdout_eta_err <= math.sqrt(q) + 0.15
        except RobustRegError:
            pass
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert successes >= 34  # 85% of 40
    report(f"agnostic regression guarantee ({successes}/40, {elapsed:.0f}s)")


def test_bound_calculators():
    # literals evaluated by hand from the three formulas
    frozen = [
        ("realizable", 10, 1000, 0.36787944117144233, 0.0, 1.0, 0.07007755278982136),
        ("agnostic", 10, 1000, 0.36787944117144233, 0.0, 1.0, 0.26472165153198435),
        ("bernstein", 10, 1000, 0.36787944117144233, 0.25, 1.0, 0.20243837855581354),
        ("realizable", 1, 100, 0.05, 0.0, 1.0, 0.07600902459542082),
        ("agnostic", 5, 500, 0.1, 0.0, 2.0, 0.5167252700234816),
        ("bernstein", 8, 400, 0.01, 0.5, 1.0, 0.3876059637526429),
        ("realizable", 20, 4000, 0.001, 0.0, 3.0, 0.12959156106076702),
        ("agnostic", 3, 50, 0.2, 0.0, 1.0, 0.5166334663708602),
        ("bernstein", 15, 1500, 0.05, 0.04, 1.0, 0.12994882924636386),
        ("realizable", 2, 256, 0.5, 0.0, 0.5, 0.023014652479529434),
    ]
    for kind, k, m, delta, emp, c, expected in frozen:
        got = generalization_bound(kind, k, m, delta, empirical=emp, c=c)
        assert abs(got - expected) <= 1e-9

    rng = np.random.default_rng(99)
    for _ in range(100):
        k = int(rng.integers(1, 20))
        m = int(rng.integers(100, 5000))
        delta = float(rng.uniform(0.001, 0.5))
        emp = float(rng.uniform(0, 1))
        for kind in ("realizable", "agnostic", "bernstein"):
            v = generalization_bound(kind, k, m, delta, empirical=emp)
            assert generalization_bound(kind, k, 2 * m, delta, empirical=emp) <= v
            assert generalization_bound(kind, k + 1, m, delta, empirical=emp) >= v
            assert generalization_bound(kind, k, m, delta / 2, empirical=emp) >= v
        b = generalization_bound("bernstein", k, m, delta, empirical=emp)
        a = generalization_bound("agnostic", k, m, delta)
        r = generalization_bound("realizable", k, m, delta)
        assert b <= a + r + 1e-12
    report("bound calculators")


def test_learning_curve_sanity():
    cfg = ExperimentConfig(
        instance=InstanceSpec(kind="blocks", n_hypotheses=60, domain_size=120,
                              blocks=24, defect_blocks=3),
        perturbation=PerturbationSpec(kind="grid_ball", radius=1),
        eta=0.2, m_grid=(20, 40, 80, 160), holdout_size=120, trials=20,
        seed=77)
    rows = run_experiment(cfg)
    errs = {m: [] for m in cfg.m_grid}
    ok = 0
    for r in rows:
        d = dict(zip(CSV_HEADER, r))
        if d["status"] == "ok":
            ok += 1
            errs[int(d["m"])].append(float(d["holdout_robust_err"]))
    assert ok >= 64  # at least 80% of 80 runs complete
    medians = [float(np.median(errs[m])) for m in cfg.m_grid]
    nonincreasing = sum(medians[i + 1] <= medians[i]
                        for i in range(len(medians) - 1))
    assert nonincreasing >= 3
    report(f"learning curve sanity (medians {[round(v, 4) for v in medians]})")
