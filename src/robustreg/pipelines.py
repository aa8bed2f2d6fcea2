"""End-to-end learners: inflate, pool, dual cover, boost, compress.

Every guarantee a pipeline reports is recomputed from the reconstructed
hypothesis rather than trusted from the run, and each link of the
guarantee chain (cover set, inflated set, original sample) is evaluated
directly; a broken link raises :class:`ChainAssertionFailed`.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .boosting import WeightedEnsemble, medboost
from .compression import CompressionScheme, compress, generalization_bound, reconstruct
from .core import (
    EtaBall,
    Hypothesis,
    InflatedExample,
    LabeledExample,
    Lp,
    PerturbationMap,
    empirical_error,
    examples_arrays,
    inflate,
    robust_deviations,
)
from .dimensions import greedy_cover
from .errors import (
    ChainAssertionFailed,
    EmptyPool,
    Infeasible,
    InvalidParameter,
    RobustRegError,
    SparsifyFailed,
)
from .mw import mw_boost
from .sparsify import default_k, sparsify


@dataclass
class PipelineConfig:
    """Knobs for pool construction, boosting, and sparsification.

    ``d`` and ``T`` override the dimension-driven defaults; the c_*
    constants scale them.  Scale multipliers for the RERM radius and the
    fat-shattering scale are exposed for both learner families.
    """

    d: int | None = None
    T: int | None = None
    k: int | None = None
    pool_mode: str = "auto"  # auto | enumerate | sample
    pool_samples: int = 64
    pool_enumerate_cap: int = 100_000
    pool_auto_cap: int = 256
    c_d: float = 1.0
    c_T: float = 4.0
    c_k: float = 1.0
    xi: float = 0.5
    retries: int = 30
    round_retries: int = 5
    sparsify_max_iters: int = 200
    max_doublings: int = 4
    early_stop: bool = True
    epsilon: float | None = None  # read by the averaging pipeline only
    p: float = 1.0
    delta: float = 0.05
    suppress_logs: bool = True
    proper_rerm_scale: float = 1 / 4
    proper_fat_scale: float = 1 / 32
    improper_rerm_scale: float = 1 / 8
    improper_fat_scale: float = 1 / 64


@dataclass
class PipelineReport:
    """What a pipeline run produced, with errors recomputed from the
    reconstruction."""

    pipeline: str
    eta: float
    seed: int
    scheme: CompressionScheme | None = None
    hypothesis: Hypothesis | None = None
    emp_eta_robust_err: float | None = None
    emp_lp_robust_err: float | None = None
    uniform: bool | None = None
    compression_size: int | None = None
    cover_size: int | None = None
    pool_size: int | None = None
    rounds: int | None = None
    bound_realizable: float | None = None
    bound_agnostic: float | None = None
    epsilon: float | None = None
    p: float = 1.0
    status: str = "ok"
    sparsify_failed: bool = False
    subset_size: int | None = None
    selected_theta: float | None = None
    holdout_eta_err: float | None = None
    holdout_lp_err: float | None = None
    properness: tuple | None = None
    timings: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self, include_timings: bool = False) -> str:
        doc = {
            "pipeline": self.pipeline,
            "eta": self.eta,
            "epsilon": self.epsilon,
            "p": self.p,
            "seed": self.seed,
            "status": self.status,
            "emp_eta_robust_err": self.emp_eta_robust_err,
            "emp_lp_robust_err": self.emp_lp_robust_err,
            "uniform": self.uniform,
            "compression_size": self.compression_size,
            "cover_size": self.cover_size,
            "pool_size": self.pool_size,
            "rounds": self.rounds,
            "bound_realizable": self.bound_realizable,
            "bound_agnostic": self.bound_agnostic,
            "sparsify_failed": self.sparsify_failed,
            "subset_size": self.subset_size,
            "selected_theta": self.selected_theta,
            "holdout_eta_err": self.holdout_eta_err,
            "holdout_lp_err": self.holdout_lp_err,
            "properness": list(self.properness) if self.properness else None,
            "scheme": json.loads(self.scheme.to_json()) if self.scheme else None,
            "extra": {k: v for k, v in self.extra.items()},
        }
        if include_timings:
            doc["timings"] = self.timings
        return json.dumps(doc, separators=(",", ":"), default=str)


def build_pool(
    sample: Sequence[LabeledExample],
    U: PerturbationMap,
    rerm,
    eta_rerm: float,
    d: int,
    mode: str = "enumerate",
    *,
    cap: int = 100_000,
    n_samples: int = 64,
    rng: np.random.Generator | None = None,
) -> tuple[list[Hypothesis], int]:
    """One RERM output per chosen size-d sample subset.

    Infeasible subsets are skipped; their count is returned alongside
    the pool.  Enumeration requires the subset count to stay under the
    cap; sampling draws ``n_samples`` subsets without replacement inside
    each subset, deduplicated.
    """
    if d < 1:
        raise InvalidParameter(f"d must be >= 1, got {d}")
    m = len(sample)
    if m == 0:
        raise InvalidParameter("pool construction needs a nonempty sample")
    d_eff = min(d, m)
    if mode == "enumerate":
        count = math.comb(m, d_eff)
        if count > cap:
            raise InvalidParameter(
                f"enumerate mode would visit {count} subsets (cap {cap}); use sample mode"
            )
        subsets = itertools.combinations(range(m), d_eff)
    elif mode == "sample":
        if n_samples < 1:
            raise InvalidParameter("sample mode needs n_samples >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        seen, drawn = set(), []
        for _ in range(n_samples):
            s = tuple(sorted(rng.choice(m, size=d_eff, replace=False).tolist()))
            if s not in seen:
                seen.add(s)
                drawn.append(s)
        subsets = drawn
    else:
        raise InvalidParameter(f"unknown pool mode {mode!r}")
    pool, skipped = [], 0
    for s in subsets:
        try:
            pool.append(rerm([sample[i] for i in s], U, eta_rerm))
        except Infeasible:
            skipped += 1
    if not pool:
        raise EmptyPool(f"all {skipped} candidate subsets were infeasible")
    return pool, skipped


def dual_embed(pool: Sequence[Hypothesis],
               inflated: Sequence[InflatedExample]) -> np.ndarray:
    """Deviation profile of every inflated point across the pool:
    (points x pool) matrix of |h(z) - y|."""
    if not pool:
        raise InvalidParameter("pool must be nonempty")
    zs, ys = examples_arrays(inflated)
    return np.abs(np.stack([h.values[zs] for h in pool]) - ys).T


def _log_factor(eta: float) -> int:
    return max(1, math.ceil(math.log(1.0 / eta) ** 2))


def _pool_for(sample, U, rerm, eta_rerm, d, cfg, rng):
    mode = cfg.pool_mode
    if mode == "auto":
        d_eff = min(d, len(sample))
        mode = "enumerate" if math.comb(len(sample), d_eff) <= cfg.pool_auto_cap else "sample"
    return build_pool(sample, U, rerm, eta_rerm, d, mode,
                      cap=cfg.pool_enumerate_cap, n_samples=cfg.pool_samples, rng=rng)


def _cover_stage(pool, inflated, t):
    dual = dual_embed(pool, inflated)
    centers, assignment = greedy_cover(dual, t)
    cert = float(np.abs(dual - dual[assignment]).max(initial=0.0))
    if cert > t:
        raise ChainAssertionFailed(f"cover certificate {cert:.6g} exceeds radius {t:.6g}")
    cover = [inflated[i] for i in centers]
    return dual, cover, cert


def _round_trip_check(ensemble: WeightedEnsemble, h: Hypothesis) -> None:
    if not np.array_equal(ensemble.values, h.values):
        raise ChainAssertionFailed("reconstruction differs from the run")


def _bounds_for(scheme, m, delta):
    out = []
    for kind in ("realizable", "agnostic"):
        try:
            out.append(generalization_bound(kind, scheme.size, m, delta))
        except InvalidParameter:
            out.append(None)
    return tuple(out)


def _seeds(seed: int, n: int):
    return np.random.SeedSequence(seed).spawn(n)


def proper_learn(oracle, sample: Sequence[LabeledExample], U: PerturbationMap,
                 eta: float, epsilon: float, config: PipelineConfig | None = None,
                 seed: int = 0) -> PipelineReport:
    """Averaging learner: strong per-round fits, cover at eta/2.

    The output average stays inside classes closed under averaging; when
    the oracle declares convexity the folded single-member descriptor is
    reported as the properness witness.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidParameter(f"eta must be in (0, 1), got {eta}")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1], got {epsilon}")
    cfg = config or PipelineConfig()
    pool_ss, boost_ss = _seeds(seed, 2)
    timings, t0 = {}, time.perf_counter()

    inflated = inflate(sample, U)
    fat = oracle.fat(eta * cfg.proper_fat_scale)
    d = cfg.d or max(1, math.ceil(cfg.c_d * fat * _log_factor(eta) / epsilon))
    pool, skipped = _pool_for(sample, U, oracle.rerm, eta * cfg.proper_rerm_scale,
                              d, cfg, np.random.default_rng(pool_ss))
    timings["pool"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    dual, cover, cert = _cover_stage(pool, inflated, eta / 2)
    timings["cover"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    T = cfg.T or math.ceil(cfg.c_T * math.log(max(len(cover), 2)))
    ensemble = mw_boost(
        cover, sample, U, eta, epsilon, cfg.xi, T, oracle.rerm, d,
        retries=cfg.retries, seed=int(boost_ss.generate_state(1)[0]),
        max_doublings=cfg.max_doublings, rerm_scale=cfg.proper_rerm_scale,
    )
    timings["boost"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    scheme = compress(ensemble, sample, eta, group_size=min(d, len(sample)))
    h = reconstruct(scheme, sample, oracle.rerm, U)
    _round_trip_check(ensemble, h)

    zs, ys = examples_arrays(cover)
    cover_rate = float(np.mean(np.abs(h.values[zs] - ys) >= eta / 2))
    if cover_rate > epsilon:
        raise ChainAssertionFailed(
            f"cover rate {cover_rate:.4f} exceeds epsilon {epsilon}")
    zs, ys = examples_arrays(inflated)
    inflated_rate = float(np.mean(np.abs(h.values[zs] - ys) >= eta))
    if inflated_rate > epsilon:
        raise ChainAssertionFailed(
            f"inflated-set rate {inflated_rate:.4f} exceeds epsilon {epsilon}")
    sample_err = empirical_error(h, sample, U, EtaBall(eta))
    if sample_err > epsilon:
        raise ChainAssertionFailed(
            f"robust sample error {sample_err:.4f} exceeds epsilon {epsilon}")
    timings["verify"] = time.perf_counter() - t3

    folded = oracle.fold_average(ensemble.members)
    bounds = _bounds_for(scheme, len(sample), cfg.delta)
    return PipelineReport(
        pipeline="proper", eta=eta, epsilon=epsilon, p=cfg.p, seed=seed,
        scheme=scheme, hypothesis=h,
        emp_eta_robust_err=sample_err,
        emp_lp_robust_err=empirical_error(h, sample, U, Lp(cfg.p)),
        uniform=None,
        compression_size=scheme.size, cover_size=len(cover),
        pool_size=len(pool), rounds=len(ensemble),
        bound_realizable=bounds[0], bound_agnostic=bounds[1],
        properness=folded.descriptor if folded is not None else None,
        timings=timings,
        extra={"cover_certificate": cert, "cover_rate": cover_rate,
               "inflated_rate": inflated_rate, "pool_skipped": skipped,
               "d": d},
    )


def _improper_core(oracle, sample, U, eta, cfg, seed):
    """Shared machinery: pool at eta/8-RERM, cover at eta/4, median
    boosting, then sparsification at eta/2 on the cover."""
    pool_ss, boost_ss, sparsify_ss = _seeds(seed, 3)
    timings, t0 = {}, time.perf_counter()

    inflated = inflate(sample, U)
    fat = oracle.fat(eta * cfg.improper_fat_scale)
    d = cfg.d or max(1, math.ceil(cfg.c_d * fat * _log_factor(eta)))
    pool, skipped = _pool_for(sample, U, oracle.rerm, eta * cfg.improper_rerm_scale,
                              d, cfg, np.random.default_rng(pool_ss))
    timings["pool"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    dual, cover, cert = _cover_stage(pool, inflated, eta / 4)
    timings["cover"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    T = cfg.T or math.ceil(cfg.c_T * math.log(max(len(cover), 2)))
    ensemble = medboost(
        cover, sample, U, eta, T, oracle.rerm, d,
        retries=cfg.retries, round_retries=cfg.round_retries,
        early_stop=cfg.early_stop, rng=np.random.default_rng(boost_ss),
        rerm_scale=cfg.improper_rerm_scale,
    )
    timings["boost"] = time.perf_counter() - t2

    # guarantee chain of the boosted median, re-evaluated directly
    zs, ys = examples_arrays(cover)
    cover_dev = np.abs(ensemble.values[zs] - ys).max()
    if cover_dev > eta / 4:
        raise ChainAssertionFailed(
            f"median deviates {cover_dev:.4g} > eta/4 on the cover")
    zs, ys = examples_arrays(inflated)
    inflated_dev = np.abs(ensemble.values[zs] - ys).max()
    if inflated_dev > eta / 2:
        raise ChainAssertionFailed(
            f"median deviates {inflated_dev:.4g} > eta/2 on the inflated set")
    sample_dev = robust_deviations(ensemble.values, sample, U).max()
    if sample_dev > eta / 2:
        raise ChainAssertionFailed(
            f"median robustly deviates {sample_dev:.4g} > eta/2 on the sample")

    t3 = time.perf_counter()
    fat_star = max(1, oracle.dual_fat(eta))
    k = cfg.k or default_k(fat_star, eta, cfg.c_k)
    sparsify_failed = False
    try:
        final = sparsify(ensemble, cover, eta / 2, k,
                         max_iters=cfg.sparsify_max_iters,
                         seed=int(sparsify_ss.generate_state(1)[0]))
    except SparsifyFailed:
        final = ensemble
        sparsify_failed = True
    timings["sparsify"] = time.perf_counter() - t3

    return {
        "inflated": inflated, "pool": pool, "pool_skipped": skipped,
        "cover": cover, "cover_certificate": cert, "d": d, "k": k,
        "ensemble": ensemble, "final": final,
        "sparsify_failed": sparsify_failed, "timings": timings,
    }


def improper_learn(oracle, sample: Sequence[LabeledExample], U: PerturbationMap,
                   eta: float, config: PipelineConfig | None = None,
                   seed: int = 0) -> PipelineReport:
    """Median-boosting learner with an accuracy-independent compression.

    On success every training point satisfies the uniform robust
    condition: worst-case deviation at most eta over its perturbations.
    A failed sparsification downgrades to the unsparsified ensemble and
    is flagged; the uniform condition still holds.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidParameter(f"eta must be in (0, 1), got {eta}")
    cfg = config or PipelineConfig()
    core = _improper_core(oracle, sample, U, eta, cfg, seed)
    final = core["final"]

    t0 = time.perf_counter()
    scheme = compress(final, sample, eta, group_size=min(core["d"], len(sample)),
                      store_alphas=core["sparsify_failed"])
    h = reconstruct(scheme, sample, oracle.rerm, U)
    _round_trip_check(final, h)
    worst = float(robust_deviations(h.values, sample, U).max())
    if worst > eta:
        raise ChainAssertionFailed(
            f"reconstruction robustly deviates {worst:.4g} > eta on the sample")
    core["timings"]["verify"] = time.perf_counter() - t0

    bounds = _bounds_for(scheme, len(sample), cfg.delta)
    return PipelineReport(
        pipeline="improper", eta=eta, epsilon=None, p=cfg.p, seed=seed,
        scheme=scheme, hypothesis=h,
        emp_eta_robust_err=empirical_error(h, sample, U, EtaBall(eta)),
        emp_lp_robust_err=empirical_error(h, sample, U, Lp(cfg.p)),
        uniform=bool(worst <= eta),
        compression_size=scheme.size, cover_size=len(core["cover"]),
        pool_size=len(core["pool"]), rounds=len(core["ensemble"]),
        bound_realizable=bounds[0], bound_agnostic=bounds[1],
        sparsify_failed=core["sparsify_failed"],
        timings=core["timings"],
        extra={"cover_certificate": core["cover_certificate"],
               "pool_skipped": core["pool_skipped"], "d": core["d"],
               "k": core["k"], "max_robust_dev": worst},
    )


def agnostic_eta_learn(oracle, sample: Sequence[LabeledExample],
                       U: PerturbationMap, eta: float,
                       config: PipelineConfig | None = None,
                       seed: int = 0) -> PipelineReport:
    """Fit the largest single-member-realizable subset, then run the
    median-boosting machinery on it."""
    if not 0.0 < eta < 1.0:
        raise InvalidParameter(f"eta must be in (0, 1), got {eta}")
    cfg = config or PipelineConfig()
    if len(sample) == 0:
        raise InvalidParameter("agnostic learner needs a nonempty sample")
    fit, witness = oracle.max_fit_subset(sample, U, eta)
    if not fit:
        return PipelineReport(
            pipeline="agnostic-eta", eta=eta, p=cfg.p, seed=seed,
            status="infeasible", subset_size=0,
            extra={"certificate": "every hypothesis violates every point"},
        )
    sub = [sample[i] for i in fit]
    core = _improper_core(oracle, sub, U, eta, cfg, seed)
    final = core["final"]
    # remap member sources from subset positions to full-sample indices
    remapped = WeightedEnsemble(
        members=final.members, alphas=final.alphas,
        sources=tuple(tuple(fit[j] for j in src) for src in final.sources),
        aggregation=final.aggregation,
    )
    scheme = compress(remapped, sample, eta, group_size=min(core["d"], len(sub)),
                      store_alphas=core["sparsify_failed"])
    h = reconstruct(scheme, sample, oracle.rerm, U)
    _round_trip_check(remapped, h)
    worst_sub = robust_deviations(h.values, sub, U).max()
    if worst_sub > eta:
        raise ChainAssertionFailed(
            f"reconstruction robustly deviates {worst_sub:.4g} > eta on the fitted subset")

    full_err = empirical_error(h, sample, U, EtaBall(eta))
    bounds = _bounds_for(scheme, len(sample), cfg.delta)
    return PipelineReport(
        pipeline="agnostic-eta", eta=eta, epsilon=None, p=cfg.p, seed=seed,
        scheme=scheme, hypothesis=h,
        emp_eta_robust_err=full_err,
        emp_lp_robust_err=empirical_error(h, sample, U, Lp(cfg.p)),
        uniform=None,
        compression_size=scheme.size, cover_size=len(core["cover"]),
        pool_size=len(core["pool"]), rounds=len(core["ensemble"]),
        bound_realizable=bounds[0], bound_agnostic=bounds[1],
        sparsify_failed=core["sparsify_failed"],
        subset_size=len(fit),
        timings=core["timings"],
        extra={"cover_certificate": core["cover_certificate"],
               "d": core["d"], "k": core["k"],
               "subset_error_bound": 1.0 - len(fit) / len(sample),
               "fit_witness": witness.descriptor},
    )


def realizable_regression(oracle, sample: Sequence[LabeledExample],
                          U: PerturbationMap, epsilon: float, p: float,
                          config: PipelineConfig | None = None,
                          seed: int = 0) -> PipelineReport:
    """Reduce p-th power loss to the tube loss at radius epsilon^(1/p)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1), got {epsilon}")
    if p < 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    cfg = replace(config or PipelineConfig(), p=p)
    eta = epsilon ** (1.0 / p)
    report = improper_learn(oracle, sample, U, eta, cfg, seed)
    eta_err = report.emp_eta_robust_err
    lp_err = report.emp_lp_robust_err
    bound = eta_err * (1.0 - eta ** p) + eta ** p
    if lp_err > bound:
        raise ChainAssertionFailed(
            f"p-loss {lp_err:.6g} exceeds the reduction bound {bound:.6g}")
    report.pipeline = "regress"
    report.epsilon = epsilon
    report.extra["reduction_bound"] = bound
    report.extra["eta_from_epsilon"] = eta
    return report


def theta_grid(m: int) -> list[float]:
    """Doubling grid 1/m, 2/m, 4/m, ... capped with 1."""
    if m < 1:
        raise InvalidParameter("grid needs m >= 1")
    grid, v = [], 1.0 / m
    while v < 1.0:
        grid.append(v)
        v *= 2.0
    grid.append(1.0)
    return grid


def agnostic_regression(oracle, sample: Sequence[LabeledExample],
                        holdout: Sequence[LabeledExample], U: PerturbationMap,
                        epsilon: float, delta: float, p: float,
                        config: PipelineConfig | None = None,
                        seed: int = 0) -> PipelineReport:
    """Grid over tube radii, one agnostic run per radius, holdout pick.

    A grid point whose run fails is excluded from selection rather than
    aborting the sweep; the selected radius minimizes the holdout tube
    error at its own radius.
    """
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise InvalidParameter("epsilon and delta must be in (0, 1)")
    if p < 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    needed = math.ceil((1.0 / epsilon ** 2) * math.log(1.0 / delta))
    if len(holdout) < needed:
        raise InvalidParameter(
            f"holdout of size {len(holdout)} is below the required {needed}")
    cfg = replace(config or PipelineConfig(), p=p)
    grid = theta_grid(len(sample))
    children = _seeds(seed, len(grid))
    candidates = []
    trail = []
    for theta, child in zip(grid, children):
        child_seed = int(child.generate_state(1)[0])
        try:
            rep = agnostic_eta_learn(oracle, sample, U, theta, cfg, child_seed)
            if rep.status != "ok":
                trail.append((theta, rep.status, None))
                continue
            err = empirical_error(rep.hypothesis, holdout, U, EtaBall(theta))
            trail.append((theta, "ok", err))
            candidates.append((err, theta, rep))
        except RobustRegError as exc:
            trail.append((theta, type(exc).__name__, None))
    if not candidates:
        raise RobustRegError("every grid point failed; nothing to select")
    best_err, best_theta, best = min(candidates, key=lambda c: (c[0], c[1]))
    best.pipeline = "agnostic-regress"
    best.epsilon = epsilon
    best.selected_theta = best_theta
    best.holdout_eta_err = best_err
    best.holdout_lp_err = empirical_error(best.hypothesis, holdout, U, Lp(p))
    best.extra["grid"] = [(t, s, e) for t, s, e in trail]
    return best


_THEOREM_EXPONENT = {"3.1": 3, "4.1": 1, "4.2": 2, "5.1": 1, "5.2": 2}


def sample_complexity(theorem: str, fat: int, fat_star: int, epsilon: float,
                      delta: float, eta: float | None = None, p: float = 1.0,
                      c: float = 1.0, suppress_logs: bool = True) -> float:
    """c * (fat * fat_star / eps^k + ln(1/delta) / eps^k) with the
    exponent k per guarantee; the optional log factor multiplies the
    leading term by ln^2 of the leading dimensional ratio."""
    if theorem not in _THEOREM_EXPONENT:
        raise InvalidParameter(f"unknown guarantee {theorem!r}")
    if fat < 0 or fat_star < 0:
        raise InvalidParameter("dimensions must be nonnegative")
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise InvalidParameter("epsilon and delta must be in (0, 1)")
    if p < 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    if c <= 0:
        raise InvalidParameter(f"c must be positive, got {c}")
    k = _THEOREM_EXPONENT[theorem]
    lead = fat * fat_star / epsilon ** k
    logf = 1.0 if suppress_logs else math.log(max(lead, math.e)) ** 2
    return c * (lead * logf + math.log(1.0 / delta) / epsilon ** k)
