"""End-to-end learners: inflate, pool, dual cover, boost, compress.

Every learner runs one head (inflate, size d, pool, cover), a booster, and
one tail (compress, reconstruct, require the replay to equal the run).
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
from typing import NamedTuple

import numpy as np

from .boosting import AVERAGE_REFIT, MEDIAN_REFIT, WeightedEnsemble, medboost
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

# The paper's fat-shattering scales, as fractions of eta: the dimension
# that sizes the refit subsets of median and of average schemes.
MEDIAN_FAT = 1 / 64
AVERAGE_FAT = 1 / 32
# Boosting rounds per log of the cover size: T = O(log |cover|).
ROUNDS_PER_LOG_COVER = 4.0
# The multiplicative-weights discount of a correctly handled cover point.
MW_XI = 0.5
# Confidence of the reported compression bounds.
BOUND_DELTA = 0.05


@dataclass
class PipelineConfig:
    """Overrides of the subset size ``d`` and the round count ``T``, which
    otherwise follow from the fat-shattering dimension and the cover size."""

    d: int | None = None
    T: int | None = None


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

    def to_json(self) -> str:
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
        return json.dumps(doc, separators=(",", ":"), default=str)


def build_pool(
    sample: Sequence[LabeledExample],
    U: PerturbationMap,
    rerm,
    eta_rerm: float,
    d: int,
    *,
    threshold: int = 256,
    n_samples: int = 64,
    rng: np.random.Generator | None = None,
) -> tuple[list[Hypothesis], int]:
    """One RERM output per chosen size-d sample subset.

    Every subset is enumerated while there are at most ``threshold`` of
    them; beyond that, ``n_samples`` subsets are drawn (each without
    replacement) and deduplicated.  Infeasible subsets are skipped; their
    count is returned alongside the pool.
    """
    if d < 1:
        raise InvalidParameter(f"d must be >= 1, got {d}")
    m = len(sample)
    if m == 0:
        raise InvalidParameter("pool construction needs a nonempty sample")
    d_eff = min(d, m)
    if math.comb(m, d_eff) <= threshold:
        subsets = itertools.combinations(range(m), d_eff)
    else:
        if n_samples < 1:
            raise InvalidParameter("sampling the pool needs n_samples >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        seen, drawn = set(), []
        for _ in range(n_samples):
            s = tuple(sorted(rng.choice(m, size=d_eff, replace=False).tolist()))
            if s not in seen:
                seen.add(s)
                drawn.append(s)
        subsets = drawn
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


def _seeds(seed: int, n: int):
    return np.random.SeedSequence(seed).spawn(n)


_Head = NamedTuple("_Head", [("inflated", list), ("pool", list), ("skipped", int),
                             ("cover", list), ("cert", float), ("d", int), ("T", int),
                             ("timings", dict)])


def _head(oracle, sample, U, eta, median: bool, epsilon: float,
          config: PipelineConfig | None, pool_ss) -> _Head:
    """Inflate; d from the fat-shattering dimension over ``epsilon`` (1 for
    median schemes); pool RERM fits at the scheme's refit radius; cover the
    inflated set in the dual at eta/4 (median) or eta/2 (average)."""
    cfg = config or PipelineConfig()
    t0 = time.perf_counter()
    inflated = inflate(sample, U)
    fat = oracle.fat(eta * (MEDIAN_FAT if median else AVERAGE_FAT))
    log_factor = max(1, math.ceil(math.log(1.0 / eta) ** 2))
    d = cfg.d or max(1, math.ceil(fat * log_factor / epsilon))
    pool, skipped = build_pool(
        sample, U, oracle.rerm, eta * (MEDIAN_REFIT if median else AVERAGE_REFIT), d,
        rng=np.random.default_rng(pool_ss))
    timings = {"pool": time.perf_counter() - t0}

    t1 = time.perf_counter()
    radius = eta / 4 if median else eta / 2
    dual = dual_embed(pool, inflated)
    centers, assignment = greedy_cover(dual, radius)
    cert = float(np.abs(dual - dual[assignment]).max(initial=0.0))
    _check("cover certificate", cert, radius)
    cover = [inflated[i] for i in centers]
    timings["cover"] = time.perf_counter() - t1
    T = cfg.T or math.ceil(ROUNDS_PER_LOG_COVER * math.log(max(len(cover), 2)))
    return _Head(inflated, pool, skipped, cover, cert, d, T, timings)


def _check(what: str, value: float, bound: float) -> None:
    """One link of a guarantee chain: ``value`` must not exceed ``bound``."""
    if value > bound:
        raise ChainAssertionFailed(f"{what} {value:.6g} exceeds {bound:.6g}")


def _replay(ensemble: WeightedEnsemble, sample, rerm, U, eta: float,
            group_size: int, store_alphas: bool):
    """Compress the ensemble, reconstruct it from the stored indices, and
    require the replay to equal the run."""
    scheme = compress(ensemble, sample, eta, group_size=group_size,
                      store_alphas=store_alphas)
    h = reconstruct(scheme, sample, rerm, U)
    if not np.array_equal(ensemble.values, h.values):
        raise ChainAssertionFailed("reconstruction differs from the run")
    return scheme, h


def _report(pipeline, eta, seed, sample, U, scheme, h, head: _Head,
            eta_err: float, **fields) -> PipelineReport:
    """The report fields every pipeline fills the same way, plus ``fields``."""
    bounds = []
    for kind in ("realizable", "agnostic"):
        try:
            bounds.append(generalization_bound(kind, scheme.size, len(sample), BOUND_DELTA))
        except InvalidParameter:
            bounds.append(None)
    return PipelineReport(
        pipeline=pipeline, eta=eta, seed=seed,
        scheme=scheme, hypothesis=h,
        emp_eta_robust_err=eta_err,
        emp_lp_robust_err=empirical_error(h, sample, U, Lp(1.0)),
        compression_size=scheme.size, cover_size=len(head.cover),
        pool_size=len(head.pool),
        bound_realizable=bounds[0], bound_agnostic=bounds[1],
        timings=head.timings, **fields,
    )


def proper_learn(oracle, sample: Sequence[LabeledExample], U: PerturbationMap,
                 eta: float, epsilon: float, config: PipelineConfig | None = None,
                 seed: int = 0) -> PipelineReport:
    """Averaging learner: strong per-round fits, cover at eta/2.

    The output average stays inside classes closed under averaging; when
    the oracle folds the average into one member, that member's descriptor
    is reported as the properness witness.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidParameter(f"eta must be in (0, 1), got {eta}")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1], got {epsilon}")
    pool_ss, boost_ss = _seeds(seed, 2)
    head = _head(oracle, sample, U, eta, False, epsilon, config, pool_ss)

    t2 = time.perf_counter()
    ensemble = mw_boost(
        head.cover, sample, U, eta, epsilon, MW_XI, head.T, oracle.rerm, head.d,
        seed=int(boost_ss.generate_state(1)[0]),
    )
    head.timings["boost"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    scheme, h = _replay(ensemble, sample, oracle.rerm, U, eta,
                        min(head.d, len(sample)), False)
    zs, ys = examples_arrays(head.cover)
    cover_rate = float(np.mean(np.abs(h.values[zs] - ys) >= eta / 2))
    _check("cover rate", cover_rate, epsilon)
    zs, ys = examples_arrays(head.inflated)
    inflated_rate = float(np.mean(np.abs(h.values[zs] - ys) >= eta))
    _check("inflated-set rate", inflated_rate, epsilon)
    sample_err = empirical_error(h, sample, U, EtaBall(eta))
    _check("robust sample error", sample_err, epsilon)
    head.timings["verify"] = time.perf_counter() - t3

    folded = oracle.fold_average(ensemble.members)
    return _report(
        "proper", eta, seed, sample, U, scheme, h, head, sample_err,
        epsilon=epsilon, rounds=len(ensemble),
        properness=folded.descriptor if folded is not None else None,
        extra={"cover_certificate": head.cert, "cover_rate": cover_rate,
               "inflated_rate": inflated_rate, "pool_skipped": head.skipped,
               "d": head.d},
    )


def _median_learn(oracle, sample, U, eta, config, seed, pipeline: str,
                  fit: tuple[int, ...]):
    """The median learner fitted to the points ``fit`` of the sample and
    compressed over the whole sample.  Returns the report, the head, k and
    the worst robust deviation of the replay on the fitted points."""
    sub = [sample[i] for i in fit]
    pool_ss, boost_ss, sparsify_ss = _seeds(seed, 3)
    head = _head(oracle, sub, U, eta, True, 1.0, config, pool_ss)

    t2 = time.perf_counter()
    ensemble = medboost(head.cover, sub, U, eta, head.T, oracle.rerm, head.d,
                        rng=np.random.default_rng(boost_ss))
    head.timings["boost"] = time.perf_counter() - t2

    # guarantee chain of the boosted median, re-evaluated directly
    zs, ys = examples_arrays(head.cover)
    _check("median deviation on the cover", np.abs(ensemble.values[zs] - ys).max(), eta / 4)
    zs, ys = examples_arrays(head.inflated)
    _check("median deviation on the inflated set",
           np.abs(ensemble.values[zs] - ys).max(), eta / 2)
    _check("median robust deviation on the sample",
           robust_deviations(ensemble.values, sub, U).max(), eta / 2)

    t3 = time.perf_counter()
    fat_star = max(1, oracle.dual_fat(eta))
    k = default_k(fat_star, eta)
    sparsify_failed = False
    try:
        final = sparsify(ensemble, head.cover, eta / 2, k,
                         seed=int(sparsify_ss.generate_state(1)[0]))
    except SparsifyFailed:
        final = ensemble
        sparsify_failed = True
    head.timings["sparsify"] = time.perf_counter() - t3

    t4 = time.perf_counter()
    # member sources index the fitted points; the scheme indexes the sample
    final = replace(final, sources=tuple(tuple(fit[j] for j in src) for src in final.sources))
    scheme, h = _replay(final, sample, oracle.rerm, U, eta,
                        min(head.d, len(sub)), sparsify_failed)
    worst = float(robust_deviations(h.values, sub, U).max())
    _check("robust deviation of the reconstruction on the fitted points", worst, eta)
    head.timings["verify"] = time.perf_counter() - t4

    report = _report(
        pipeline, eta, seed, sample, U, scheme, h, head,
        empirical_error(h, sample, U, EtaBall(eta)),
        rounds=len(ensemble), sparsify_failed=sparsify_failed,
    )
    return report, head, k, worst


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
    report, head, k, worst = _median_learn(
        oracle, sample, U, eta, config, seed, "improper",
        tuple(range(len(sample))))
    report.uniform = bool(worst <= eta)
    report.extra = {"cover_certificate": head.cert, "pool_skipped": head.skipped,
                    "d": head.d, "k": k, "max_robust_dev": worst}
    return report


def agnostic_eta_learn(oracle, sample: Sequence[LabeledExample],
                       U: PerturbationMap, eta: float,
                       config: PipelineConfig | None = None,
                       seed: int = 0) -> PipelineReport:
    """Fit the largest single-member-realizable subset, then run the
    median-boosting learner on it."""
    if not 0.0 < eta < 1.0:
        raise InvalidParameter(f"eta must be in (0, 1), got {eta}")
    if len(sample) == 0:
        raise InvalidParameter("agnostic learner needs a nonempty sample")
    fit, witness = oracle.max_fit_subset(sample, U, eta)
    if not fit:
        return PipelineReport(
            pipeline="agnostic-eta", eta=eta, seed=seed,
            status="infeasible", subset_size=0,
            extra={"certificate": "every hypothesis violates every point"},
        )
    report, head, k, _ = _median_learn(oracle, sample, U, eta, config, seed,
                                       "agnostic-eta", fit)
    report.subset_size = len(fit)
    report.extra = {"cover_certificate": head.cert, "d": head.d, "k": k,
                    "subset_error_bound": 1.0 - len(fit) / len(sample),
                    "fit_witness": witness.descriptor}
    return report


def realizable_regression(oracle, sample: Sequence[LabeledExample],
                          U: PerturbationMap, epsilon: float, p: float,
                          config: PipelineConfig | None = None,
                          seed: int = 0) -> PipelineReport:
    """Reduce p-th power loss to the tube loss at radius epsilon^(1/p)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1), got {epsilon}")
    if p < 1.0:
        raise InvalidParameter(f"p must be >= 1, got {p}")
    eta = epsilon ** (1.0 / p)
    report = improper_learn(oracle, sample, U, eta, config, seed)
    report.p = p
    if p != 1.0:  # the learner reported the Lp error at p = 1
        report.emp_lp_robust_err = empirical_error(report.hypothesis, sample, U, Lp(p))
    lp_err, eta_err = report.emp_lp_robust_err, report.emp_eta_robust_err
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
    grid = theta_grid(len(sample))
    children = _seeds(seed, len(grid))
    candidates = []
    trail = []
    for theta, child in zip(grid, children):
        child_seed = int(child.generate_state(1)[0])
        try:
            rep = agnostic_eta_learn(oracle, sample, U, theta, config, child_seed)
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
    best.p = p
    if p != 1.0:  # the learner reported the Lp error at p = 1
        best.emp_lp_robust_err = empirical_error(best.hypothesis, sample, U, Lp(p))
    best.holdout_lp_err = empirical_error(best.hypothesis, holdout, U, Lp(p))
    best.extra["grid"] = [(t, s, e) for t, s, e in trail]
    return best


# The pipelines by name, each with the run parameters it takes besides
# (oracle, sample, U, config, seed).  run_pipeline dispatches on this table,
# and an experiment config is checked against it when it is read.
PIPELINES = {
    "improper": (improper_learn, ("eta",)),
    "proper": (proper_learn, ("eta", "epsilon")),
    "agnostic-eta": (agnostic_eta_learn, ("eta",)),
    "regress": (realizable_regression, ("epsilon", "p")),
    "agnostic-regress": (agnostic_regression, ("holdout", "epsilon", "delta", "p")),
}


def run_pipeline(name: str, oracle, sample: Sequence[LabeledExample],
                 U: PerturbationMap, *, holdout: Sequence[LabeledExample] = (),
                 eta: float | None = None, epsilon: float | None = None,
                 delta: float | None = None, p: float = 1.0,
                 config: PipelineConfig | None = None,
                 seed: int = 0) -> PipelineReport:
    """Run the pipeline ``name`` (a key of ``PIPELINES``) with the parameters
    it takes."""
    if name not in PIPELINES:
        raise InvalidParameter(f"unknown pipeline {name!r}")
    learner, params = PIPELINES[name]
    given = {"holdout": holdout, "eta": eta, "epsilon": epsilon, "delta": delta, "p": p}
    return learner(oracle, sample=sample, U=U, config=config, seed=seed,
                   **{k: given[k] for k in params})
