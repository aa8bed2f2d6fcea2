"""End-to-end learners: one fit loop (inflate, size d, then pool, dual
cover and boost, doubling d while the booster misses its cover condition)
and one tail (compress, reconstruct, require the replay to equal the run).

Reported errors are recomputed from the reconstruction.  The averaging
learner checks its chain links (cover, inflated set, sample) on the
reconstruction; the median learners check them on the boosted ensemble,
before sparsification, and check the reconstruction only for robust
deviation at most eta on the fitted points.  A broken link raises
:class:`ChainAssertionFailed`, a replay that differs from the run
:class:`ReconstructionFailed`.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .boosting import AVERAGE_REFIT, MEDIAN_REFIT, WeightedEnsemble, distinct, medboost
from .compression import CompressionScheme, compress, generalization_bound, reconstruct
from .core import (EtaBall, Hypothesis, Lp, PerturbationMap, Sample, SampleLike, as_sample,
                   empirical_error, inflate, robust_deviations)
from .dimensions import greedy_cover
from .errors import (
    ChainAssertionFailed,
    EmptyPool,
    InvalidParameter,
    ReconstructionFailed,
    RobustRegError,
    SparsifyFailed,
    StrongLearnerNotFound,
    WeakLearnerNotFound,
)
from .mw import mw_boost
from .sparsify import default_k, sparsify

# The paper's fat-shattering scales, as fractions of eta: the dimension
# that sizes the refit subsets of median and of average schemes.
MEDIAN_FAT = 1 / 64
AVERAGE_FAT = 1 / 32
# Boosting rounds per log of the cover size: T = O(log |cover|).
ROUNDS_PER_LOG_COVER = 4.0
# Confidence of the reported compression bounds.
BOUND_DELTA = 0.05
# The pool enumerates every size-d subset while there are at most this many,
# and otherwise draws POOL_DRAWS of them.
POOL_ENUMERATE_MAX = 256
POOL_DRAWS = 64


@dataclass
class PipelineConfig:
    """Overrides of the subset size ``d`` and the round count ``T``, which
    otherwise follow from the fat-shattering dimension and the cover size."""

    d: int | None = None
    T: int | None = None

    def __post_init__(self):
        for key, value in (("d", self.d), ("T", self.T)):
            if value is not None and not _is_int(value):
                raise InvalidParameter(f"bad value {value!r} for {key!r}, not an integer")
            if value is not None and value < 1:
                raise InvalidParameter(f"bad value {value!r} for {key!r}, below 1")


def _is_int(value) -> bool:
    """True for a Python or numpy integer, False for a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(kw_only=True)
class PipelineReport:
    """What a successful pipeline run produced (a run that fails raises), with
    errors recomputed from the reconstruction.  The fields are serialised in
    their order, except the hypothesis and the timings."""

    pipeline: str
    eta: float
    epsilon: float | None = None
    p: float = 1.0
    seed: int
    status: str = "ok"
    emp_eta_robust_err: float | None = None
    emp_lp_robust_err: float | None = None
    uniform: bool | None = None
    compression_size: int | None = None
    cover_size: int | None = None
    pool_size: int | None = None
    rounds: int | None = None
    bound_realizable: float | None = None
    bound_agnostic: float | None = None
    sparsify_failed: bool = False
    subset_size: int | None = None
    selected_theta: float | None = None
    holdout_eta_err: float | None = None
    holdout_lp_err: float | None = None
    properness: tuple | None = None
    scheme: CompressionScheme | None = None
    extra: dict = field(default_factory=dict)
    hypothesis: Hypothesis | None = None
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("hypothesis", "timings")}
        if self.scheme is not None:
            doc["scheme"] = json.loads(self.scheme.to_json())
        return json.dumps(doc, separators=(",", ":"))


def build_pool(sample: Sample, U: PerturbationMap, rerm, eta_rerm: float, d: int, *,
               rng: np.random.Generator) -> tuple[list[Hypothesis], list[tuple[int, ...]], int]:
    """One RERM output per chosen size-d sample subset, all from one
    batched ``rerm(sample, subsets, U, eta_rerm)`` call.

    Every subset is enumerated while there are at most
    ``POOL_ENUMERATE_MAX`` of them; beyond that, the subsets are the ones
    ``POOL_DRAWS`` calls of ``rng.choice(m, d, replace=False)`` give
    (:func:`_choice_subsets`), deduplicated in the order drawn.
    Infeasible subsets (a None fit) are skipped.  Returns the pool, the
    subset (sorted sample indices) each member was fit on, and the count
    of skipped subsets.
    """
    if not _is_int(d):
        raise InvalidParameter(f"d must be an integer, got {d!r}")
    if d < 1:
        raise InvalidParameter(f"d must be >= 1, got {d}")
    m = len(sample)
    if m == 0:
        raise InvalidParameter("pool construction needs a nonempty sample")
    d_eff = min(d, m)
    if math.comb(m, d_eff) <= POOL_ENUMERATE_MAX:
        subsets = list(itertools.combinations(range(m), d_eff))
    else:
        drawn = _choice_subsets(rng, m, d_eff, POOL_DRAWS)
        subsets = list(dict.fromkeys(map(tuple, drawn.tolist())))
    fitted = [(h, s) for h, s in zip(rerm(sample, subsets, U, eta_rerm), subsets)
              if h is not None]
    skipped = len(subsets) - len(fitted)
    if not fitted:
        raise EmptyPool(f"all {skipped} candidate subsets were infeasible")
    pool, sources = map(list, zip(*fitted))
    return pool, sources, skipped


def _choice_subsets(rng: np.random.Generator, m: int, d: int, n: int) -> np.ndarray:
    """The sorted results of ``n`` successive ``rng.choice(m, d,
    replace=False)`` calls as an (n x d) array.

    For m > 10000 and d > m // 50 ``choice`` shuffles, and the calls run
    as they are.  Otherwise it runs Floyd's sampling, batched here into one
    ``rng.integers`` call that consumes the same stream: step t = 0, ...,
    d-1 draws v in [0, j] for j = m-d+t and takes v, or j when v is
    already taken; then it shuffles its result with draws in [0, i] for
    i = d-1, ..., 1, which sorting discards but which must be consumed.
    """
    if m > 10000 and d > m // 50:
        return np.sort([rng.choice(m, d, replace=False) for _ in range(n)], axis=1)
    steps = np.arange(m - d, m)
    highs = np.concatenate([steps, np.arange(d - 1, 0, -1)])
    draws = rng.integers(0, np.broadcast_to(highs, (n, highs.size)), endpoint=True)
    subsets = np.empty((n, d), dtype=np.int64)
    block = max(1, (1 << 22) // m)  # rows whose (rows x m) table is at most 32 MB
    for lo in range(0, n, block):
        drawn = draws[lo:lo + block, :d]
        k = len(drawn)
        # step t takes its j when its value was drawn at an earlier step ...
        t = np.tile(np.arange(d), k)
        flat = (drawn + np.arange(0, k * m, m)[:, None]).ravel()
        first = np.full(k * m, d, dtype=t.dtype)
        np.minimum.at(first, flat, t)
        takes_j = first[flat] < t
        # ... or is the j of an earlier step that takes its j: flat step
        # src links to flat step dst, and each pass marks the steps linked
        # to a marked one until a pass marks none
        src = np.flatnonzero((drawn >= m - d) & (drawn < steps))
        dst = src + (drawn - steps).ravel()[src]
        while src.size:
            hit = takes_j[dst]
            if not hit.any():
                break
            takes_j[src[hit]] = True
            src, dst = src[~hit], dst[~hit]
        subsets[lo:lo + k] = np.where(takes_j.reshape(k, d), steps, drawn)
    subsets.sort(axis=1)
    return subsets


def dual_embed(pool: Sequence[Hypothesis], inflated: Sample) -> np.ndarray:
    """Deviation profile of every inflated point across the distinct pool
    members: (points x members) matrix of |h(z) - y|, a column per member
    object in first-occurrence order (a repeated member would only add an
    equal column, which changes no sup-norm distance)."""
    if not pool:
        raise InvalidParameter("pool must be nonempty")
    return np.abs(np.stack([h.values[inflated.xs] for h in distinct(pool)[0]], axis=1)
                  - inflated.ys[:, None])


def _seeds(seed: int, n: int):
    return np.random.SeedSequence(seed).spawn(n)


class _Clock:
    """Seconds per stage, in the given stage order: each lap adds the time
    since the previous lap (or since the clock was made) to its stage, so
    the stages sum to the whole span."""

    def __init__(self, *stages: str):
        self.timings, self.last = dict.fromkeys(stages, 0.0), time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timings[stage] += now - self.last
        self.last = now


_Head = NamedTuple("_Head", [("inflated", Sample), ("pool", list), ("sources", list),
                             ("skipped", int), ("cover", Sample), ("cert", float), ("d", int),
                             ("T", int), ("doublings", int), ("clock", _Clock)])


def _fit(oracle, sample, U, eta, median: bool, epsilon: float,
         config: PipelineConfig | None, pool_ss, boost):
    """Inflate, size d from the fat-shattering dimension over ``epsilon`` (1
    for median schemes), pool RERM fits at the refit radius, cover the
    inflated set in the dual at eta/4 (median) or eta/2 (average), and
    return the head and ``boost(head)``.  A booster meets its cover
    condition or raises; when it raises, d was too small: pool, cover and
    boost rerun with d doubled, up to the sample size (whose one fit
    violates no cover point)."""
    cfg = config or PipelineConfig()
    clock = _Clock("pool", "cover", "boost", *(("sparsify",) if median else ()), "verify")
    inflated = inflate(sample, U)
    fat = oracle.fat(eta * (MEDIAN_FAT if median else AVERAGE_FAT))
    log_factor = max(1, math.ceil(math.log(1.0 / eta) ** 2))
    d = cfg.d or max(1, math.ceil(fat * log_factor / epsilon))
    radius = eta / 4 if median else eta / 2
    for doublings in itertools.count():
        pool, sources, skipped = build_pool(
            sample, U, oracle.rerm, eta * (MEDIAN_REFIT if median else AVERAGE_REFIT), d,
            rng=np.random.default_rng(pool_ss))
        clock.lap("pool")
        dual = dual_embed(pool, inflated)
        centers, assignment = greedy_cover(dual, radius)
        cert = float(np.abs(dual - dual[assignment]).max(initial=0.0))
        _check("cover certificate", cert, radius)
        cover = inflated.take(centers)
        T = cfg.T or math.ceil(ROUNDS_PER_LOG_COVER * math.log(max(len(cover), 2)))
        head = _Head(inflated, pool, sources, skipped, cover, cert, d, T, doublings, clock)
        clock.lap("cover")
        try:
            return head, boost(head)
        except (WeakLearnerNotFound, StrongLearnerNotFound):
            if d >= len(sample):
                raise
            d = min(2 * d, len(sample))
        finally:
            clock.lap("boost")


def _check(what: str, value: float, bound: float) -> None:
    """One link of a guarantee chain: ``value`` must not exceed ``bound``."""
    if value > bound:
        raise ChainAssertionFailed(f"{what} {value:.6g} exceeds {bound:.6g}")


def _replay(ensemble: WeightedEnsemble, sample, rerm, U, eta: float):
    """Compress the ensemble, reconstruct it from the stored indices, and
    require the replay to equal the run."""
    scheme = compress(ensemble, sample, eta)
    h = reconstruct(scheme, sample, rerm, U)
    if not np.array_equal(ensemble.values, h.values):
        raise ReconstructionFailed("reconstruction differs from the run")
    return scheme, h


def _report(pipeline, eta, seed, sample, U, scheme, h, head: _Head,
            eta_err: float, **fields) -> PipelineReport:
    """The report fields every pipeline fills the same way, plus ``fields``;
    ``extra`` holds the d doublings, if any, after each learner's own keys."""
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
        extra={"d_doublings": head.doublings} if head.doublings else {},
        timings=head.clock.timings, **fields,
    )


def proper_learn(oracle, sample: SampleLike, U: PerturbationMap,
                 eta: float, epsilon: float, config: PipelineConfig | None = None,
                 seed: int = 0) -> PipelineReport:
    """Averaging learner: strong per-round fits, cover at eta/2.

    The output average stays inside classes closed under averaging; when
    the oracle folds the average into one member, that member's descriptor
    is reported as the properness witness.
    """
    loss = EtaBall(eta)
    if not 0.0 < epsilon <= 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1], got {epsilon}")
    sample = as_sample(sample)
    (pool_ss,) = _seeds(seed, 1)
    head, ensemble = _fit(oracle, sample, U, eta, False, epsilon, config, pool_ss,
                          lambda h: mw_boost(h.cover, h.pool, h.sources, eta, epsilon, h.T))

    scheme, h = _replay(ensemble, sample, oracle.rerm, U, eta)
    cover, inflated = head.cover, head.inflated
    cover_rate = float(np.mean(np.abs(h.values[cover.xs] - cover.ys) >= eta / 2))
    _check("cover rate", cover_rate, epsilon)
    inflated_rate = float(np.mean(np.abs(h.values[inflated.xs] - inflated.ys) >= eta))
    _check("inflated-set rate", inflated_rate, epsilon)
    sample_err = empirical_error(h, sample, U, loss)
    _check("robust sample error", sample_err, epsilon)

    folded = oracle.fold_average(ensemble.members)
    report = _report(
        "proper", eta, seed, sample, U, scheme, h, head, sample_err,
        epsilon=epsilon, rounds=len(ensemble),
        properness=folded.descriptor if folded is not None else None)
    head.clock.lap("verify")
    report.extra = {"cover_certificate": head.cert, "cover_rate": cover_rate,
                    "inflated_rate": inflated_rate, "pool_skipped": head.skipped,
                    "d": head.d} | report.extra
    return report


def _median_learn(oracle, sample, U, loss: EtaBall, config, seed, pipeline: str,
                  fit: Sequence[int]):
    """The median learner fitted to the points ``fit`` of the sample and
    compressed over the whole sample.  Returns the report, the head, k and
    the worst robust deviation of the replay on the fitted points."""
    eta = loss.eta
    sub = sample.take(fit)
    pool_ss, sparsify_ss = _seeds(seed, 2)
    head, ensemble = _fit(oracle, sub, U, eta, True, 1.0, config, pool_ss,
                          lambda h: medboost(h.cover, h.pool, h.sources, eta, h.T))

    # guarantee chain of the boosted median, re-evaluated directly
    cover, inflated = head.cover, head.inflated
    _check("median deviation on the cover",
           np.abs(ensemble.values[cover.xs] - cover.ys).max(), eta / 4)
    _check("median deviation on the inflated set",
           np.abs(ensemble.values[inflated.xs] - inflated.ys).max(), eta / 2)
    _check("median robust deviation on the sample",
           robust_deviations(ensemble.values, sub, U).max(), eta / 2)
    head.clock.lap("verify")

    k = default_k(max(1, oracle.dual_fat(eta)), eta)
    sparsify_failed = False
    try:
        final = sparsify(ensemble, head.cover, eta / 2, k,
                         seed=int(sparsify_ss.generate_state(1)[0]))
    except SparsifyFailed:
        final, sparsify_failed = ensemble, True
    head.clock.lap("sparsify")

    # member sources index the fitted points; the scheme indexes the sample
    groups, slots = distinct(final.sources)
    remapped = list(map(tuple, np.asarray(fit)[np.asarray(groups)].tolist()))
    final = replace(final, sources=tuple(map(remapped.__getitem__, slots)))
    scheme, h = _replay(final, sample, oracle.rerm, U, eta)
    worst = float(robust_deviations(h.values, sub, U).max())
    _check("robust deviation of the reconstruction on the fitted points", worst, eta)
    report = _report(pipeline, eta, seed, sample, U, scheme, h, head,
                     empirical_error(h, sample, U, loss), rounds=len(ensemble),
                     sparsify_failed=sparsify_failed)
    head.clock.lap("verify")
    return report, head, k, worst


def improper_learn(oracle, sample: SampleLike, U: PerturbationMap,
                   eta: float, config: PipelineConfig | None = None,
                   seed: int = 0) -> PipelineReport:
    """Median-boosting learner with an accuracy-independent compression.

    On success every training point satisfies the uniform robust
    condition: worst-case deviation at most eta over its perturbations.
    A failed sparsification downgrades to the unsparsified ensemble and
    is flagged; the uniform condition still holds.
    """
    sample = as_sample(sample)
    report, head, k, worst = _median_learn(
        oracle, sample, U, EtaBall(eta), config, seed, "improper", range(len(sample)))
    report.uniform = bool(worst <= eta)
    report.extra = {"cover_certificate": head.cert, "pool_skipped": head.skipped,
                    "d": head.d, "k": k, "max_robust_dev": worst} | report.extra
    return report


def agnostic_eta_learn(oracle, sample: SampleLike,
                       U: PerturbationMap, eta: float,
                       config: PipelineConfig | None = None,
                       seed: int = 0) -> PipelineReport:
    """Fit the largest subset one class member fits within the median
    refit radius eta/8, then run the median-boosting learner on it; raise
    :class:`EmptyPool` when no member fits any point (every pool subset
    would be infeasible)."""
    loss = EtaBall(eta)
    sample = as_sample(sample)
    if len(sample) == 0:
        raise InvalidParameter("agnostic learner needs a nonempty sample")
    fit, witness = oracle.max_fit_subset(sample, U, eta * MEDIAN_REFIT)
    if not fit:
        raise EmptyPool(f"no class member fits any point within {eta * MEDIAN_REFIT:.6g}")
    report, head, k, _ = _median_learn(oracle, sample, U, loss, config, seed,
                                       "agnostic-eta", fit)
    report.subset_size = len(fit)
    report.extra = {"cover_certificate": head.cert, "d": head.d, "k": k,
                    "subset_error_bound": 1.0 - len(fit) / len(sample),
                    "fit_witness": witness.descriptor} | report.extra
    return report


def realizable_regression(oracle, sample: SampleLike,
                          U: PerturbationMap, epsilon: float, p: float,
                          config: PipelineConfig | None = None,
                          seed: int = 0) -> PipelineReport:
    """Reduce p-th power loss to the tube loss at radius epsilon^(1/p)."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameter(f"epsilon must be in (0, 1), got {epsilon}")
    lp = Lp(p)
    eta = epsilon ** (1.0 / p)
    sample = as_sample(sample)
    report = _report_at_p(improper_learn(oracle, sample, U, eta, config, seed),
                          "regress", epsilon, sample, U, lp)
    lp_err, eta_err = report.emp_lp_robust_err, report.emp_eta_robust_err
    bound = eta_err * (1.0 - eta ** p) + eta ** p
    if lp_err > bound:
        raise ChainAssertionFailed(
            f"p-loss {lp_err:.6g} exceeds the reduction bound {bound:.6g}")
    report.extra["reduction_bound"] = bound
    report.extra["eta_from_epsilon"] = eta
    return report


def _report_at_p(report: PipelineReport, pipeline: str, epsilon: float, sample: Sample,
                 U: PerturbationMap, lp: Lp) -> PipelineReport:
    """A learner's report as the regression ``pipeline`` at ``epsilon``, with
    its Lp error taken at p (the learner took it at p = 1)."""
    report.pipeline, report.epsilon, report.p = pipeline, epsilon, lp.p
    if lp.p != 1.0:
        report.emp_lp_robust_err = empirical_error(report.hypothesis, sample, U, lp)
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


def agnostic_regression(oracle, sample: SampleLike, holdout: SampleLike, U: PerturbationMap,
                        epsilon: float, delta: float, p: float,
                        config: PipelineConfig | None = None,
                        seed: int = 0) -> PipelineReport:
    """Grid over tube radii, one agnostic run per radius, holdout pick.

    A grid point whose run fails is excluded from selection rather than
    aborting the sweep; the selected radius minimizes the holdout tube
    error at its own radius.  A failed replay refit what the pool fit at
    the same radius, a fault, so :class:`ReconstructionFailed` propagates.
    """
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise InvalidParameter("epsilon and delta must be in (0, 1)")
    lp = Lp(p)
    sample, holdout = as_sample(sample), as_sample(holdout)
    needed = math.ceil((1.0 / epsilon ** 2) * math.log(1.0 / delta))
    if len(holdout) < needed:
        raise InvalidParameter(
            f"holdout of size {len(holdout)} is below the required {needed}")
    grid = theta_grid(len(sample))
    children = _seeds(seed, len(grid))
    candidates, trail = [], []
    for theta, child in zip(grid, children):
        child_seed = int(child.generate_state(1)[0])
        try:
            rep = agnostic_eta_learn(oracle, sample, U, theta, config, child_seed)
            err = empirical_error(rep.hypothesis, holdout, U, EtaBall(theta))
            trail.append((theta, "ok", err))
            candidates.append((err, theta, rep))
        except ReconstructionFailed:
            raise
        except RobustRegError as exc:
            trail.append((theta, type(exc).__name__, None))
    if not candidates:
        raise RobustRegError("every grid point failed; nothing to select")
    best_err, best_theta, best = min(candidates, key=lambda c: (c[0], c[1]))
    _report_at_p(best, "agnostic-regress", epsilon, sample, U, lp)
    best.selected_theta = best_theta
    best.holdout_eta_err = best_err
    best.holdout_lp_err = empirical_error(best.hypothesis, holdout, U, lp)
    best.extra["grid"] = trail
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


def run_pipeline(name: str, oracle, sample: SampleLike,
                 U: PerturbationMap, *, holdout: SampleLike = (),
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
    missing = [k for k in params if given[k] is None]
    if missing:
        raise InvalidParameter(f"pipeline {name!r} needs {', '.join(missing)}")
    return learner(oracle, sample=sample, U=U, config=config, seed=seed,
                   **{k: given[k] for k in params})
