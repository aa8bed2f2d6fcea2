"""The four benchmark workloads: instance shapes, seeds and the pipeline call.

Every instance comes from ``robustreg.harness.gen_instance``; the library
receives only the generated class, perturbation map and samples.  Instance
and pipeline seeds derive from the workload seed given on the command line.

``pool`` is how many distinct instances set-up generates, and so how many
trials one pass of a run makes.  A run times whole passes over the pool
(later passes with fresh oracles), so the trials a run attempts, and those
that fail, follow from the seed and the count of passes alone; the pool is
sized so that one pass outlasts ``run_seconds`` on the reference host.  The
output digest covers the first pass, and the tail percentile is fixed from
the pool size (see ``tail_percentile``).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from robustreg import harness
from robustreg.harness import ExperimentConfig, InstanceSpec, PerturbationSpec, TargetSpec
from robustreg.errors import UnrealizableSpec
from robustreg.oracles import FiniteClassOracle

MAX_ATTEMPTS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # agnostic | improper | proper
    pool: int
    eta: float = 0.2
    epsilon: float = 0.1
    delta: float = 0.1
    p: float = 1.0
    radius: int = 1

    @property
    def salt(self) -> int:
        return zlib.crc32(self.name.encode())

    def config(self, index: int) -> ExperimentConfig:
        grid = PerturbationSpec(kind="grid_ball", radius=self.radius)
        if self.name == "agnostic_grid":
            # the test_agnostic_regression_guarantee family
            return ExperimentConfig(
                instance=InstanceSpec(kind="smooth", n_hypotheses=20,
                                      domain_size=50, smooth_step=0.001),
                perturbation=grid,
                target=TargetSpec(noise_rate=0.05 if index % 2 == 0 else 0.1),
                eta=0.25, m_grid=(200,), holdout_size=500,
                realizable_margin=0.001)
        if self.name == "improper_large":
            return ExperimentConfig(
                instance=InstanceSpec(kind="blocks", n_hypotheses=60,
                                      domain_size=2000, blocks=24, defect_blocks=3),
                perturbation=grid, eta=self.eta, m_grid=(1280,), holdout_size=0)
        if self.name == "proper_avg":
            return ExperimentConfig(
                instance=InstanceSpec(kind="blocks", n_hypotheses=120,
                                      domain_size=480, blocks=24, defect_blocks=3),
                perturbation=grid, eta=self.eta, epsilon=self.epsilon,
                m_grid=(320,), holdout_size=0)
        if self.name == "small_exact":
            # 16 rows keeps exact fat-shattering at eta/64 to about a second;
            # 64 rows took minutes per call
            return ExperimentConfig(
                instance=InstanceSpec(kind="smooth", n_hypotheses=16,
                                      domain_size=16, smooth_step=0.05),
                perturbation=grid, eta=self.eta, m_grid=(40,), holdout_size=0)
        raise KeyError(self.name)

    def seeds(self, workload_seed: int, index: int, attempt: int) -> tuple[int, int]:
        """(instance seed, pipeline seed) of the index-th instance."""
        state = np.random.SeedSequence(
            [workload_seed, self.salt, index, attempt]).generate_state(2)
        return int(state[0]), int(state[1])


WORKLOADS = {w.name: w for w in (
    Workload("agnostic_grid", "agnostic", pool=20, epsilon=0.15, delta=0.1),
    Workload("improper_large", "improper", pool=10),
    Workload("proper_avg", "proper", pool=60, epsilon=0.1),
    Workload("small_exact", "improper", pool=24),
)}


@dataclass
class Instance:
    index: int
    cls: object
    U: object
    sample: list
    holdout: list
    run_seed: int


def make_instances(w: Workload, workload_seed: int) -> tuple[list[Instance], int]:
    """The instance pool, and how many drawn classes the generator rejected.

    ``gen_instance`` raises UnrealizableSpec when the drawn target row has
    too few points that meet the robust-fit margin (a few percent of the
    16-point ``small_exact`` classes); such a draw is not an instance of
    the family, so the next attempt's seed is used.
    """
    out, rejected = [], 0
    for i in range(w.pool):
        for attempt in range(MAX_ATTEMPTS):
            inst_seed, run_seed = w.seeds(workload_seed, i, attempt)
            try:
                # looked up on the module so an outside tracer can wrap it
                cls, U, sample, holdout = harness.gen_instance(w.config(i), inst_seed)
                break
            except UnrealizableSpec:
                rejected += 1
        else:
            raise UnrealizableSpec(f"{w.name}: no realizable instance {i} "
                                   f"in {MAX_ATTEMPTS} draws")
        out.append(Instance(i, cls, U, sample, holdout, run_seed))
    return out, rejected


def new_oracle(inst: Instance) -> FiniteClassOracle:
    """A fresh oracle per trial: its fat-shattering cache must not carry over."""
    return FiniteClassOracle(inst.cls)


def run_trial(w: Workload, inst: Instance, oracle):
    """One public pipeline call, looked up on the module at call time."""
    from robustreg import pipelines

    if w.kind == "agnostic":
        return pipelines.agnostic_regression(
            oracle, inst.sample, inst.holdout, inst.U, w.epsilon, w.delta, w.p,
            seed=inst.run_seed)
    if w.kind == "improper":
        return pipelines.improper_learn(oracle, inst.sample, inst.U, w.eta,
                                        seed=inst.run_seed)
    return pipelines.proper_learn(oracle, inst.sample, inst.U, w.eta, w.epsilon,
                                  seed=inst.run_seed)


def tail_percentile(trials: int) -> int:
    """Highest whole percentile with at least ten of ``trials`` beyond it.

    Fixed per workload from its pool size, so code that completes more
    passes in a run does not report a higher percentile.  With ten or fewer trials no percentile
    qualifies and the maximum (100) is reported instead.
    """
    if trials <= 10:
        return 100
    return math.floor(100 * (trials - 10) / trials)
