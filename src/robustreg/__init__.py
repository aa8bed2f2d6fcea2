"""Robust regression over finite perturbation sets.

Learners that tolerate worst-case test-time corruptions drawn from
explicit finite perturbation sets, built from robust ERM oracles,
dual-space covers, boosting, and sample compression schemes.
"""

from .boosting import WeightedEnsemble, find_weak_learner, medboost, medboost_alpha
from .compression import CompressionScheme, compress, generalization_bound, reconstruct
from .core import (
    DomainData,
    EtaBall,
    Hypothesis,
    InflatedExample,
    LabeledExample,
    Lp,
    PerturbationMap,
    constant_hypothesis,
    empirical_error,
    inflate,
    load_domain,
    robust_deviations,
)
from .dimensions import (
    dual_class,
    dual_fat_shattering,
    dual_fat_upper_bound,
    fat_shattering,
    greedy_cover,
)
from .errors import (
    CapExceeded,
    ChainAssertionFailed,
    DegenerateWeights,
    EmptyPool,
    EmptySample,
    Infeasible,
    InvalidParameter,
    MissingPerturbation,
    NotCompressible,
    ReconstructionFailed,
    RobustRegError,
    SparsifyFailed,
    StrongLearnerNotFound,
    UnrealizableSpec,
    WeakLearnerNotFound,
)
from .harness import ExperimentConfig, gen_instance, run_experiment, write_csv
from .mw import find_strong_learner, mw_boost, mw_update
from .oracles import (
    ConstantClassOracle,
    FiniteClass,
    FiniteClassOracle,
    PointDistribution,
    rerm_constant,
    rerm_finite,
    weak_learner_check,
)
from .pipelines import (
    PipelineConfig,
    PipelineReport,
    agnostic_eta_learn,
    agnostic_regression,
    build_pool,
    dual_embed,
    improper_learn,
    proper_learn,
    realizable_regression,
    run_pipeline,
    theta_grid,
)
from .sparsify import default_k, sparsify

__version__ = "0.1.0"
