"""Synthetic instances, experiment sweeps, and CSV reporting.

Instances live on a 1-D integer grid.  Realizable generation picks a
target row and rejection-samples points until the target fits them
robustly within the configured margin, so every downstream oracle call
the pipelines make stays feasible; label noise is applied afterwards.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .boosting import MEDIAN_REFIT
from .core import EtaBall, LabeledExample, PerturbationMap, as_number, empirical_error, read_document
from .errors import InvalidParameter, RobustRegError, UnrealizableSpec
from .oracles import FiniteClass, FiniteClassOracle
from .pipelines import PIPELINES, PipelineConfig, run_pipeline

CSV_HEADER = [
    "m", "trial", "pipeline", "eta", "epsilon", "emp_robust_err",
    "holdout_robust_err", "compression_size", "cover_size",
    "bound_realizable", "bound_agnostic", "seed", "status",
]


@dataclass
class InstanceSpec:
    kind: str = "random"  # a key of CLASS_KINDS
    n_hypotheses: int = 20
    domain_size: int = 30
    levels: int | None = None  # optional label quantization grid
    smooth_step: float = 0.05
    blocks: int = 10  # blocks kind: piecewise-constant segments
    defect_blocks: int = 2  # blocks on which a non-target row deviates
    defect_shift: float = 0.5


@dataclass
class PerturbationSpec:
    kind: str = "identity"  # a key of PERTURBATION_KINDS
    radius: int = 1
    k: int = 2


@dataclass
class TargetSpec:
    index: int | None = None
    noise_rate: float = 0.0


@dataclass
class ExperimentConfig:
    instance: InstanceSpec = field(default_factory=InstanceSpec)
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    target: TargetSpec = field(default_factory=TargetSpec)
    pipeline: str = "improper"  # a key of pipelines.PIPELINES
    eta: float = 0.2
    epsilon: float = 0.1
    p: float = 1.0
    delta: float = 0.1
    m_grid: tuple[int, ...] = (20,)
    holdout_size: int = 100
    trials: int = 1
    seed: int = 0
    realizable_margin: float | None = None  # default eta * MEDIAN_REFIT
    rejection_budget: int = 500
    pipeline_config: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        for key, name, names in (("pipeline", self.pipeline, PIPELINES),
                                 ("kind", self.instance.kind, CLASS_KINDS),
                                 ("kind", self.perturbation.kind, PERTURBATION_KINDS)):
            if not (isinstance(name, str) and name in names):
                raise InvalidParameter(f"bad value {name!r} for {key!r}, not one of {', '.join(names)}")
        if not 0.0 <= self.target.noise_rate <= 1.0:
            raise InvalidParameter("noise_rate must be in [0, 1]")
        if self.trials < 1 or not self.m_grid:
            raise InvalidParameter("need at least one trial and one m value")

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        """Parse a config document; fields it leaves out keep their
        defaults, and unknown keys and ill-typed values are refused."""
        kwargs = _known_keys(read_document(source), cls, "the experiment config")
        if "m_grid" in kwargs:
            ms = kwargs["m_grid"]
            if not isinstance(ms, list):
                raise InvalidParameter(f"bad value {ms!r} for 'm_grid'")
            kwargs["m_grid"] = tuple(as_number(m, int, "m_grid") for m in ms)
        for key, spec in _SECTIONS.items():
            if key in kwargs:
                kwargs[key] = spec(**_known_keys(kwargs[key], spec, key))
        return cls(**kwargs)


_SECTIONS = {"instance": InstanceSpec, "perturbation": PerturbationSpec,
             "target": TargetSpec, "pipeline_config": PipelineConfig}
_NUMBERS = {"int": int, "float": float, "int | None": int, "float | None": float}


def _known_keys(doc, spec, where: str) -> dict:
    """``doc``, an object whose keys all name fields of ``spec``, numbers checked."""
    if not isinstance(doc, dict):
        raise InvalidParameter(f"{where} must be a JSON object")
    types = {f.name: f.type for f in fields(spec)}
    out = dict(doc)
    for key, value in doc.items():
        if key not in types:
            raise InvalidParameter(f"unknown key {key!r} in {where}")
        if types[key] in _NUMBERS and not (value is None and types[key].endswith("None")):
            out[key] = as_number(value, _NUMBERS[types[key]], key)
    return out


def _smooth_rows(spec, rng, target):
    steps = rng.uniform(-spec.smooth_step, spec.smooth_step,
                        size=(spec.n_hypotheses, spec.domain_size))
    steps[:, 0] = rng.uniform(0.0, 1.0, size=spec.n_hypotheses)
    return np.clip(np.cumsum(steps, axis=1), 0.0, 1.0)


def _block_rows(spec, rng, target):
    # piecewise-constant rows: every non-target row deviates from the base
    # row on a few blocks, so sparse samples leave lower-index impostors
    # feasible until their defect blocks get pinned
    n = spec.domain_size
    block_of = np.minimum(np.arange(n) * spec.blocks // n, spec.blocks - 1)
    base = rng.uniform(0.2, 0.8, size=spec.blocks)
    matrix = np.empty((spec.n_hypotheses, n))
    for i in range(spec.n_hypotheses):
        row = base.copy()
        if i != target:
            hit = rng.choice(spec.blocks, size=min(spec.defect_blocks, spec.blocks),
                             replace=False)
            row[hit] = (row[hit] + spec.defect_shift) % 1.0
        matrix[i] = row[block_of]
    return matrix


# The instance kinds, each building the (n_hypotheses x domain_size) matrix
# from (spec, rng, target row).
CLASS_KINDS = {
    "random": lambda s, rng, t: rng.uniform(0.0, 1.0, size=(s.n_hypotheses, s.domain_size)),
    "smooth": _smooth_rows,
    "constants": lambda s, rng, t: np.repeat(np.linspace(0.0, 1.0, s.n_hypotheses)[:, None],
                                             s.domain_size, axis=1),
    "blocks": _block_rows,
}


def _build_class(spec: InstanceSpec, rng: np.random.Generator, target: int) -> FiniteClass:
    matrix = CLASS_KINDS[spec.kind](spec, rng, target)
    if spec.levels is not None:
        if spec.levels < 2:
            raise InvalidParameter("levels must be >= 2")
        matrix = np.round(matrix * (spec.levels - 1)) / (spec.levels - 1)
    return FiniteClass(matrix)


def _random_k(spec: PerturbationSpec, domain_size: int, rng) -> PerturbationMap:
    table = {}
    for x in range(domain_size):
        others = [z for z in range(domain_size) if z != x]
        extra = rng.choice(others, size=min(spec.k, len(others)),
                           replace=False).tolist() if others else []
        table[x] = [x] + sorted(extra)
    return PerturbationMap(table)


# The perturbation kinds, each building the map from (spec, domain size, rng).
PERTURBATION_KINDS = {
    "identity": lambda spec, n, rng: PerturbationMap.identity(n),
    "grid_ball": lambda spec, n, rng: PerturbationMap.grid_ball(n, spec.radius),
    "random_k": _random_k,
}


def _draw_points(target_values: np.ndarray, U: PerturbationMap, size: int,
                 margin: float, noise_rate: float, budget: int,
                 rng: np.random.Generator) -> list[LabeledExample]:
    n = target_values.size
    points = []
    for _ in range(size):
        for _ in range(budget):
            x = int(rng.integers(n))
            y = float(target_values[x])
            if max(abs(target_values[z] - y) for z in U.of(x)) < margin:
                break
        else:
            raise UnrealizableSpec(
                f"no point met the robust fit margin {margin} in {budget} draws")
        if noise_rate > 0.0 and rng.random() < noise_rate:
            y = float(rng.uniform(0.0, 1.0))
        points.append(LabeledExample(x=x, y=y))
    return points


def gen_instance(config: ExperimentConfig, seed: int, m: int | None = None):
    """Build (class, perturbations, sample, holdout) for one trial."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    target = config.target.index
    if target is None:
        target = int(rng.integers(config.instance.n_hypotheses))
    if not 0 <= target < config.instance.n_hypotheses:
        raise InvalidParameter(f"target index {target} outside the class")
    cls = _build_class(config.instance, rng, target)
    U = PERTURBATION_KINDS[config.perturbation.kind](
        config.perturbation, config.instance.domain_size, rng)
    margin = config.realizable_margin
    if margin is None:
        margin = config.eta * MEDIAN_REFIT
    values = cls.matrix[target]
    m = m if m is not None else config.m_grid[0]
    sample = _draw_points(values, U, m, margin, config.target.noise_rate,
                          config.rejection_budget, rng)
    holdout = _draw_points(values, U, config.holdout_size, margin,
                           config.target.noise_rate, config.rejection_budget, rng)
    return cls, U, sample, holdout


def _fmt(value) -> str:
    return "" if value is None else str(value)


def run_experiment(config: ExperimentConfig) -> list[list]:
    """One row per (m, trial); failures become error rows and the sweep
    continues.  Rows are deterministic functions of the config."""
    rows = []
    for m in config.m_grid:
        for trial in range(config.trials):
            run_seed = int(np.random.SeedSequence(
                [config.seed, m, trial]).generate_state(1)[0])
            row = {
                "m": m, "trial": trial, "pipeline": config.pipeline,
                "eta": config.eta, "epsilon": config.epsilon,
                "seed": run_seed, "status": "ok",
            }
            try:
                cls, U, sample, holdout = gen_instance(config, run_seed, m=m)
                oracle = FiniteClassOracle(cls)
                report = run_pipeline(
                    config.pipeline, oracle, sample, U, holdout=holdout,
                    eta=config.eta, epsilon=config.epsilon, delta=config.delta,
                    p=config.p, config=config.pipeline_config, seed=run_seed)
                if report.status != "ok" or report.hypothesis is None:
                    row["status"] = report.status
                else:
                    row.update({
                        "emp_robust_err": report.emp_eta_robust_err,
                        "holdout_robust_err": empirical_error(
                            report.hypothesis, holdout, U, EtaBall(report.eta)),
                        "compression_size": report.compression_size,
                        "cover_size": report.cover_size,
                        "bound_realizable": report.bound_realizable,
                        "bound_agnostic": report.bound_agnostic,
                    })
            except RobustRegError as exc:
                row["status"] = type(exc).__name__
            rows.append(row)
    rows.sort(key=lambda r: (r["m"], r["trial"]))
    return [[_fmt(r.get(col)) for col in CSV_HEADER] for r in rows]


def write_csv(rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


def instance_to_domain_json(cls: FiniteClass, U: PerturbationMap,
                            sample, holdout=()) -> str:
    doc = {
        "domain_size": cls.domain_size,
        "samples": [[ex.x, ex.y] for ex in sample],
        "perturbations": {str(x): list(U.of(x)) for x in U.instances()},
        "class_matrix": cls.matrix.tolist(),
    }
    if holdout:
        doc["holdout"] = [[ex.x, ex.y] for ex in holdout]
    return json.dumps(doc, separators=(",", ":"))
