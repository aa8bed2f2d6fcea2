"""Golden bytes: fixed configs must keep producing byte-identical output.

The sha256 of the experiment CSV and of ``PipelineReport.to_json()`` is
pinned for three small configs (improper, proper, agnostic regression).
A refactor that changes any float, row or failure shows up here.  When a
change to what the pipelines compute is intended, record the new hashes
and log the reason in CHANGES.md.
"""

import hashlib

import pytest

from robustreg import (
    ExperimentConfig,
    FiniteClassOracle,
    PipelineConfig,
    RobustRegError,
    agnostic_regression,
    gen_instance,
    improper_learn,
    proper_learn,
    run_experiment,
    write_csv,
)
from robustreg.harness import InstanceSpec, PerturbationSpec, TargetSpec

CONFIGS = {
    "improper": ExperimentConfig(
        instance=InstanceSpec(kind="blocks", n_hypotheses=40, domain_size=300,
                              blocks=12, defect_blocks=3),
        perturbation=PerturbationSpec(kind="grid_ball", radius=1),
        pipeline="improper", eta=0.2, m_grid=(60, 120), holdout_size=50,
        trials=2, seed=11),
    # d and T small enough for covers of several points, nine averaged
    # members and one StrongLearnerNotFound row
    "proper": ExperimentConfig(
        instance=InstanceSpec(kind="blocks", n_hypotheses=40, domain_size=120,
                              blocks=12, defect_blocks=3),
        perturbation=PerturbationSpec(kind="grid_ball", radius=1),
        pipeline="proper", eta=0.2, epsilon=0.2, m_grid=(40, 80), holdout_size=50,
        trials=2, seed=12, pipeline_config=PipelineConfig(d=6, T=9)),
    "agnostic-regress": ExperimentConfig(
        instance=InstanceSpec(kind="smooth", n_hypotheses=20, domain_size=50,
                              smooth_step=0.001),
        perturbation=PerturbationSpec(kind="grid_ball", radius=1),
        target=TargetSpec(noise_rate=0.1),
        pipeline="agnostic-regress", epsilon=0.2, delta=0.1, m_grid=(40,),
        holdout_size=60, trials=2, seed=13, realizable_margin=0.001),
}

GOLDEN_CSV = {
    "improper":
        "ca38a5347e51912900bb6665251fdd5d92f0c2608ebf311e5b2e61012d11c8e2",
    "proper":
        "cb97ad5d3ace32eaf7c2a0f5fc00dac770fdfe5f8b6d226d4cb26d1a5633abe1",
    "agnostic-regress":
        "ef545ad189c82fad6a0994db78b16b092d09e75e6dd5c25f97b23caf7be2ba8f",
}

GOLDEN_JSON = {
    "improper":
        "154f1d0b02795b4692df64d942e3cff8765201028342f657e23d8df9e17a4be2",
    "proper":
        "10e2d063c8fd44ddc5d8bdf307121b2a13a530a0b47b8bf43c592f19d24ddee7",
    "agnostic-regress":
        "9c20ae7ad9649f4997f9c344870616adf04efc6cefda591cf554e2a5e2104d55",
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_lines(config: ExperimentConfig, seeds=(1, 2, 3)) -> str:
    """One ``to_json()`` line per seed, or the class of the raised error."""
    lines = []
    for seed in seeds:
        cls, U, sample, holdout = gen_instance(config, seed)
        oracle, pcfg = FiniteClassOracle(cls), config.pipeline_config
        try:
            if config.pipeline == "improper":
                report = improper_learn(oracle, sample, U, config.eta, pcfg, seed)
            elif config.pipeline == "proper":
                report = proper_learn(oracle, sample, U, config.eta,
                                      config.epsilon, pcfg, seed)
            else:
                report = agnostic_regression(oracle, sample, holdout, U,
                                             config.epsilon, config.delta,
                                             config.p, pcfg, seed)
            lines.append(report.to_json())
        except RobustRegError as exc:
            lines.append(type(exc).__name__)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_csv_bytes(name):
    assert sha(write_csv(run_experiment(CONFIGS[name]))) == GOLDEN_CSV[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_json_bytes(name):
    assert sha(report_lines(CONFIGS[name])) == GOLDEN_JSON[name]
