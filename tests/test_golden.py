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
    # d and T small enough for covers of several points and nine averaged
    # members, so every row's compression size is 9 x 6
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
        "d9711d22b982faf68d715ce0cf6cec1bbbdd973afb07915da93e92e40a707721",
    "agnostic-regress":
        "9980ad8e9ecf21d0d7eecbc793fe68e0bff365ab99e0d61e6807c431f3720779",
}

GOLDEN_JSON = {
    "improper":
        "42e05b3f960fc101fda98605699d1996e1839cb0c0dc120e6b860c3ebdfe6800",
    "proper":
        "1ea4494a9cea82ce38fa17b0f0a7fe1fcca006d2b4cd61814a28ba7416e5540a",
    "agnostic-regress":
        "c80b54a0c190854fc3b1fe4e56cafa00c87117255d86ade3892585df198359a8",
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
