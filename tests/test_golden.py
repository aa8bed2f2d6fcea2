"""Golden bytes: fixed configs must keep producing byte-identical output.

The experiment CSV and the ``PipelineReport.to_json()`` lines of three
small configs (improper, proper, agnostic regression) are checked in
under ``tests/golden/``.  A refactor that changes any float, row or
failure shows up here, and the failure names the CSV rows or the report
fields that moved.  When a change to what the pipelines compute is
intended, re-record a file with

    PYTHONPATH=src python tests/test_golden.py improper.csv > tests/golden/improper.csv

review its diff, and log the reason in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from robustreg import (
    ExperimentConfig,
    FiniteClassOracle,
    PipelineConfig,
    RobustRegError,
    gen_instance,
    run_experiment,
    run_pipeline,
    write_csv,
)
from robustreg.harness import InstanceSpec, PerturbationSpec, TargetSpec

GOLDEN = Path(__file__).parent / "golden"

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


def report_lines(config: ExperimentConfig, seeds=(1, 2, 3)) -> str:
    """One ``to_json()`` line per seed, or the class of the raised error."""
    lines = []
    for seed in seeds:
        cls, U, sample, holdout = gen_instance(config, seed)
        try:
            report = run_pipeline(
                config.pipeline, FiniteClassOracle(cls), sample, U, holdout=holdout,
                eta=config.eta, epsilon=config.epsilon, delta=config.delta, p=config.p,
                config=config.pipeline_config, seed=seed)
            lines.append(report.to_json())
        except RobustRegError as exc:
            lines.append(type(exc).__name__)
    return "\n".join(lines) + "\n"


def produce(file_name: str) -> str:
    """The current output for a golden file: ``<config>.csv`` is the
    experiment CSV, ``<config>-reports.txt`` the report lines."""
    if file_name.endswith(".csv"):
        return write_csv(run_experiment(CONFIGS[file_name.removesuffix(".csv")]))
    return report_lines(CONFIGS[file_name.removesuffix("-reports.txt")])


def differences(produced: str, expected: str) -> list[str]:
    """The lines (CSV rows counted from 0 at the header, or report lines)
    that differ, each with the top-level JSON fields that differ in it."""
    got, want = produced.splitlines(), expected.splitlines()
    found = [f"{len(got)} lines, expected {len(want)}"] if len(got) != len(want) else []
    for i, (a, b) in enumerate(zip(got, want)):
        if a == b:
            continue
        try:
            a_doc, b_doc = json.loads(a), json.loads(b)
        except ValueError:
            found.append(f"line {i}: {a!r}, expected {b!r}")
            continue
        keys = [k for k in dict.fromkeys([*b_doc, *a_doc]) if a_doc.get(k) != b_doc.get(k)]
        found.append(f"line {i}: fields {', '.join(keys) or '(order or spacing)'}")
    return found


def check(file_name: str) -> None:
    produced, expected = produce(file_name), (GOLDEN / file_name).read_bytes()
    if produced.encode() != expected:
        pytest.fail(f"{file_name} differs: "
                    + "; ".join(differences(produced, expected.decode())))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_csv_bytes(name):
    check(f"{name}.csv")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_json_bytes(name):
    check(f"{name}-reports.txt")


def test_a_mismatch_names_the_rows_and_fields_that_moved():
    expected = (GOLDEN / "proper-reports.txt").read_text()
    first, *rest = expected.splitlines(keepends=True)
    doc = json.loads(first)
    doc["cover_size"] += 1
    moved = json.dumps(doc, separators=(",", ":")) + "\n"
    assert differences("".join([moved, *rest]), expected) == ["line 0: fields cover_size"]
    rows = (GOLDEN / "improper.csv").read_text().splitlines()
    assert differences("\n".join(rows[:2]), "\n".join(rows[:3])) == ["2 lines, expected 3"]


def print_output(file_name: str) -> None:
    """Print the current output for the golden file ``file_name``."""
    sys.stdout.write(produce(file_name))


if __name__ == "__main__":
    print_output(sys.argv[1])
