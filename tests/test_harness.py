import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustreg.pipelines as pipelines
from robustreg import as_sample, load_domain, rerm_finite
from robustreg.cli import _parser, main
from robustreg.errors import InvalidParameter, UnrealizableSpec
from robustreg.harness import (
    CSV_HEADER,
    ExperimentConfig,
    InstanceSpec,
    PerturbationSpec,
    PipelineConfig,
    TargetSpec,
    gen_instance,
    instance_to_domain_json,
    run_experiment,
    write_csv,
)

from conftest import shifted_reconstruct


def config_for(**overrides):
    base = dict(
        instance=InstanceSpec(kind="smooth", n_hypotheses=12, domain_size=25,
                              smooth_step=0.02),
        perturbation=PerturbationSpec(kind="grid_ball", radius=1),
        target=TargetSpec(),
        eta=0.2, m_grid=(10,), holdout_size=15, trials=1, seed=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenInstance:
    def test_constant_target_labels(self):
        cfg = config_for(instance=InstanceSpec(kind="constants", n_hypotheses=5,
                                               domain_size=10),
                         perturbation=PerturbationSpec(kind="identity"),
                         target=TargetSpec(index=2))
        cls, U, sample, holdout = gen_instance(cfg, 1, m=6)
        assert all(ex.y == 0.5 for ex in sample)  # row 2 of 5 levels is 0.5

    def test_grid_ball_size(self):
        cfg = config_for(instance=InstanceSpec(kind="random", n_hypotheses=4,
                                               domain_size=20, levels=5),
                         perturbation=PerturbationSpec(kind="grid_ball", radius=1),
                         realizable_margin=1.0)
        _, U, _, _ = gen_instance(cfg, 2, m=4)
        for x in range(20):
            assert x in U.of(x)
            assert len(U.of(x)) <= 3

    def test_realizable_sample_is_feasible_at_eta(self):
        cfg = config_for()
        cls, U, sample, _ = gen_instance(cfg, 3, m=12)
        (h,) = rerm_finite(cls, as_sample(sample), [range(len(sample))], U, cfg.eta)
        assert h is not None

    def test_noise_rate_flips_labels(self):
        cfg = config_for(target=TargetSpec(noise_rate=1.0))
        cls, U, sample, _ = gen_instance(cfg, 5, m=30)
        target_row = None
        # with full noise, labels should rarely match any single row exactly
        mismatches = min(
            sum(abs(cls.matrix[r, ex.x] - ex.y) > 1e-12 for ex in sample)
            for r in range(cls.n_hypotheses))
        assert mismatches > 20

    def test_unrealizable_spec_raises(self):
        cfg = config_for(
            instance=InstanceSpec(kind="random", n_hypotheses=4, domain_size=30),
            perturbation=PerturbationSpec(kind="random_k", k=5),
            realizable_margin=1e-6, rejection_budget=20)
        with pytest.raises(UnrealizableSpec):
            gen_instance(cfg, 7, m=5)

    @pytest.mark.parametrize("m", [0, -2])
    def test_sample_size_below_one_is_refused(self, m):
        with pytest.raises(InvalidParameter, match="'m'"):
            gen_instance(config_for(), 1, m=m)

    def test_random_k_includes_self(self):
        cfg = config_for(perturbation=PerturbationSpec(kind="random_k", k=2),
                         realizable_margin=1.0)
        _, U, _, _ = gen_instance(cfg, 8, m=3)
        for x in range(25):
            assert x in U.of(x)
            assert len(U.of(x)) == 3


class TestRunExperiment:
    def test_single_row(self):
        rows = run_experiment(config_for())
        assert len(rows) == 1
        row = dict(zip(CSV_HEADER, rows[0]))
        assert row["status"] == "ok"
        assert row["m"] == "10"

    def test_fixed_seed_is_byte_identical(self):
        cfg = config_for(trials=2, m_grid=(8, 12))
        assert write_csv(run_experiment(cfg)) == write_csv(run_experiment(cfg))

    def test_failures_become_error_rows(self):
        cfg = config_for(
            instance=InstanceSpec(kind="random", n_hypotheses=4, domain_size=30),
            perturbation=PerturbationSpec(kind="random_k", k=5),
            realizable_margin=1e-6, rejection_budget=5, trials=2)
        rows = run_experiment(cfg)
        assert len(rows) == 2
        assert all(dict(zip(CSV_HEADER, r))["status"] == "UnrealizableSpec"
                   for r in rows)

    def test_no_holdout_leaves_the_holdout_error_empty(self):
        # the same row as with a holdout, but for the holdout error
        cfg = ExperimentConfig(m_grid=(20,), holdout_size=0, seed=3)
        row = dict(zip(CSV_HEADER, run_experiment(cfg)[0]))
        held = dict(zip(CSV_HEADER, run_experiment(replace(cfg, holdout_size=5))[0]))
        assert row["status"] == "ok" and row["holdout_robust_err"] == ""
        assert held["holdout_robust_err"] == "0.0"
        assert row == {**held, "holdout_robust_err": ""}

    def test_rows_are_sorted(self):
        cfg = config_for(trials=2, m_grid=(12, 8))
        rows = run_experiment(cfg)
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


BAD_DOMAIN_BASE = {"domain_size": 3, "samples": [[0, 0.5]],
                   "perturbations": {"0": [0], "1": [1], "2": [2]}}
# a valid domain, for the rows whose fault is a flag
FLAG_DOMAIN = json.dumps({**BAD_DOMAIN_BASE, "class_matrix": [[0.0, 0.5, 1.0],
                                                              [1.0, 0.5, 0.0]]})


class TestCli:
    @pytest.fixture
    def domain_file(self, tmp_path):
        cfg = config_for()
        cls, U, sample, holdout = gen_instance(cfg, 6, m=10)
        path = tmp_path / "dom.json"
        path.write_text(instance_to_domain_json(cls, U, sample, holdout))
        return str(path)

    @pytest.fixture
    def exp_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "instance": {"kind": "smooth", "n_hypotheses": 10,
                         "domain_size": 20, "smooth_step": 0.02},
            "perturbation": {"kind": "grid_ball", "radius": 1},
            "eta": 0.2, "m_grid": [8], "holdout_size": 10,
            "trials": 1, "seed": 2,
        }))
        return str(path)

    def test_gen_emits_a_loadable_domain(self, exp_file):
        code, out = run_cli(["gen", "--config", exp_file])
        assert code == 0
        dom = load_domain(json.loads(out))
        assert len(dom.sample) == 8

    def test_fatdim_csv(self, domain_file):
        code, out = run_cli(["fatdim", "--config", domain_file,
                             "--gamma", "0.1", "--gamma", "0.25",
                             "--max-points", "25"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,fat,dual_fat"
        assert len(lines) == 3

    def test_invalid_gamma_names_the_field(self, domain_file, capsys):
        code, _ = run_cli(["fatdim", "--config", domain_file, "--gamma", "0"])
        assert code == 1

    # a missing file, a header that is not ids, a cell that is not a number
    # and a row shorter than the header
    @pytest.mark.parametrize("content", [None, "a,b\n0.1,0.2\n", "0,1\n0.1,x\n",
                                         "0,1\n0.1,0.2\n0.3\n"])
    def test_bad_class_csv_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "cls.csv"
        if content is not None:
            path.write_text(content)
        code, out = run_cli(["fatdim", "--matrix", str(path), "--gamma", "0.1"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_subcommand_exits_one(self):
        assert main([]) == 1

    def test_learn_improper_report(self, domain_file):
        code, out = run_cli(["learn-improper", "--config", domain_file,
                             "--eta", "0.2", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok" and doc["uniform"] is True

    def test_infeasible_learn_is_a_runtime_failure(self, tmp_path, capsys):
        # the one class row fits neither label within eta/8
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "domain_size": 2, "samples": [[0, 0.0], [1, 1.0]],
            "perturbations": {"0": [0], "1": [1]},
            "class_matrix": [[0.5, 0.5]],
        }))
        for command in ("learn-improper", "agnostic-eta"):
            code, out = run_cli([command, "--config", str(path), "--eta", "0.2"])
            assert code == 2 and out == ""
            assert capsys.readouterr().err.startswith("runtime failure: EmptyPool")

    @pytest.mark.parametrize("command", [["learn-improper", "--eta", "0.2"],
                                         ["cover", "--t", "0.1"]])
    def test_class_matrix_entries_must_be_numbers(self, tmp_path, capsys, command):
        # this matrix of strings and booleans once loaded as [[0.5, 0.1], [1.0, 0.0]]
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "domain_size": 2, "samples": [[0, 0.5]], "perturbations": {"0": [0], "1": [1]},
            "class_matrix": [["0.5", "1e-1"], [True, 0]],
        }))
        code, out = run_cli([command[0], "--config", str(path), *command[1:]])
        assert code == 1 and out == ""
        assert "'class_matrix'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, entry", [("samples", [0, 1.5]), ("holdout", [1, -0.5])])
    def test_a_label_outside_the_unit_interval_names_its_key(self, tmp_path, capsys, key,
                                                             entry):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "domain_size": 2, "samples": [[0, 0.5]], "perturbations": {"0": [0], "1": [1]},
            key: [entry],
        }))
        code, out = run_cli(["learn-improper", "--config", str(path), "--eta", "0.2"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {key} label {entry[1]} outside [0, 1]\n"

    def test_bounds_values(self):
        code, out = run_cli(["bounds", "--kind", "realizable", "--k", "10",
                             "--m", "1000", "--delta", "0.36787944117144233"])
        assert code == 0
        assert float(out) == pytest.approx(0.0700776, abs=1e-6)

    @pytest.mark.parametrize("option", [["--eta", "0.2"], ["--p", "2"]])
    def test_bounds_has_no_unread_options(self, option):
        code, out = run_cli(["bounds", "--kind", "realizable", "--k", "10",
                             "--m", "1000", *option])
        assert code == 1 and out == ""

    def test_experiment_writes_file(self, exp_file, tmp_path):
        out_path = tmp_path / "runs.csv"
        code, _ = run_cli(["experiment", "--config", exp_file,
                           "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2

    def test_identical_argv_identical_bytes(self, domain_file):
        runs = [run_cli(["learn-improper", "--config", domain_file,
                         "--eta", "0.2", "--seed", "9"]) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_cover_csv(self, domain_file):
        code, out = run_cli(["cover", "--config", domain_file, "--t", "0.1"])
        assert code == 0
        assert out.splitlines()[0] == "point,center"

    def test_nan_cover_radius_exits_one(self, domain_file):
        # a cover whose balls miss their own centers never ends; in a child
        # process that fails at the timeout instead of hanging the run
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from robustreg.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "cover", "--config", domain_file, "--t", "nan"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_regress_report(self, domain_file):
        code, out = run_cli(["regress", "--config", domain_file,
                             "--epsilon", "0.04", "--p", "2", "--seed", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pipeline"] == "regress"
        assert doc["extra"]["eta_from_epsilon"] == pytest.approx(0.2)

    def test_agnostic_regress_report(self, domain_file):
        code, out = run_cli(["agnostic-regress", "--config", domain_file,
                             "--epsilon", "0.5", "--delta", "0.5", "--seed", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pipeline"] == "agnostic-regress"
        assert doc["selected_theta"] is not None

    @pytest.mark.parametrize("command, p", [("agnostic-regress", "nan"), ("regress", "inf"),
                                            ("agnostic-regress", "inf"), ("regress", "nan")])
    def test_a_p_that_is_not_finite_exits_one(self, domain_file, capsys, command, p):
        delta = ["--delta", "0.5"] if command == "agnostic-regress" else []
        code, out = run_cli([command, "--config", domain_file, "--epsilon", "0.5",
                             *delta, "--p", p])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"error: p must be finite and >= 1, got {p}")

    def test_broken_replay_is_a_runtime_failure(self, domain_file, monkeypatch, capsys):
        monkeypatch.setattr(pipelines, "reconstruct", shifted_reconstruct)
        code, out = run_cli(["agnostic-regress", "--config", domain_file,
                             "--epsilon", "0.5", "--delta", "0.5", "--seed", "2"])
        assert code == 2 and out == ""
        assert "ReconstructionFailed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key", [
        ("experiment", {"pipeline_config": {"pool_mode": "auto"}}, "pool_mode"),
        ("experiment", {"pipeline_config": {"epsilon": 0.1}}, "epsilon"),
        ("gen", {"instance": {"n_hyp": 3}}, "n_hyp"),
        ("gen", {"etta": 0.2}, "etta"),
        ("experiment", {"pipeline_config": {"retries": 3}}, "retries"),
        ("experiment", {"pipeline_config": {"xi": 0.5}}, "xi"),
    ])
    def test_unknown_config_key_exits_one_naming_it(self, tmp_path, capsys,
                                                    command, doc, key):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([command, "--config", str(path)])
        assert code == 1 and out == ""
        assert f"'{key}'" in capsys.readouterr().err

    # a missing file, text that is not JSON, and values of the wrong type
    @pytest.mark.parametrize("command, content", [
        *((command, content) for command in ("experiment", "gen")
          for content in (None, "{not json", '{"eta": null}', '{"m_grid": 40}')),
        ("learn-improper", None), ("learn-improper", "{not json"),
        ("experiment", '{"instance": {"n_hypotheses": null}}'),
        ("experiment", '{"pipeline_config": {"d": "6"}}'),
        ("learn-improper", json.dumps({**BAD_DOMAIN_BASE, "domain_size": None})),
        ("learn-improper", json.dumps({**BAD_DOMAIN_BASE, "samples": [[0, "x"]]})),
        ("experiment", '{"pipeline": 3}'),
        ("experiment", '{"instance": {"kind": 3}}'),
        ("experiment", '{"perturbation": {"kind": null}}'),
        ("experiment", '{"pipeline": "nope"}'),
        ("gen", '{"instance": {"kind": ["smooth"]}}'),
        # out-of-range counts, sizes, seeds and margins
        ("gen", '{"instance": {"n_hypotheses": 0}}'),
        ("gen", '{"instance": {"n_hypotheses": -3}}'),
        ("gen", '{"instance": {"domain_size": 0}}'),
        ("gen", '{"instance": {"domain_size": -2}}'),
        ("gen", '{"instance": {"kind": "blocks", "blocks": 0}}'),
        ("gen", '{"instance": {"smooth_step": -1}}'),
        ("gen", '{"instance": {"kind": "blocks", "defect_blocks": -1}}'),
        ("gen", '{"perturbation": {"kind": "random_k", "k": -1}}'),
        ("gen", '{"seed": -1}'),
        ("experiment", '{"m_grid": [-5]}'),
        ("gen", '{"m_grid": [0]}'),
        ("gen", '{"holdout_size": -1}'),
        ("experiment", '{"pipeline_config": {"d": 0}}'),
        ("experiment", '{"pipeline_config": {"T": 0}}'),
        ("gen", '{"rejection_budget": 0}'),
        ("gen", '{"realizable_margin": -1}'),
        *((command, content) for command in ("experiment", "gen")
          for content in ('{"instance": {"levels": 1}}',
                          '{"perturbation": {"kind": "grid_ball", "radius": -1}}',
                          '{"target": {"index": 99}}')),
        # a sample size below 1 on the command line
        ("gen --m 0", "{}"),
        ("gen --m -2", "{}"),
        # a NaN margin or cover radius on the command line
        ("fatdim --gamma nan", FLAG_DOMAIN),
        # a negative cap
        ("fatdim --gamma 0.1 --max-points -3", FLAG_DOMAIN),
        ("fatdim --gamma 0.1 --max-hypotheses -1", FLAG_DOMAIN),
        ("cover --t nan", FLAG_DOMAIN),
        # a constant that is not finite; bounds reads no config
        ("bounds --kind agnostic --k 10 --m 1000 --c nan", None),
        ("bounds --kind agnostic --k 10 --m 1000 --c inf", None),
    ])
    def test_bad_config_document_exits_one(self, tmp_path, capsys, command, content):
        path = tmp_path / "exp.json"
        if content is not None:
            path.write_text(content)
        argv = command.split()
        if argv[0] != "bounds":
            argv += ["--config", str(path)]
        if command == "learn-improper":
            argv += ["--eta", "0.2"]
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc, key", [
        ({"instance": {"n_hypotheses": None}}, "n_hypotheses"),
        ({"instance": {"smooth_step": "0.05"}}, "smooth_step"),
        ({"perturbation": {"radius": True}}, "radius"),
        ({"target": {"index": "a"}}, "index"),
        ({"pipeline_config": {"d": "6"}}, "d"),
        ({"pipeline_config": {"T": float("inf")}}, "T"),
        ({"eta": "0.2"}, "eta"),
        ({"trials": 2.5}, "trials"),
        ({"m_grid": [20, None]}, "m_grid"),
        ({"pipeline": 3}, "pipeline"),
        ({"pipeline": "nope"}, "pipeline"),
        ({"instance": {"kind": "spiky"}}, "kind"),
        ({"perturbation": {"kind": None}}, "kind"),
        # out-of-range values
        ({"instance": {"n_hypotheses": 0}}, "n_hypotheses"),
        ({"instance": {"domain_size": -2}}, "domain_size"),
        ({"instance": {"blocks": 0}}, "blocks"),
        ({"instance": {"smooth_step": -1}}, "smooth_step"),
        ({"instance": {"defect_blocks": -1}}, "defect_blocks"),
        ({"instance": {"levels": 1}}, "levels"),
        ({"perturbation": {"k": -1}}, "k"),
        ({"perturbation": {"radius": -1}}, "radius"),
        ({"target": {"index": 99}}, "index"),
        ({"target": {"index": -1}}, "index"),
        ({"seed": -1}, "seed"),
        ({"m_grid": [-5]}, "m_grid"),
        ({"m_grid": [20, 0]}, "m_grid"),
        ({"m_grid": []}, "m_grid"),
        ({"holdout_size": -1}, "holdout_size"),
        ({"trials": 0}, "trials"),
        ({"pipeline_config": {"d": 0}}, "d"),
        ({"pipeline_config": {"T": 0}}, "T"),
        ({"rejection_budget": 0}, "rejection_budget"),
        ({"realizable_margin": -1}, "realizable_margin"),
        ({"realizable_margin": 0}, "realizable_margin"),
    ])
    def test_ill_typed_config_value_names_its_key(self, doc, key):
        with pytest.raises(InvalidParameter, match=f"'{key}'"):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize("command", ["gen", "learn-improper"])
    def test_negative_seed_flag_exits_one(self, domain_file, exp_file, capsys, command):
        argv = [command, "--seed", "-1"]
        if command == "gen":
            argv += ["--config", exp_file]
        else:
            argv += ["--config", domain_file, "--eta", "0.2"]
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        assert "'--seed'" in capsys.readouterr().err

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        common = {"--seed", "--config", "--out"}
        expected = {
            "gen": common | {"--m"},
            "fatdim": {"--config", "--out", "--gamma", "--matrix", "--max-points",
                       "--max-hypotheses"},
            "cover": {"--config", "--out", "--t"},
            "learn-proper": common | {"--eta", "--epsilon"},
            "learn-improper": common | {"--eta"},
            "agnostic-eta": common | {"--eta"},
            "regress": common | {"--epsilon", "--p"},
            "agnostic-regress": common | {"--epsilon", "--delta", "--p"},
            "bounds": {"--out", "--kind", "--k", "--m", "--delta", "--empirical", "--c"},
            "experiment": {"--config", "--out"},
        }
        subparsers = next(a for a in _parser()._actions if a.dest == "command").choices
        flags = {name: {o for a in sp._actions for o in a.option_strings
                        if o.startswith("--") and o != "--help"}
                 for name, sp in subparsers.items()}
        assert flags == expected

    @pytest.mark.parametrize("argv", [
        ["experiment", "--config", "EXP", "--seed", "1"],
        ["bounds", "--kind", "realizable", "--k", "10", "--m", "1000", "--seed", "1"],
        ["fatdim", "--config", "DOM", "--gamma", "0.1", "--seed", "1"],
        ["cover", "--config", "DOM", "--t", "0.1", "--seed", "1"],
        ["bounds", "--kind", "realizable", "--k", "10", "--m", "1000", "--config", "x"],
    ], ids=["experiment-seed", "bounds-seed", "fatdim-seed", "cover-seed", "bounds-config"])
    def test_a_flag_the_subcommand_never_reads_exits_one(self, domain_file, exp_file,
                                                         capsys, argv):
        argv = [{"EXP": exp_file, "DOM": domain_file}.get(a, a) for a in argv]
        code, out = run_cli(argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_config_path_that_looks_like_json_is_read_as_a_path(
            self, exp_file, tmp_path, monkeypatch):
        (tmp_path / "{run}.json").write_text(Path(exp_file).read_text())
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(["experiment", "--config", "{run}.json"])
        assert code == 0
        assert out.splitlines()[0] == ",".join(CSV_HEADER)

    def test_optional_config_numbers_take_null(self):
        cfg = ExperimentConfig.from_json({"instance": {"levels": None},
                                          "pipeline_config": {"d": None, "T": 3},
                                          "realizable_margin": None})
        assert cfg.instance.levels is None and cfg.pipeline_config.T == 3

    def test_agnostic_regress_needs_holdout(self, tmp_path):
        cfg = config_for()
        cls, U, sample, _ = gen_instance(cfg, 6, m=10)
        path = tmp_path / "nohold.json"
        path.write_text(instance_to_domain_json(cls, U, sample))
        code, _ = run_cli(["agnostic-regress", "--config", str(path),
                           "--epsilon", "0.5", "--delta", "0.5"])
        assert code == 1


# A small valid config, and the fields and values its fuzzed copies take.
# The values stay small: a huge size or budget is accepted and then runs
# for as long as it asks.
FUZZ_BASE = {"instance": {"kind": "smooth", "n_hypotheses": 6, "domain_size": 12},
             "perturbation": {"kind": "grid_ball", "radius": 1},
             "m_grid": [5], "holdout_size": 3}
FUZZ_FIELDS = [(None, f.name) for f in fields(ExperimentConfig)] + [
    (section, f.name) for section, spec in (("instance", InstanceSpec),
                                            ("perturbation", PerturbationSpec),
                                            ("target", TargetSpec),
                                            ("pipeline_config", PipelineConfig))
    for f in fields(spec)]
FUZZ_VALUES = [None, True, "2", [], {}, [3], -2, -1, 0, 1, 2, 3, 7, 0.5, -0.5, 1.5,
               "smooth", "blocks", "random_k", "improper"]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES)),
                min_size=1, max_size=2))
def test_fuzzed_config_exits_with_a_code_and_a_message(tmp_path_factory, changes):
    doc = copy.deepcopy(FUZZ_BASE)
    for (section, key), value in changes:
        target = doc if section is None else doc.setdefault(section, {})
        if isinstance(target, dict):  # else the whole section was replaced
            target[key] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["gen", "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")
    if code == 2:
        assert err.getvalue().startswith("runtime failure:")
