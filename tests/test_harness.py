import contextlib
import io
import json

import pytest

from robustreg import load_domain, rerm_finite
from robustreg.cli import main
from robustreg.errors import InvalidParameter, UnrealizableSpec
from robustreg.harness import (
    CSV_HEADER,
    ExperimentConfig,
    InstanceSpec,
    PerturbationSpec,
    TargetSpec,
    gen_instance,
    instance_to_domain_json,
    run_experiment,
    write_csv,
)


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
        h = rerm_finite(cls, sample, U, cfg.eta)  # must not raise
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

    def test_infeasible_learn_is_a_runtime_failure(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "domain_size": 2, "samples": [[0, 0.0], [1, 1.0]],
            "perturbations": {"0": [0], "1": [1]},
            "class_matrix": [[0.5, 0.5]],
        }))
        code, _ = run_cli(["learn-improper", "--config", str(path),
                           "--eta", "0.2"])
        assert code == 2

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
    ])
    def test_bad_config_document_exits_one(self, tmp_path, capsys, command, content):
        path = tmp_path / "exp.json"
        if content is not None:
            path.write_text(content)
        argv = [command, "--config", str(path)]
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
    ])
    def test_ill_typed_config_value_names_its_key(self, doc, key):
        with pytest.raises(InvalidParameter, match=f"'{key}'"):
            ExperimentConfig.from_json(doc)

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
