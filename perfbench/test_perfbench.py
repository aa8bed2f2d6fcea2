"""Self-test of the benchmark; run with ``python3 -m pytest perfbench -q``.

Kept out of the library's test suite (``tests/``) and its wall time.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from audit import audit  # noqa: E402
from loop import MODULES, Trial, digest, traced_trial  # noqa: E402
from metrics import layer_metrics, percentile  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402
from workloads import WORKLOADS, make_instances, new_oracle, run_trial, tail_percentile  # noqa: E402

from robustreg.core import Hypothesis  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def test_declared_names_and_units():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_layer_map_covers_every_per_layer_metric():
    # a metric belongs to the entry whose layer is its dotted prefix
    layers = [entry["layer"] for entry in LAYERS]
    for m in SPEC["per_layer"]:
        owners = [la for la in layers if m["name"].startswith(la + ".")]
        assert len(owners) == 1, (m["name"], owners)
    for la in layers:
        assert any(m["name"].startswith(la + ".") for m in SPEC["per_layer"]), la
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in LAYERS:
        for claim in entry["moves"] + entry["unmoved"]:
            assert claim["metric"] in e2e
            assert set(claim["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("n", [1, 5, 10, 11, 14, 24, 60, 200])
def test_tail_is_the_highest_percentile_with_ten_trials_beyond(n):
    pct = tail_percentile(n)
    times = list(range(n))

    def beyond(p):
        return sum(t > percentile(times, p) for t in times)

    if n <= 10:
        assert pct == 100
    else:
        assert beyond(pct) >= 10 > beyond(pct + 1)


def _check_nesting(spans):
    for i, sp in enumerate(spans):
        assert sp.end >= sp.start
        if sp.parent >= 0:
            parent = spans[sp.parent]
            assert sp.parent < i
            assert parent.start <= sp.start and sp.end <= parent.end
            assert parent.trial == sp.trial
    own = self_times(spans)
    assert min(own) >= 0


def test_synthetic_spans_nest_and_self_times_add_up():
    tracer = Tracer()

    leaf = tracer.wrap("leaf", lambda: time.sleep(0.001))

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    with tracer.span("root"):
        tracer.wrap("middle", middle)()
        leaf()
    _check_nesting(tracer.spans)
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == root.end - root.start
    assert [sp.name for sp in tracer.spans] == ["root", "middle", "leaf", "leaf", "leaf"]


def test_failed_span_records_error_and_closes():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    (sp,) = tracer.spans
    assert sp.attrs["error"] == "ValueError" and sp.end >= sp.start


@pytest.fixture(scope="module")
def small():
    w = replace(WORKLOADS["small_exact"], pool=2)
    instances, _ = make_instances(w, 11)
    return w, instances


def test_instances_follow_the_seed(small):
    w, instances = small
    again, _ = make_instances(w, 11)
    other, _ = make_instances(w, 12)
    key = [[(ex.x, ex.y) for ex in inst.sample] for inst in instances]
    assert key == [[(ex.x, ex.y) for ex in inst.sample] for inst in again]
    assert key != [[(ex.x, ex.y) for ex in inst.sample] for inst in other]


def test_traced_trial_matches_plain_and_spans_are_sound(small):
    w, instances = small
    inst = instances[0]
    plain = Trial(0, inst, 0.0, run_trial(w, inst, new_oracle(inst)), None)
    tracer = Tracer()
    traced = traced_trial(w, inst, tracer, 0)
    assert traced.output() == plain.output()
    assert digest([traced]) == digest([plain])
    _check_nesting(tracer.spans)
    names = {sp.name for sp in tracer.spans}
    assert {"trial", "pipelines.improper_learn", "oracles.rerm",
            "dimensions.fat_shattering", "dimensions.greedy_cover",
            "boosting.medboost", "compression.reconstruct"} <= names
    # the patches are undone after the trial
    assert not hasattr(MODULES["robustreg.pipelines"].greedy_cover, "__wrapped__")
    metrics = layer_metrics(tracer.spans, {0: 1.0}, 1, 0.0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(v >= 0 for k, v in metrics.items() if k != "trace.overhead_s")
    assert metrics["dimensions.fat_shattering.calls"] >= 1


def test_patched_restores_on_error():
    tracer = Tracer()
    pipelines = MODULES["robustreg.pipelines"]
    original = pipelines.greedy_cover
    with pytest.raises(RuntimeError):
        with patched(tracer, MODULES):
            assert pipelines.greedy_cover is not original
            raise RuntimeError
    assert pipelines.greedy_cover is original


def test_audit_passes_real_output_and_catches_a_corrupted_one(small):
    w, instances = small
    inst = instances[1]
    report = run_trial(w, inst, new_oracle(inst))
    assert audit(w, inst, report) == []
    # a constant on the far side of some label deviates by more than eta
    far = 0.0 if max(ex.y for ex in inst.sample) > w.eta else 1.0
    report.hypothesis = Hypothesis(lambda z: far, report.hypothesis.descriptor)
    found = audit(w, inst, report)
    assert any("reconstruction differs" in p for p in found)
    assert any("worst robust deviation" in p for p in found)
    report.hypothesis = None
    assert audit(w, inst, report) == ["no hypothesis returned"]


def test_audit_checks_the_agnostic_holdout_error():
    w = replace(WORKLOADS["agnostic_grid"], pool=1)
    (inst,), _ = make_instances(w, 5)
    report = run_trial(w, inst, new_oracle(inst))
    assert audit(w, inst, report) == []
    report.holdout_eta_err += 1 / len(inst.holdout)
    assert any("holdout error" in p for p in audit(w, inst, report))


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                               "small_exact", "--seed", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_length_is_fixed_by_the_spec():
    other = str(SPEC["run_seconds"] + 1)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "small_exact",
                           "--seed", "1", "--seconds", other, "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digest_store_flags_a_changed_digest(monkeypatch):
    import loop

    store = ROOT / ".bench_out" / "selftest-digests"
    shutil.rmtree(store, ignore_errors=True)
    monkeypatch.setattr(loop, "OUT", store)
    try:
        assert loop.check_digest_store("w seed=1", "aa") is None
        assert loop.check_digest_store("w seed=1", "aa") is None
        assert "differs" in loop.check_digest_store("w seed=1", "bb")
        assert loop.check_digest_store("w seed=2", "bb") is None
    finally:
        shutil.rmtree(store)


def test_a_run_stops_only_at_the_end_of_a_pass(monkeypatch, capsys):
    import loop

    store = ROOT / ".bench_out" / "selftest-passes"
    shutil.rmtree(store, ignore_errors=True)
    monkeypatch.setattr(loop, "OUT", store)
    monkeypatch.setitem(loop.WORKLOADS, "small_exact",
                        replace(WORKLOADS["small_exact"], pool=2))
    try:
        # with no time to fill, the run still completes its first pass
        assert loop.main(["--workload", "small_exact", "--seed", "3", "--seconds", "0"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(store, ignore_errors=True)
    assert (out["attempted"], out["passes"], out["pool"]) == (2, 1, 2)
    assert len(out["all_raw_times"]) == 2
