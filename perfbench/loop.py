"""One workload in its own process: set-up, closed loop, audit, digest.

Run by ``run.py``; prints one JSON object on stdout.  A single caller
starts each pipeline call after the previous one returns.  The loop runs
whole passes over the instance pool and stops at the end of the first pass
after which ``--seconds`` have passed.  With
``--setup-only`` the process stops once set-up is done, so that ``run.py``
can time several set-ups.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import robustreg  # noqa: E402
from robustreg import boosting, dimensions, harness, mw, pipelines  # noqa: E402
from robustreg.errors import RobustRegError  # noqa: E402

from audit import audit  # noqa: E402
from calibrate import REF_KERNEL_S, kernel_s, scaled  # noqa: E402
from metrics import layer_metrics, percentile  # noqa: E402
from spans import Tracer, patched, trace_oracle  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Instance, make_instances, new_oracle, run_trial, tail_percentile)

MODULES = {m.__name__: m for m in (harness, pipelines, boosting, mw, dimensions)}
OUT = ROOT / ".bench_out"


@dataclass
class Trial:
    index: int
    instance: Instance
    seconds: float
    report: object
    error: str | None
    traced: bool = False
    scaled: float = 0.0  # seconds at reference host speed

    def output(self) -> str:
        """The report without timings, or the exception class raised."""
        if self.report is None:
            return json.dumps({"error": self.error})
        return self.report.to_json()


def timed_trial(w, inst, oracle, index) -> Trial:
    t0 = time.perf_counter()
    try:
        report, error = run_trial(w, inst, oracle), None
    except RobustRegError as exc:
        report, error = None, type(exc).__name__
    return Trial(index, inst, time.perf_counter() - t0, report, error)


def traced_trial(w, inst, tracer, index) -> Trial:
    oracle = new_oracle(inst)
    trace_oracle(tracer, oracle)
    tracer.trial = index
    with patched(tracer, MODULES):
        t0 = time.perf_counter()
        try:
            with tracer.span("trial"):
                report, error = run_trial(w, inst, oracle), None
        except RobustRegError as exc:
            report, error = None, type(exc).__name__
        seconds = time.perf_counter() - t0
    return Trial(index, inst, seconds, report, error, traced=True)


def digest(trials) -> str:
    h = hashlib.sha256()
    for t in trials:
        h.update(t.output().encode())
        h.update(b"\n")
    return h.hexdigest()


def source_hash() -> str:
    """Hash of the library sources and of the instance definitions."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src" / "robustreg").glob("*.py"))
    for path in paths + [Path(__file__).with_name("workloads.py")]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest_store(key: str, value: str) -> str | None:
    """Record the digest of this code and seed; report a conflict with an earlier run."""
    OUT.mkdir(exist_ok=True)
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != value:
        return f"digest {value} differs from {known[key]} of an earlier run of {key}"
    known[key] = value
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        with patched(tracer, MODULES, only={"harness.gen_instance"}):
            instances, rejected = make_instances(w, args.seed)
    else:
        instances, rejected = make_instances(w, args.seed)
    oracles = [new_oracle(inst) for inst in instances]
    ready = time.perf_counter()
    kernel = setup_kernel = kernel_s()
    if args.setup_only:
        print(json.dumps({"ready": ready, "kernel_s": kernel}))
        return 0

    trials: list[Trial] = []
    kernels = [kernel]

    def calibrated(trial: Trial) -> None:
        nonlocal kernel
        after = kernel_s()
        trial.scaled = scaled(trial.seconds, kernel, after)
        kernel = after
        kernels.append(after)
        trials.append(trial)

    start = time.perf_counter()
    i = 0
    while True:
        inst = instances[i % len(instances)]
        oracle = oracles[i] if i < len(oracles) else new_oracle(inst)
        if tracer is not None and i % 2:
            # alternate which side of the pair runs first
            calibrated(traced_trial(w, inst, tracer, i))
        calibrated(timed_trial(w, inst, oracle, i))
        if tracer is not None and not i % 2:
            calibrated(traced_trial(w, inst, tracer, i))
        i += 1
        if i % w.pool:
            continue
        if i == w.pool:
            # peak over the same instances however many passes the run fits
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # only whole passes: the trials attempted and failed follow from the
        # seed and the count of passes, not from where the clock ran out
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start

    problems = []
    # a repeated instance (a later pass, or the traced twin) must give
    # byte-identical output
    first: dict[int, str] = {}
    for t in trials:
        out = t.output()
        if first.setdefault(t.instance.index, out) != out:
            problems.append(f"instance {t.instance.index}: output changed on a repeat")

    ok = 0
    for t in trials:
        if t.report is None:
            continue
        found = audit(w, t.instance, t.report)
        problems += [f"instance {t.instance.index}: {p}" for p in found]
        ok += not found

    untraced = [t for t in trials if not t.traced]
    result = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "ready": ready, "kernel_s": kernel, "kernels_s": kernels, "wall_s": wall,
        "attempted": len(trials), "ok": ok, "rejected_specs": rejected,
        "errors": sorted({t.error for t in trials if t.error}),
        # failed trials are counted by ok_frac, not timed: failing fast is no speed-up
        "raw_times": [t.seconds for t in untraced if t.report is not None],
        "all_raw_times": [t.seconds for t in trials],
        "times": [t.scaled for t in untraced if t.report is not None],
        "pool": w.pool, "passes": i // w.pool, "tail_pct": tail_percentile(w.pool),
        "numpy": np.__version__, "robustreg": robustreg.__version__,
        "source_sha256": source_hash(),
    }
    result["digest"] = digest(untraced[:w.pool])
    key = f"{w.name} seed={args.seed} trials={w.pool} src={result['source_sha256']}"
    conflict = check_digest_store(key, result["digest"])
    if conflict:
        problems.append(conflict)
    if tracer is None:
        times, raw = result["times"], result["raw_times"]
        result["metrics"] = {
            "trial_s.p50": median(times),
            "trial_s.tail": percentile(times, result["tail_pct"]),
            # closed-loop rate of pipeline calls, without the calibration
            # pauses between them
            "trials_per_s": len(trials) / sum(t.scaled for t in trials),
            "ok_frac": ok / len(trials),
            "peak_rss_mb": rss_mb,
        }
        result["rss_mb"] = rss_mb
        result["raw"] = {
            "trial_s.p50": median(raw),
            "trial_s.tail": percentile(raw, result["tail_pct"]),
            "trials_per_s": len(trials) / wall,
        }
    else:
        traced = [t for t in trials if t.traced]
        scale = {t.index: t.scaled / t.seconds for t in traced}
        scale[-1] = REF_KERNEL_S / setup_kernel
        overhead = (median([t.scaled for t in traced if t.report is not None])
                    - median(result["times"]))
        result["metrics"] = layer_metrics(tracer.spans, scale, len(traced), overhead)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{w.name}-seed{args.seed}.jsonl", "w") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.trial,
                                     sp.attrs]) + "\n")
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
