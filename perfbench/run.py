"""robustreg benchmark: one workload per call, results in BENCHMARK.json's format.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

``--seconds`` is part of the benchmark's calling convention, but the run
length is fixed by BENCHMARK.json ``run_seconds``: a run of another length
fits another number of trials, so any other value is refused.  A run times
whole passes over the workload's instances and ends at the end of the
first pass after which ``run_seconds`` have passed (see loop.py).

Each workload runs in a process of its own (``loop.py``) with BLAS pinned
to one thread.  Set-up is timed from process start to the first timed
trial, in that process and in two set-up-only processes before it, and
reported as the median of the three.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` every pipeline call is run twice,
plain and traced, and the per-layer metrics are printed.  Times are scaled
to the reference host speed (see calibrate.py).  The last line of standard
output is the JSON result; a fuller record with the environment, the
output digest, raw and scaled trial times goes to ``.bench_out/``.  The
exit code is 1 when an output fails its audit or changes between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import kernel_s, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child(args, env, setup_only: bool) -> tuple[dict, float]:
    """Run loop.py; returns its JSON and its set-up time, scaled to reference speed."""
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    before = kernel_s()
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the host
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, scaled(out["ready"] - t0, before, out["kernel_s"])


def environment(seed: int, result: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": result["numpy"], "blas_threads": PINNED, "seed": seed,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    choices=[spec["run_seconds"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "robustreg" / "__init__.py").is_file():
        print(f"no robustreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED)
    setups = [child(args, env, setup_only=True)[1] for _ in range(SETUP_PROBES)]
    result, setup = child(args, env, setup_only=False)
    setups.append(setup)
    result["setup_samples_s"] = setups
    result["env"] = environment(args.seed, result)

    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} trials, {result['ok']} ok, errors {result['errors']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  trial_s.tail is p{result['tail_pct']} of {len(result['times'])} trials; "
              f"setup_s is the median of {len(setups)} set-ups")
    print(f"  {result['passes']} pass(es) over {result['pool']} instances; digest sha256 "
          f"{result['digest']} over the first pass")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  env {json.dumps(result['env'])}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))

    correct = not result["problems"]
    attempted = result["attempted"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - result["ok"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
