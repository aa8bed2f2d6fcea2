"""End-to-end statistics and the per-layer metrics derived from spans.

Per-layer values are per traced trial unless noted: ``calls`` and failure
counts are totals divided by the number of traced trials, sizes
(``points``, ``centers``, ``rounds``, ``members_out``, ``compression.size``)
are means per call.  ``self_s`` is seconds of self time per trial at
reference host speed (calibrate.py); a layer that a workload never calls
reads a true 0 there, as the ``unmoved`` lists of layers.json record.

The metric names are declared once, in BENCHMARK.json ``per_layer``;
``layer_metrics`` must produce exactly those (the self-test checks it).
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import self_times

# self time in seconds per trial
SELF_S = [
    "core.inflate", "core.empirical_error", "oracles.rerm", "oracles.max_fit_subset",
    "dimensions.fat_shattering", "dimensions.greedy_cover",
    "pipelines.build_pool", "pipelines.dual_embed",
    "boosting.medboost", "boosting.find_weak_learner",
    "mw.mw_boost", "mw.find_strong_learner", "sparsify.sparsify",
    "compression.compress", "compression.reconstruct",
]
CALLS = [
    "core.empirical_error", "oracles.rerm", "oracles.max_fit_subset",
    "dimensions.fat_shattering", "dimensions.greedy_cover", "boosting.medboost",
    "boosting.find_weak_learner", "mw.mw_boost", "mw.find_strong_learner",
    "sparsify.sparsify", "compression.reconstruct",
]
# attribute means per call
SIZES = [
    ("core.inflate", "points", "core.inflate.points"),
    ("dimensions.greedy_cover", "points", "dimensions.greedy_cover.points"),
    ("dimensions.greedy_cover", "centers", "dimensions.greedy_cover.centers"),
    ("boosting.medboost", "rounds", "boosting.medboost.rounds"),
    ("mw.mw_boost", "rounds", "mw.mw_boost.rounds"),
    ("sparsify.sparsify", "members_out", "sparsify.sparsify.members_out"),
    ("compression.compress", "size", "compression.size"),
]
# raised exception counted per trial
FAILURES = [
    ("oracles.rerm", "Infeasible", "oracles.rerm.infeasible"),
    ("dimensions.fat_shattering", "CapExceeded", "dimensions.fat_shattering.cap_exceeded"),
    ("boosting.find_weak_learner", "WeakLearnerNotFound", "boosting.find_weak_learner.failed"),
    ("sparsify.sparsify", "SparsifyFailed", "sparsify.sparsify.failed"),
]
ENTRIES = {"pipelines.agnostic_regression", "pipelines.agnostic_eta_learn",
           "pipelines.improper_learn", "pipelines.proper_learn"}
# how a grid radius of agnostic_regression ends; anything else is "other"
GRID_OUTCOMES = ["ChainAssertionFailed", "WeakLearnerNotFound", "InvalidParameter",
                 "EmptyPool", "other"]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans, scale: dict[int, float], n: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of ``n`` traced trials and of set-up (spans with trial -1).

    ``scale[trial]`` converts that trial's raw span times to reference
    speed (see calibrate.py).
    """
    own = [t * 1e-9 * scale[sp.trial] for sp, t in zip(spans, self_times(spans))]
    setup_s = sum(t for sp, t in zip(spans, own) if sp.trial < 0)
    setup_calls = sum(1 for sp in spans if sp.trial < 0)
    self_by = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    attr_sum = defaultdict(float)
    attr_n = defaultdict(int)
    grid = defaultdict(int)
    for sp, t in zip(spans, own):
        if sp.trial < 0:
            continue
        self_by[sp.name] += t
        calls[sp.name] += 1
        if "error" in sp.attrs:
            errors[sp.name, sp.attrs["error"]] += 1
        for key, value in sp.attrs.items():
            if key not in ("error", "status"):
                attr_sum[sp.name, key] += value
                attr_n[sp.name, key] += 1
        if (sp.name == "pipelines.agnostic_eta_learn" and sp.parent >= 0
                and spans[sp.parent].name == "pipelines.agnostic_regression"):
            grid["radii"] += 1
            outcome = sp.attrs.get("error") or sp.attrs["status"]
            if outcome == "ok":
                grid["ok"] += 1
            else:
                grid[outcome if outcome in GRID_OUTCOMES else "other"] += 1

    out = {
        "harness.gen_instance.calls": float(setup_calls),
        "harness.gen_instance.self_s": setup_s,
    }
    for layer in SELF_S:
        out[f"{layer}.self_s"] = self_by[layer] / n
    out["pipelines.entry.self_s"] = sum(self_by[e] for e in ENTRIES) / n
    for layer in CALLS:
        out[f"{layer}.calls"] = calls[layer] / n
    for layer, key, metric in SIZES:
        cnt = attr_n[layer, key]
        out[metric] = attr_sum[layer, key] / cnt if cnt else 0.0
    for layer, exc, metric in FAILURES:
        out[metric] = errors[layer, exc] / n
    rerm = calls["oracles.rerm"]
    out["oracles.rerm.feasible_ratio"] = (
        (rerm - errors["oracles.rerm", "Infeasible"]) / rerm if rerm else 0.0)
    out["compression.reconstruct.refits"] = attr_sum["compression.reconstruct", "refits"] / n
    out["pipelines.grid.radii"] = grid["radii"] / n
    out["pipelines.grid.ok_ratio"] = grid["ok"] / grid["radii"] if grid["radii"] else 0.0
    for o in GRID_OUTCOMES:
        out[f"pipelines.grid.fail.{o}"] = grid[o] / n
    out["trace.trials"] = float(n)
    out["trace.overhead_s"] = overhead_s
    return out
