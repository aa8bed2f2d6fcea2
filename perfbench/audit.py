"""Independent check of each learner's output.

Plain scalar loops over the generated instance, written here rather than
taken from ``robustreg.core``; the perturbation sets are rebuilt from the
workload's grid radius instead of read from the library's map.  The only
library calls are ``reconstruct`` and a fresh oracle for it to refit with;
that replay of the stored scheme is itself one of the things checked.
"""

from __future__ import annotations

from robustreg.compression import reconstruct

from workloads import new_oracle


def ball(x: int, n: int, radius: int) -> range:
    return range(max(0, x - radius), min(n, x + radius + 1))


def worst_deviation(values, ex, n: int, radius: int) -> float:
    return max(abs(values[z] - ex.y) for z in ball(ex.x, n, radius))


def tube_error(values, points, n: int, radius: int, eta: float) -> float:
    """Share of points whose worst deviation reaches eta (the indicator loss)."""
    hits = sum(1 for ex in points if worst_deviation(values, ex, n, radius) >= eta)
    return hits / len(points)


def audit(w, inst, report) -> list[str]:
    """Problems found in one trial's report; empty when it checks out."""
    if report is None or report.hypothesis is None or report.scheme is None:
        return ["no hypothesis returned"]
    n = inst.cls.matrix.shape[1]
    values = [report.hypothesis(z) for z in range(n)]
    problems = []
    rebuilt = reconstruct(report.scheme, inst.sample, new_oracle(inst).rerm, inst.U)
    diff = [z for z in range(n) if rebuilt(z) != values[z]]
    if diff:
        problems.append(f"reconstruction differs from the hypothesis at {len(diff)} "
                        f"domain points, first {diff[0]}")
    if w.kind == "improper":
        worst = max(worst_deviation(values, ex, n, w.radius) for ex in inst.sample)
        if worst > w.eta:
            problems.append(f"worst robust deviation {worst!r} > eta {w.eta}")
    elif w.kind == "proper":
        err = tube_error(values, inst.sample, n, w.radius, w.eta)
        if err > w.epsilon:
            problems.append(f"robust sample error {err!r} > epsilon {w.epsilon}")
    else:
        theta = report.selected_theta
        err = tube_error(values, inst.holdout, n, w.radius, theta)
        if err != report.holdout_eta_err:
            problems.append(f"holdout error at theta {theta} is {err!r}, "
                            f"reported {report.holdout_eta_err!r}")
    return problems
