"""Sample compression schemes and generalization-bound calculators.

An ensemble compresses to one fixed-size group of original-sample
indices per member (padded by repeating the last index, so group
boundaries decode without delimiters).  Reconstruction refits every
group with the deterministic RERM oracle and recombines under the
stored aggregation tag, which replays the original ensemble
bit-identically.  Median schemes refit at eta/8; average schemes at
eta/4 (``boosting.MEDIAN_REFIT`` and ``AVERAGE_REFIT``, the radii the
runs fit at).  Post-sparsification schemes carry no coefficients (the median
is unweighted); earlier median schemes store them as side information.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .boosting import AVERAGE_REFIT, MEDIAN_REFIT, WeightedEnsemble, aggregate
from .core import Hypothesis, LabeledExample, PerturbationMap
from .errors import Infeasible, InvalidParameter, NotCompressible, ReconstructionFailed


@dataclass(frozen=True)
class CompressionScheme:
    """Grouped labeled-point indices plus minimal side information."""

    eta: float
    aggregation: str  # "median" | "average"
    groups: tuple[tuple[int, ...], ...]
    alphas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.aggregation not in ("median", "average"):
            raise InvalidParameter(f"unknown aggregation {self.aggregation!r}")
        if not self.groups or any(len(g) == 0 for g in self.groups):
            raise InvalidParameter("groups must be nonempty")
        if len({len(g) for g in self.groups}) != 1:
            raise InvalidParameter("groups must share one fixed size")
        if self.alphas is not None and len(self.alphas) != len(self.groups):
            raise InvalidParameter("one alpha per group required")

    @property
    def size(self) -> int:
        """Total number of stored points, |kappa(S)|."""
        return sum(len(g) for g in self.groups)

    def to_json(self) -> str:
        doc = {
            "eta": self.eta,
            "aggregation": self.aggregation,
            "groups": [list(g) for g in self.groups],
            "alphas": list(self.alphas) if self.alphas is not None else None,
        }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CompressionScheme":
        doc = json.loads(text)
        return cls(
            eta=float(doc["eta"]),
            aggregation=doc["aggregation"],
            groups=tuple(tuple(int(i) for i in g) for g in doc["groups"]),
            alphas=tuple(float(a) for a in doc["alphas"]) if doc.get("alphas") is not None else None,
        )


def compress(ensemble: WeightedEnsemble, sample: Sequence[LabeledExample],
             eta: float, group_size: int, store_alphas: bool) -> CompressionScheme:
    """Encode an ensemble as fixed-size groups of sample indices, with the
    coefficients as side information when ``store_alphas`` is set."""
    if any(len(src) == 0 for src in ensemble.sources):
        raise NotCompressible("an ensemble member carries no source indices")
    m = len(sample)
    for src in ensemble.sources:
        for i in src:
            if not 0 <= i < m:
                raise NotCompressible(f"source index {i} outside the sample")
    if group_size < max(len(src) for src in ensemble.sources):
        raise InvalidParameter("group_size smaller than a member's source list")
    groups = tuple(
        tuple(src) + (src[-1],) * (group_size - len(src))
        for src in ensemble.sources
    )
    tag = "median" if ensemble.aggregation == "weighted_median" else "average"
    return CompressionScheme(
        eta=eta, aggregation=tag, groups=groups,
        alphas=ensemble.alphas if store_alphas else None,
    )


def reconstruct(scheme: CompressionScheme, sample: Sequence[LabeledExample],
                rerm, U: PerturbationMap) -> Hypothesis:
    """Refit every group at the scheme's refit radius and recombine under
    the stored aggregation."""
    median = scheme.aggregation == "median"
    scale = scheme.eta * (MEDIAN_REFIT if median else AVERAGE_REFIT)
    members, refits = [], {}
    for g, group in enumerate(scheme.groups):
        points = tuple(sorted(set(group)))
        if points not in refits:  # the oracle is deterministic: refit once
            try:
                refits[points] = rerm([sample[i] for i in points], U, scale)
            except Infeasible as exc:
                raise ReconstructionFailed(
                    f"group {g} is infeasible at {scale:.6g}: {exc}"
                ) from exc
        members.append(refits[points])
    alphas = scheme.alphas if scheme.alphas is not None else (1.0,) * len(members)
    values = aggregate(np.stack([h.values for h in members]), alphas, median)
    descriptor = ("reconstruction", scheme.aggregation,
                  tuple(h.descriptor for h in members), tuple(alphas))
    return Hypothesis(values, descriptor)


def generalization_bound(kind: str, k: int, m: int, delta: float,
                         empirical: float = 0.0, c: float = 1.0) -> float:
    """Error-gap bounds for a size-k compression on an m-point sample.

    realizable: c*(k ln m + ln(1/delta))/m
    agnostic:   c*sqrt((k ln m + ln(1/delta))/m)
    bernstein:  c*(sqrt(empirical*(k ln m + ln(1/delta))/m)
                   + (k ln m + ln(1/delta))/m)
    """
    if kind not in ("realizable", "agnostic", "bernstein"):
        raise InvalidParameter(f"unknown bound kind {kind!r}")
    if not 1 <= k <= m / 2:
        raise InvalidParameter(f"need 1 <= k <= m/2, got k={k}, m={m}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must be in (0, 1), got {delta}")
    if not 0.0 <= empirical <= 1.0:
        raise InvalidParameter(f"empirical must be in [0, 1], got {empirical}")
    if c <= 0:
        raise InvalidParameter(f"c must be positive, got {c}")
    base = (k * math.log(m) + math.log(1.0 / delta)) / m
    if kind == "realizable":
        return c * base
    if kind == "agnostic":
        return c * math.sqrt(base)
    return c * (math.sqrt(empirical * base) + base)
