"""Sample compression schemes and generalization-bound calculators.

An ensemble compresses to one group of original-sample indices per
member: the pool subset it was fit on, all of one size, so group
boundaries decode without delimiters.  Reconstruction refits each
distinct group once with the deterministic RERM oracle and recombines
the refits under the stored aggregation tag, which replays the original
ensemble bit-identically.  Median schemes refit at eta/8; average schemes at
eta/4 (``boosting.MEDIAN_REFIT`` and ``AVERAGE_REFIT``, the radii the
runs fit at).  Coefficients are stored as side information unless all
are 1 (averages, sparsified medians and one-member medians), which
reconstruct the same without them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .boosting import AVERAGE_REFIT, MEDIAN_REFIT, WeightedEnsemble, aggregate
from .core import Hypothesis, PerturbationMap, Sample, SampleLike, as_sample
from .errors import InvalidParameter, NotCompressible, ReconstructionFailed


@dataclass(frozen=True)
class CompressionScheme:
    """Grouped labeled-point indices plus minimal side information."""

    eta: float
    aggregation: str  # "median" | "average"
    groups: tuple[tuple[int, ...], ...]
    alphas: tuple[float, ...] | None = None

    def __post_init__(self):
        # groups read back from JSON are lists; reconstruct hashes them
        object.__setattr__(self, "groups", tuple(map(tuple, self.groups)))
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
        """Total number of stored points, |kappa(S)|: the groups share one size."""
        return len(self.groups) * len(self.groups[0])

    def to_json(self) -> str:
        doc = {
            "eta": self.eta,
            "aggregation": self.aggregation,
            "groups": [list(g) for g in self.groups],
            "alphas": list(self.alphas) if self.alphas is not None else None,
        }
        return json.dumps(doc, separators=(",", ":"))


def compress(ensemble: WeightedEnsemble, sample: Sample,
             eta: float) -> CompressionScheme:
    """Encode an ensemble as one group of sample indices per member, its
    source, with the coefficients as side information unless all are 1."""
    if any(len(src) == 0 for src in ensemble.sources):
        raise NotCompressible("an ensemble member carries no source indices")
    indices = np.concatenate(ensemble.sources)
    outside = indices[(indices < 0) | (indices >= len(sample))]
    if outside.size:
        raise NotCompressible(f"source index {outside[0]} outside the sample")
    unit = all(a == 1.0 for a in ensemble.alphas)
    return CompressionScheme(
        eta=eta, aggregation=ensemble.aggregation,
        groups=ensemble.sources,
        alphas=None if unit else ensemble.alphas,
    )


def reconstruct(scheme: CompressionScheme, sample: SampleLike,
                rerm, U: PerturbationMap) -> Hypothesis:
    """Refit every group at the scheme's refit radius and recombine under
    the stored aggregation.

    Each group is read as its sorted index set, and equal sets, such as
    the repeated groups of an average or a sparsified median, are refit
    once, in one batched ``rerm(sample, sets, U, radius)`` call (the oracle
    is deterministic).  A group the oracle cannot fit raises
    :class:`ReconstructionFailed`.
    """
    median = scheme.aggregation == "median"
    scale = scheme.eta * (MEDIAN_REFIT if median else AVERAGE_REFIT)
    points = [tuple(sorted(set(g))) for g in scheme.groups]
    sets = list(dict.fromkeys(points))
    refits = dict(zip(sets, rerm(as_sample(sample), sets, U, scale)))
    members = [refits[p] for p in points]
    if None in members:
        g = members.index(None)
        raise ReconstructionFailed(f"group {g} {scheme.groups[g]} is infeasible at {scale:.6g}")
    alphas = scheme.alphas if scheme.alphas is not None else (1.0,) * len(members)
    values = aggregate(members, alphas, median)
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
    if not 0.0 < c < math.inf:
        raise InvalidParameter(f"c must be positive and finite, got {c}")
    base = (k * math.log(m) + math.log(1.0 / delta)) / m
    if kind == "realizable":
        return c * base
    if kind == "agnostic":
        return c * math.sqrt(base)
    return c * (math.sqrt(empirical * base) + base)
