"""Robust empirical risk minimizers and the weak-learner predicate.

A RERM call returns a hypothesis whose worst-case deviation over every
perturbation of every given point is at most eta (Chebyshev-style
feasibility, not loss minimization).  Tie-breaking is deterministic so
reconstruction from compressed points replays bit-identically.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    Hypothesis,
    InflatedExample,
    LabeledExample,
    PerturbationMap,
    constant_hypothesis,
    examples_arrays,
    robust_deviations,
)
from .errors import CapExceeded, Infeasible, InvalidParameter


@dataclass(frozen=True)
class FiniteClass:
    """An explicit hypothesis class: row h, column x gives h(x)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise InvalidParameter("class matrix must be 2-D")
        if m.shape[0] < 1:
            raise InvalidParameter("class must contain at least one hypothesis")
        if not ((m >= 0.0) & (m <= 1.0)).all():
            raise InvalidParameter("class matrix entries must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)

    @property
    def n_hypotheses(self) -> int:
        return self.matrix.shape[0]

    @property
    def domain_size(self) -> int:
        return self.matrix.shape[1]

    def hypothesis(self, row: int) -> Hypothesis:
        return Hypothesis(self.matrix[row], ("finite", int(row)))


def load_class_csv(path) -> FiniteClass:
    """One row per hypothesis; header gives instance ids.  A file that cannot
    be read, or is not such a table of numbers, raises InvalidParameter."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc.strerror}") from None
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        raise InvalidParameter("class CSV needs a header and rows of the same length")
    try:
        ids = [int(c) for c in rows[0]]
        matrix = np.asarray([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise InvalidParameter(f"class CSV: {exc}") from None
    if sorted(ids) != list(range(len(ids))):
        raise InvalidParameter("class CSV header must enumerate instance ids 0..n-1")
    return FiniteClass(matrix[:, np.argsort(ids)])


@dataclass(frozen=True)
class PointDistribution:
    """Normalized nonnegative weights over a finite point list."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidParameter("weights must be a nonempty vector")
        if (w < 0).any():
            raise InvalidParameter("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise InvalidParameter(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "PointDistribution":
        if n < 1:
            raise InvalidParameter("distribution needs at least one point")
        return cls(np.full(n, 1.0 / n))

    def reweight(self, multipliers: np.ndarray) -> "PointDistribution":
        w = self.weights * np.asarray(multipliers, dtype=float)
        total = w.sum()
        if total <= 0:
            raise InvalidParameter("reweighting zeroed the distribution")
        return PointDistribution(w / total)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self.weights.size, size=size, p=self.weights)

    def mass(self, mask: np.ndarray) -> float:
        return float(self.weights[np.asarray(mask, dtype=bool)].sum())


def rerm_finite(cls: FiniteClass, subset: Sequence[LabeledExample],
                U: PerturbationMap, eta: float) -> Hypothesis:
    """Lowest-index row whose worst robust deviation on the subset is <= eta."""
    if not 0.0 < eta <= 1.0:
        raise InvalidParameter(f"eta must be in (0, 1], got {eta}")
    worst = robust_deviations(cls.matrix, subset, U).max(axis=1, initial=0.0)
    feasible = np.flatnonzero(worst <= eta)
    if feasible.size == 0:
        best = float(worst.min())
        raise Infeasible(
            f"no hypothesis within {eta} on all points (best worst-case {best:.6g})",
            min_deviation=best,
        )
    return cls.hypothesis(int(feasible[0]))


def rerm_constant(subset: Sequence[LabeledExample], U: PerturbationMap,
                  eta: float) -> Hypothesis:
    """Midpoint of the feasible constant interval intersect [0, 1].

    A constant ignores the perturbed argument, so feasibility is just
    label intervals intersecting.
    """
    if not 0.0 < eta <= 1.0:
        raise InvalidParameter(f"eta must be in (0, 1], got {eta}")
    lo, hi = 0.0, 1.0
    for ex in subset:
        lo = max(lo, ex.y - eta)
        hi = min(hi, ex.y + eta)
    if lo > hi:
        raise Infeasible(
            f"constant intervals have empty intersection (gap {lo - hi:.6g})",
            min_deviation=lo - hi,
        )
    return constant_hypothesis((lo + hi) / 2.0, U.domain_size)


def weak_learner_check(h: Hypothesis, P: PointDistribution,
                       points: Sequence[InflatedExample],
                       eta: float, beta: float) -> bool:
    """True iff the P-mass of points deviating more than eta is strictly
    below 1/2 - beta.

    The inequality is strict; a 1e-12 guard makes boundary masses such
    as 1/3 against beta = 1/6 resolve as in exact arithmetic.
    """
    if not 0.0 <= beta <= 0.5:
        raise InvalidParameter(f"beta must be in [0, 1/2], got {beta}")
    if len(P) != len(points):
        raise InvalidParameter("distribution and point list lengths differ")
    zs, ys = examples_arrays(points)
    return P.mass(np.abs(h.values[zs] - ys) > eta) < 0.5 - beta - 1e-12


class FiniteClassOracle:
    """Bundles a finite class with its RERM and complexity handles.

    Exact fat-shattering is used for parameter defaults only while the
    class fits under the brute-force caps; beyond them the log2 bound on
    the number of hypotheses stands in.
    """

    def __init__(self, cls: FiniteClass):
        self.cls = cls
        self._fat_cache: dict[tuple[float, bool], int] = {}

    def rerm(self, subset, U, eta) -> Hypothesis:
        return rerm_finite(self.cls, subset, U, eta)

    def _fat(self, matrix, gamma, key) -> int:
        from .dimensions import fat_shattering

        if key not in self._fat_cache:
            try:
                value = fat_shattering(matrix, gamma)
            except CapExceeded:
                value = min(int(math.floor(math.log2(max(matrix.shape[0], 2)))),
                            matrix.shape[1])
            self._fat_cache[key] = value
        return self._fat_cache[key]

    def fat(self, gamma: float) -> int:
        return self._fat(self.cls.matrix, gamma, (gamma, False))

    def dual_fat(self, gamma: float) -> int:
        return self._fat(self.cls.matrix.T, gamma, (gamma, True))

    def fold_average(self, members):
        return None

    def max_fit_subset(self, sample, U, eta):
        """Largest point set one row fits with robust deviation strictly
        below eta; ties go to the lowest row index.

        Returns (sorted index tuple, witness hypothesis).
        """
        fits = robust_deviations(self.cls.matrix, sample, U) < eta
        best = int(np.argmax(fits.sum(axis=1)))
        return tuple(np.flatnonzero(fits[best]).tolist()), self.cls.hypothesis(best)


class ConstantClassOracle:
    """The convex class of all constants in [0, 1]."""

    def rerm(self, subset, U, eta) -> Hypothesis:
        return rerm_constant(subset, U, eta)

    def fat(self, gamma: float) -> int:
        # one point is shattered iff the [0, 1] range admits a 2*gamma gap
        return 1 if gamma <= 0.5 else 0

    def dual_fat(self, gamma: float) -> int:
        # every instance induces the same identity map on constants
        return 0

    def fold_average(self, members) -> Hypothesis:
        values = []
        for h in members:
            kind, value = h.descriptor[0], h.descriptor[-1]
            if kind != "constant":
                return None
            values.append(value)
        return constant_hypothesis(float(np.mean(values)), len(members[0].values))

    def max_fit_subset(self, sample, U, eta):
        """Sweep of open intervals (y - eta, y + eta); the best stabbing
        constant fits the most points.

        The overlap count is constant strictly between interval
        endpoints, so midpoints of consecutive endpoints (clamped into
        [0, 1]) enumerate every achievable fit set.
        """
        if not sample:
            return (), constant_hypothesis(0.5, U.domain_size)
        ys = np.array([ex.y for ex in sample])
        endpoints = np.unique(np.concatenate([ys - eta, ys + eta]))
        mids = (endpoints[:-1] + endpoints[1:]) / 2.0
        best_c, best_count = 0.5, int((np.abs(ys - 0.5) < eta).sum())
        for c in np.clip(mids, 0.0, 1.0):
            count = int((np.abs(ys - c) < eta).sum())
            if count > best_count:
                best_c, best_count = float(c), count
        fit = tuple(i for i, y in enumerate(ys) if abs(y - best_c) < eta)
        return fit, constant_hypothesis(best_c, U.domain_size)
