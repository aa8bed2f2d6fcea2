"""Robust empirical risk minimizers and finite classes.

A RERM call ``rerm(sample, subsets, U, eta)`` fits every given subset of
sample indices at once: for each, a hypothesis whose worst-case deviation
over every perturbation of every point in it is at most eta
(Chebyshev-style feasibility, not loss minimization), or None where no
hypothesis is.  Tie-breaking is deterministic so reconstruction from
compressed points replays bit-identically.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import dimensions
from .core import (
    Hypothesis,
    PerturbationMap,
    Sample,
    constant_hypothesis,
    robust_deviations,
)
from .errors import CapExceeded, InvalidParameter


@dataclass(frozen=True)
class FiniteClass:
    """An explicit hypothesis class: row h, column x gives h(x)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = dimensions.as_class_matrix(self.matrix)
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


def rerm_finite(cls: FiniteClass, sample: Sample,
                subsets: Sequence[Sequence[int]], U: PerturbationMap,
                eta: float) -> list[Hypothesis | None]:
    """For each subset of sample indices, the lowest-index row whose worst
    robust deviation on those points is <= eta, or None if no row is.

    The deviations are taken once, over the points some subset uses; a
    row fits a subset iff it exceeds eta on none of its points, counted
    for every row and subset at once by a product with the 0/1
    membership matrix (integer counts, exact in float64).  Subsets fit by
    the same row share one hypothesis object.
    """
    points, cols = _batch(subsets, eta)
    used, where = np.unique(points, return_inverse=True)
    member = np.zeros((used.size, len(subsets)))
    member[where, cols] = 1.0
    exceeds = robust_deviations(cls.matrix, sample.take(used), U) > eta
    fits = exceeds.astype(float) @ member == 0.0
    rows = np.where(fits.any(axis=0), fits.argmax(axis=0), -1).tolist()
    fitted = {r: cls.hypothesis(r) for r in set(rows) if r >= 0}
    return [fitted.get(r) for r in rows]


def _batch(subsets: Sequence[Sequence[int]], eta: float) -> tuple[np.ndarray, np.ndarray]:
    """A RERM call's checked radius and subsets: the sample indices of all
    subsets end to end, and the subset each belongs to."""
    if not 0.0 < eta <= 1.0:
        raise InvalidParameter(f"eta must be in (0, 1], got {eta}")
    cols = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
    return np.fromiter(chain.from_iterable(subsets), np.intp, cols.size), cols


def rerm_constant(sample: Sample, subsets: Sequence[Sequence[int]],
                  U: PerturbationMap, eta: float) -> list[Hypothesis | None]:
    """For each subset of sample indices, the midpoint of the feasible
    constant interval intersect [0, 1], or None if it is empty.

    A constant ignores the perturbed argument, so feasibility is just
    label intervals intersecting.
    """
    points, cols = _batch(subsets, eta)
    labels = sample.ys[points]
    lo, hi = np.zeros(len(subsets)), np.ones(len(subsets))
    np.maximum.at(lo, cols, labels - eta)
    np.minimum.at(hi, cols, labels + eta)
    return [constant_hypothesis(c, U.domain_size) if ok else None
            for c, ok in zip(((lo + hi) / 2.0).tolist(), (lo <= hi).tolist())]


class FiniteClassOracle:
    """Bundles a finite class with its RERM and complexity handles.

    Exact fat-shattering is used for parameter defaults only while the
    class fits under the brute-force caps; beyond them the log2 bound on
    the number of hypotheses stands in.
    """

    def __init__(self, cls: FiniteClass):
        self.cls = cls

    def rerm(self, sample, subsets, U, eta) -> list[Hypothesis | None]:
        return rerm_finite(self.cls, sample, subsets, U, eta)

    @staticmethod
    def _fat(matrix, gamma) -> int:
        try:
            return dimensions.fat_shattering(matrix, gamma)
        except CapExceeded:
            return min(int(math.floor(math.log2(max(matrix.shape[0], 2)))), matrix.shape[1])

    def fat(self, gamma: float) -> int:
        return self._fat(self.cls.matrix, gamma)

    def dual_fat(self, gamma: float) -> int:
        # the dual class: every instance a function over the rows
        return self._fat(self.cls.matrix.T, gamma)

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

    def rerm(self, sample, subsets, U, eta) -> list[Hypothesis | None]:
        return rerm_constant(sample, subsets, U, eta)

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
        ys = sample.ys
        endpoints = np.unique(np.concatenate([ys - eta, ys + eta]))
        mids = np.clip((endpoints[:-1] + endpoints[1:]) / 2.0, 0.0, 1.0)
        counts = (np.abs(ys - mids[:, None]) < eta).sum(axis=1)
        # 0.5 unless a midpoint fits strictly more; the first such midpoint
        best = 0.5
        if counts.max(initial=0) > (np.abs(ys - 0.5) < eta).sum():
            best = float(mids[np.argmax(counts)])
        fit = tuple(np.flatnonzero(np.abs(ys - best) < eta).tolist())
        return fit, constant_hypothesis(best, U.domain_size)
