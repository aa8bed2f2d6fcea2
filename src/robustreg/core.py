"""Instances, labeled samples, perturbation maps, robust losses, inflation.

Instances are integer ids into a finite domain ``{0, ..., n-1}``.  A
sample is a :class:`Sample`, an id array and a label array; the learners
and ``reconstruct`` build one once from a list of examples, with
:func:`as_sample`, and every other function takes a Sample.  A
perturbation map sends each instance to the finite set of corruptions an
adversary may apply at test time; the instance itself is always a member
of its own set.  The robust losses take the worst case over that set,
which for finite sets is an exact maximum.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .errors import EmptySample, InvalidParameter, MissingPerturbation


@dataclass(frozen=True)
class LabeledExample:
    """An instance id with a label, checked when it becomes a :class:`Sample`."""

    x: int
    y: float


@dataclass(frozen=True, eq=False)
class Sample:
    """A labeled sample as two arrays: ``xs[i]`` is an instance id and
    ``ys[i]`` its label in [0, 1]."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs)
        if xs.dtype.kind == "f":  # a cast would truncate 2.5 to 2 and wrap 1e30 around
            bad = ~((xs == np.floor(xs)) & (np.abs(xs) < np.iinfo(np.intp).max))
            if bad.any():
                raise InvalidParameter(f"instance id must be an integer, got {xs[bad][0]}")
        object.__setattr__(self, "xs", xs := xs.astype(np.intp, copy=False))
        object.__setattr__(self, "ys", ys := np.asarray(self.ys, dtype=float))
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise InvalidParameter(f"ids {xs.shape} and labels {ys.shape} must be 1-D, one length")
        bad = ~((ys >= 0.0) & (ys <= 1.0))  # NaN is out of range too
        if bad.any():
            raise InvalidParameter(f"label must be in [0, 1], got {float(ys[bad][0])}")

    def __len__(self) -> int:
        return self.xs.size

    def take(self, idx) -> "Sample":
        """The examples at the positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return Sample(self.xs[idx], self.ys[idx])


SampleLike = Sample | Sequence[LabeledExample]


def as_sample(examples: SampleLike) -> Sample:
    """``examples`` as a :class:`Sample`; a Sample is returned as it is."""
    if isinstance(examples, Sample):
        return examples
    return Sample(np.array([ex.x for ex in examples]),
                  np.array([ex.y for ex in examples], dtype=float))


class PerturbationMap:
    """Finite set-valued map ``x -> U(x)`` with ``x in U(x)``.

    Entries are stored as duplicate-free tuples in their given order, and
    as a padded index matrix whose row x lists U(x) padded with x itself,
    which leaves every maximum over the row unchanged.  Instances without
    an entry raise :class:`MissingPerturbation` when looked up.
    """

    def __init__(self, table: Mapping[int, Sequence[int]]):
        frozen = {}
        for x, zs in table.items():
            zs = tuple(int(z) for z in zs)
            if not zs:
                raise InvalidParameter(f"perturbation set of {x} is empty")
            if len(set(zs)) != len(zs):
                raise InvalidParameter(f"perturbation set of {x} has duplicates")
            if int(x) not in zs:
                raise InvalidParameter(f"instance {x} missing from its own set")
            frozen[int(x)] = zs
        self._table = frozen
        sizes = np.fromiter(map(len, frozen.values()), np.intp, len(frozen))
        ids = np.fromiter(chain.from_iterable(frozen.values()), np.intp, sizes.sum())
        if ids.size and ids.min() < 0:
            raise InvalidParameter("perturbation sets must hold nonnegative ids")
        keys = np.fromiter(frozen, np.intp, len(frozen))
        # -1 marks an id without an entry; a row with an entry is padded with x
        index = np.full((ids.max(initial=-1) + 1, sizes.max(initial=1)), -1, np.intp)
        index[keys] = keys[:, None]
        slots = np.arange(ids.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        index[np.repeat(keys, sizes), slots] = ids
        self._index = index

    def of(self, x: int) -> tuple[int, ...]:
        try:
            return self._table[x]
        except KeyError:
            raise MissingPerturbation(x) from None

    def index(self, xs: np.ndarray) -> np.ndarray:
        """Padded rows of U(x) for every id in ``xs``, shape (len(xs), width)."""
        xs = np.asarray(xs, dtype=np.intp)
        missing = (xs < 0) | (xs >= self.domain_size)
        if not missing.any():
            rows = self._index[xs]
            missing = rows[:, 0] < 0
            if not missing.any():
                return rows
        raise MissingPerturbation(int(xs[missing][0]))

    @property
    def domain_size(self) -> int:
        """One past the largest id the map mentions."""
        return self._index.shape[0]

    def instances(self) -> tuple[int, ...]:
        return tuple(sorted(self._table))

    @classmethod
    def identity(cls, domain_size: int) -> "PerturbationMap":
        return cls({x: (x,) for x in range(domain_size)})

    @classmethod
    def grid_ball(cls, domain_size: int, radius: int) -> "PerturbationMap":
        """Ball of the given radius on the 1-D integer grid, clipped to the domain."""
        if radius < 0:
            raise InvalidParameter("radius must be >= 0")
        return cls({
            x: tuple(range(max(0, x - radius), min(domain_size, x + radius + 1)))
            for x in range(domain_size)
        })


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """A map from instance ids ``0..n-1`` to [0, 1], held as its n values.

    Two hypotheses are equal only when they are one object; the
    descriptor (class tag plus parameters) names the hypothesis.  A
    function of the id may stand in for the vector in a hand-built
    hypothesis that is only called; the library builds only vectors.
    """

    values: np.ndarray
    descriptor: tuple

    def __call__(self, z: int) -> float:
        values = self.values
        return float(values(z) if callable(values) else values[z])


def constant_hypothesis(value: float, domain_size: int) -> Hypothesis:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise InvalidParameter(f"constant must be in [0, 1], got {value}")
    return Hypothesis(np.full(domain_size, value), ("constant", value))


@dataclass(frozen=True)
class EtaBall:
    """Indicator loss of worst-case deviation >= eta."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise InvalidParameter(f"eta must be in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class Lp:
    """Worst-case |h(z) - y|^p loss."""

    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:  # NaN fails too
            raise InvalidParameter(f"p must be finite and >= 1, got {self.p}")


LossMode = EtaBall | Lp


def inflate(sample: Sample, U: PerturbationMap) -> Sample:
    """Expand a sample to all reachable perturbed points.

    Each distinct perturbed point appears once, labeled by its
    lowest-index origin.  Points follow their origin's place in the sample,
    ids ascending within one origin (the first occurrences in the flattened
    sorted rows of ``U.index``), so downstream covers and boosting replay.
    """
    rows = np.sort(U.index(sample.xs), axis=1)
    _, first = np.unique(rows.ravel(), return_index=True)  # stable: first occurrences
    first.sort()
    return Sample(rows.ravel()[first], sample.ys[first // rows.shape[1]])


def robust_deviations(values: np.ndarray, sample: Sample,
                      U: PerturbationMap) -> np.ndarray:
    """Exact worst ``|values[r, z] - y|`` over z in U(x), for every row r
    of a (rows x n) value matrix and every example (x, y): (rows, m)."""
    values = np.atleast_2d(values)
    return np.abs(values[:, U.index(sample.xs)] - sample.ys[:, None]).max(axis=2)


def empirical_error(h: Hypothesis, sample: Sample,
                    U: PerturbationMap, mode: LossMode) -> float:
    if len(sample) == 0:
        raise EmptySample("empirical error over an empty sample")
    devs = robust_deviations(h.values, sample, U)[0]
    if isinstance(mode, EtaBall):  # a count, exact in any order
        return int(np.count_nonzero(devs >= mode.eta)) / len(sample)
    # left to right in sample order: numpy's pairwise sum moves the last bit
    # of Lp errors, and the builtin sum is compensated from Python 3.12 on
    return reduce(operator.add, (dev ** mode.p for dev in devs.tolist()), 0.0) / len(sample)


@dataclass(frozen=True)
class DomainData:
    """Contents of a domain JSON document."""

    domain_size: int
    sample: Sample
    perturbations: PerturbationMap
    holdout: Sample
    class_matrix: np.ndarray | None = None


def _parse_examples(raw, domain_size, what) -> Sample:
    if not isinstance(raw, list):
        raise InvalidParameter(f"{what} must be a list of [id, label] pairs")
    xs, ys = [], []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InvalidParameter(f"{what} entries must be [id, label] pairs")
        x, y = as_number(item[0], int, what), as_number(item[1], float, what)
        if not 0 <= x < domain_size:
            raise InvalidParameter(f"{what} id {x} outside domain of size {domain_size}")
        if not 0.0 <= y <= 1.0:
            raise InvalidParameter(f"{what} label {y} outside [0, 1]")
        xs.append(x)
        ys.append(y)
    return Sample(np.array(xs, dtype=np.intp), np.array(ys, dtype=float))


def as_number(value, kind: type, key: str):
    """``kind(value)`` for a finite JSON number that ``kind`` keeps exactly (no
    2.5 for an int), else :class:`InvalidParameter` naming ``key``."""
    if type(value) in (int, float) and np.isfinite(value) and kind(value) == value:
        return kind(value)
    raise InvalidParameter(f"bad value {value!r} for {key!r}")


def read_document(source) -> dict:
    """A JSON object given as a parsed dict or a file path."""
    if isinstance(source, dict):
        return source
    try:
        with open(source) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidParameter(f"cannot read {source}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidParameter(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameter("the document must be a JSON object")
    return doc


def load_domain(source) -> DomainData:
    """Load a domain document from a file path or a parsed dict.

    Schema: ``{"domain_size": n, "samples": [[id, y], ...],
    "perturbations": {"id": [ids...]}}`` with optional ``"class_matrix"``
    (rows are hypotheses) and ``"holdout"`` (same shape as samples).
    """
    doc = read_document(source)
    for key in ("domain_size", "samples", "perturbations"):
        if key not in doc:
            raise InvalidParameter(f"domain document missing key '{key}'")
    n = as_number(doc["domain_size"], int, "domain_size")
    if n < 1:
        raise InvalidParameter("domain_size must be >= 1")
    sample = _parse_examples(doc["samples"], n, "samples")
    try:
        table = {int(k): [as_number(z, int, "perturbations") for z in v]
                 for k, v in doc["perturbations"].items()}
    except (AttributeError, TypeError, ValueError):
        raise InvalidParameter("perturbations must map ids to lists of ids") from None
    for x, zs in table.items():
        for z in (x, *zs):
            if not 0 <= z < n:
                raise InvalidParameter(f"perturbations id {z} outside domain of size {n}")
    U = PerturbationMap(table)
    matrix, rows = None, doc.get("class_matrix")
    if rows is not None:
        if not (isinstance(rows, list) and rows
                and all(isinstance(row, list) and len(row) == n for row in rows)):
            raise InvalidParameter("class_matrix must be 2-D with one column per instance")
        matrix = np.array([[as_number(v, float, "class_matrix") for v in row] for row in rows])
    holdout = _parse_examples(doc.get("holdout", []), n, "holdout")
    return DomainData(domain_size=n, sample=sample, perturbations=U,
                      holdout=holdout, class_matrix=matrix)
