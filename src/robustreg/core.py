"""Instances, labeled samples, perturbation maps, robust losses, inflation.

Instances are integer ids into a finite domain ``{0, ..., n-1}``.  A
perturbation map sends each instance to the finite set of corruptions an
adversary may apply at test time; the instance itself is always a member
of its own set.  The robust losses take the worst case over that set,
which for finite sets is an exact maximum.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmptySample, InvalidParameter, MissingPerturbation


@dataclass(frozen=True)
class LabeledExample:
    """An instance id with a label in [0, 1]."""

    x: int
    y: float

    def __post_init__(self):
        if not 0.0 <= self.y <= 1.0:
            raise InvalidParameter(f"label must be in [0, 1], got {self.y}")


@dataclass(frozen=True)
class InflatedExample:
    """A perturbed point with the label of its lowest-index origin."""

    z: int
    y: float
    origin: int

    def __post_init__(self):
        if not 0.0 <= self.y <= 1.0:
            raise InvalidParameter(f"label must be in [0, 1], got {self.y}")


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


class _FunctionValues:
    """Index access to a function of the instance id."""

    def __init__(self, fn: Callable[[int], float]):
        self.fn = fn

    def __getitem__(self, z):
        return self.fn(z)


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """A map from instance ids ``0..n-1`` to [0, 1], held as its n values.

    The descriptor (class tag plus parameters) carries equality.  A
    function of the id may stand in for the vector in a hand-built
    hypothesis that is only called; the library builds only vectors.
    """

    values: np.ndarray
    descriptor: tuple

    def __post_init__(self):
        if callable(self.values):
            object.__setattr__(self, "values", _FunctionValues(self.values))

    def __call__(self, z: int) -> float:
        return float(self.values[z])

    def __eq__(self, other):
        return isinstance(other, Hypothesis) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)


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
        if self.p < 1.0:
            raise InvalidParameter(f"p must be >= 1, got {self.p}")


LossMode = EtaBall | Lp


def inflate(sample: Sequence[LabeledExample], U: PerturbationMap) -> list[InflatedExample]:
    """Expand a sample to all reachable perturbed points.

    Each distinct perturbed point appears once, labeled by its
    lowest-index origin.  Output is sorted by (origin, instance id), so
    downstream covers and boosting runs replay identically.
    """
    claimed: dict[int, InflatedExample] = {}
    for i, ex in enumerate(sample):
        for z in U.of(ex.x):
            if z not in claimed:
                claimed[z] = InflatedExample(z=z, y=ex.y, origin=i)
    return sorted(claimed.values(), key=lambda e: (e.origin, e.z))


def examples_arrays(examples) -> tuple[np.ndarray, np.ndarray]:
    """(ids, labels) of labeled or inflated examples, as arrays."""
    inflated = bool(examples) and isinstance(examples[0], InflatedExample)
    ids = [ex.z if inflated else ex.x for ex in examples]
    return (np.array(ids, dtype=np.intp),
            np.array([ex.y for ex in examples], dtype=float))


def robust_deviations(values: np.ndarray, sample: Sequence[LabeledExample],
                      U: PerturbationMap) -> np.ndarray:
    """Exact worst ``|values[r, z] - y|`` over z in U(x), for every row r
    of a (rows x n) value matrix and every example (x, y): (rows, m)."""
    xs, ys = examples_arrays(sample)
    values = np.atleast_2d(values)
    return np.abs(values[:, U.index(xs)] - ys[:, None]).max(axis=2)


def empirical_error(h: Hypothesis, sample: Sequence[LabeledExample],
                    U: PerturbationMap, mode: LossMode) -> float:
    if len(sample) == 0:
        raise EmptySample("empirical error over an empty sample")
    devs = robust_deviations(h.values, sample, U)[0].tolist()
    if isinstance(mode, EtaBall):
        losses = (1.0 if dev >= mode.eta else 0.0 for dev in devs)
    else:
        losses = (dev ** mode.p for dev in devs)
    # the builtin sum adds in sample order; numpy's pairwise sum would
    # change the last bit of Lp errors over eight or more points
    return sum(losses) / len(sample)


@dataclass(frozen=True)
class DomainData:
    """Contents of a domain JSON document."""

    domain_size: int
    sample: tuple[LabeledExample, ...]
    perturbations: PerturbationMap
    class_matrix: np.ndarray | None = None
    holdout: tuple[LabeledExample, ...] = ()


def _parse_examples(raw, domain_size, what):
    if not isinstance(raw, list):
        raise InvalidParameter(f"{what} must be a list of [id, label] pairs")
    out = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise InvalidParameter(f"{what} entries must be [id, label] pairs")
        x, y = as_number(item[0], int, what), as_number(item[1], float, what)
        if not 0 <= x < domain_size:
            raise InvalidParameter(f"{what} id {x} outside domain of size {domain_size}")
        out.append(LabeledExample(x=x, y=y))
    return tuple(out)


def as_number(value, kind: type, key: str):
    """``kind(value)`` for a finite JSON number that ``kind`` keeps exactly (no
    2.5 for an int), else :class:`InvalidParameter` naming ``key``."""
    if type(value) in (int, float) and np.isfinite(value) and kind(value) == value:
        return kind(value)
    raise InvalidParameter(f"bad value {value!r} for {key!r}")


def read_document(source) -> dict:
    """A JSON object given as a parsed dict, a JSON string or a file path."""
    if isinstance(source, dict):
        return source
    text = str(source)
    try:
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
        doc = json.loads(text)
    except OSError as exc:
        raise InvalidParameter(f"cannot read {source}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidParameter(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameter("the document must be a JSON object")
    return doc


def load_domain(source) -> DomainData:
    """Load a domain document from a path, JSON string, or parsed dict.

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
    matrix = None
    if doc.get("class_matrix") is not None:
        try:
            matrix = np.asarray(doc["class_matrix"], dtype=float)
        except (TypeError, ValueError):
            matrix = None
        if matrix is None or matrix.ndim != 2 or matrix.shape[1] != n:
            raise InvalidParameter("class_matrix must be 2-D with one column per instance")
    holdout = _parse_examples(doc.get("holdout", []), n, "holdout")
    return DomainData(domain_size=n, sample=sample, perturbations=U,
                      class_matrix=matrix, holdout=holdout)
