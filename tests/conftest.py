import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from robustreg import (
    FiniteClass,
    Hypothesis,
    PerturbationMap,
    PointDistribution,
    Sample,
    reconstruct,
)

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def make_class(rows) -> FiniteClass:
    return FiniteClass(np.asarray(rows, dtype=float))


def labeled(pairs) -> Sample:
    """The sample of the (id, label) pairs, in their order."""
    pairs = list(pairs)
    return Sample(np.array([x for x, _ in pairs]), np.array([y for _, y in pairs], dtype=float))


def shifted_reconstruct(*args):
    """``reconstruct`` with every value moved, a replay that cannot match."""
    h = reconstruct(*args)
    return Hypothesis(h.values + 1.0, h.descriptor)


@pytest.fixture
def identity_u():
    def build(n):
        return PerturbationMap.identity(n)
    return build


LEVELS = [0.0, 0.25, 0.3, 0.35, 0.5, 1.0]


@st.composite
def pool_cases(draw):
    """(pool rows, cover labels, weight multipliers or None) on a few value
    levels, so that members tie, deviations sit on the eta/4 and eta/2
    boundaries of eta = 0.2 and uniform masses such as 1/3 occur."""
    n = draw(st.integers(1, 12))
    row = st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n)
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    ys = draw(row)
    mults = draw(st.one_of(
        st.none(), st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    return rows, ys, mults


def pool_setup(rows, ys, mults=None):
    """Pool members (one per row), a cover with the labels ``ys`` and the
    distribution proportional to ``mults`` (uniform by default)."""
    pool = [Hypothesis(np.asarray(r, dtype=float), ("row", i)) for i, r in enumerate(rows)]
    cover = labeled(enumerate(ys))
    w = np.ones(len(ys)) if mults is None else np.asarray(mults, dtype=float)
    return pool, cover, PointDistribution(w / w.sum())


def violations(pool, cover, test):
    """(pool x cover) mask of ``test(|h(z) - y|)``, as the boosters build it."""
    return test(np.abs(np.stack([h.values[cover.xs] for h in pool]) - cover.ys))
