"""Independent brute-force oracles used to cross-check the library.

These deliberately take different algorithmic routes from the library
implementations: the shattering oracle enumerates flat witness products
and counts sign-code coverage, the cover oracle enumerates center
subsets by size, and the subset oracle enumerates bitmasks.
``array_fat``, ``subset_fat`` and ``prefix_fat`` are the exception: they
keep the library's three former fat-shattering searches, the first two
starting over for every point set and the third a depth-first walk on
Python-int row masks, so the current level search can be compared with
them exactly; ``scalar_greedy_cover`` keeps the former
cover, which compares every pair of points.  ``weak_learner_check`` is the library's
former weak-learner predicate, which ``scalar_pick`` applies to one pool
member at a time.  ``stacked_aggregate`` is the former ensemble
aggregation, which stacks a row for every member, repeated or not;
``full_dual`` likewise keeps a dual column for every pool entry, and
``scalar_inflate`` is the former inflation, one example at a time.
``choice_draws`` is the pool's former draw, one ``rng.choice`` call per
subset.
Float sums add left to right in an explicit loop, as the library must
on every Python version.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from robustreg.core import as_sample
from robustreg.errors import InvalidParameter


def brute_fat(matrix, gamma: float) -> int:
    """Definition-direct fat-shattering.

    For each candidate point set, every witness in the product of
    per-point candidate levels is tried; the set is shattered iff some
    witness makes the complete sign vectors of the hypotheses cover all
    patterns.  Candidate levels are the attained values minus gamma
    (any feasible witness slides up to one without losing a pattern).
    Distinct patterns need distinct hypotheses, so point sets larger
    than log2(#hypotheses) are impossible.
    """
    matrix = np.asarray(matrix, dtype=float)
    n_hyp, n_pts = matrix.shape
    if n_hyp == 0:
        return 0
    limit = min(n_pts, int(math.floor(math.log2(n_hyp))) if n_hyp > 1 else 0)
    fat = 0
    for m in range(1, limit + 1):
        if not any(
            _subset_shattered_flat(matrix[:, list(subset)], gamma)
            for subset in itertools.combinations(range(n_pts), m)
        ):
            break
        fat = m
    return fat


def _subset_shattered_flat(values: np.ndarray, gamma: float) -> bool:
    # the witness r sits at v - gamma for an attained value v, so the
    # two-sided test becomes: positive side >= v, negative side
    # <= v - 2*gamma (1e-12 guard keeps an exactly-2*gamma gap valid)
    n_hyp, m = values.shape
    slack = 2.0 * gamma - 1e-12
    cands = []
    for i in range(m):
        col = values[:, i]
        levels = [v for v in np.unique(col) if (col <= v - slack).any()]
        if not levels:
            return False
        cands.append(levels)
    n_patterns = 1 << m
    bits = 1 << np.arange(m)
    grids = np.meshgrid(*cands, indexing="ij")
    cutoffs = np.stack([g.ravel() for g in grids], axis=1)  # (N, m)
    for start in range(0, cutoffs.shape[0], 4096):
        v = cutoffs[start:start + 4096]
        pos = values[None, :, :] >= v[:, None, :]
        neg = values[None, :, :] <= v[:, None, :] - slack
        complete = (pos | neg).all(axis=2)
        codes = (pos * bits).sum(axis=2)
        n = v.shape[0]
        hits = np.zeros((n, n_patterns), dtype=bool)
        rows, cols = np.nonzero(complete)
        hits[rows, codes[rows, cols]] = True
        if hits.all(axis=1).any():
            return True
    return False


def array_fat(matrix, gamma: float) -> int:
    """The library's first fat-shattering search, on numpy index arrays.

    Same candidate filter, log2 limit and depth-first recursion as
    ``dimensions.fat_shattering``, but each hypothesis group is an index
    array split with boolean masks, and the cutoffs of a point are the
    values attained inside the current groups.  No caps.
    """
    matrix = np.asarray(matrix, dtype=float)
    n_hyp, n_pts = matrix.shape
    if n_hyp == 0:
        return 0
    limit = min(n_pts, int(math.floor(math.log2(n_hyp))) if n_hyp > 1 else 0)
    spread = (matrix.max(axis=0) - matrix.min(axis=0)) >= 2.0 * gamma - 1e-12
    candidates = np.flatnonzero(spread)
    limit = min(limit, candidates.size)
    fat = 0
    for m in range(1, limit + 1):
        found = any(
            _array_subset_shattered(matrix[:, list(subset)], gamma)
            for subset in itertools.combinations(candidates, m)
        )
        if not found:
            break
        fat = m
    return fat


def _array_subset_shattered(values: np.ndarray, gamma: float) -> bool:
    """values: (n_hypotheses, m) restriction of the class to a point set."""
    m = values.shape[1]

    def rec(depth: int, groups: list[np.ndarray]) -> bool:
        if depth == m:
            return True
        need = 1 << (m - depth - 1)  # rows per child group
        col = values[:, depth]
        pool = np.unique(np.concatenate([col[g] for g in groups]))
        # a feasible cutoff can always be slid up to an attained value;
        # the 1e-12 guard keeps an exactly-2*gamma gap shatterable
        for v in pool:
            children = []
            for g in groups:
                gv = col[g]
                hi = g[gv >= v]
                lo = g[gv <= v - 2.0 * gamma + 1e-12]
                if hi.size < need or lo.size < need:
                    break
                children.append(hi)
                children.append(lo)
            else:
                if rec(depth + 1, children):
                    return True
        return False

    return rec(0, [np.arange(values.shape[0])])


def subset_fat(matrix, gamma: float) -> int:
    """The library's former fat-shattering search, one point set at a time.

    Same cutoff masks, candidate filter and log2 limit as
    ``dimensions.fat_shattering``, but each of the C(n, m) point sets of
    size m gets a depth-first search of its own over its points' cutoffs,
    splitting groups of rows kept as Python-int bitmasks.  No caps.
    """
    matrix = np.asarray(matrix, dtype=float)
    n_hyp, n_pts = matrix.shape
    if n_hyp == 0:
        return 0
    limit = min(n_pts, int(math.floor(math.log2(n_hyp))) if n_hyp > 1 else 0)
    spread = (matrix.max(axis=0) - matrix.min(axis=0)) >= 2.0 * gamma - 1e-12
    candidates = np.flatnonzero(spread)
    limit = min(limit, candidates.size)
    masks = [[(_row_mask(col >= v), lo) for v in np.unique(col)
              if (lo := _row_mask(col <= v - 2.0 * gamma + 1e-12))]
             for col in matrix[:, candidates].T]
    fat = 0
    for m in range(1, limit + 1):
        found = any(
            _mask_subset_shattered(subset, n_hyp)
            for subset in itertools.combinations(masks, m)
        )
        if not found:
            break
        fat = m
    return fat


def _row_mask(rows: np.ndarray) -> int:
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")


def _mask_subset_shattered(masks, n_hyp: int) -> bool:
    """masks: the (hi, lo) cutoff masks of each point of the set, in order."""
    m = len(masks)

    def rec(depth: int, groups: list[int]) -> bool:
        if depth == m:
            return True
        need = 1 << (m - depth - 1)  # rows per child group
        for hi, lo in masks[depth]:
            children = []
            for g in groups:
                g_hi, g_lo = g & hi, g & lo
                if g_hi.bit_count() < need or g_lo.bit_count() < need:
                    break
                children += (g_hi, g_lo)
            else:
                if rec(depth + 1, children):
                    return True
        return False

    return rec(0, [(1 << n_hyp) - 1])


def prefix_fat(matrix, gamma: float) -> int:
    """The library's former fat-shattering search, depth-first on Python ints.

    Same cutoffs, candidate filter and log2 limit as
    ``dimensions.fat_shattering``: for each set size, one depth-first search
    picks points in increasing index order, one (hi, lo) cutoff mask each,
    and splits row groups kept as Python-int bitmasks.  No caps.
    """
    matrix = np.asarray(matrix, dtype=float)
    n_hyp, n_pts = matrix.shape
    if n_hyp == 0:
        return 0
    limit = min(n_pts, int(math.floor(math.log2(n_hyp))) if n_hyp > 1 else 0)
    spread = (matrix.max(axis=0) - matrix.min(axis=0)) >= 2.0 * gamma - 1e-12
    candidates = np.flatnonzero(spread)
    limit = min(limit, candidates.size)
    masks = [[(_row_mask(col >= v), lo) for v in np.unique(col)
              if (lo := _row_mask(col <= v - 2.0 * gamma + 1e-12))]
             for col in matrix[:, candidates].T]
    fat = 0
    while fat < limit and _prefix_shattered(masks, fat + 1, 0, [(1 << n_hyp) - 1]):
        fat += 1
    return fat


def _prefix_shattered(masks: list[list[tuple[int, int]]], left: int, start: int,
                      groups: list[int]) -> bool:
    """True iff left more points from index start on, each with one of its
    (hi, lo) cutoff masks, split every row group down to all sign patterns."""
    if left == 0:
        return True
    need = 1 << (left - 1)  # rows per child group
    for p in range(start, len(masks) - left + 1):  # leave left - 1 points after p
        for hi, lo in masks[p]:
            children = []
            for g in groups:
                g_hi, g_lo = g & hi, g & lo
                if g_hi.bit_count() < need or g_lo.bit_count() < need:
                    break
                children += (g_hi, g_lo)
            else:
                if _prefix_shattered(masks, left - 1, p + 1, children):
                    return True
    return False


def brute_min_cover_size(points, t: float) -> int:
    """Exact minimum internal sup-norm cover, by center-subset size."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        return 0
    if pts.ndim == 1:
        pts = pts[:, None]
    within = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2) <= t
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if within[list(combo)].any(axis=0).all():
                return size
    return n


def scalar_greedy_cover(points: np.ndarray, t: float) -> tuple[list[int], list[int]]:
    """Internal sup-norm cover of the rows of a (points x coordinates)
    array: repeatedly pick the uncovered point whose t-ball covers the most
    uncovered points (lowest index on ties).

    Returns (center indices, per-point assigned center index).  Every
    point lands within d_inf distance t of its assigned center.
    """
    if t <= 0:
        raise InvalidParameter(f"cover radius must be positive, got {t}")
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        return [], []
    within = np.empty((n, n), dtype=bool)
    for i in range(0, n, 128):  # chunked pairwise d_inf
        block = np.abs(pts[i:i + 128, None, :] - pts[None, :, :]).max(axis=2)
        within[i:i + 128] = block <= t
    centers: list[int] = []
    assignment = np.full(n, -1, dtype=int)
    uncovered = np.ones(n, dtype=bool)
    while uncovered.any():
        gain = (within & uncovered[None, :]).sum(axis=1)
        gain[~uncovered] = -1  # centers come from uncovered points only
        center = int(np.argmax(gain))
        newly = uncovered & within[center]
        assignment[newly] = center
        uncovered &= ~newly
        centers.append(center)
    return centers, assignment.tolist()


def brute_max_fit_subsets(matrix, sample, U, eta: float):
    """All maximum-size point subsets one hypothesis fits with robust
    deviation strictly below eta, by bitmask enumeration.

    Returns (max_size, list of frozensets of sample indices).
    """
    matrix = np.asarray(matrix, dtype=float)
    m = len(sample)
    fits = np.zeros((matrix.shape[0], m), dtype=bool)
    for i, ex in enumerate(sample):
        zs = list(U.of(ex.x))
        fits[:, i] = np.abs(matrix[:, zs] - ex.y).max(axis=1) < eta
    best_size, best = 0, [frozenset()]
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        if len(idx) < best_size:
            continue
        if fits[:, idx].all(axis=1).any():
            if len(idx) > best_size:
                best_size, best = len(idx), [frozenset(idx)]
            elif len(idx) == best_size:
                best.append(frozenset(idx))
    return best_size, best


def scalar_weighted_median(values, weights) -> float:
    """Lower weighted median of one list: sort stably, then take the first
    value whose cumulative normalized weight reaches 1/2."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / w.sum()
    return float(v[order][int(np.argmax(cum >= 0.5))])


def stacked_aggregate(members, alphas, median: bool) -> np.ndarray:
    """Every member's row stacked, one per member however often it
    repeats, then one column at a time: the lower weighted median by a
    stable sort of the column, or the mean of its values."""
    matrix = np.stack([np.asarray(h.values, dtype=float) for h in members])
    if median:
        return np.array([scalar_weighted_median(col, alphas) for col in matrix.T])
    return np.array([np.mean(col.tolist()) for col in matrix.T])


def scalar_robust_deviation(values, ex, U) -> float:
    """max over z in U(x) of |values[z] - y|, one perturbation at a time."""
    return max(abs(float(values[z]) - ex.y) for z in U.of(ex.x))


def scalar_rerm(matrix, subset, U, eta):
    """(lowest feasible row or None, per-row worst deviation), row by row."""
    worst = [max((scalar_robust_deviation(row, ex, U) for ex in subset), default=0.0)
             for row in np.asarray(matrix, dtype=float)]
    feasible = [r for r, w in enumerate(worst) if w <= eta]
    return (feasible[0] if feasible else None), worst


def scalar_max_fit_subset(matrix, sample, U, eta):
    """(fit indices, row) of the first row fitting the most points with
    robust deviation strictly below eta."""
    best_row, best_fit = 0, ()
    for r, row in enumerate(np.asarray(matrix, dtype=float)):
        fit = tuple(i for i, ex in enumerate(sample)
                    if scalar_robust_deviation(row, ex, U) < eta)
        if len(fit) > len(best_fit):
            best_row, best_fit = r, fit
    return best_fit, best_row


def left_to_right_sum(values) -> float:
    """0.0 plus each value in turn, one rounding per addition."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def scalar_empirical_error(values, sample, U, eta=None, p=None) -> float:
    """Mean tube loss (eta given) or mean p-th power loss, added left to
    right in sample order."""
    losses = []
    for ex in sample:
        dev = scalar_robust_deviation(values, ex, U)
        losses.append((1.0 if dev >= eta else 0.0) if eta is not None else dev ** p)
    return left_to_right_sum(losses) / len(sample)


def scalar_draw_probabilities(alphas) -> list[float]:
    """Each coefficient over the left-to-right sum of all of them."""
    total = left_to_right_sum(alphas)
    return [float(a) / total for a in alphas]


def scalar_inflate(sample, U) -> list[tuple[int, float]]:
    """(id, label) of every distinct perturbed point, labeled by its
    lowest-index origin, in origin order with ids ascending within one
    origin: one dict insertion per example and perturbation."""
    labels: dict[int, float] = {}  # insertion order is the output order
    for ex in sample:
        for z in sorted(U.of(ex.x)):
            labels.setdefault(z, ex.y)
    return list(labels.items())


def full_dual(pool, inflated) -> np.ndarray:
    """(points x pool) matrix of |h(z) - y|, a column for every pool entry
    however often its object repeats."""
    inflated = as_sample(inflated)
    return np.abs(np.stack([h.values[inflated.xs] for h in pool]) - inflated.ys).T


def weak_learner_check(h, P, points, eta: float, beta: float) -> bool:
    """True iff the P-mass of points deviating more than eta is strictly
    below 1/2 - beta.

    The inequality is strict; a 1e-12 guard makes boundary masses such
    as 1/3 against beta = 1/6 resolve as in exact arithmetic.
    """
    if not 0.0 <= beta <= 0.5:
        raise InvalidParameter(f"beta must be in [0, 1/2], got {beta}")
    if len(P) != len(points):
        raise InvalidParameter("distribution and point list lengths differ")
    points = as_sample(points)
    return P.mass(np.abs(h.values[points.xs] - points.ys) > eta) < 0.5 - beta - 1e-12


def scalar_pick(pool, P, cover, violates, accept):
    """(index, mass) of the pool member with the least P-mass of cover
    points where ``violates(value, label)``, found one member at a time
    with ties to the lowest index; the index is None when
    ``accept(member, mass)`` rejects that member."""
    best, best_mass = None, None
    for i, h in enumerate(pool):
        mass = P.mass(np.array([violates(float(h.values[pt.x]), pt.y) for pt in cover]))
        if best is None or mass < best_mass:
            best, best_mass = i, mass
    return (best if accept(pool[best], best_mass) else None), best_mass


def choice_draws(rng, m: int, d: int, n: int) -> list[tuple[int, ...]]:
    """``n`` subsets as the pool drew them before one generator call
    replaced the loop: one ``rng.choice`` call each, sorted."""
    return [tuple(np.sort(rng.choice(m, size=d, replace=False)).tolist())
            for _ in range(n)]
