"""Combinatorial complexity measures and sup-norm covers.

Fat-shattering is decided exactly for explicit finite classes.  For a
candidate point set, the continuous witness is eliminated: fixing a
per-point cutoff v, a hypothesis can realize the +1 side iff its value
is >= v and the -1 side iff its value is <= v - 2*gamma, so a set is
shattered iff some choice of cutoffs splits the class into nonempty
halves along every point simultaneously.  The search walks the points
depth-first, carrying the hypothesis groups, as row bitmasks, that each
still have to realize all remaining sign patterns.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from .errors import CapExceeded, InvalidParameter
from .oracles import FiniteClass


def _as_matrix(cls) -> np.ndarray:
    if isinstance(cls, FiniteClass):
        return cls.matrix
    m = np.asarray(cls, dtype=float)
    if m.ndim != 2:
        raise InvalidParameter("class must be a 2-D matrix")
    return m


def _row_mask(rows: np.ndarray) -> int:
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")


def _subset_shattered(masks: Sequence[list[tuple[int, int]]], n_hyp: int) -> bool:
    """masks: the cutoff masks of each point of the set, in order."""
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


def fat_shattering(cls, gamma: float, *, max_points: int = 16,
                   max_hypotheses: int = 256) -> int:
    """Size of the largest point set shattered with margin gamma.

    Exact exponential search; domains or classes beyond the caps raise
    :class:`CapExceeded` rather than silently approximating.
    """
    if gamma <= 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma}")
    matrix = _as_matrix(cls)
    n_hyp, n_pts = matrix.shape
    if n_hyp == 0:
        return 0
    if n_pts > max_points or n_hyp > max_hypotheses:
        raise CapExceeded(
            f"class is {n_hyp} x {n_pts}, caps are {max_hypotheses} x {max_points}"
        )
    # shattering m points needs 2^m hypotheses with distinct sign patterns
    limit = min(n_pts, int(math.floor(math.log2(n_hyp))) if n_hyp > 1 else 0)
    spread = (matrix.max(axis=0) - matrix.min(axis=0)) >= 2.0 * gamma - 1e-12
    candidates = np.flatnonzero(spread)
    limit = min(limit, candidates.size)
    # per point, (hi, lo) row masks of each attained cutoff v: value >= v and
    # <= v - 2*gamma.  A feasible cutoff slides up to an attained value, one with
    # no lo row splits nothing; the 1e-12 guard keeps a 2*gamma gap shatterable
    masks = [[(_row_mask(col >= v), lo) for v in np.unique(col)
              if (lo := _row_mask(col <= v - 2.0 * gamma + 1e-12))]
             for col in matrix[:, candidates].T]
    fat = 0
    for m in range(1, limit + 1):
        found = any(
            _subset_shattered(subset, n_hyp)
            for subset in itertools.combinations(masks, m)
        )
        if not found:
            break
        fat = m
    return fat


def dual_class(cls) -> FiniteClass:
    """Transpose view: every instance becomes a function over the class."""
    matrix = _as_matrix(cls)
    return FiniteClass(matrix.T.copy())


def dual_fat_shattering(cls, gamma: float, *, max_points: int = 16,
                        max_hypotheses: int = 256) -> int:
    return fat_shattering(dual_class(cls), gamma,
                          max_points=max_points, max_hypotheses=max_hypotheses)


def dual_fat_upper_bound(fat_half_scale: int, gamma: float) -> float:
    """(1/gamma) * 2^(fat_half_scale + 1), the primal-to-dual bound."""
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameter(f"gamma must be in (0, 1], got {gamma}")
    if fat_half_scale < 0:
        raise InvalidParameter("fat_half_scale must be >= 0")
    return (1.0 / gamma) * 2.0 ** (fat_half_scale + 1)


def greedy_cover(points: Sequence, t: float) -> tuple[list[int], list[int]]:
    """Internal sup-norm cover: repeatedly pick the uncovered point whose
    t-ball covers the most uncovered points (lowest index on ties).

    Returns (center indices, per-point assigned center index).  Every
    point lands within d_inf distance t of its assigned center.
    """
    if t <= 0:
        raise InvalidParameter(f"cover radius must be positive, got {t}")
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        return [], []
    if pts.ndim == 1:
        pts = pts[:, None]
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
