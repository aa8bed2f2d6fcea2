"""Combinatorial complexity measures and sup-norm covers.

Fat-shattering is decided exactly for explicit finite classes.  For a
candidate point set, the continuous witness is eliminated: fixing a
per-point cutoff v, a hypothesis can realize the +1 side iff its value
is >= v and the -1 side iff its value is <= v - 2*gamma, so a set is
shattered iff some choice of cutoffs splits the class into nonempty
halves along every point simultaneously.  For each set size, one
depth-first search picks points in increasing index order, one cutoff
each, and carries the hypothesis groups, as row bitmasks, that each
still have to realize all remaining sign patterns.  All sets with the
same first points share those groups, so a dead prefix is pruned once,
not once per set.  A class is its (rows x points) value matrix, so its
dual class is the transpose.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, InvalidParameter


def _row_mask(rows: np.ndarray) -> int:
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")


def _shattered(masks: list[list[tuple[int, int]]], left: int, start: int,
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
                if _shattered(masks, left - 1, p + 1, children):
                    return True
    return False


def fat_shattering(matrix: np.ndarray, gamma: float, *, max_points: int = 16,
                   max_hypotheses: int = 256) -> int:
    """Size of the largest point set that the rows of a (rows x points)
    matrix shatter with margin gamma.

    Exact exponential search; domains or classes beyond the caps raise
    :class:`CapExceeded` rather than silently approximating.
    """
    if not gamma > 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma}")
    if np.ndim(matrix) != 2:
        raise InvalidParameter(f"class must be a 2-D matrix, got shape {np.shape(matrix)}")
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
    while fat < limit and _shattered(masks, fat + 1, 0, [(1 << n_hyp) - 1]):
        fat += 1
    return fat


def dual_fat_upper_bound(fat_half_scale: int, gamma: float) -> float:
    """(1/gamma) * 2^(fat_half_scale + 1), the primal-to-dual bound."""
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameter(f"gamma must be in (0, 1], got {gamma}")
    if fat_half_scale < 0:
        raise InvalidParameter("fat_half_scale must be >= 0")
    return (1.0 / gamma) * 2.0 ** (fat_half_scale + 1)


def greedy_cover(points: np.ndarray, t: float) -> tuple[list[int], list[int]]:
    """Internal sup-norm cover of the rows of a (points x coordinates)
    array: repeatedly pick the uncovered point whose t-ball covers the most
    uncovered points (lowest index on ties).

    Identical rows have identical t-balls, so the pick runs on the distinct
    rows, each standing for its lowest index and weighted by how often it
    occurs; memory grows with the square of the distinct rows, not of the
    points.

    Returns (center indices, per-point assigned center index).  Every
    point lands within d_inf distance t of its assigned center.
    """
    if not t > 0:
        raise InvalidParameter(f"cover radius must be positive, got {t}")
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.shape[0] == 0 and pts.ndim <= 2:  # [] is the empty point list too
        return [], []
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise InvalidParameter(f"cover points must be 2-D with a coordinate, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidParameter("cover points must be finite")
    # one bytes key per row, far cheaper to sort than np.unique(axis=0).
    # Equal rows with other bytes (0.0 and -0.0) get two keys; their balls
    # are equal, so the cover does not change
    keys = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    reps = first[order]  # each distinct row's lowest index, in index order
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    label = rank[inverse]  # each point's distinct row
    multiplicity = np.bincount(label)
    rows = pts[reps]
    k = reps.size
    within = np.empty((k, k), dtype=bool)
    for i in range(0, k, 128):  # chunked pairwise d_inf
        block = np.abs(rows[i:i + 128, None, :] - rows[None, :, :]).max(axis=2)
        within[i:i + 128] = block <= t
    centers: list[int] = []
    assignment = np.full(k, -1, dtype=int)
    uncovered = np.ones(k, dtype=bool)
    while uncovered.any():
        gain = (within & uncovered) @ multiplicity
        gain[~uncovered] = -1  # centers come from uncovered points only
        center = int(np.argmax(gain))
        newly = uncovered & within[center]
        assignment[newly] = reps[center]
        uncovered &= ~newly
        centers.append(int(reps[center]))
    return centers, assignment[label].tolist()
