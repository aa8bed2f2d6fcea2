"""Combinatorial complexity measures and sup-norm covers.

Fat-shattering is decided exactly for explicit finite classes.  For a
candidate point set, the continuous witness is eliminated: fixing a
per-point cutoff v, a hypothesis can realize the +1 side iff its value
is >= v and the -1 side iff its value is <= v - 2*gamma, so a set is
shattered iff some choice of cutoffs splits the class into nonempty
halves along every point simultaneously.  For each set size s, a search
picks points in increasing index order, one cutoff each, on row groups
packed in uint64 words: level k pairs each surviving configuration (the
groups its cutoffs leave) with each cutoff of a later point, and keeps a
pair only if every child group has 2^(s-k-1) rows or more, so a dead
prefix is pruned once.  Levels run depth-first in bounded blocks, up to
the first full-depth pair.  A class is its (rows x points) value matrix,
so its dual class is the transpose.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, InvalidParameter

_BLOCK_WORDS = 1 << 14  # the words a search temporary holds, within the default caps


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
    matrix = np.asarray(matrix, dtype=float)  # the values FiniteClass holds
    if max_points < 0 or max_hypotheses < 0:
        raise InvalidParameter(f"caps must be nonnegative, got {max_hypotheses} x {max_points}")
    n_hyp, n_pts = matrix.shape
    if n_hyp == 0:
        return 0
    if n_pts > max_points or n_hyp > max_hypotheses:
        raise CapExceeded(
            f"class is {n_hyp} x {n_pts}, caps are {max_hypotheses} x {max_points}"
        )
    if not np.isfinite(matrix).all():
        raise InvalidParameter("class entries must be finite")
    # shattering m points needs 2^m hypotheses with distinct sign patterns
    limit = min(n_pts, int(math.floor(math.log2(n_hyp))) if n_hyp > 1 else 0)
    spread = (matrix.max(axis=0) - matrix.min(axis=0)) >= 2.0 * gamma - 1e-12
    cols = matrix[:, spread].T
    limit = min(limit, cols.shape[0])
    # an item per candidate point and attained cutoff v: rows >= v (hi), <= v - 2*gamma (lo).
    # A feasible cutoff slides up to an attained value; 1e-12 keeps a 2*gamma gap shattered
    srt = np.sort(cols, axis=1)
    point, at = np.nonzero(np.diff(srt, axis=1, prepend=-np.inf) != 0)  # first occurrences
    v = srt[point, at, None]
    bits = np.zeros((2, v.size, -(-n_hyp // 64) * 64), dtype=bool)
    bits[:, :, :n_hyp] = cols[point] >= v, cols[point] <= v - 2.0 * gamma + 1e-12
    hi, lo = np.packbits(bits, axis=2, bitorder="little").view("<u8")
    full = np.packbits(np.arange(bits.shape[2]) < n_hyp, bitorder="little").view("<u8")
    nxt = np.searchsorted(point, point, side="right")  # each item's first later item
    ends = np.searchsorted(point, np.arange(cols.shape[0]), side="right").tolist()

    def extends(stops: list[int], groups: np.ndarray, starts: np.ndarray) -> bool:
        """True iff some configuration c (row groups groups[c], items from
        starts[c] on) takes one item below each stop, every split leaving
        each child group 2^(stops left - 1) rows or more."""
        need, first, stop = 1 << (len(stops) - 1), int(starts.min()), stops[0]
        n_grp, n_words = groups.shape[1:]
        keep = np.arange(first, stop) >= starts[:, None]
        for j in range(n_grp):
            for masks in (hi[first:stop], lo[first:stop]):
                count = np.bitwise_count(groups[:, j, 0, None] & masks[:, 0])
                for w in range(1, n_words):  # uint8 counts would wrap past 255 rows
                    count = np.add(count, np.bitwise_count(groups[:, j, w, None] & masks[:, w]),
                                   dtype=np.intp)
                keep &= count >= need
        cfg, item = np.nonzero(keep)
        if item.size and len(stops) == 1:
            return True
        # children per block, so that theirs and their pairs' arrays stay bounded
        chunk = max(1, _BLOCK_WORDS // max(hi.shape[0], 2 * n_grp * n_words))
        for c in range(0, item.size, chunk):
            parent, pick = groups[cfg[c:c + chunk]], item[c:c + chunk] + first
            children = np.stack([parent & hi[pick, None], parent & lo[pick, None]], axis=2)
            if extends(stops[1:], children.reshape(pick.size, -1, n_words), nxt[pick]):
                return True
        return False

    fat = 0
    # level k of size s takes a point with s - k - 1 points after it
    while fat < limit and extends(ends[-fat - 1:], full[None, None], np.zeros(1, np.intp)):
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
