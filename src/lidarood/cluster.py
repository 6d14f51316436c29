"""Density-based clustering (DBSCAN) with deterministic border assignment.

Semantics: a core point has at least ``min_pts`` neighbors within ``eps``
(inclusive of itself, boundary inclusive d <= eps); clusters are maximal
density-connected sets of core points plus the border points they reach.

Exact grid DBSCAN (Gunawan 2013; Gan & Tao, "DBSCAN revisited", SIGMOD
2015) in array form, on the cells of one ``GridIndex`` a hair wider than
eps / 2. A cell's diagonal is 0.87 eps, so its points are mutual
neighbors, and every neighbor of a point lies in the 5 x 5 x 5 cells around
its own. Cells, not points, are counted and joined:

1. a point counts its own cell's points, and those of its face, edge and
   corner cells whose point boxes lie wholly within eps of its cell's box,
   with no distance measured (the farthest corners bound every measured
   d2, as rounding is monotone). A cell whose points reach ``min_pts`` so
   is full: all core;
2. the points of the other cells count the rest pair by pair, in blocks
   of bounded size, each pair measured once and counted at both ends, over
   only the cell pairs with a cell neither full nor hopeless (one whose
   5 x 5 x 5 block holds fewer than ``min_pts`` points);
3. a cell's core points form one component. Cells join over pairs of core
   points within eps: first the face, edge and corner pairs wholly within
   eps, with nothing measured, then in rounds of offsets nearest first
   (face, edge, corner, then the shell at 2), each measuring only the core
   points of the cell pairs whose trees still differ, by min-label hooking
   with pointer jumping (Shiloach & Vishkin 1982), each round jumping
   until every cell points at its root;
4. clusters are numbered by their smallest core index. DBSCAN leaves border
   ownership open; here a border point joins the smallest cluster id among
   its core neighbors, as a sequential DBSCAN growing clusters from seeds
   in ascending index order does: those of its own cell per cell, the
   others measured, non-core against core points only.

Output is a deterministic function of the input ordering; fewer points than
``min_pts`` are all noise, with no index built, and so is a cloud in which
no 5 x 5 x 5 block of cells holds ``min_pts`` points, with nothing measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError
from .neighbors import GridIndex

__all__ = ["ClusterAssignment", "dbscan", "largest_cluster"]

NOISE = -1

# cells are this much wider than eps / 2: a pair 3 cells apart on an axis is
# then farther than eps by more than the rounding of its keys and of its
# distance, so its computed d2 never rounds down to eps * eps
_WIDEN = 1 + 2.0**-20


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    cluster_id: np.ndarray  # (M,) int64, -1 for noise
    num_clusters: int

    def sizes(self) -> np.ndarray:
        """Cardinality of each cluster id 0..num_clusters-1."""
        valid = self.cluster_id[self.cluster_id >= 0]
        return np.bincount(valid, minlength=self.num_clusters)


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> ClusterAssignment:
    """Cluster an (M, 3) point array; returns -1 ids for noise points."""
    if not 0.0 < eps < np.inf:
        raise ContractError(f"eps must be finite and positive, got {eps}")
    if min_pts < 1:
        raise ContractError("min_pts must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or not np.isfinite(points).all():
        raise ContractError(f"points must be a finite (M, 3) array, got shape {points.shape}")
    n = len(points)
    noise = ClusterAssignment(cluster_id=np.full(n, NOISE, dtype=np.int64), num_clusters=0)
    if n < min_pts:  # no point can have min_pts neighbors
        return noise
    try:
        index = GridIndex(points, cell_size=eps / 2 * _WIDEN)
    except (ContractError, ValueError):  # too many cells, or eps / 2 rounds to 0
        raise ContractError(f"eps {eps} is too small for these points: they span too many "
                            "cells of eps / 2 for exact int64 cell codes") from None
    size = index.cell_bound[1:] - index.cell_bound[:-1]
    c, d, dist2 = index.cell_pairs()
    # a cell whose 5 x 5 x 5 block holds fewer than min_pts points has no
    # core point
    hopeful = size + _around(size, c, d) >= min_pts
    if not hopeful.any():
        return noise
    cells = len(size)
    cell = np.arange(cells).repeat(size)  # positions in cell order
    r2 = eps * eps

    # (1), (2): a point's neighbors in its own cell and in the cells wholly
    # within eps of it are counted per cell; a cell of min_pts with those is
    # full, all core. The rest are measured block by block, only over the
    # cell pairs with a hopeful cell not full, and counted at both ends.
    whole = np.zeros(len(c), dtype=bool)
    touch = (dist2 <= 3).nonzero()[0]  # face, edge and corner pairs
    whole[touch] = index.box_d2(c.take(touch), d.take(touch)) <= r2
    wc, wd = c[whole], d[whole]
    known = size + _around(size, wc, wd)
    count = known.take(cell)
    full = known >= min_pts
    counted = hopeful & ~full
    measure = ~whole & (counted.take(c) | counted.take(d))
    for p, q, _ in index.cell_pair_hits(c[measure], d[measure], eps):
        np.add.at(count, p, 1)
        np.add.at(count, q, 1)
    core = count >= min_pts
    if not core.any():
        return noise

    # (3): the whole pairs of core cells at once, then the near pairs of
    # core cells whose trees differ, by rings
    core_at = core.nonzero()[0]
    has_core = np.logical_or.reduceat(core, index.cell_bound[:-1])
    free = has_core.take(wc) & has_core.take(wd)
    label = _join(np.arange(cells), wc[free], wd[free])
    rest = has_core.take(c) & has_core.take(d) & (label.take(c) != label.take(d))
    a, b, ring = c[rest], d[rest], np.minimum(dist2[rest], 4)
    for r in range(1, 5):  # face, edge, corner, shell
        ra, rb = a[ring == r], b[ring == r]
        keep = label.take(ra) != label.take(rb)
        ra, rb = ra[keep], rb[keep]
        joins = np.zeros(len(ra), dtype=bool)
        for _, _, k in index.cell_pair_hits(ra, rb, eps, core_at, core_at):
            joins[k] = True
        label = _join(label, ra[joins], rb[joins])

    # (4): roots rank below k by their smallest core index, and ranks >= k
    # (the cells without core points) mark noise. A core point takes its
    # cell's cluster; a point that is not, the smallest of its own cell's
    # and its measured core neighbors' clusters.
    first = np.full(cells, n)
    np.minimum.at(first, label[cell[core_at]], index.order[core_at])
    k = int(np.count_nonzero(first < n))
    cluster = first.argsort().argsort().take(label).take(cell)
    open_at = (~core).nonzero()[0]
    has_open = ~np.logical_and.reduceat(core, index.cell_bound[:-1])
    to_d = has_open.take(c) & has_core.take(d)
    to_c = has_core.take(c) & has_open.take(d)
    for p, q, _ in index.cell_pair_hits(np.concatenate((c[to_d], d[to_c])),
                                        np.concatenate((d[to_d], c[to_c])), eps,
                                        open_at, core_at):
        np.minimum.at(cluster, p, cluster.take(q))
    cluster[cluster >= k] = NOISE
    cluster_id = np.empty(n, dtype=np.int64)
    cluster_id[index.order] = cluster
    return ClusterAssignment(cluster_id=cluster_id, num_clusters=k)


def _around(size, c, d):
    """Points in each cell's partner cells over the cell pairs (c, d)."""
    cells = len(size)
    around = np.bincount(c, size.take(d), cells) + np.bincount(d, size.take(c), cells)
    return around.astype(np.int64)  # whole numbers far below 2**53


def _join(label, a, b):
    """``label`` with the trees of a[k] and b[k] joined for each k.

    label[c] <= c points toward c's root, the smallest node of its tree.
    Each round hooks each pair's larger root onto its smaller and jumps
    every pointer up until each points at its root (a root points at
    itself), until no pair joins two trees.
    """
    a, b = label.take(a), label.take(b)
    while a.size:
        a, b = np.minimum(a, b), np.maximum(a, b)
        np.minimum.at(label, b, a)
        jumped = label.take(label)
        while (jumped != label).any():
            label, jumped = jumped, jumped.take(jumped)
        a, b = label.take(a), label.take(b)
        keep = a != b
        a, b = a[keep], b[keep]
    return label


def largest_cluster(assign: ClusterAssignment) -> int:
    """Id of the maximum-cardinality cluster; ties broken by smallest id."""
    if assign.num_clusters == 0:
        raise ContractError("no cluster: all points are noise")
    return int(np.argmax(assign.sizes()))
