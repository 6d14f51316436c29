"""Density-based clustering (DBSCAN) with deterministic border assignment.

Semantics: a core point has at least ``min_pts`` neighbors within ``eps``
(inclusive of itself, boundary inclusive d <= eps); clusters are maximal
density-connected sets of core points plus the border points they reach.
Exact grid DBSCAN in array form on positions in the cell order of one
``GridIndex``, which lists each unordered neighbor pair once (core counts
add both ends). Clusters are the connected components of core-core pairs:
min-label hooking with pointer jumping (Shiloach & Vishkin 1982), pruned
as grid DBSCAN skips joined cells (Gan & Tao 2015): each round keeps only
the pairs between two trees. They are numbered by their smallest core index
and mapped back to input order once. DBSCAN leaves border ownership open;
here a border point joins the smallest cluster id among its core neighbors,
as a sequential DBSCAN growing clusters from seeds in ascending index order
does. Output is a deterministic function of the input ordering; fewer points
than ``min_pts`` are all noise, with no index built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError
from .neighbors import GridIndex

__all__ = ["ClusterAssignment", "dbscan", "largest_cluster"]

NOISE = -1


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
    if n < min_pts:  # no point can have min_pts neighbors
        return ClusterAssignment(cluster_id=np.full(n, NOISE, dtype=np.int64), num_clusters=0)
    # int32 positions in cell order, half the memory (take gathers by int32
    # faster than []): each unordered pair once with p < q, and self pairs
    # p == q at both ends, so a point's count is one over its neighbors
    index = GridIndex(points, cell_size=eps)
    blocks = ((p.astype(np.int32), q.astype(np.int32)) for p, q, _ in index.unique_pairs(eps))
    p, q = map(np.concatenate, zip(*blocks))
    core = np.bincount(p, minlength=n) + np.bincount(q, minlength=n) > min_pts
    core_p, core_q = core.take(p), core.take(q)
    edge, one = core_p & core_q, core_p != core_q
    a, b = p[edge], q[edge]
    u, v, p_core = p[one], q[one], core_p[one]
    u, v = np.where(p_core, v, u), np.where(p_core, u, v)  # border point u, core point v
    del p, q, core_p, core_q, edge, one  # only the edges and border pairs go on

    # label[x] <= x points toward x's root, the smallest position of its tree.
    # Each round hooks every edge's larger end onto its smaller (at first each
    # core point onto its smallest core neighbor, then roots onto roots),
    # jumps every pointer to its root and keeps the edges between two trees.
    label = np.arange(n, dtype=np.int32)
    while a.size:
        np.minimum.at(label, b, a)
        for _ in range(n.bit_length()):  # 2 ** n.bit_length() > n > any depth
            label = label.take(label)
        a, b = label.take(a), label.take(b)
        keep = a != b
        a, b = a[keep], b[keep]
        a, b = np.minimum(a, b), np.maximum(a, b)

    # clusters ascend by their smallest core index, as a sequential DBSCAN
    # numbers them: roots rank below k by it, and ranks >= k mark noise
    first = np.full(n, n)
    np.minimum.at(first, label[core], index.order[core])
    k = int(np.count_nonzero(first < n))
    cluster = np.argsort(np.argsort(first)).take(label)
    np.minimum.at(cluster, u, cluster.take(v))  # a border point's smallest core neighbor id
    cluster[cluster >= k] = NOISE
    cluster_id = np.empty(n, dtype=np.int64)
    cluster_id[index.order] = cluster
    return ClusterAssignment(cluster_id=cluster_id, num_clusters=k)


def largest_cluster(assign: ClusterAssignment) -> int:
    """Id of the maximum-cardinality cluster; ties broken by smallest id."""
    if assign.num_clusters == 0:
        raise ContractError("no cluster: all points are noise")
    return int(np.argmax(assign.sizes()))
