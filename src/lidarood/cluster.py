"""Density-based clustering (DBSCAN) with deterministic border assignment.

Semantics: a core point has at least ``min_pts`` neighbors within ``eps``
(inclusive of itself, boundary inclusive d <= eps); clusters are maximal
density-connected sets of core points plus the border points they reach.
Exact grid DBSCAN in array form: one ``GridIndex`` lists all neighbor pairs,
clusters are the connected components of core-core pairs (min-label hooking
with pointer jumping), numbered in order of their smallest core index.
DBSCAN leaves border ownership implementation-defined; here a border point
joins the smallest cluster id among its core neighbors, which is what a
sequential DBSCAN growing clusters from seeds in ascending index order
produces. Output is a pure, deterministic function of the input ordering.
With fewer points than ``min_pts`` no point can be core, so every point is
noise and no index is built.
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

    def members(self, cid: int) -> np.ndarray:
        return np.flatnonzero(self.cluster_id == cid)

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
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if n < min_pts:  # no point can have min_pts neighbors
        return ClusterAssignment(cluster_id=np.full(n, NOISE, dtype=np.int64), num_clusters=0)
    i, j = map(np.concatenate, zip(*GridIndex(points, cell_size=eps).pairs(eps)))
    core = np.bincount(i, minlength=n) >= min_pts
    edge = core[i] & core[j]
    a, b = i[edge], j[edge]

    # label[x] <= x is a node of x's component: each round hooks every
    # edge's tree onto the smaller label and jumps each pointer once. At the
    # fixed point every component carries its smallest index.
    label = np.arange(n)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[a], label[b])
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked

    is_root = core & (label == np.arange(n))
    cluster_id = np.where(core, np.cumsum(is_root)[label] - 1, n)
    border = ~core[i] & core[j]
    np.minimum.at(cluster_id, i[border], cluster_id[j[border]])
    cluster_id[cluster_id == n] = NOISE
    return ClusterAssignment(cluster_id=cluster_id, num_clusters=int(is_root.sum()))


def largest_cluster(assign: ClusterAssignment) -> int:
    """Id of the maximum-cardinality cluster; ties broken by smallest id."""
    if assign.num_clusters == 0:
        raise ContractError("no cluster: all points are noise")
    return int(np.argmax(assign.sizes()))
