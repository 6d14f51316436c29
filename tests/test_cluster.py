"""Density clustering against a brute-force O(n^2) reference."""

from functools import partial

import numpy as np
import pytest

from lidarood.cluster import ClusterAssignment, dbscan, largest_cluster
from lidarood.core import ContractError
from lidarood.scenes import SceneConfig, default_budget, generate_scene


def brute_force_dbscan(points, eps, min_pts):
    """Reference with O(n^2) neighbor queries and the same deterministic
    ascending-index expansion order."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    neighbor_lists = [np.flatnonzero(d2[i] <= eps * eps) for i in range(n)]
    labels = np.full(n, -2, dtype=np.int64)
    next_id = 0
    for i in range(n):
        if labels[i] != -2:
            continue
        if neighbor_lists[i].size < min_pts:
            labels[i] = -1
            continue
        labels[i] = next_id
        queue = list(neighbor_lists[i])
        head = 0
        while head < len(queue):
            j = queue[head]
            head += 1
            if labels[j] == -1:
                labels[j] = next_id
            if labels[j] != -2:
                continue
            labels[j] = next_id
            if neighbor_lists[j].size >= min_pts:
                queue.extend(neighbor_lists[j])
        next_id += 1
    return labels, next_id


def random_points(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    return rng.uniform(-2, 2, size=(n, 3))


def scrambled_chain():
    """A 400-point line, 0.15 apart, in shuffled index order: labels must
    travel far along the chain, so component search takes many rounds."""
    rng = np.random.default_rng(11)
    x = rng.permutation(400) * 0.15
    return np.c_[x, np.zeros_like(x), rng.uniform(0, 0.01, size=x.size)]


def scene_points():
    cloud, _ = generate_scene(SceneConfig(seed=5, extent=5.0,
                                          class_budget=default_budget(1200)))
    return cloud.points


class TestDbscan:
    def test_two_blobs(self):
        rng = np.random.default_rng(0)
        eps = 0.4
        blob1 = rng.normal(0, 0.05, size=(20, 3))
        blob2 = rng.normal(0, 0.05, size=(20, 3)) + [10 * eps, 0, 0]
        assign = dbscan(np.vstack([blob1, blob2]), eps=eps, min_pts=3)
        assert assign.num_clusters == 2
        assert (assign.cluster_id == -1).sum() == 0
        assert set(assign.cluster_id[:20]) == {0}
        assert set(assign.cluster_id[20:]) == {1}

    def test_isolated_point_is_noise(self):
        assign = dbscan(np.array([[0.0, 0, 0]]), eps=1.0, min_pts=2)
        assert assign.num_clusters == 0
        assert assign.cluster_id[0] == -1

    def test_empty_input(self):
        assign = dbscan(np.empty((0, 3)), eps=1.0, min_pts=2)
        assert assign.num_clusters == 0

    def test_boundary_inclusive(self):
        # two points exactly eps apart count as each other's neighbors
        assign = dbscan(np.array([[0.0, 0, 0], [1.0, 0, 0]]), eps=1.0, min_pts=2)
        assert assign.num_clusters == 1

    def test_invalid_args(self):
        with pytest.raises(ContractError):
            dbscan(np.zeros((3, 3)), eps=0.0, min_pts=2)
        with pytest.raises(ContractError):
            dbscan(np.zeros((3, 3)), eps=1.0, min_pts=0)

    @pytest.mark.parametrize("eps", [-0.5, np.nan, np.inf])
    def test_eps_not_finite_positive(self, eps):
        with pytest.raises(ContractError):
            dbscan(np.zeros((3, 3)), eps=eps, min_pts=2)

    @pytest.mark.parametrize("make_points", [
        *(pytest.param(partial(random_points, seed), id=str(seed)) for seed in range(10)),
        pytest.param(scrambled_chain, id="scrambled-chain"),
        pytest.param(scene_points, id="scene"),
    ])
    def test_matches_brute_force(self, make_points):
        """Exact partition equality (same ids) with the reference across an
        eps/min_pts grid."""
        points = make_points()
        for eps in (0.2, 0.5, 1.0):
            for min_pts in (2, 4, 8):
                assign = dbscan(points, eps=eps, min_pts=min_pts)
                ref_labels, ref_k = brute_force_dbscan(points, eps, min_pts)
                np.testing.assert_array_equal(assign.cluster_id, ref_labels)
                assert assign.num_clusters == ref_k

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 6])
    def test_few_points_vs_min_pts(self, n):
        """n < min_pts is all noise; n == min_pts points within eps of each
        other still make one cluster."""
        points = np.random.default_rng(n).uniform(0.0, 0.1, size=(n, 3))
        assign = dbscan(points, eps=0.3, min_pts=5)
        ref_labels, ref_k = brute_force_dbscan(points, 0.3, 5)
        np.testing.assert_array_equal(assign.cluster_id, ref_labels)
        assert assign.cluster_id.dtype == np.int64
        assert assign.num_clusters == ref_k == (n >= 5)

    def test_noise_points_are_never_core(self):
        rng = np.random.default_rng(42)
        points = rng.uniform(-2, 2, size=(150, 3))
        eps, min_pts = 0.4, 4
        assign = dbscan(points, eps=eps, min_pts=min_pts)
        d2 = ((points[:, None] - points[None]) ** 2).sum(axis=2)
        for i in np.flatnonzero(assign.cluster_id == -1):
            assert (d2[i] <= eps * eps).sum() < min_pts

    def test_determinism(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(-1, 1, size=(120, 3))
        a = dbscan(points, eps=0.3, min_pts=3)
        b = dbscan(points, eps=0.3, min_pts=3)
        np.testing.assert_array_equal(a.cluster_id, b.cluster_id)


class TestLargestCluster:
    def test_tie_breaks_to_smallest_id(self):
        cluster_id = np.array([0] * 5 + [1] * 9 + [2] * 9)
        assign = ClusterAssignment(cluster_id=cluster_id, num_clusters=3)
        assert largest_cluster(assign) == 1

    def test_single_cluster(self):
        assign = ClusterAssignment(cluster_id=np.array([0, 0, -1]), num_clusters=1)
        assert largest_cluster(assign) == 0

    def test_all_noise_errors(self):
        assign = ClusterAssignment(cluster_id=np.array([-1, -1]), num_clusters=0)
        with pytest.raises(ContractError):
            largest_cluster(assign)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_vs_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        cluster_id = rng.integers(-1, k, size=100)
        if not (cluster_id >= 0).any():
            cluster_id[0] = 0
        present = np.unique(cluster_id[cluster_id >= 0])
        remap = {int(c): i for i, c in enumerate(present)}
        cluster_id = np.array([remap.get(int(c), -1) for c in cluster_id])
        assign = ClusterAssignment(cluster_id=cluster_id, num_clusters=len(present))
        counts = {c: (cluster_id == c).sum() for c in range(len(present))}
        best = max(counts, key=lambda c: (counts[c], -c))
        assert largest_cluster(assign) == best
