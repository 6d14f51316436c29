"""Density clustering against a brute-force O(n^2) reference."""

import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarood import perlin
from lidarood.cluster import ClusterAssignment, _join, dbscan, largest_cluster
from lidarood.core import ContractError
from lidarood.perlin import draw_raise, perlin_raise
from lidarood.scenes import SceneConfig, default_budget, default_class_spec, generate_scene
from lidarood.trainer import TrainConfig


def brute_force_dbscan(points, eps, min_pts):
    """Reference with O(n^2) neighbor queries and the same deterministic
    ascending-index expansion order."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    # one row of squared distances at a time, so thousands of points fit
    neighbor_lists = [np.flatnonzero(((points - p) ** 2).sum(axis=1) <= eps * eps)
                      for p in points]
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


def scene_points(seed=5, points=1200, extent=5.0):
    cloud, _ = generate_scene(SceneConfig(seed=seed, extent=extent,
                                          class_budget=default_budget(points)))
    return cloud.points


def flagged_points(seed=5, points=20000, extent=12.0):
    """The highest 21 % of a scene, by default at extent 12 (the CLI
    default), about the share of points eval flags: ~4.2k points of a
    20k-point scene, the size of eval's DBSCAN inputs."""
    points = scene_points(seed, points, extent)
    z = points[:, 2]
    return points[z > np.quantile(z, 0.79)]


def rounding_ties(lo, hi):
    """Three pairs, along x, y and z, 10 apart: hi - lo is a hair above 0.5
    but rounds to exactly 0.5, so each pair are neighbors at eps 0.5, yet
    floor(x / 0.25) puts them 3 cells of exactly eps / 2 apart."""
    points = np.zeros((6, 3))
    for axis in range(3):
        points[2 * axis:2 * axis + 2, axis] = lo, hi
        points[2 * axis:2 * axis + 2, (axis + 1) % 3] = 10.0 * (axis + 1)
    return points


def lattice_points():
    """45 % of a 16 x 16 x 3 lattice of spacing 0.25: at eps 0.25 every
    neighbor lies at exactly d == eps."""
    g = np.arange(16) * 0.25
    points = np.stack(np.meshgrid(g, g, g[:3], indexing="ij"), axis=-1).reshape(-1, 3)
    return points[np.random.default_rng(3).random(len(points)) < 0.45]


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

    @pytest.mark.parametrize("shape", [(6, 2), (4,), (2, 3, 3), (3, 4)])
    def test_points_not_m_by_3(self, shape):
        """(6, 2) has 12 values, which reshape(-1, 3) would read as 4 points."""
        with pytest.raises(ContractError, match="3"):
            dbscan(np.random.default_rng(0).random(shape), eps=0.5, min_pts=2)

    def test_cell_codes_that_would_wrap_rejected(self):
        """100 points over +-5 km at eps 1e-3 span ~(2e7)**3 cells of eps / 2,
        past int64: wrapped codes would merge distant cells, whose points a
        dense cell calls core. They are refused, never clustered."""
        points = np.random.default_rng(0).uniform(-5000, 5000, size=(100, 3))
        with pytest.raises(ContractError, match="cell"):
            dbscan(points, eps=1e-3, min_pts=2)

    @pytest.mark.parametrize("eps", [1e-300, 2.2250738585072014e-308, 5e-324])
    def test_tiny_eps_named(self, eps):
        """An eps whose cells of eps / 2 the points span too many of, whose
        cell keys overflow, or whose half rounds to 0, is refused by the
        value given, with no warning."""
        with pytest.raises(ContractError, match=f"eps {eps} is too small"):
            dbscan(np.random.default_rng(0).uniform(0, 5, size=(10, 3)), eps=eps, min_pts=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points_not_finite(self, bad):
        points = np.zeros((6, 3))
        points[4, 1] = bad
        with pytest.raises(ContractError, match="finite"):
            dbscan(points, eps=0.5, min_pts=2)

    @pytest.mark.parametrize("make_points", [
        *(pytest.param(partial(random_points, seed), id=str(seed)) for seed in range(10)),
        pytest.param(scrambled_chain, id="scrambled-chain"),
        pytest.param(scene_points, id="scene"),
        pytest.param(partial(rounding_ties, 0.25 - 2**-55, 0.75), id="eps-tie-keys-0-and-3"),
        pytest.param(partial(rounding_ties, 0.5 - 2**-54, 1.0), id="eps-tie-keys-1-and-4"),
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

    @pytest.mark.parametrize("eps, min_pts", [(0.5, 5), (0.3, 5), (0.5, 1)])
    def test_flagged_subset_matches_brute_force(self, eps, min_pts):
        points = flagged_points()
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


@st.composite
def pieces(draw, eps, min_pts):
    """One piece of a cloud, on a lattice of eps / 4, so neighbors often lie
    at exactly d == eps."""
    kind = draw(st.sampled_from(["chain", "walk", "blob", "duplicates", "bridge", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = rng.integers(-16, 16, size=3) * eps / 4
    if kind == "chain":    # a straight line of ties, d == eps
        axis = np.eye(3)[rng.integers(3)]
        return origin + np.arange(rng.integers(2, 60))[:, None] * eps * axis
    if kind == "walk":     # a folded chain, whose cell order runs back and forth
        steps = np.eye(3)[rng.integers(3, size=rng.integers(2, 120))]
        steps *= rng.choice([-eps, eps], size=(len(steps), 1)) / 2
        return origin + np.cumsum(steps, axis=0)
    if kind == "blob":
        return origin + rng.integers(-4, 5, size=(rng.integers(1, 30), 3)) * eps / 4
    if kind == "duplicates":
        return np.repeat(origin[None], rng.integers(1, 8), axis=0)
    if kind == "dense":
        return dense_cells(rng, eps, min_pts)
    # two dense sides whose one-point tips sit at d == eps on either side of
    # a middle point: with min_pts >= 4 the middle point is a border point
    # of both clusters
    x = eps * np.r_[1.0, 1.0 + rng.uniform(0.1, 1.0, size=max(min_pts, 2))]
    side = x[:, None] * [1.0, 0.0, 0.0]
    return origin + np.r_[side, [[0.0, 0, 0]], -side]


def dense_cells(rng, eps, min_pts):
    """Two cells of side eps / 2 (the grid is anchored at 0) that each hold
    >= min_pts points, with duplicates, and points at d == eps from their
    extreme points. A middle point sits at d == eps from one tip of each
    cell and from nothing else: with min_pts >= 4 it is a border point of
    both. Half the time a cell's face collapses onto its corner, so the
    cell's box is one point and a tie lies exactly at its far corner."""
    origin = rng.integers(-8, 8, size=3) * eps / 2
    face = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1]]) * eps / 4
    face = face[rng.integers(3, size=max(min_pts, 4))]
    if rng.random() < 0.5:
        face[:] = 0.0
    face = np.r_[[[0.0, 0, 0]], face]               # the corner, once unless collapsed
    tip = [[eps / 4, 0.0, 0.0]]
    other = face + [9 * eps / 4, 0.0, 0.0]           # its corner at d == eps from the middle
    cells = np.r_[face, tip, other]
    axis = np.eye(3)[rng.integers(3, size=4)] * rng.choice([-eps, eps], size=(4, 1))
    ties = cells[rng.integers(len(cells), size=4)] + axis
    return origin + np.r_[cells, [[5 * eps / 4, 0.0, 0.0]], ties]


@st.composite
def structured_clouds(draw):
    eps = draw(st.sampled_from([0.25, 0.5]))
    min_pts = draw(st.integers(1, 6))
    points = np.concatenate([draw(pieces(eps, min_pts)) for _ in range(draw(st.integers(1, 5)))])
    # a random index order, so a component's smallest index is seldom its
    # smallest position in cell order
    perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(points))
    return points[perm], eps, min_pts


class TestDbscanProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(structured_clouds())
    def test_matches_brute_force(self, case):
        """Duplicates and min_pts 1, border points between two clusters,
        chains at d == eps and folded chains that take several hooking
        rounds, all in a random index order."""
        points, eps, min_pts = case
        assign = dbscan(points, eps=eps, min_pts=min_pts)
        ref_labels, ref_k = brute_force_dbscan(points, eps, min_pts)
        np.testing.assert_array_equal(assign.cluster_id, ref_labels)
        assert assign.num_clusters == ref_k


class TestPinnedPartitions:
    """sha256 of ``cluster_id.tobytes()`` as the point-pair implementations
    gave them, before DBSCAN joined cells: the input-order one with a
    hooking round over every edge (top 21 % of 20k, lattice ties, raises)
    and the cell-order one with pruned hooking (the other rows). A change of
    a partition, of its numbering or of the id dtype changes them."""

    @pytest.mark.parametrize("make_points, eps, min_pts, want", [
        pytest.param(partial(flagged_points, 1), 0.5, 5,
                     "15e5866aa1111d1d96c673e68e6e16dfae0435e83d93afb7ee448b99d0818e8d",
                     id="top-21%-of-20k"),
        pytest.param(partial(flagged_points, 1, 100000), 0.5, 5,
                     "2f0c0d76d7190d0a055c6010fc9fea93f1c2c3a83ecf1598e90494d39cdb4fcd",
                     id="top-21%-of-100k"),
        # the eval --gamma=-inf input: sparse ground cells and dense objects
        pytest.param(partial(scene_points, 1, 20000, 12.0), 0.5, 5,
                     "71e003d0aa2af3fe2fee6f718063efc0ea59dd8f9fae00807b20258ec14e621a",
                     id="whole-20k"),
        # a train_3k eval set
        pytest.param(partial(flagged_points, 1, 3400, 8.0), 0.5, 5,
                     "29be0d26a170b6253565c6dd7c244d1b1b2f6ddff2b9dede7311209e51c40332",
                     id="top-21%-of-3.4k"),
        pytest.param(lattice_points, 0.25, 3,
                     "84d0ada3f8b01ac33ebbbb0bba74424899da58283a396a74166c987613e9f5c4",
                     id="lattice-ties"),
    ])
    def test_partition_digest(self, make_points, eps, min_pts, want):
        assign = dbscan(make_points(), eps=eps, min_pts=min_pts)
        assert hashlib.sha256(assign.cluster_id.tobytes()).hexdigest() == want

    def test_raise_partitions_digest(self, monkeypatch):
        """All partitions of 20 seeded raises on a 3k scan at the default
        raise settings, as ``train`` draws them."""
        cloud, labels = generate_scene(SceneConfig(seed=8, extent=6.0,
                                                   class_budget=default_budget(3000)))
        digest = hashlib.sha256()

        def recording(points, eps, min_pts):
            assign = dbscan(points, eps, min_pts)
            digest.update(assign.cluster_id.tobytes())
            return assign

        monkeypatch.setattr(perlin, "dbscan", recording)
        cfg, rng = TrainConfig(), np.random.default_rng(0)
        for _ in range(20):
            perlin_raise(cloud, labels, default_class_spec(),
                         draw_raise(rng, cfg.raise_r_range, **cfg._raise_settings()))
        assert digest.hexdigest() == \
            "74b471a6feaaace83c816925788f4c50795f400274937ee25560e6ee0becaeb2"


class TestMemory:
    @pytest.mark.parametrize("points, min_pts, bound_mb", [
        pytest.param(20000, 5, 10.0, id="top-21%-of-20k"),    # 4.2k points, 50k pairs
        pytest.param(100000, 5, 40.0, id="top-21%-of-100k"),  # 21k points, 2.2M pairs
        # no cell of eps / 2 holds 100 points (at most 46), so every pair of
        # cells not wholly within eps is measured: 5.2M candidates
        pytest.param(100000, 100, 20.0, id="top-21%-of-100k-min-pts-100"),
    ])
    def test_peak_bounded(self, points, min_pts, bound_mb):
        flagged = flagged_points(1, points)
        tracemalloc.start()
        try:
            dbscan(flagged, eps=0.5, min_pts=min_pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20


def union_find(n, a, b):
    """Each node's smallest component member, by a plain union-find that
    roots every tree at its smallest node."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(x), find(y)
        parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


class TestJoin:
    """``_join`` against a plain union-find on random pair lists."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n, pairs", [(1, 0), (1, 3), (10, 0), (10, 4), (50, 30),
                                          (200, 150), (200, 600), (1000, 900)])
    def test_matches_union_find(self, seed, n, pairs):
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, n, size=(2, pairs))
        want = union_find(n, a.tolist(), b.tolist())
        assert _join(np.arange(n), a, b).tolist() == want
        # in two calls, the second starting from the first one's forest
        half = pairs // 2
        label = _join(np.arange(n), a[:half], b[:half])
        assert _join(label, a[half:], b[half:]).tolist() == want

    @pytest.mark.parametrize("seed", range(3))
    def test_scrambled_chain(self, seed):
        """A path over the nodes in random order: deep trees, many jumps."""
        rng = np.random.default_rng(seed)
        path = rng.permutation(500)
        a, b = path[:-1], path[1:]
        assert _join(np.arange(500), a, b).tolist() == [0] * 500
        assert _join(np.arange(500), a[::2], b[::2]).tolist() == \
            union_find(500, a[::2].tolist(), b[::2].tolist())


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
