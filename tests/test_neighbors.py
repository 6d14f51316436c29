"""Sorted-cell spatial index vs brute-force distance checks."""

from functools import partial

import numpy as np
import pytest

from lidarood import neighbors
from lidarood.core import ContractError
from lidarood.neighbors import GridIndex
from lidarood.scenes import SceneConfig, default_budget, generate_scene

OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]


def random_cloud(seed):
    return np.random.default_rng(seed).uniform(-2, 2, size=(300, 3))


def scene_cloud(seed=3):
    """Ground plane plus buildings, vegetation and poles: dense cells."""
    cloud, _ = generate_scene(SceneConfig(seed=seed, extent=4.0,
                                          class_budget=default_budget(1500)))
    return cloud.points.astype(np.float64)


def dense_cloud():
    """800 points in 8 cells: ~10^5 candidate pairs per column of cells, so
    the pair enumerator splits them over several blocks."""
    return np.random.default_rng(7).uniform(0, 0.6, size=(800, 3))


CLOUDS = [
    *(pytest.param(partial(random_cloud, seed), id=f"random-{seed}") for seed in range(3)),
    pytest.param(scene_cloud, id="scene"),
    pytest.param(dense_cloud, id="dense"),
]


def brute_force_pairs(points, radius):
    d2 = ((points[:, None] - points[None]) ** 2).sum(axis=2)
    i, j = np.nonzero(d2 <= radius * radius)
    return i, j


def reference_ball_stats(points, radius):
    """ball_stats with its summation order spelled out: for each point, the
    27 cell offsets in lexicographic order, each neighbor cell's points in
    ascending index, one float add at a time."""
    keys = np.floor(points / radius).astype(np.int64)
    cells = {}                                  # cell key -> ascending indices
    for k, key in enumerate(map(tuple, keys)):
        cells.setdefault(key, []).append(k)
    x, y, z = points.T.tolist()
    counts = np.zeros(len(points), dtype=np.int64)
    s1 = np.zeros(len(points))
    s2 = np.zeros(len(points))
    for i in range(len(points)):
        count, a, b = 0, 0.0, 0.0
        for off in OFFSETS:
            for j in cells.get(tuple(keys[i] + off), ()):
                dx, dy, dz = x[i] - x[j], y[i] - y[j], z[i] - z[j]
                if dx * dx + dy * dy + dz * dz <= radius * radius:
                    count += 1
                    a += z[j]
                    b += z[j] * z[j]
        counts[i], s1[i], s2[i] = count, a, b
    mean = s1 / counts
    return counts, np.maximum(s2 / counts - mean * mean, 0.0)


class TestQueryBall:
    @pytest.mark.parametrize("seed, center_span, max_radius", [
        *(pytest.param(seed, 4.0, 2.5, id=str(seed)) for seed in range(5)),
        # centres mostly outside the indexed box, radii up to 12 cells: the
        # scanned cells are clipped to the occupied box
        pytest.param(5, 16.0, 10.0, id="far-centres-wide-radii"),
    ])
    def test_matches_brute_force(self, seed, center_span, max_radius):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-4, 4, size=(300, 3))
        index = GridIndex(points, cell_size=0.8)
        for _ in range(20):
            center = rng.uniform(-center_span, center_span, size=3)
            radius = float(rng.uniform(0.1, max_radius))
            got = index.query_ball(center, radius)
            d = np.linalg.norm(points - center, axis=1)
            want = np.flatnonzero(d <= radius)
            np.testing.assert_array_equal(got, want)

    def test_boundary_inclusive(self):
        points = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0 + 1e-9, 0, 0]])
        index = GridIndex(points, cell_size=0.5)
        got = index.query_ball(np.zeros(3), 1.0)
        np.testing.assert_array_equal(got, [0, 1])

    def test_results_sorted_ascending(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(-1, 1, size=(100, 3))
        index = GridIndex(points, cell_size=0.4)
        got = index.query_ball(np.zeros(3), 0.9)
        assert np.all(np.diff(got) > 0)

    def test_empty_index(self):
        index = GridIndex(np.empty((0, 3)), cell_size=1.0)
        assert index.query_ball(np.zeros(3), 5.0).size == 0

    def test_bad_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((1, 3)), cell_size=0.0)

    @pytest.mark.parametrize("cell_size", [-1.0, np.nan, np.inf])
    def test_non_finite_or_negative_cell_size(self, cell_size):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((1, 3)), cell_size=cell_size)


class TestPairs:
    """The ordered pairs ``ball_stats`` adds, in the order it adds them."""

    @staticmethod
    def chunks(points, radius, cell_size):
        index = GridIndex(points, cell_size=cell_size)
        return [(index.order[t], index.order[s]) for t, s in index._ordered_pairs(radius)]

    @pytest.mark.parametrize("make_points", CLOUDS)
    @pytest.mark.parametrize("radius", [0.3, 0.5])
    def test_union_matches_brute_force_once_each(self, make_points, radius):
        points = make_points()
        i, j = map(np.concatenate, zip(*self.chunks(points, radius, cell_size=0.5)))
        got = i * len(points) + j
        want_i, want_j = brute_force_pairs(points, radius)
        assert len(np.unique(got)) == len(got)          # no pair twice
        np.testing.assert_array_equal(np.sort(got), want_i * len(points) + want_j)

    @pytest.mark.parametrize("make_points", CLOUDS)
    def test_order_per_point_is_cell_offset_then_j(self, make_points):
        """Over the chunks in order, each point's pairs come by neighbor
        cell in lexicographic offset order, then by ascending j."""
        points = make_points()
        i, j = map(np.concatenate, zip(*self.chunks(points, 0.5, cell_size=0.5)))
        by_i = np.argsort(i, kind="stable")
        i, j = i[by_i], j[by_i]
        cell = np.floor(points[j] / 0.5).astype(np.int64)   # offset = cell - cell of i
        want = np.lexsort((j, cell[:, 2], cell[:, 1], cell[:, 0], i))
        np.testing.assert_array_equal(want, np.arange(len(i)))

    def test_dense_cloud_spans_several_chunks(self):
        chunks = self.chunks(dense_cloud(), 0.5, cell_size=0.5)
        assert len(chunks) > 9

    def test_boundary_inclusive_across_cells(self):
        points = np.array([[0.25, 0, 0], [0.75, 0, 0], [-0.25 - 1e-9, 0, 0]])
        i, j = map(np.concatenate, zip(*self.chunks(points, 0.5, cell_size=0.5)))
        got = sorted(zip(i.tolist(), j.tolist()))
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]

    def test_empty_cloud(self):
        chunks = self.chunks(np.empty((0, 3)), 0.5, cell_size=0.5)
        assert chunks and all(i.size == 0 and j.size == 0 for i, j in chunks)

    def test_single_point(self):
        i, j = map(np.concatenate, zip(*self.chunks(np.ones((1, 3)), 0.5, cell_size=0.5)))
        assert i.tolist() == [0] and j.tolist() == [0]

    def test_radius_larger_than_cell_rejected(self):
        with pytest.raises(ValueError):
            next(GridIndex(np.zeros((2, 3)), cell_size=0.5)._ordered_pairs(0.6))


class TestUniquePairs:
    """The unordered pairs behind ``ball_stats``, which only the density
    features read (``cluster.dbscan`` joins cells, ``TestCellPairs``):
    positions in cell order, mapped to indices here through
    ``GridIndex.order``."""

    @staticmethod
    def chunks(points, radius, cell_size):
        index = GridIndex(points, cell_size=cell_size)
        return [(index.order[p], index.order[q]) for p, q in index.unique_pairs(radius)]

    @staticmethod
    def unordered(chunks, n):
        """Each yielded pair as min * n + max, in the order yielded."""
        i, j = map(np.concatenate, zip(*chunks))
        return np.minimum(i, j) * n + np.maximum(i, j)

    @pytest.mark.parametrize("make_points", CLOUDS)
    @pytest.mark.parametrize("radius", [0.3, 0.5])
    def test_each_unordered_pair_once(self, make_points, radius):
        points = make_points()
        n = len(points)
        got = self.unordered(self.chunks(points, radius, cell_size=0.5), n)
        want_i, want_j = brute_force_pairs(points, radius)
        upper = want_i <= want_j                        # self pairs once
        assert len(np.unique(got)) == len(got)          # no pair twice
        np.testing.assert_array_equal(np.sort(got), want_i[upper] * n + want_j[upper])

    @pytest.mark.parametrize("make_points", CLOUDS)
    def test_positions_ascend_within_each_pair(self, make_points):
        """q > p, except the self pairs, one per point."""
        points = make_points()
        index = GridIndex(points, cell_size=0.5)
        p, q = map(np.concatenate, zip(*((p, q) for p, q in index.unique_pairs(0.5))))
        assert np.all(q >= p)
        np.testing.assert_array_equal(np.sort(p[p == q]), np.arange(len(points)))

    @pytest.mark.parametrize("make_points", CLOUDS)
    @pytest.mark.parametrize("chunk", [1 << 15, 64])
    def test_stream_ascends_by_p_then_q(self, make_points, chunk, monkeypatch):
        """Over all blocks, (p, q) ascends lexicographically: a point's row
        is whole in one block, its columns in lexicographic offset order."""
        monkeypatch.setattr(neighbors, "_CHUNK", chunk)
        points = make_points()
        p, q = map(np.concatenate, zip(*GridIndex(points, cell_size=0.5).unique_pairs(0.5)))
        assert np.all(np.diff(p * len(points) + q) > 0)

    def test_order_is_a_permutation_by_cell(self):
        points = scene_cloud()
        order = GridIndex(points, cell_size=0.5).order
        np.testing.assert_array_equal(np.sort(order), np.arange(len(points)))
        cell = np.floor(points[order] / 0.5).astype(np.int64)
        np.testing.assert_array_equal(np.lexsort((order, *cell.T[::-1])), np.arange(len(order)))

    def test_dense_cloud_spans_several_chunks(self):
        chunks = self.chunks(dense_cloud(), 0.5, cell_size=0.5)
        assert len(chunks) > 5

    def test_boundary_inclusive_across_cells(self):
        """d == radius counts across a cell boundary in x (another column)
        and in z (the cell above, in the point's own column)."""
        points = np.array([[0.25, 0, 0], [0.75, 0, 0], [-0.25 - 1e-9, 0, 0], [0.25, 0, 0.5]])
        got = self.unordered(self.chunks(points, 0.5, cell_size=0.5), len(points))
        assert sorted(divmod(k, 4) for k in got.tolist()) == \
            [(0, 0), (0, 1), (0, 3), (1, 1), (2, 2), (3, 3)]

    def test_empty_cloud(self):
        chunks = self.chunks(np.empty((0, 3)), 0.5, cell_size=0.5)
        assert chunks and all(i.size == 0 and j.size == 0 for i, j in chunks)

    def test_single_point(self):
        i, j = map(np.concatenate, zip(*self.chunks(np.ones((1, 3)), 0.5, cell_size=0.5)))
        assert i.tolist() == [0] and j.tolist() == [0]

    def test_radius_larger_than_cell_rejected(self):
        with pytest.raises(ValueError):
            next(GridIndex(np.zeros((2, 3)), cell_size=0.5).unique_pairs(0.6))


def thin_clouds():
    """A row of cells along x and a column of cells along z: one occupied
    cell thick on two axes, where a run of reach 2 crosses the margin."""
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 3, size=(60, 1))
    return np.r_[np.c_[t, np.zeros((60, 2))], np.c_[np.full((60, 2), 5.0), t]]


class TestCellPairs:
    """The cell pairs ``cluster.dbscan`` counts and joins over."""

    @staticmethod
    def brute_force(index):
        """(c, d, squared offset) of every cell pair c < d within 2 cells."""
        points = index.points[index.order][index.cell_bound[:-1]]
        keys = np.floor(points / index.cell_size).astype(np.int64)
        offset = keys[None] - keys[:, None]
        within = (np.abs(offset).max(axis=2) <= 2) & np.triu(np.ones(len(keys), bool), 1)
        c, d = np.nonzero(within)
        return c, d, (offset[c, d] ** 2).sum(axis=1)

    @pytest.mark.parametrize("make_points", [*CLOUDS, pytest.param(thin_clouds, id="thin")])
    def test_each_pair_within_reach_once(self, make_points):
        index = GridIndex(make_points(), cell_size=0.25)
        got = sorted(zip(*(a.tolist() for a in index.cell_pairs())))
        want = sorted(zip(*(a.tolist() for a in self.brute_force(index))))
        assert got == want

    def test_single_cell_has_no_pairs(self):
        c, d, dist2 = GridIndex(np.zeros((5, 3)), cell_size=0.25).cell_pairs()
        assert c.size == d.size == dist2.size == 0


class TestCellPairHits:
    """The point pairs of given cell pairs, measured block by block."""

    @staticmethod
    def hits(index, c, d, radius, *among):
        blocks = list(index.cell_pair_hits(c, d, radius, *among))
        p, q, k = (np.concatenate(part) for part in zip(*blocks))
        return p, q, k, len(blocks)

    @pytest.mark.parametrize("make_points", CLOUDS)
    @pytest.mark.parametrize("chunk", [1, 64, 1 << 15])
    def test_matches_brute_force(self, make_points, chunk, monkeypatch):
        """Every pair of a member of c[k] and one of d[k] within radius once,
        by ascending k, over blocks of any size; ``among`` limits each end."""
        monkeypatch.setattr(neighbors, "_CHUNK", chunk)
        points = make_points()
        index = GridIndex(points, cell_size=0.25)
        c, d, _ = index.cell_pairs()
        size = np.diff(index.cell_bound)
        cell = np.repeat(np.arange(len(size)), size)
        rng = np.random.default_rng(0)
        among = [np.flatnonzero(rng.random(len(points)) < 0.6) for _ in range(2)]
        for limits in ([], among):
            p, q, k, blocks = self.hits(index, c, d, 0.5, *limits)
            assert np.all(np.diff(k) >= 0)
            np.testing.assert_array_equal(cell[p], c[k])
            np.testing.assert_array_equal(cell[q], d[k])
            i, j = brute_force_pairs(points[index.order], 0.5)
            keep = cell[i] < cell[j]
            if limits:
                keep &= np.isin(i, among[0]) & np.isin(j, among[1])
            want = set(zip(i[keep].tolist(), j[keep].tolist()))
            assert set(zip(p.tolist(), q.tolist())) == want
            assert len(p) == len(want)
        assert blocks > 1 or chunk == 1 << 15

    def test_no_cell_pairs(self):
        index = GridIndex(np.zeros((4, 3)), cell_size=0.25)
        p, q, k, blocks = self.hits(index, np.zeros(0, np.int64), np.zeros(0, np.int64), 0.5)
        assert p.size == q.size == k.size == 0 and blocks == 1

    @pytest.mark.parametrize("make_points", CLOUDS)
    def test_box_d2_bounds_every_measured_d2(self, make_points):
        index = GridIndex(make_points(), cell_size=0.25)
        c, d, _ = index.cell_pairs()
        p, q, k, _ = self.hits(index, c, d, np.inf)
        xyz = index.points[index.order]
        d2 = ((xyz[p] - xyz[q]) ** 2).sum(axis=1)
        assert np.all(index.box_d2(c, d)[k] <= d2)
        assert np.all(d2 <= index.box_d2(c, d, farthest=True)[k])


class TestCellCodeRange:
    """Cell keys and codes are int64; a cloud whose codes would wrap, or
    whose float keys are too large to place every point in its own cell to
    within 2**-23 of a cell, is refused, since either puts distant points
    in one cell."""

    @pytest.mark.parametrize("far", [1e20, -1e20, 2.0**30 + 1, -2.0**30 - 1])
    def test_key_beyond_the_precise_range_rejected(self, far):
        points = np.zeros((3, 3))
        points[1, 0] = far
        with pytest.raises(ContractError, match="cell"):
            GridIndex(points, cell_size=1.0)

    def test_box_of_too_many_cells_rejected(self):
        """2**21 cells per axis: the box holds 2**63 codes."""
        points = np.array([[0.0, 0, 0], [2.0**21, 2.0**21, 2.0**21]])
        with pytest.raises(ContractError, match="cell"):
            GridIndex(points, cell_size=1.0)

    @pytest.mark.parametrize("far", [2.0**30, -2.0**30])
    def test_long_row_of_cells_kept(self, far):
        """2**30 cells on one axis and one on the others fit."""
        points = np.array([[0.0, 0, 0], [far, 0, 0]])
        index = GridIndex(points, cell_size=1.0)
        assert len(index.cell_bound) == 3
        assert index.query_ball(points[1], 0.5).tolist() == [1]


class TestBallStats:
    @pytest.mark.parametrize("seed", range(3))
    def test_counts_and_variance_vs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-2, 2, size=(250, 3))
        radius = 0.5
        index = GridIndex(points, cell_size=radius)
        counts, zvar = index.ball_stats(radius)
        d2 = ((points[:, None] - points[None]) ** 2).sum(axis=2)
        within = d2 <= radius * radius
        np.testing.assert_array_equal(counts, within.sum(axis=1))
        for i in range(0, 250, 17):
            z = points[within[i], 2]
            assert abs(zvar[i] - z.var()) < 1e-10

    @pytest.mark.parametrize("make_points, chunk", [
        *(pytest.param(*cloud.values, None, id=cloud.id) for cloud in CLOUDS),
        # blocks of a few points: many mirrored hits reach their point in a
        # later block than the one that measured them
        *(pytest.param(*cloud.values, 64, id=f"{cloud.id}-small-blocks") for cloud in CLOUDS),
        *(pytest.param(*cloud.values, 1, id=f"{cloud.id}-one-point-blocks") for cloud in CLOUDS),
    ])
    def test_bytes_match_order_explicit_reference(self, make_points, chunk, monkeypatch):
        points = make_points()
        index = GridIndex(points, cell_size=0.5)
        if chunk is not None:
            monkeypatch.setattr(neighbors, "_CHUNK", chunk)
            assert sum(1 for _ in index.unique_pairs(0.5)) >= 10
        counts, zvar = index.ball_stats(0.5)
        want_counts, want_zvar = reference_ball_stats(points, 0.5)
        assert counts.tobytes() == want_counts.tobytes()
        assert zvar.tobytes() == want_zvar.tobytes()

    def test_radius_larger_than_cell_rejected(self):
        index = GridIndex(np.zeros((2, 3)), cell_size=0.5)
        with pytest.raises(ValueError):
            index.ball_stats(0.6)
