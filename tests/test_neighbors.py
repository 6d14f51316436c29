"""Sorted-cell spatial index vs brute-force distance checks."""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarood import neighbors, perlin
from lidarood.core import ContractError
from lidarood.neighbors import GridIndex, ball, near_boxes
from lidarood.perlin import RaiseConfig, perlin_raise
from lidarood.scenes import SceneConfig, default_budget, default_class_spec, generate_scene

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
        # centres mostly outside the points' box, radii up to 12 cells
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


def brute_force_ball(points, center, radius):
    """Indices within radius, each squared distance summed in x, y, z order
    one float at a time."""
    cx, cy, cz = np.asarray(center, dtype=np.float64).tolist()
    hits = []
    for k, (x, y, z) in enumerate(np.asarray(points, dtype=np.float64).tolist()):
        dx, dy, dz = x - cx, y - cy, z - cz
        if dx * dx + dy * dy + dz * dz <= radius * radius:
            hits.append(k)
    return hits


def inline_ball(points, center, radius):
    """The patch expression ``perlin_raise`` used before ``ball``: the
    squared offsets of each row summed by ``np.sum``."""
    d2 = np.sum((np.asarray(points, dtype=np.float64) - center) ** 2, axis=1)
    return np.flatnonzero(d2 <= radius * radius)


class TestBall:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed, dtype):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-4, 4, size=(300, 3)).astype(dtype)
        for _ in range(10):
            center = rng.uniform(-5, 5, size=3)
            radius = float(rng.uniform(0.1, 4.0))
            assert ball(points, center, radius).tolist() == brute_force_ball(points, center, radius)

    def test_boundary_inclusive(self):
        points = np.array([[2.0, 3, 6], [0, 0, -7], [np.nextafter(7.0, 8.0), 0, 0],
                           [-6, -2, 3], [0, 0, 0]])
        assert ball(points, np.zeros(3), 7.0).tolist() == [0, 1, 3, 4]

    @pytest.mark.parametrize("seed", range(5))
    def test_radius_on_a_point_agrees_with_row_sums(self, seed):
        """With r at a point's own distance, the order of the sum decides
        that point: x, y, z order is the order of ``np.sum`` along a row."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(-3, 3, size=(500, 3)).astype(np.float32)
        center = points[0].astype(np.float64)
        for r in np.sqrt(np.sum((points[1:21] - center) ** 2, axis=1)):
            got = ball(points, center, r).tolist()
            assert got == inline_ball(points, center, r).tolist()
            assert got == brute_force_ball(points, center, r)

    def test_empty_cloud(self):
        assert ball(np.empty((0, 3)), np.zeros(3), 1.0).size == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_perlin_patch_equals_inline_expression(self, seed, monkeypatch):
        """A seeded raise takes the same patch and raises the same points as
        with its former inline distance pass."""
        cloud, labels = generate_scene(SceneConfig(seed=seed, extent=8.0,
                                                   class_budget=default_budget(3000)))
        spec = default_class_spec()
        cfg = RaiseConfig(r=1.2, dbscan_eps=1.0, dbscan_min_pts=2, seed=seed)
        got = perlin_raise(cloud, labels, spec, cfg)
        monkeypatch.setattr(perlin, "ball", inline_ball)
        want = perlin_raise(cloud, labels, spec, cfg)
        assert got[2].neighborhood_size == want[2].neighborhood_size > 0
        assert got[2].raised_count > 0
        np.testing.assert_array_equal(got[2].raised_indices, want[2].raised_indices)
        assert got[0].points.tobytes() == want[0].points.tobytes()


def xy_near(points, rows, radius):
    """Whether each point lies within radius in x and y (``_d2``) of one of
    ``rows``: all that a point within radius in x, y and z can be."""
    xy = np.asarray(points, dtype=np.float64)[:, :2]
    near = np.zeros(len(xy), dtype=bool)
    for k in rows:
        near |= neighbors._d2(*(xy - xy[k]).T) <= radius * radius
    return near


def brute_force_boxes(points, groups, radius):
    """(sub, redo) of ``near_boxes`` one point and one group at a time in
    Python floats: within 2 * reach, then reach, on x and on y of a
    nonempty group's xy bounds."""
    reach = radius * (1 + 2.0**-20)
    xy = np.asarray(points, dtype=np.float64)[:, :2].tolist()
    boxes = [[(min(xy[k][a] for k in g), max(xy[k][a] for k in g)) for a in (0, 1)]
             for g in map(list, groups) if g]

    def within(p, d):
        return any(all(lo - d <= p[a] <= hi + d for a, (lo, hi) in enumerate(box))
                   for box in boxes)

    sub = [k for k, p in enumerate(xy) if within(p, 2 * reach)]
    return sub, [within(xy[k], reach) for k in sub]


def assert_covers(points, groups, radius, sub, redo):
    """Every point near a moved one is redone, and every point near a
    redone one is in the sub-cloud."""
    moved = np.concatenate([np.asarray(g, dtype=int) for g in groups])
    assert np.isin(np.flatnonzero(xy_near(points, moved, radius)), sub[redo]).all()
    assert np.isin(np.flatnonzero(xy_near(points, sub[redo], radius)), sub).all()


# multiples of a quarter and of 0.3 sit on the cell edges of the radii below
coord = st.one_of(st.integers(-20, 20).map(lambda k: k / 4),
                  st.integers(-20, 20).map(lambda k: k * 0.3),
                  st.floats(-5, 5, width=32))


class TestNearBoxes:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=60),
           dtype=st.sampled_from([np.float32, np.float64]),
           radius=st.sampled_from([0.5, 0.3, 1.0]), data=st.data())
    def test_matches_brute_force(self, rows, dtype, radius, data):
        points = np.array(rows, dtype=dtype)
        n = len(points)
        moved = data.draw(st.one_of(
            st.integers(0, n - 1).map(lambda k: [k]),                    # a single point
            st.just(list(range(n))),                                      # every point
            st.lists(st.integers(0, n - 1), min_size=1, max_size=12),    # repeated, unsorted
        ))
        sub, redo = near_boxes(points, [np.array(moved)], radius)
        assert (sub.tolist(), redo.tolist()) == brute_force_boxes(points, [moved], radius)
        assert_covers(points, [moved], radius, sub, redo)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges(self, dtype):
        """Coordinates on the edges of 0.3 m cells and one float64 step to
        either side, each point moved alone. The bounds stay float64, so a
        float32 column is not compared with bounds rounded to float32."""
        edges = np.arange(-30, 31) * 0.3
        x = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        points = np.c_[x, x[::-1], np.zeros(len(x))].astype(dtype)
        for k in range(len(points)):
            sub, redo = near_boxes(points, [np.array([k])], 0.3)
            assert (sub.tolist(), redo.tolist()) == brute_force_boxes(points, [[k]], 0.3)
            assert_covers(points, [[k]], 0.3, sub, redo)

    def test_float32_cloud_cut_by_float64_bounds(self):
        """The float32 values on either side of x -+ reach and x -+ 2 reach
        of a moved point x are cut as in float64, not against bounds
        rounded to float32."""
        reach = 0.5 * (1 + 2.0**-20)
        for x in np.random.default_rng(5).uniform(-50, 50, size=40).astype(np.float32):
            bounds = float(x) + np.array([-2, -1, 1, 2]) * reach
            at = bounds.astype(np.float32)
            below = np.where(at > bounds, np.nextafter(at, np.float32(-np.inf)), at)
            above = np.where(at < bounds, np.nextafter(at, np.float32(np.inf)), at)
            xs = np.r_[x, below, above].astype(np.float32)
            points = np.c_[xs, np.zeros((len(xs), 2))].astype(np.float32)
            sub, redo = near_boxes(points, [np.array([0])], 0.5)
            assert (sub.tolist(), redo.tolist()) == brute_force_boxes(points, [[0]], 0.5)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=60),
           radius=st.sampled_from([0.5, 0.3]), data=st.data())
    def test_groups_match_union_of_single_groups(self, rows, radius, data):
        """One box per group, near, overlapping or repeating each other:
        the points of several groups are those of each group alone."""
        points = np.array(rows)
        groups = data.draw(st.lists(st.lists(st.integers(0, len(points) - 1), min_size=1,
                                             max_size=8), min_size=2, max_size=4))
        sub, redo = near_boxes(points, [np.array(g) for g in groups], radius)
        alone = [near_boxes(points, [np.array(g)], radius) for g in groups]
        assert sub.tolist() == np.unique(np.concatenate([s for s, _ in alone])).tolist()
        assert sub[redo].tolist() == \
            np.unique(np.concatenate([s[r] for s, r in alone])).tolist()
        assert (sub.tolist(), redo.tolist()) == brute_force_boxes(points, groups, radius)
        assert_covers(points, groups, radius, sub, redo)

    def test_far_apart_groups(self):
        """Two patches at opposite corners of a CLI-default 20k-point scene,
        as two raises of one step move them: two small boxes, not the box
        around both. Every point near a moved one is redone, and every
        point near a redone one is in the sub-cloud."""
        cloud, _ = generate_scene(SceneConfig(seed=1, extent=12.0,
                                              class_budget=default_budget(20000)))
        xy = cloud.points[:, :2].astype(np.float64)
        groups = [np.flatnonzero(np.hypot(*(xy - corner).T) < 1.5) for corner in (-8, 8)]
        assert all(len(g) > 50 for g in groups)
        sub, redo = near_boxes(cloud.points, groups, 0.5)
        assert np.all(np.diff(sub) > 0)
        assert np.isin(np.flatnonzero(xy_near(cloud.points, np.concatenate(groups), 0.5)),
                       sub[redo]).all()
        assert np.isin(np.flatnonzero(xy_near(cloud.points, sub[redo], 0.5)), sub).all()
        assert len(sub) < len(xy) // 10

    def test_empty_group_has_no_box(self):
        points = scene_cloud()
        sub, redo = near_boxes(points, [np.array([], dtype=int)], 0.5)
        assert sub.size == redo.size == 0
        moved = [np.array([40, 3, 40])]
        got = near_boxes(points, [np.array([], dtype=int), *moved], 0.5)
        want = near_boxes(points, moved, 0.5)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert want[0].size


class TestUniquePairs:
    """The unordered pairs behind ``ball_stats``, which only the density
    features read (``cluster.dbscan`` joins cells, ``TestCellPairs``):
    positions in cell order, mapped to indices here through
    ``GridIndex.order``."""

    @staticmethod
    def chunks(points, cell_size):
        index = GridIndex(points, cell_size=cell_size)
        return [(index.order[p], index.order[q]) for _, p, q in index.unique_pairs()]

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
        got = self.unordered(self.chunks(points, cell_size=radius), n)
        want_i, want_j = brute_force_pairs(points, radius)
        upper = want_i < want_j                         # no self pairs
        assert len(np.unique(got)) == len(got)          # no pair twice
        np.testing.assert_array_equal(np.sort(got), want_i[upper] * n + want_j[upper])

    @pytest.mark.parametrize("make_points", CLOUDS)
    def test_positions_ascend_within_each_pair(self, make_points):
        """q > p, and p among its block's rows, which are all the positions
        once, in order, over the blocks."""
        points = make_points()
        blocks = list(GridIndex(points, cell_size=0.5).unique_pairs())
        for rows, p, q in blocks:
            assert np.all(q > p) and np.all(np.isin(p, rows))
        rows = np.concatenate([rows for rows, _, _ in blocks])
        np.testing.assert_array_equal(rows, np.arange(len(points)))

    @pytest.mark.parametrize("make_points", CLOUDS)
    @pytest.mark.parametrize("chunk", [1 << 15, 64])
    def test_stream_ascends_by_p_then_q(self, make_points, chunk, monkeypatch):
        """Over all blocks, (p, q) ascends lexicographically: a point's row
        is whole in one block, its columns in lexicographic offset order."""
        monkeypatch.setattr(neighbors, "_CHUNK", chunk)
        points = make_points()
        _, p, q = map(np.concatenate, zip(*GridIndex(points, cell_size=0.5).unique_pairs()))
        assert np.all(np.diff(p * len(points) + q) > 0)

    def test_order_is_a_permutation_by_cell(self):
        points = scene_cloud()
        order = GridIndex(points, cell_size=0.5).order
        np.testing.assert_array_equal(np.sort(order), np.arange(len(points)))
        cell = np.floor(points[order] / 0.5).astype(np.int64)
        np.testing.assert_array_equal(np.lexsort((order, *cell.T[::-1])), np.arange(len(order)))

    def test_dense_cloud_spans_several_chunks(self):
        chunks = self.chunks(dense_cloud(), cell_size=0.5)
        assert len(chunks) > 5

    def test_boundary_inclusive_across_cells(self):
        """d == radius counts across a cell boundary in x (another column)
        and in z (the cell above, in the point's own column)."""
        points = np.array([[0.25, 0, 0], [0.75, 0, 0], [-0.25 - 1e-9, 0, 0], [0.25, 0, 0.5]])
        got = self.unordered(self.chunks(points, cell_size=0.5), len(points))
        assert sorted(divmod(k, 4) for k in got.tolist()) == [(0, 1), (0, 3)]

    def test_empty_cloud(self):
        chunks = self.chunks(np.empty((0, 3)), cell_size=0.5)
        assert chunks and all(i.size == 0 and j.size == 0 for i, j in chunks)

    def test_single_point(self):
        (rows, p, q), = GridIndex(np.ones((1, 3)), cell_size=0.5).unique_pairs()
        assert rows.tolist() == [0] and p.size == q.size == 0


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
        assert np.all(d2 <= index.box_d2(c, d)[k])


def reference_blocks(counts):
    """``_blocks`` as np.unique over the searchsorted cuts of the running
    total, with a leading 0."""
    cum = np.concatenate(([0], np.cumsum(counts)))
    chunk = neighbors._CHUNK
    cuts = np.unique(np.searchsorted(cum, np.arange(chunk, cum[-1], chunk)))
    return list(itertools.pairwise([0, *cuts.tolist(), len(counts)]))


class TestBlocks:
    """The block cuts behind ``unique_pairs`` and ``cell_pair_hits``."""

    @staticmethod
    def check(counts):
        counts = np.asarray(counts, dtype=np.int64)
        got = [(int(lo), int(hi)) for lo, hi in neighbors._blocks(counts)]
        assert got == reference_blocks(counts)
        return got

    C = neighbors._CHUNK

    @pytest.mark.parametrize("counts", [
        pytest.param([], id="empty"),
        pytest.param([0] * 5, id="all-zeros"),
        pytest.param([C + 1], id="one-over"),
        pytest.param([0, 3 * C + 5, 0], id="one-of-several-chunks"),
        pytest.param([2, C + 1, 3], id="one-over-between"),
        pytest.param([C - 1], id="one-under"),
        pytest.param([C], id="one-at"),
        pytest.param([C // 2, C // 2 - 1], id="total-under"),
        pytest.param([C // 2, C // 2], id="total-at"),
        pytest.param([C // 2, C // 2 + 1], id="total-over"),
        pytest.param([C // 2, C // 2, 0, 0], id="total-at-zeros-after"),
        pytest.param([1] * (2 * C + 1), id="ones"),
    ])
    def test_edges_match_reference(self, counts):
        got = self.check(counts)
        assert got[0][0] == 0 and got[-1][1] == len(counts)
        assert all(a[1] == b[0] for a, b in itertools.pairwise(got))

    def test_one_block_when_the_total_fits(self):
        counts = np.full(8, neighbors._CHUNK // 8)
        assert self.check(counts) == [(0, 8)]

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_counts_match_reference(self, chunk, seed, monkeypatch):
        monkeypatch.setattr(neighbors, "_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        for n in (0, 1, 2, 5, 50, 300):
            # zeros, counts below, at and far above the chunk
            counts = rng.choice([0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk], size=n)
            self.check(counts)
            self.check(rng.integers(0, 2 * chunk + 2, size=n))


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
        counts, zvar = index.ball_stats()
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
            assert sum(1 for _ in index.unique_pairs()) >= 10
        counts, zvar = index.ball_stats()
        want_counts, want_zvar = reference_ball_stats(points, 0.5)
        assert counts.tobytes() == want_counts.tobytes()
        assert zvar.tobytes() == want_zvar.tobytes()

    @pytest.mark.parametrize("chunk", [1, 64, None])
    @pytest.mark.parametrize("points, density", [
        # 3, 4, 5 in eighths: r = 0.625, r * r = 0.390625, all exact
        pytest.param([[0, 0, 0], [0.375, 0.5, 0]], [2, 2], id="xy-at-r-dz-zero-kept"),
        pytest.param([[0, 0, 0], [0.375, 0.5, 1e-8]], [1, 1], id="xy-at-r-tiny-dz-dropped"),
        # dy * dy is 0.25 + 2**-53, so the xy sum is one step above r * r
        pytest.param([[0, 0, 0], [0.375, np.nextafter(0.5, 1), 0]], [1, 1],
                     id="xy-just-over-r-dropped"),
        # 0.375 in x, 0.5 in z, across a z cell
        pytest.param([[0, 0, 0.25], [0.375, 0, 0.75]], [2, 2], id="r-split-xy-z-kept"),
        pytest.param([[0, 0, -0.0], [-0.25, 0, -0.5], [0, 0.25, 0.0], [0.5, 0.5, -1.0],
                      [-0.25, -0.25, -0.0]], [4, 4, 4, 1, 4], id="negative-and-minus-zero-z"),
    ])
    def test_pairs_at_the_radius_match_reference(self, points, density, chunk, monkeypatch):
        """Pairs at or one rounding step past r, which the x and y test
        keeps or drops before z is measured."""
        if chunk is not None:
            monkeypatch.setattr(neighbors, "_CHUNK", chunk)
        points = np.array(points, dtype=np.float64)
        counts, zvar = GridIndex(points, cell_size=0.625).ball_stats()
        want_counts, want_zvar = reference_ball_stats(points, 0.625)
        assert counts.tolist() == density
        assert counts.tobytes() == want_counts.tobytes()
        assert zvar.tobytes() == want_zvar.tobytes()
