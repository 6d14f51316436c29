"""Sorted-cell spatial index vs brute-force distance checks."""

import numpy as np
import pytest

from lidarood.neighbors import GridIndex


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

    def test_radius_larger_than_cell_rejected(self):
        index = GridIndex(np.zeros((2, 3)), cell_size=0.5)
        with pytest.raises(ValueError):
            index.ball_stats(0.6)
