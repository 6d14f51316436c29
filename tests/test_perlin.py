"""Gradient-noise field and the surface-raise augmentation."""

import numpy as np
import pytest

from lidarood.cluster import dbscan
from lidarood.core import ContractError, LabelMap, PointCloud, Role, roles_from_semantic
from lidarood.perlin import PerlinField, RaiseConfig, perlin2d, perlin_raise
from lidarood.scenes import (ROAD, SIDEWALK, SceneConfig, default_budget, default_class_spec,
                             generate_scene)


def road_only_scene(seed, n=6000, extent=5.0):
    cfg = SceneConfig(seed=seed, extent=extent, class_budget={ROAD: n})
    return generate_scene(cfg)


class TestPerlinField:
    def test_zero_at_lattice_nodes(self):
        field = PerlinField(cell_size=0.5, seed=3)
        nodes = np.arange(-5, 5) * 0.5
        vals = perlin2d(field, nodes, nodes[::-1])
        np.testing.assert_array_equal(vals, np.zeros_like(vals))

    def test_range_bounded(self):
        field = PerlinField(cell_size=1.0, seed=11)
        rng = np.random.default_rng(0)
        vals = perlin2d(field, rng.uniform(-100, 100, 20000), rng.uniform(-100, 100, 20000))
        assert vals.min() >= -1.0 and vals.max() <= 1.0

    def test_continuity(self):
        field = PerlinField(cell_size=0.5, seed=5)
        rng = np.random.default_rng(1)
        u = rng.uniform(-50, 50, 5000)
        v = rng.uniform(-50, 50, 5000)
        step = np.abs(perlin2d(field, u + 1e-6, v) - perlin2d(field, u, v))
        assert step.max() < 1e-4

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(-20, 20, 1000)
        v = rng.uniform(-20, 20, 1000)
        a = perlin2d(PerlinField(cell_size=0.7, seed=9), u, v)
        b = perlin2d(PerlinField(cell_size=0.7, seed=9), u, v)
        np.testing.assert_array_equal(a, b)

    def test_unit_gradients(self):
        field = PerlinField(cell_size=1.0, seed=4)
        gx, gy = field._gradients(np.arange(-50, 50), np.arange(0, 100))
        np.testing.assert_allclose(gx**2 + gy**2, 1.0, atol=1e-12)

    def test_bad_cell_size(self):
        with pytest.raises(ContractError):
            PerlinField(cell_size=0.0, seed=0)


class TestRaiseConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            RaiseConfig(r=-1.0)
        with pytest.raises(ContractError):
            RaiseConfig(rho=0.0)
        with pytest.raises(ContractError):
            RaiseConfig(alpha=-0.1)

    @pytest.mark.parametrize("field", ["r", "alpha"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ContractError):
            RaiseConfig(**{field: value})


class TestPerlinRaise:
    def test_alpha_zero_flips_labels_only(self):
        cloud, labels = road_only_scene(0)
        spec = default_class_spec()
        cfg = RaiseConfig(r=1.0, alpha=0.0, rho=0.3, seed=1)
        out_cloud, out_labels, report = perlin_raise(cloud, labels, spec, cfg)
        assert report.raised_count > 0
        np.testing.assert_array_equal(out_cloud.points, cloud.points)
        flipped = np.flatnonzero(out_labels.role == Role.AUX_OOD)
        np.testing.assert_array_equal(flipped, report.raised_indices)

    def test_rho_one_selects_whole_neighborhood(self):
        cloud, labels = road_only_scene(1)
        spec = default_class_spec()
        cfg = RaiseConfig(r=1.0, alpha=0.4, rho=1.0, seed=2)
        _, _, report = perlin_raise(cloud, labels, spec, cfg)
        assert report.selected_size == report.neighborhood_size

    def test_selected_fraction_statistics(self):
        """Mean selected fraction over 100 seeds tracks rho = 0.3."""
        cloud, labels = road_only_scene(2)
        spec = default_class_spec()
        fractions = []
        for seed in range(100):
            cfg = RaiseConfig(r=1.0, alpha=0.4, rho=0.3, seed=seed)
            _, _, report = perlin_raise(cloud, labels, spec, cfg)
            if report.neighborhood_size:
                fractions.append(report.selected_size / report.neighborhood_size)
        assert 0.25 <= np.mean(fractions) <= 0.35

    def test_raise_postconditions(self):
        """Every raised point: 0 <= dz <= alpha, within r of the center,
        inside one density cluster, and road-only modification."""
        spec = default_class_spec()
        for seed in range(20):
            cloud, labels = road_only_scene(seed + 10)
            cfg = RaiseConfig(r=1.0, alpha=0.4, rho=0.3, seed=seed)
            out_cloud, out_labels, report = perlin_raise(cloud, labels, spec, cfg)
            if report.raised_count == 0:
                continue
            assert report.deltas.min() >= 0.0
            assert report.deltas.max() <= cfg.alpha
            dist = np.linalg.norm(
                cloud.points[report.raised_indices].astype(np.float64) - report.center, axis=1)
            assert dist.max() <= cfg.r
            # raised points form a subset of one cluster of the selected set
            assign = dbscan(cloud.points[report.selected_indices],
                            eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts)
            raised_pos = np.isin(report.selected_indices, report.raised_indices)
            assert len(set(assign.cluster_id[raised_pos])) == 1
            # only road points modified
            moved = np.flatnonzero(
                (out_cloud.points != cloud.points).any(axis=1))
            assert np.all(labels.semantic[moved] == ROAD)

    def test_monotone_gain(self):
        """Within the raised cluster, higher noise means no smaller lift."""
        spec = default_class_spec()
        cloud, labels = road_only_scene(3)
        cfg = RaiseConfig(r=1.2, alpha=0.4, rho=0.4, seed=5)
        out_cloud, _, report = perlin_raise(cloud, labels, spec, cfg)
        dz = out_cloud.points[report.raised_indices, 2].astype(np.float64) - \
            cloud.points[report.raised_indices, 2].astype(np.float64)
        order = np.argsort(report.deltas)
        assert np.all(np.diff(report.deltas[order]) >= 0)
        # float32 storage keeps the ordering within rounding
        np.testing.assert_allclose(dz, report.deltas, atol=1e-5)

    def test_determinism(self):
        spec = default_class_spec()
        cloud, labels = road_only_scene(4)
        cfg = RaiseConfig(r=1.0, alpha=0.4, rho=0.3, seed=77)
        a_cloud, a_labels, _ = perlin_raise(cloud, labels, spec, cfg)
        b_cloud, b_labels, _ = perlin_raise(cloud, labels, spec, cfg)
        np.testing.assert_array_equal(a_cloud.points, b_cloud.points)
        np.testing.assert_array_equal(a_labels.semantic, b_labels.semantic)

    def test_too_few_road_points(self):
        spec = default_class_spec()
        cloud, labels = road_only_scene(5, n=6000)
        starved = RaiseConfig(r=1.0, dbscan_min_pts=10**6, seed=0)
        with pytest.raises(ContractError):
            perlin_raise(cloud, labels, spec, starved)

    def test_label_all_clusters_flag(self):
        spec = default_class_spec()
        cloud, labels = road_only_scene(6)
        cfg = RaiseConfig(r=1.2, alpha=0.4, rho=0.5, seed=9, label_all_clusters=True)
        _, out_labels, report = perlin_raise(cloud, labels, spec, cfg)
        n_flagged = int((out_labels.role == Role.AUX_OOD).sum())
        clustered = sum(report.cluster_sizes)
        assert n_flagged == clustered
        assert n_flagged >= report.raised_count


def lattice_scene():
    """Road and sidewalk points alternating on a 0.5 m lattice (z = 0): every
    road point has road neighbors at exactly 1.0 m and 2.0 m."""
    g = np.arange(-6, 7) * 0.5
    x, y = np.meshgrid(g, g, indexing="ij")
    points = np.c_[x.ravel(), y.ravel(), np.zeros(x.size)]
    semantic = np.where(np.arange(x.size) % 3 == 2, SIDEWALK, ROAD)
    spec = default_class_spec()
    labels = LabelMap(semantic=semantic, instance=np.zeros(x.size),
                      role=roles_from_semantic(semantic, spec))
    return PointCloud(points=points), labels


def mixed_scene():
    return generate_scene(SceneConfig(seed=8, extent=6.0, class_budget=default_budget(3000)))


class TestRaiseNeighborhood:
    """The patch is the brute-force ball of road points around the centre,
    boundary inclusive: with rho = 1 and min_pts = 1 every patch point is
    selected, so ``selected_indices`` lists the whole patch."""

    @pytest.mark.parametrize("make_scene, r", [
        pytest.param(lattice_scene, 1.0, id="lattice-r1"),
        pytest.param(lattice_scene, 2.0, id="lattice-r2"),
        pytest.param(lambda: road_only_scene(7, n=2000), 0.8, id="road-scene-r0.8"),
        pytest.param(mixed_scene, 1.5, id="mixed-scene-r1.5"),
    ])
    def test_patch_is_brute_force_ball(self, make_scene, r):
        cloud, labels = make_scene()
        spec = default_class_spec()
        for seed in range(10):
            cfg = RaiseConfig(r=r, rho=1.0, dbscan_min_pts=1, seed=seed)
            _, _, report = perlin_raise(cloud, labels, spec, cfg)
            center = cloud.points[report.center_index].astype(np.float64)
            assert labels.semantic[report.center_index] == ROAD
            np.testing.assert_array_equal(report.center, center)
            ball = [i for i, p in enumerate(cloud.points.astype(np.float64))
                    if labels.semantic[i] == ROAD
                    and sum((p[a] - center[a]) ** 2 for a in range(3)) <= r * r]
            assert report.neighborhood_size == len(ball)
            np.testing.assert_array_equal(report.selected_indices, ball)

    def test_lattice_boundary_points_included(self):
        """On the lattice some patch points lie at exactly d == r."""
        cloud, labels = lattice_scene()
        cfg = RaiseConfig(r=1.0, rho=1.0, dbscan_min_pts=1, seed=0)
        _, _, report = perlin_raise(cloud, labels, default_class_spec(), cfg)
        d2 = ((cloud.points[report.selected_indices] - report.center) ** 2).sum(axis=1)
        assert np.any(d2 == 1.0)
