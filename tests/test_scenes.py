"""Synthetic scene generator and evaluation-anomaly injection."""

import numpy as np
import pytest

from lidarood.core import ContractError, Role
from lidarood.scenes import (
    BUILDING, OOD_ID, PERSON, ROAD, VOID_ID,
    SceneConfig, default_budget, generate_scene, inject_eval_anomaly,
)


class TestGenerateScene:
    def test_determinism(self):
        cfg = SceneConfig(seed=123)
        a_cloud, a_labels = generate_scene(cfg)
        b_cloud, b_labels = generate_scene(cfg)
        assert a_cloud.points.tobytes() == b_cloud.points.tobytes()
        assert a_labels.semantic.tobytes() == b_labels.semantic.tobytes()
        assert a_labels.instance.tobytes() == b_labels.instance.tobytes()

    def test_budgets_exact(self):
        budget = default_budget(20000)
        cloud, labels = generate_scene(SceneConfig(seed=5, class_budget=budget))
        for class_id, want in budget.items():
            got = int((labels.semantic == class_id).sum())
            assert abs(got - want) <= 0.1 * want

    def test_road_only_height_statistics(self):
        """Road z is Gaussian noise around 0; tail beyond 3 sigma stays
        under 0.3% aggregated over 100 seeds."""
        sigma = 0.02
        violations = total = 0
        for seed in range(100):
            cfg = SceneConfig(seed=seed, class_budget={ROAD: 10000}, road_noise_sigma=sigma)
            cloud, labels = generate_scene(cfg)
            assert set(np.unique(labels.role)) == {Role.INLIER}
            z = cloud.points[:, 2].astype(np.float64)
            violations += int((np.abs(z) > 3 * sigma).sum())
            total += z.size
        assert violations / total <= 0.003

    def test_tail_class_fraction(self):
        budget = {ROAD: 50000, PERSON: 50}
        cloud, labels = generate_scene(SceneConfig(seed=9, class_budget=budget))
        frac = (labels.semantic == PERSON).sum() / cloud.count
        assert abs(frac - 0.001) < 2e-4

    def test_void_budget_produces_void_roles(self):
        budget = default_budget(5000)
        budget[VOID_ID] = 100
        _, labels = generate_scene(SceneConfig(seed=2, class_budget=budget))
        assert (labels.role == Role.VOID).sum() == 100

    def test_labels_match_cloud_length(self):
        cloud, labels = generate_scene(SceneConfig(seed=0))
        assert cloud.count == labels.count

    def test_config_validation(self):
        with pytest.raises(ContractError):
            SceneConfig(seed=0, class_budget={BUILDING: 100})  # no road
        with pytest.raises(ContractError):
            SceneConfig(seed=0, class_budget={ROAD: 0})
        with pytest.raises(ContractError):
            SceneConfig(seed=0, eval_anomaly_kinds=("pyramid",))
        with pytest.raises(ContractError):
            SceneConfig(seed=-1)

    def test_negative_zero_road_noise_is_zero(self):
        """-0.0 passes the >= 0 check; it is kept as +0.0, a scale that
        rng.normal takes, and gives the scene of 0.0."""
        cfg = SceneConfig(seed=2, class_budget={ROAD: 500}, road_noise_sigma=-0.0)
        assert np.copysign(1.0, cfg.road_noise_sigma) == 1.0
        cloud, _ = generate_scene(cfg)
        zero, _ = generate_scene(SceneConfig(seed=2, class_budget={ROAD: 500},
                                             road_noise_sigma=0.0))
        assert cloud.points.tobytes() == zero.points.tobytes()

    # 1e308: finite, but the sampled span 2 * extent overflows
    @pytest.mark.parametrize("extent", [0.0, -3.0, float("nan"), float("inf"), 1e308])
    def test_extent_not_finite_positive(self, extent):
        with pytest.raises(ContractError):
            SceneConfig(seed=0, extent=extent)


class TestInjectEvalAnomaly:
    def test_zero_count_is_identity(self):
        cfg = SceneConfig(seed=1)
        cloud, labels = generate_scene(cfg)
        out_cloud, out_labels = inject_eval_anomaly(cloud, labels, cfg, seed=0, count=0)
        assert out_cloud is cloud and out_labels is labels

    def test_negative_count_rejected(self):
        cfg = SceneConfig(seed=1)
        cloud, labels = generate_scene(cfg)
        with pytest.raises(ContractError):
            inject_eval_anomaly(cloud, labels, cfg, seed=0, count=-1)

    def test_originals_untouched_and_fresh_instance(self):
        cfg = SceneConfig(seed=2)
        cloud, labels = generate_scene(cfg)
        out_cloud, out_labels = inject_eval_anomaly(cloud, labels, cfg, seed=3)
        m = cloud.count
        np.testing.assert_array_equal(out_cloud.points[:m], cloud.points)
        np.testing.assert_array_equal(out_labels.semantic[:m], labels.semantic)
        added = out_labels.role[m:]
        assert np.all(added == Role.REAL_OOD)
        assert np.all(out_labels.semantic[m:] == OOD_ID)
        new_inst = np.unique(out_labels.instance[m:])
        assert len(new_inst) == 1
        assert new_inst[0] > labels.instance.max()

    def test_box_anomaly_within_aabb(self):
        cfg = SceneConfig(seed=3, eval_anomaly_kinds=("box",),
                          anomaly_size_range=(0.5, 0.5))
        cloud, labels = generate_scene(cfg)
        out_cloud, out_labels = inject_eval_anomaly(cloud, labels, cfg, seed=4)
        added = out_cloud.points[cloud.count:].astype(np.float64)
        spans = added.max(axis=0) - added.min(axis=0)
        assert np.all(spans <= 0.5 + 1e-5)

    def test_no_building_overlap_100_seeds(self):
        cfg = SceneConfig(seed=11)
        cloud, labels = generate_scene(cfg)
        building = labels.semantic == BUILDING
        boxes = []
        for inst in np.unique(labels.instance[building]):
            pts = cloud.points[building & (labels.instance == inst)].astype(np.float64)
            boxes.append((pts[:, 0].min(), pts[:, 0].max(),
                          pts[:, 1].min(), pts[:, 1].max()))
        assert boxes
        for seed in range(100):
            out_cloud, out_labels = inject_eval_anomaly(cloud, labels, cfg, seed=seed)
            added = out_cloud.points[cloud.count:].astype(np.float64)
            for x0, x1, y0, y1 in boxes:
                inside = ((added[:, 0] >= x0) & (added[:, 0] <= x1)
                          & (added[:, 1] >= y0) & (added[:, 1] <= y1))
                assert not inside.any()

    def test_requires_road(self):
        cfg = SceneConfig(seed=4)
        cloud, labels = generate_scene(SceneConfig(seed=4, class_budget={ROAD: 100}))
        no_road = labels.semantic.copy()
        no_road[:] = BUILDING
        from lidarood.core import LabelMap, roles_from_semantic
        from lidarood.scenes import default_class_spec
        relabeled = LabelMap(semantic=no_road, instance=labels.instance,
                             role=roles_from_semantic(no_road, default_class_spec()))
        with pytest.raises(ContractError):
            inject_eval_anomaly(cloud, relabeled, cfg, seed=0)
