"""Feature extraction, the pointwise backbone, and the training loop."""

import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarood import losses, trainer
from lidarood.core import ContractError, FormatError, LabelMap, PointCloud
from lidarood.losses import total_loss
from lidarood.perlin import draw_raise, perlin_raise
from lidarood.priornet import init_params
from lidarood.scenes import SceneConfig, default_budget, default_class_spec, generate_scene
from lidarood.trainer import (
    Backbone, TrainConfig, backbone_backward, extract_features, forward,
    init_backbone, load_checkpoint, save_checkpoint, train,
)


def small_scenes(n, seed0=100, total=1200, extent=5.0):
    budget = default_budget(total)
    budget[0] = max(10, total // 100)  # small void clutter
    return [generate_scene(SceneConfig(seed=seed0 + i, extent=extent,
                                       class_budget=budget)) for i in range(n)]


class TestExtractFeatures:
    def test_single_point(self):
        feats = extract_features(PointCloud(points=[[1.0, 2.0, 2.0]]))
        z, radial, density, zvar = feats[0]
        assert z == np.float32(2.0)
        assert abs(radial - 3.0) < 1e-6
        assert density == 1
        assert zvar == 0.0

    def test_xy_translation_keeps_z_feature(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(50, 3))
        a = extract_features(PointCloud(points=pts))
        b = extract_features(PointCloud(points=pts + [10.0, -4.0, 0.0]))
        np.testing.assert_allclose(a[:, 0], b[:, 0], atol=1e-6)

    def test_density_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=(300, 3))
        cloud = PointCloud(points=pts)
        feats = extract_features(cloud)
        p = cloud.points.astype(np.float64)
        d2 = ((p[:, None] - p[None]) ** 2).sum(axis=2)
        counts = (d2 <= 0.25).sum(axis=1)
        np.testing.assert_array_equal(feats[:, 2], counts)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ContractError):
            extract_features(PointCloud(points=np.empty((0, 3))))

    def test_point_beyond_int64_cells_rejected_without_warning(self):
        """x = 1e20 has a cell key past int64: the index refuses the cloud
        before a cast that would warn and wrap the key."""
        points = np.zeros((4, 3))
        points[2, 0] = 1e20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="cell"):
                extract_features(PointCloud(points=points))

    def test_bytes_pinned_at_20k_points(self):
        """The features of one CLI-default scene, to the byte. The hash was
        computed with the 9-column ordered pair enumerator that ``ball_stats``
        walked before it measured each unordered pair once (numpy 2.4); the
        order-explicit oracle in test_neighbors only reaches ~1.5k points."""
        cloud, _ = generate_scene(SceneConfig(seed=1, extent=12.0,
                                              class_budget=default_budget(20000)))
        digest = hashlib.sha256(extract_features(cloud).tobytes()).hexdigest()
        assert digest == "64ef8d5c9e17fcdba31cbef317f278dc18549be206ac4938a878816efba065c0"

    @pytest.mark.parametrize("total, extent, before_mb", [
        pytest.param(3400, 5.0, 2.613, id="3.4k"),
        pytest.param(20000, 12.0, 5.003, id="20k"),
        pytest.param(100000, 12.0, 13.518, id="100k"),
    ])
    def test_peak_bounded(self, total, extent, before_mb):
        """The tracemalloc peak of one extraction on a seed-1 scene, index and
        pair blocks included, is at most ``before_mb``, the peak of the walk
        that concatenated each block's mirrored and direct hits, plus 0.1 MB.
        A first small call keeps one-time set-up out of the peak."""
        extract_features(PointCloud(points=np.random.default_rng(0).uniform(0, 1, (50, 3))))
        cloud, _ = generate_scene(SceneConfig(seed=1, extent=extent,
                                              class_budget=default_budget(total)))
        tracemalloc.start()
        try:
            extract_features(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (before_mb + 0.1) * 2**20


class TestBackbone:
    def test_zero_weights_zero_logits(self):
        spec = default_class_spec(extended=True)
        bb = Backbone(w1=np.zeros((4, 8)), b1=np.zeros(8),
                      w2=np.zeros((8, spec.logit_width)), b2=np.zeros(spec.logit_width))
        feats = np.random.default_rng(2).normal(size=(10, 4))
        logits = forward(bb, feats, spec)
        assert not logits.values.any()

    def test_final_layer_linearity(self):
        """At fixed hidden activations the logits are linear in w2."""
        spec = default_class_spec(extended=True)
        bb = init_backbone(8, spec.logit_width, seed=3)
        feats = np.random.default_rng(3).normal(size=(5, 4))
        base = forward(bb, feats, spec).values - bb.b2
        bb2 = Backbone(w1=bb.w1, b1=bb.b1, w2=2.0 * bb.w2, b2=np.zeros_like(bb.b2))
        doubled = forward(bb2, feats, spec).values
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_gradients_vs_fd(self):
        spec = default_class_spec(extended=True)
        rng = np.random.default_rng(4)
        bb = init_backbone(6, spec.logit_width, seed=5)
        feats = rng.normal(size=(4, 4))
        dlogits = rng.normal(size=(4, spec.logit_width))
        grads = backbone_backward(bb, feats, dlogits)

        def objective():
            return float((dlogits * forward(bb, feats, spec).values).sum())

        h = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(bb, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                plus = objective()
                arr[ix] = orig - h
                minus = objective()
                arr[ix] = orig
                fd = (plus - minus) / (2 * h)
                assert abs(fd - grads[name][ix]) < 1e-5


    @pytest.mark.parametrize("shape", [(5, 3), (5, 4, 1), (4,)])
    def test_features_not_m_by_4_rejected(self, shape):
        spec = default_class_spec(extended=True)
        bb = init_backbone(6, spec.logit_width, seed=5)
        with pytest.raises(ContractError, match="features must be"):
            forward(bb, np.ones(shape), spec)
        with pytest.raises(ContractError, match="features must be"):
            backbone_backward(bb, np.ones(shape), np.ones((5, spec.logit_width)))

    @pytest.mark.parametrize("shape", [(4, 14), (6, 14), (5, 13), (70,)])
    def test_dlogits_not_matching_rejected(self, shape):
        """dlogits must have the features' rows and w2's width (14)."""
        bb = init_backbone(6, 14, seed=5)
        with pytest.raises(ContractError, match="dlogits must be"):
            backbone_backward(bb, np.ones((5, 4)), np.ones(shape))


class TestTrain:
    def test_lr_zero_leaves_parameters(self):
        spec = default_class_spec(extended=True)
        scenes = small_scenes(3)
        cfg = TrainConfig(lr=0.0, epochs=1, seed=9)
        bb, params, _ = train(scenes, spec, cfg)
        init_rng = np.random.default_rng([9, 0])
        bb0 = init_backbone(cfg.hidden, spec.logit_width, seed=int(init_rng.integers(2**63)))
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(bb, name), getattr(bb0, name))
        assert params.b == 0.0

    def test_fixed_seed_bitwise_log(self):
        spec = default_class_spec(extended=True)
        scenes = small_scenes(3)
        cfg = TrainConfig(lr=1e-3, epochs=2, seed=11)
        _, _, log_a = train(scenes, spec, cfg)
        _, _, log_b = train(scenes, spec, cfg)
        assert log_a == log_b

    def test_loss_decreases_across_epochs(self):
        """On a 20-scene set, epoch-5 mean loss beats epoch-1 for at least
        9 of 10 seeds."""
        spec = default_class_spec(extended=True)
        scenes = small_scenes(20, total=600)
        improved = 0
        for seed in range(10):
            cfg = TrainConfig(lr=3e-3, epochs=5, seed=seed)
            _, _, tlog = train(scenes, spec, cfg)
            improved += tlog.epochs[4].total < tlog.epochs[0].total
        assert improved >= 9

    def test_static_equals_zero_head_prior_training(self):
        """With the head pinned at zero the prior path is numerically inert,
        so the backbone trajectory matches static training bitwise."""
        spec = default_class_spec(extended=True)
        scenes = small_scenes(2)
        cfg_static = TrainConfig(lr=1e-3, epochs=2, seed=13, use_prior=False)
        cfg_zero = TrainConfig(lr=1e-3, epochs=2, seed=13, use_prior=True,
                               head_init_scale=0.0)
        bb_s, pp_s, log_s = train(scenes, spec, cfg_static)
        bb_z, pp_z, log_z = train(scenes, spec, cfg_zero)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(bb_s, name), getattr(bb_z, name))
        assert pp_s.b == pp_z.b
        assert log_s == log_z
        assert not pp_z.w_head.any()

    @pytest.mark.parametrize("seed, dead", [(0, True), (1, False)], ids=["dead", "live"])
    def test_live_share_of_the_prior_head(self, monkeypatch, seed, dead):
        """Each epoch reports the share of its steps' points with a positive
        head pre-activation, and its steps with none, as counted here on
        the tapes of the loss's prior passes (one row chunk per step, two
        steps per epoch). Seed 0's head is dead by its last epoch, so the
        prior is the identity; seed 1's is live."""
        real, tapes = losses.prior_weight, []

        def spy(*args, **kwargs):
            w, tape = real(*args, **kwargs)
            tapes.append((np.count_nonzero(tape.pre > 0.0), tape.pre.size))
            return w, tape

        monkeypatch.setattr(losses, "prior_weight", spy)
        spec = default_class_spec(extended=True)
        _, _, tlog = train(small_scenes(2), spec, TrainConfig(lr=1e-3, epochs=3, seed=seed))
        assert len(tapes) == 6
        for k, ep in enumerate(tlog.epochs):
            live, points = np.sum(tapes[2 * k:2 * k + 2], axis=0)
            assert ep.live == live / points
            assert ep.dead_steps == sum(n == 0 for n, _ in tapes[2 * k:2 * k + 2])
        last = tlog.epochs[-1]
        assert (last.live == 0.0, last.dead_steps) == ((True, 2) if dead else (False, 0))
        assert last.live <= 1.0

    def test_no_road_scan_skipped(self):
        spec = default_class_spec(extended=True)
        scenes = small_scenes(2)
        # rewrite one scan without road points
        cloud, labels = scenes[0]
        sem = np.array(labels.semantic)
        sem[sem == 1] = 3
        from lidarood.core import roles_from_semantic
        scenes[0] = (cloud, LabelMap(semantic=sem, instance=labels.instance,
                                     role=roles_from_semantic(sem, default_class_spec())))
        cfg = TrainConfig(lr=1e-3, epochs=1, seed=17)
        _, _, tlog = train(scenes, spec, cfg)
        assert len(tlog.skipped) == 1
        assert tlog.epochs[0].steps == 1

    def test_empty_dataset_rejected(self):
        spec = default_class_spec(extended=True)
        with pytest.raises(ContractError):
            train([], spec, TrainConfig())

    def test_scan_of_mismatched_lengths_rejected(self, monkeypatch):
        """Named by its index, before any feature is extracted."""
        monkeypatch.setattr(trainer, "extract_features", None)
        scenes = small_scenes(2)
        cloud, labels = scenes[1]
        scenes[1] = (cloud, LabelMap(semantic=labels.semantic[:-10],
                                     instance=labels.instance[:-10], role=labels.role[:-10]))
        with pytest.raises(ContractError, match="scan 1: "):
            train(scenes, default_class_spec(extended=True), TrainConfig(epochs=1, seed=3))

    def test_parameters_stay_finite(self):
        spec = default_class_spec(extended=True)
        scenes = small_scenes(2)
        bb, params, _ = train(scenes, spec, TrainConfig(lr=1e-2, epochs=3, seed=19))
        for name in ("w1", "b1", "w2", "b2"):
            assert np.all(np.isfinite(getattr(bb, name)))
        params.validate()

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_config_needs_a_hidden_unit(self, hidden):
        with pytest.raises(ContractError):
            TrainConfig(hidden=hidden)

    def test_config_rejects_negative_raise_per_scan(self):
        with pytest.raises(ContractError):
            TrainConfig(raise_per_scan=-1)
        assert TrainConfig(raise_per_scan=0).raise_per_scan == 0

    @pytest.mark.parametrize("kw", [
        dict(raise_r_range=(2.0, 1.0)), dict(raise_r_range=(0.0, 1.0)),
        dict(raise_r_range=(-1.0, 1.0)), dict(raise_r_range=(1.0, float("inf"))),
        dict(raise_r_range=(float("nan"), 1.0)), dict(raise_r_range=(1.0, float("nan"))),
        dict(raise_eps=-1.0), dict(raise_eps=float("nan")), dict(raise_min_pts=0),
        dict(raise_alpha=-0.1), dict(raise_rho=0.0), dict(raise_rho=1.5),
        dict(latent_dim=0), dict(latent_dim=-1), dict(seed=-1),
    ], ids=["r-range-reversed", "r-range-zero", "r-range-negative", "r-range-inf",
            "r-range-nan-lo", "r-range-nan-hi", "eps-negative", "eps-nan", "min-pts-zero",
            "alpha-negative", "rho-zero", "rho-above-1", "latent-dim-zero",
            "latent-dim-negative", "seed-negative"])
    def test_config_rejects_bad_raise_and_prior_settings(self, kw):
        """At construction, before ``train`` extracts any feature."""
        with pytest.raises(ContractError):
            TrainConfig(**kw)
        assert TrainConfig(raise_r_range=(1.0, 1.0)).raise_r_range == (1.0, 1.0)

    def test_checkpoint_bytes_pinned_when_raises_move_points(self, tmp_path):
        """A run in which all 18 raises move points, so every step patches
        its scan's features. The hash was computed when each such step
        extracted the features of its whole raised cloud (numpy 2.4)."""
        spec = default_class_spec(extended=True)
        cfg = TrainConfig(lr=1e-3, epochs=3, seed=7, raise_per_scan=2,
                          raise_eps=1.0, raise_min_pts=2, raise_rho=1.0)
        bb, params, _ = train(small_scenes(3), spec, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, bb, params)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "0e3c2823e10bbee61797ef0569d0857c54b99748c55cafaea3d9bc86fb689141"

    def test_checkpoint_bytes_pinned_at_20k_points(self, tmp_path):
        """Training on one CLI-default scene, past one 4096-row chunk, to the
        byte. The hash was computed when every step array had a workspace
        buffer of its own (numpy 2.4)."""
        spec = default_class_spec(extended=True)
        scene = generate_scene(SceneConfig(seed=1, extent=12.0,
                                           class_budget=default_budget(20000)))
        cfg = TrainConfig(lr=1e-3, epochs=2, seed=0, raise_per_scan=2)
        bb, params, _ = train([scene], spec, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, bb, params)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "ec3079792e6e8f78a0401b12129d75a025cde14a80fdce9fe0feecb89f75f294"

    @pytest.mark.parametrize("total, extent, after_mb", [
        pytest.param(3400, 5.0, 3.760, id="3.4k"),
        pytest.param(20000, 12.0, 6.243, id="20k"),
        pytest.param(100000, 12.0, 15.618, id="100k"),
    ])
    def test_peak_bounded(self, total, extent, after_mb):
        """The tracemalloc peak of one ``train()`` call (2 epochs, two raises
        per scan) on a seed-1 scene is at most ``after_mb``, the peak with
        each step walked in row chunks through a workspace of one chunk,
        plus 0.1 MB. With whole-scan steps it was 3.97, 21.68 and 113.1 MB;
        with a buffer per step array, 5.83, 33.74 and 173 MB. A first small
        call keeps one-time set-up out of the peak."""
        spec = default_class_spec(extended=True)
        cfg = TrainConfig(lr=1e-3, epochs=2, seed=0, raise_per_scan=2)
        train(small_scenes(1), spec, cfg)
        scene = generate_scene(SceneConfig(seed=1, extent=extent,
                                           class_budget=default_budget(total)))
        tracemalloc.start()
        try:
            train([scene], spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (after_mb + 0.1) * 2**20, peak / 2**20

    def test_step_is_textbook_adam_bitwise(self):
        """One epoch without prior or raises equals, bitwise, the loop written
        out here: the seeded init and scan order, forward -> total_loss ->
        backbone_backward, then bias-corrected Adam (0.9, 0.999, 1e-8) on
        every backbone tensor and the bias b after each scan."""
        spec = default_class_spec(extended=True)
        scenes = small_scenes(3)
        cfg = TrainConfig(lr=1e-3, epochs=1, seed=37, use_prior=False, raise_per_scan=0)
        bb, params, _ = train(scenes, spec, cfg)

        init_rng = np.random.default_rng([cfg.seed, 0])
        want = init_backbone(cfg.hidden, spec.logit_width, seed=int(init_rng.integers(2**63)))
        want_params = init_params(spec.logit_width, cfg.latent_dim,
                                  seed=int(init_rng.integers(2**63)))
        tensors = dict(want.tensors(), b=np.zeros(()))  # updated in place
        m = {name: np.zeros_like(x) for name, x in tensors.items()}
        v = {name: np.zeros_like(x) for name, x in tensors.items()}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        order = np.random.default_rng([cfg.seed, 2]).permutation(len(scenes))
        for t, k in enumerate(order, start=1):
            cloud, labels = scenes[k]
            features = extract_features(cloud)
            result = total_loss(forward(want, features, spec), labels, spec, cfg.method,
                                want_params, cfg.loss, use_prior=False)
            grads = backbone_backward(want, features, result.dlogits)
            grads["b"] = np.asarray(result.prior_grads.b)
            for name, g in grads.items():
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v[name] = beta2 * v[name] + (1 - beta2) * g * g
                m_hat = m[name] / (1 - beta1**t)
                v_hat = v[name] / (1 - beta2**t)
                tensors[name] -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
            want_params.b = float(tensors["b"])

        for name, x in want.tensors().items():
            assert getattr(bb, name).tobytes() == x.tobytes(), name
        for name, x in want_params.tensors().items():
            assert getattr(params, name).tobytes() == x.tobytes(), name
        assert np.float64(params.b).tobytes() == np.float64(want_params.b).tobytes()


# x and y on quarter metres over two radii, z over one: dense enough that
# moved points have neighbours, pairs at exactly the radius and on cell
# edges among them, and those neighbours have neighbours on every side
_QUARTERS = np.arange(-4, 5) / 4
EDGE_SITES = np.array(np.meshgrid(_QUARTERS, _QUARTERS, [0.0, 0.25, 0.5], indexing="ij"),
                      dtype=np.float32).reshape(3, -1).T
# a coordinate's float32 neighbours (those of 0 are the least denormals,
# +-2**-149), -0.0 for 0, and the denormals +-2**-130
EDGE_EDITS = [lambda v: np.nextafter(v, np.float32(-1)), lambda v: np.nextafter(v, np.float32(1)),
              lambda v: -v if v == 0 else v, lambda v: 2.0**-130, lambda v: -2.0**-130]


class TestFeatureRefresh:
    """``_refresh_features`` against a fresh extraction of the moved cloud
    on a lattice: x and y on multiples of 0.5 m, so neighbors sit exactly at
    the feature radius and on cell column edges, and z on 0, 0.25 and 0.5,
    so some moves cross a z cell boundary."""

    @staticmethod
    def lattice():
        g = np.arange(-4, 5) * 0.5
        x, y, z = np.meshgrid(g, g, [0.0, 0.25, 0.5], indexing="ij")
        return np.c_[x.ravel(), y.ravel(), z.ravel()]

    @pytest.mark.parametrize("select, dz", [
        (lambda p: (p == [0.0, 0.0, 0.25]).all(axis=1), 0.1),
        (lambda p: (p == [0.0, 0.0, 0.25]).all(axis=1), 0.25),
        (lambda p: (p == [-2.0, -2.0, 0.0]).all(axis=1), -0.5),
        (lambda p: (p == [2.0, 0.5, 0.5]).all(axis=1), 0.5),
        (lambda p: (p[:, 0] == 0.5) & (p[:, 2] == 0.25), 0.3),
        (lambda p: (np.abs(p[:, 0]) <= 0.5) & (np.abs(p[:, 1]) <= 0.5), 0.25),
        (lambda p: (np.abs(p[:, :2]) == 2.0).all(axis=1) & (p[:, 2] == 0.0), 0.75),
        (lambda p: p[:, 2] == 0.0, 0.5),
        (lambda p: np.ones(len(p), dtype=bool), 0.125),
    ], ids=["point-small", "point-onto-cell-edge", "corner-below-cloud", "edge-above-cloud",
            "column-line", "cluster-across-columns", "four-corners", "whole-layer",
            "whole-cloud"])
    def test_bytes_equal_fresh_extraction(self, select, dz):
        points = self.lattice()
        moved = np.flatnonzero(select(points))
        assert moved.size
        raised = points.copy()
        raised[moved, 2] += dz
        cloud = PointCloud(points=raised)
        base = extract_features(PointCloud(points=points))
        got = trainer._refresh_features(base, cloud, moved)
        assert got.tobytes() == extract_features(cloud).tobytes()

    def test_repeated_and_unsorted_moved_rows(self):
        points = self.lattice()
        moved = np.array([40, 3, 40, 200])
        raised = points.copy()
        raised[moved, 2] += 0.5
        cloud = PointCloud(points=raised)
        got = trainer._refresh_features(extract_features(PointCloud(points=points)), cloud,
                                        moved)
        assert got.tobytes() == extract_features(cloud).tobytes()

    def test_neighbour_at_the_rounded_radius(self):
        """A neighbour 0.5 + 2**-60 from the moved point in x, whose d2
        rounds onto r * r: just past the radius on x, and so redone only by
        a reach wider than the radius."""
        points = np.array([[-0.5, 0.0, 0.0], [2.0**-60, 0.0, 0.0]])
        raised = points.copy()
        raised[0, 2] += 0.25
        cloud = PointCloud(points=raised)
        base = extract_features(PointCloud(points=points))
        assert base[1, 2] == 2
        got = trainer._refresh_features(base, cloud, np.array([0]))
        assert got.tobytes() == extract_features(cloud).tobytes()

    def test_no_moved_rows(self):
        cloud = PointCloud(points=self.lattice())
        base = extract_features(cloud)
        got = trainer._refresh_features(base, cloud, np.array([], dtype=int))
        assert got.tobytes() == base.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(),
           sites=st.lists(st.integers(0, len(EDGE_SITES) - 1), min_size=10, max_size=60))
    def test_bytes_equal_fresh_extraction_on_edge_coordinates(self, data, sites):
        """Lattice points, some coordinates moved to a float32 neighbour,
        a signed zero or a denormal, raised by 1-3 groups of rows
        (repeated, unsorted)."""
        points = EDGE_SITES[sites]
        n = len(points)
        for k, axis, edit in data.draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(0, 2), st.sampled_from(EDGE_EDITS)),
                max_size=10)):
            points[k, axis] = edit(points[k, axis])
        groups = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=8),
                                    min_size=1, max_size=3))
        raised = points.copy()
        for g in groups:
            raised[g, 2] += data.draw(st.sampled_from([0.5, -0.5, 0.25, 1e-7]))
        cloud = PointCloud(points=raised)
        base = extract_features(PointCloud(points=points))
        got = trainer._refresh_features(base, cloud, *map(np.array, groups))
        assert got.tobytes() == extract_features(cloud).tobytes()

    @pytest.mark.parametrize("total, extent", [(3000, 8.0), (20000, 12.0)], ids=["3k", "20k"])
    def test_bytes_equal_fresh_extraction_after_real_raises(self, total, extent):
        """Raises of a scene with a density filter loose enough (eps 1.0,
        min_pts 2) that each moves points, two per step as training chains
        them."""
        spec = default_class_spec(extended=True)
        scene, scene_labels = generate_scene(SceneConfig(seed=7, extent=extent,
                                                         class_budget=default_budget(total)))
        base = extract_features(scene)
        rng = np.random.default_rng(total)
        for _ in range(3):
            cloud, labels, moved = scene, scene_labels, []
            for _ in range(2):
                rcfg = draw_raise(rng, (0.75, 1.5), dbscan_eps=1.0, dbscan_min_pts=2)
                cloud, labels, report = perlin_raise(cloud, labels, spec, rcfg)
                assert report.raised_count > 0
                moved.append(report.raised_indices)
            got = trainer._refresh_features(base, cloud, np.concatenate(moved))
            assert got.tobytes() == extract_features(cloud).tobytes()


class TestFeatureCache:
    @pytest.mark.parametrize("raise_kw, hits, misses, scan_20k", [
        (dict(raise_eps=1.0, raise_min_pts=2, raise_rho=1.0), True, False, False),
        (dict(raise_eps=0.5, raise_min_pts=4), True, True, False),
        (dict(), False, True, False),
        (dict(), True, True, True),
    ], ids=["raises-hit", "raises-mixed", "raises-miss", "raises-default-20k"])
    def test_step_features_equal_fresh_extraction(self, monkeypatch, raise_kw, hits, misses,
                                                  scan_20k):
        """Each step's features are bitwise those of its raised cloud, and
        features are extracted at most once per scan plus once per step
        whose raises moved points. A step's ``forward`` calls take its
        features a row chunk at a time, in row order."""
        spec = default_class_spec(extended=True)
        scenes = small_scenes(3)
        if scan_20k:  # a CLI-default scan in place of the last small one
            scenes[-1] = generate_scene(SceneConfig(seed=1, extent=12.0,
                                                    class_budget=default_budget(20000)))
        real_raise, real_forward = trainer.perlin_raise, trainer.forward
        real_features = trainer.extract_features
        step_raises = []  # (cloud, raised_count) of the raises since the last forward
        extracted = []    # clouds extract_features ran on
        moved_steps = still_steps = 0
        step_rows = []    # the current step's fresh features and the rows its chunks took

        def spy_raise(*args):
            out = real_raise(*args)
            step_raises.append((out[0], out[2].raised_count))
            return out

        def spy_features(cloud):
            extracted.append(cloud)
            return real_features(cloud)

        def spy_forward(backbone, features, spec_, **kw):
            nonlocal moved_steps, still_steps
            if step_raises:  # the first chunk of a training step
                if step_rows:  # the step before took all its rows
                    assert step_rows[1] == len(step_rows[0])
                step_rows[:] = [real_features(step_raises[-1][0]), 0]
                if any(count > 0 for _, count in step_raises):
                    moved_steps += 1
                else:
                    still_steps += 1
                step_raises.clear()
            if step_rows:  # not the prior-head probe, which runs before any step
                fresh, start = step_rows
                assert features.tobytes() == fresh[start:start + len(features)].tobytes()
                step_rows[1] += len(features)
            return real_forward(backbone, features, spec_, **kw)

        monkeypatch.setattr(trainer, "perlin_raise", spy_raise)
        monkeypatch.setattr(trainer, "extract_features", spy_features)
        monkeypatch.setattr(trainer, "forward", spy_forward)
        train(scenes, spec, TrainConfig(lr=1e-3, epochs=3, seed=5, raise_per_scan=2,
                                        **raise_kw))

        base = [c for c in extracted if any(c is cloud for cloud, _ in scenes)]
        assert len({id(c) for c in base}) == len(base)  # each scan at most once
        assert len(extracted) - len(base) == moved_steps
        assert moved_steps + still_steps == 9
        assert step_rows[1] == len(step_rows[0])  # the last step took all its rows
        assert (moved_steps > 0) == hits
        assert (still_steps > 0) == misses
        if not hits:
            assert still_steps > len(base)  # cached features were reused


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        spec = default_class_spec(extended=True)
        scenes = small_scenes(2)
        bb, params, _ = train(scenes, spec, TrainConfig(lr=1e-3, epochs=1, seed=23))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, bb, params)
        bb2, params2 = load_checkpoint(path)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_allclose(getattr(bb2, name), getattr(bb, name),
                                       rtol=0, atol=1e-6)
        np.testing.assert_allclose(params2.psi, params.psi, rtol=0, atol=1e-6)
        # saving the loaded model reproduces the file bit-for-bit
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(path2, bb2, params2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_or_trailing_bytes_rejected(self, tmp_path):
        spec = default_class_spec(extended=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_backbone(8, spec.logit_width, seed=1),
                        init_params(spec.logit_width, d=4, seed=2))
        good = path.read_bytes()
        for bad in [good[:size] for size in range(len(good))] + [good + b"\0"]:
            path.write_bytes(bad)
            with pytest.raises(FormatError):
                load_checkpoint(path)

    @pytest.mark.parametrize("part", ["backbone", "prior"])
    def test_float32_overflow_rejected_before_writing(self, tmp_path, part):
        spec = default_class_spec(extended=True)
        backbone = init_backbone(8, spec.logit_width, seed=1)
        params = init_params(spec.logit_width, d=4, seed=2)
        if part == "backbone":
            backbone.w2[0, 0] = 1e39
        else:
            params.psi[0, 0] = 1e39
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractError):
            save_checkpoint(path, backbone, params)
        assert not path.exists()

    def test_prior_width_must_match_backbone(self, tmp_path):
        spec = default_class_spec(extended=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_backbone(8, spec.logit_width, seed=1),
                        init_params(spec.num_classes, d=4, seed=2))
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_hidden_width_zero_rejected_before_writing(self, tmp_path):
        spec = default_class_spec(extended=True)
        backbone = init_backbone(0, spec.logit_width, seed=1)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContractError):
            save_checkpoint(path, backbone, init_params(spec.logit_width, d=4, seed=2))
        assert not path.exists()

    def test_hidden_width_zero_rejected_on_load(self, tmp_path):
        """A well-formed file of a backbone with no hidden unit: the header,
        the feature scale and b2 (w1, b1 and w2 are empty), then the prior."""
        spec = default_class_spec(extended=True)
        backbone = init_backbone(8, spec.logit_width, seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, backbone, init_params(spec.logit_width, d=4, seed=2))
        good = path.read_bytes()
        prior = good[16 + 4 * backbone.w1.size + 4 * (backbone.b1.size + backbone.w2.size)
                     + 4 * (backbone.feature_scale.size + backbone.b2.size):]
        path.write_bytes(good[:4] + struct.pack("<III", 1, 0, spec.logit_width)
                         + backbone.feature_scale.astype("<f4").tobytes()
                         + backbone.b2.astype("<f4").tobytes() + prior)
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ContractError):
            load_checkpoint(path)
