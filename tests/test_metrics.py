"""Evaluation metrics against brute-force oracles and hand computations."""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarood.cluster import dbscan
from lidarood.core import ContractError, LabelMap, PointCloud, Role, ScoreField
from lidarood.metrics import (
    IOU_THRESHOLD, OOD_ROLES, EvalConfig, MatchResult, auroc, average_precision,
    cluster_predictions, evaluate_scenes, fpr_at_95_tpr, match_instances, panoptic_scores,
    pooled_points, read_report, threshold_at_tpr, write_report,
)
from lidarood.scoring import classify
from test_cluster import flagged_points, lattice_points, scene_points


def brute_force_auroc(scores, pos):
    wins = ties = 0
    for sp in scores[pos]:
        for sn in scores[~pos]:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (pos.sum() * (~pos).sum())


def brute_force_fpr95(scores, pos, tpr=0.95):
    candidates = sorted(set(scores.tolist()), reverse=True) + [-np.inf]
    for gamma in candidates:
        flagged = scores > gamma
        if flagged[pos].sum() / pos.sum() >= tpr:
            return flagged[~pos].sum() / (~pos).sum()


def brute_force_ap(scores, pos):
    candidates = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for gamma in candidates:
        flagged = scores >= gamma
        tp = (flagged & pos).sum()
        precision = tp / flagged.sum()
        recall = tp / pos.sum()
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestAuroc:
    def test_perfect_separation(self):
        scores = ScoreField(scores=np.array([5.0, 6.0, 1.0, 2.0]))
        pos = np.array([True, True, False, False])
        assert auroc(scores, pos) == 1.0

    def test_all_ties(self):
        scores = ScoreField(scores=np.zeros(10))
        pos = np.arange(10) < 4
        assert auroc(scores, pos) == 0.5

    def test_single_class_errors(self):
        scores = ScoreField(scores=np.array([1.0, 2.0]))
        with pytest.raises(ContractError):
            auroc(scores, np.array([True, True]))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s = np.round(rng.normal(size=50), 1)  # rounding forces ties
        pos = rng.random(50) < 0.3
        if not pos.any():
            pos[0] = True
        if pos.all():
            pos[1] = False
        got = auroc(ScoreField(scores=s), pos)
        assert abs(got - brute_force_auroc(s, pos)) <= 1e-12

    def test_ignore_mask_excludes(self):
        s = np.array([9.0, 1.0, 2.0, 8.0])
        pos = np.array([True, False, False, True])
        ignore = np.array([False, False, False, True])
        got = auroc(ScoreField(scores=s), pos, ignore)
        want = auroc(ScoreField(scores=s[:3]), pos[:3])
        assert got == want

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=80)
        pos = rng.random(80) < 0.4
        a = auroc(ScoreField(scores=s), pos)
        b = auroc(ScoreField(scores=np.exp(0.5 * s)), pos)
        assert abs(a - b) < 1e-12


class TestFprAt95:
    def test_perfect_separation(self):
        scores = ScoreField(scores=np.concatenate([np.full(40, 5.0), np.full(60, -5.0)]))
        pos = np.arange(100) < 40
        assert fpr_at_95_tpr(scores, pos) == 0.0

    def test_identical_scores(self):
        scores = ScoreField(scores=np.zeros(30))
        pos = np.arange(30) < 10
        assert fpr_at_95_tpr(scores, pos) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sweep_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        s = np.round(rng.normal(size=60), 1)
        pos = rng.random(60) < 0.4
        if not pos.any():
            pos[0] = True
        if pos.all():
            pos[1] = False
        got = fpr_at_95_tpr(ScoreField(scores=s), pos)
        assert abs(got - brute_force_fpr95(s, pos)) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=90)
        pos = rng.random(90) < 0.35
        pos[0] = True
        pos[1] = False
        a = fpr_at_95_tpr(ScoreField(scores=s), pos)
        b = fpr_at_95_tpr(ScoreField(scores=np.tanh(s) * 10), pos)
        assert a == b


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = ScoreField(scores=np.array([4.0, 3.0, 2.0, 1.0]))
        pos = np.array([True, True, False, False])
        assert average_precision(scores, pos) == 1.0

    def test_all_ties_gives_prevalence(self):
        scores = ScoreField(scores=np.zeros(20))
        pos = np.arange(20) < 7
        assert abs(average_precision(scores, pos) - 7 / 20) < 1e-12

    def test_no_positive_errors(self):
        with pytest.raises(ContractError):
            average_precision(ScoreField(scores=np.zeros(3)), np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_threshold_table_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        s = np.round(rng.normal(size=70), 1)
        pos = rng.random(70) < 0.3
        if not pos.any():
            pos[0] = True
        got = average_precision(ScoreField(scores=s), pos)
        assert abs(got - brute_force_ap(s, pos)) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        s = rng.normal(size=60)
        pos = rng.random(60) < 0.3
        pos[0] = True
        a = average_precision(ScoreField(scores=s), pos)
        b = average_precision(ScoreField(scores=3 * s + 7), pos)
        assert abs(a - b) < 1e-12


class TestClusterPredictions:
    def test_nothing_above_gamma(self):
        cloud = PointCloud(points=np.random.default_rng(0).normal(size=(10, 3)))
        scores = ScoreField(scores=np.full(10, -1.0))
        assert cluster_predictions(scores, cloud, EvalConfig(gamma=0.0)) == []

    def test_single_blob(self):
        rng = np.random.default_rng(1)
        blob = rng.normal(0, 0.05, size=(20, 3))
        far = rng.normal(50, 0.05, size=(10, 3))
        cloud = PointCloud(points=np.vstack([blob, far]))
        scores = ScoreField(scores=np.concatenate([np.ones(20), -np.ones(10)]))
        cfg = EvalConfig(gamma=0.0, dbscan_eps=0.5, dbscan_min_pts=3)
        preds = cluster_predictions(scores, cloud, cfg)
        assert len(preds) == 1
        np.testing.assert_array_equal(np.sort(preds[0]), np.arange(20))

    @pytest.mark.parametrize("make_points, eps, min_pts", [
        pytest.param(partial(flagged_points, 1), 0.5, 5, id="top-21%-of-20k"),
        pytest.param(partial(flagged_points, 1, 100000), 0.5, 5, id="top-21%-of-100k"),
        pytest.param(partial(scene_points, 1, 20000, 12.0), 0.5, 5, id="whole-20k"),
        pytest.param(partial(flagged_points, 1, 3400, 8.0), 0.5, 5, id="top-21%-of-3.4k"),
        pytest.param(lattice_points, 0.25, 3, id="lattice-ties"),
    ])
    def test_equals_per_id_masks_on_pinned_partitions(self, make_points, eps, min_pts):
        """test_cluster's pinned DBSCAN inputs, flagged at the even indices
        of a cloud whose odd points score below gamma: one array per
        cluster id, each the flagged indices of that id in ascending order."""
        points = make_points()
        cloud = PointCloud(points=np.repeat(points, 2, axis=0))
        scores = ScoreField(scores=np.tile([1.0, -1.0], len(points)))
        preds = cluster_predictions(scores, cloud, EvalConfig(gamma=0.0, dbscan_eps=eps,
                                                              dbscan_min_pts=min_pts))
        flagged = np.arange(0, cloud.count, 2)
        assign = dbscan(points, eps=eps, min_pts=min_pts)
        want = [flagged[assign.cluster_id == c] for c in range(assign.num_clusters)]
        assert len(preds) == len(want) > 1
        for got, ref in zip(preds, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_all_noise_gives_no_prediction(self):
        cloud = PointCloud(points=np.arange(12.0).reshape(4, 3) * 10)
        scores = ScoreField(scores=np.ones(4))
        assert cluster_predictions(scores, cloud, EvalConfig(dbscan_min_pts=2)) == []

    def test_equivalent_to_manual_pipeline(self):
        rng = np.random.default_rng(2)
        cloud = PointCloud(points=rng.uniform(-3, 3, size=(200, 3)))
        scores = ScoreField(scores=rng.normal(size=200))
        cfg = EvalConfig(gamma=0.3, dbscan_eps=0.8, dbscan_min_pts=4)
        preds = cluster_predictions(scores, cloud, cfg)
        flagged = np.flatnonzero(classify(scores, cfg.gamma))
        assign = dbscan(cloud.points[flagged], eps=cfg.dbscan_eps,
                        min_pts=cfg.dbscan_min_pts)
        manual = [flagged[assign.cluster_id == c] for c in range(assign.num_clusters)]
        assert len(preds) == len(manual)
        for a, b in zip(preds, manual):
            np.testing.assert_array_equal(a, b)


def labeled_instances(n, groups, ignore_idx=()):
    """Build a LabelMap with OOD instances given as {instance_id: indices}."""
    sem = np.zeros(n, dtype=np.int64)
    inst = np.zeros(n, dtype=np.int64)
    role = np.full(n, Role.INLIER, dtype=np.int8)
    for gid, idx in groups.items():
        sem[idx] = 9
        inst[idx] = gid
        role[idx] = Role.REAL_OOD
    role[list(ignore_idx)] = Role.IGNORE
    return LabelMap(semantic=sem, instance=inst, role=role)


def set_match_instances(pred_instances, gt, ignore=None):
    """Reference matching: one Python set intersection per (prediction,
    instance) pair, then the greedy walk in (-IoU, gt id, pred id) order."""
    if ignore is None:
        ignore = gt.role == Role.IGNORE
    ignore = np.asarray(ignore, dtype=bool)
    ood = np.isin(gt.role, OOD_ROLES)
    preds = [np.asarray(p)[~ignore[np.asarray(p)]] for p in pred_instances]
    gt_sets = {int(g): np.flatnonzero(ood & (gt.instance == g) & ~ignore)
               for g in np.unique(gt.instance[ood])}
    gt_sets = {g: idx for g, idx in gt_sets.items() if idx.size}

    pairs = []
    for pi, p in enumerate(preds):
        if p.size == 0:
            continue
        pset = set(p.tolist())
        for g, gidx in gt_sets.items():
            inter = len(pset.intersection(gidx.tolist()))
            if inter:
                pairs.append((inter / (p.size + gidx.size - inter), g, pi))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))

    tp, used_pred, used_gt = [], set(), set()
    for iou, g, pi in pairs:
        if iou <= IOU_THRESHOLD:
            break
        if pi not in used_pred and g not in used_gt:
            tp.append((pi, g, float(iou)))
            used_pred.add(pi)
            used_gt.add(g)
    fp = tuple(pi for pi, p in enumerate(preds) if pi not in used_pred and p.size > 0)
    fn = tuple(g for g in gt_sets if g not in used_gt)
    return MatchResult(tp=tuple(tp), fp=fp, fn=fn)


@st.composite
def match_cases(draw):
    """Small label maps (instance ids 0-3, every role) and predictions of
    distinct indices. Each case also holds a copy of the first prediction
    (overlap and an exact IoU tie), an empty prediction and one of every
    ignored point; the ignore mask is the IGNORE role or an explicit one."""
    n = draw(st.integers(1, 30))
    role = draw(st.lists(st.sampled_from(
        [Role.INLIER, Role.REAL_OOD, Role.AUX_OOD, Role.IGNORE]), min_size=n, max_size=n))
    instance = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    gt = LabelMap(semantic=np.zeros(n, dtype=np.int64), instance=instance, role=role)
    ignore = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    preds = draw(st.lists(st.lists(st.integers(0, n - 1), unique=True), max_size=6))
    ignored = gt.role == Role.IGNORE if ignore is None else ignore
    preds += preds[:1] + [[], np.flatnonzero(ignored)]
    return [np.asarray(p, dtype=np.int64) for p in preds], gt, ignore


class TestCountedMatching:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(match_cases())
    def test_equals_set_reference(self, case):
        """The same tp triples, of Python int, int and float, and the same
        fp and fn tuples, in the same order."""
        preds, gt, ignore = case
        got, want = match_instances(preds, gt, ignore), set_match_instances(preds, gt, ignore)
        for field in ("tp", "fp", "fn"):
            assert repr(getattr(got, field)) == repr(getattr(want, field)), field

    def test_iou_ties_broken_by_gt_then_pred(self):
        """Instances 2 (points 0-2) and 5 (points 3-5): every candidate pair
        has IoU 3/5, so the walk takes them by ascending gt id, then
        prediction index, and prediction 2 loses instance 2 to prediction 1."""
        gt = labeled_instances(12, {2: np.arange(3), 5: np.arange(3, 6)})
        preds = [np.array([3, 4, 5, 6, 7]), np.array([0, 1, 2, 8, 9]),
                 np.array([0, 1, 2, 10, 11])]
        match = match_instances(preds, gt)
        assert match.tp == ((1, 2, 0.6), (0, 5, 0.6)) and match.fp == (2,) and match.fn == ()


class TestMatchInstances:
    def test_identical_instance(self):
        gt = labeled_instances(20, {1: np.arange(10)})
        match = match_instances([np.arange(10)], gt)
        assert len(match.tp) == 1
        assert match.tp[0][2] == 1.0
        assert match.fp == () and match.fn == ()

    def test_disjoint(self):
        gt = labeled_instances(20, {1: np.arange(10)})
        match = match_instances([np.arange(10, 20)], gt)
        assert len(match.tp) == 0
        assert len(match.fp) == 1 and len(match.fn) == 1

    def test_hand_iou_06(self):
        """Prediction covers 60 of 100 gt points and nothing else: IoU 0.6."""
        gt = labeled_instances(120, {1: np.arange(100)})
        match = match_instances([np.arange(60)], gt)
        assert len(match.tp) == 1
        assert abs(match.tp[0][2] - 0.6) < 1e-12

    def test_iou_exactly_half_is_not_tp(self):
        gt = labeled_instances(40, {1: np.arange(10)})
        # prediction with intersection 10, union 20 -> IoU = 0.5 exactly
        match = match_instances([np.arange(20)], gt)
        assert len(match.tp) == 0
        assert len(match.fp) == 1 and len(match.fn) == 1

    def test_prediction_inside_ignore_dropped(self):
        gt = labeled_instances(30, {1: np.arange(10)}, ignore_idx=range(20, 30))
        match = match_instances([np.arange(20, 30)], gt)
        assert match.tp == () and match.fp == () and match.fn == (1,)

    def test_ignore_removed_from_both_sides(self):
        # gt has 10 points, 4 ignored; pred covers the 6 visible ones
        gt = labeled_instances(30, {1: np.arange(10)}, ignore_idx=range(6, 10))
        match = match_instances([np.arange(6)], gt)
        assert len(match.tp) == 1
        assert match.tp[0][2] == 1.0

    def test_greedy_one_to_one(self):
        gt = labeled_instances(40, {1: np.arange(10), 2: np.arange(10, 20)})
        preds = [np.arange(9), np.arange(9, 19)]
        match = match_instances(preds, gt)
        matched_gt = {g for _, g, _ in match.tp}
        matched_pred = {p for p, _, _ in match.tp}
        assert len(matched_gt) == len(match.tp)
        assert len(matched_pred) == len(match.tp)


class TestPanopticScores:
    def test_perfect(self):
        match = MatchResult(tp=((0, 1, 1.0),), fp=(), fn=())
        scores = panoptic_scores(match)
        assert scores == {"SQ": 1.0, "RQ": 1.0, "PQ": 1.0, "RecallQ": 1.0, "UQ": 1.0}

    def test_hand_case_tp06_plus_fp(self):
        """One TP at IoU 0.6 plus one FP: SQ=0.6, RQ=2/3, PQ=0.4,
        RecallQ=1, UQ=0.6."""
        match = MatchResult(tp=((0, 1, 0.6),), fp=(1,), fn=())
        scores = panoptic_scores(match)
        assert abs(scores["SQ"] - 0.6) < 1e-12
        assert abs(scores["RQ"] - 2 / 3) < 1e-12
        assert abs(scores["PQ"] - 0.4) < 1e-12
        assert scores["RecallQ"] == 1.0
        assert abs(scores["UQ"] - 0.6) < 1e-12

    def test_no_predictions(self):
        match = MatchResult(tp=(), fp=(), fn=(1,))
        scores = panoptic_scores(match)
        assert all(v == 0.0 for v in scores.values())

    def test_product_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_tp = int(rng.integers(0, 5))
            tp = tuple((i, i, float(rng.uniform(0.5, 1.0))) for i in range(n_tp))
            match = MatchResult(tp=tp, fp=tuple(range(int(rng.integers(0, 4)))),
                                fn=tuple(range(int(rng.integers(0, 4)))))
            s = panoptic_scores(match)
            assert abs(s["PQ"] - s["SQ"] * s["RQ"]) < 1e-15
            assert abs(s["UQ"] - s["SQ"] * s["RecallQ"]) < 1e-15
            assert all(0.0 <= v <= 1.0 for v in s.values())


class TestEvaluateScenes:
    def _scene(self, seed):
        rng = np.random.default_rng(seed)
        road = rng.uniform(-5, 5, size=(300, 3)) * [1, 1, 0.01]
        blob = rng.normal(0, 0.1, size=(25, 3)) + [2, 2, 0.3]
        cloud = PointCloud(points=np.vstack([road, blob]))
        labels = labeled_instances(325, {1: np.arange(300, 325)})
        scores = np.concatenate([rng.normal(-3, 0.3, 300), rng.normal(3, 0.3, 25)])
        return cloud, labels, ScoreField(scores=scores)

    def test_full_metric_set(self):
        scenes = [self._scene(s) for s in range(3)]
        result = evaluate_scenes(scenes, EvalConfig(gamma=0.0, dbscan_eps=0.5,
                                                    dbscan_min_pts=3))
        assert set(result) == {"AUROC", "FPR@95", "AP", "SQ", "RQ", "PQ",
                               "RecallQ", "UQ"}
        assert result["AUROC"] > 0.99
        assert result["PQ"] > 0.9

    def test_no_scenes_rejected(self):
        with pytest.raises(ContractError, match="no scenes"):
            evaluate_scenes([], EvalConfig(gamma=0.0))
        with pytest.raises(ContractError, match="no scenes"):
            pooled_points([])

    def test_ignore_only_prediction_changes_nothing(self):
        cloud, labels, scores = self._scene(0)
        base = match_instances(cluster_predictions(
            scores, cloud, EvalConfig(gamma=0.0, dbscan_min_pts=3)), labels)
        # add an ignore region and a fake prediction wholly inside it
        sem = np.array(labels.semantic)
        role = np.array(labels.role)
        role[:40] = Role.IGNORE
        labels2 = LabelMap(semantic=sem, instance=labels.instance, role=role)
        preds = cluster_predictions(scores, cloud, EvalConfig(gamma=0.0, dbscan_min_pts=3))
        with_extra = preds + [np.arange(40)]
        m2 = match_instances(with_extra, labels2)
        assert len(m2.tp) == len(base.tp)
        assert len(m2.fp) == len(base.fp)


class TestSharedSweep:
    """evaluate_scenes reads the point metrics from one sweep of the pooled
    scenes; each equals its public function on the pooled points."""

    def _scenes(self, seed):
        rng = np.random.default_rng(500 + seed)
        out = []
        for n in (40, 1, 75):
            role = rng.choice([Role.INLIER, Role.REAL_OOD, Role.AUX_OOD, Role.IGNORE],
                              size=n, p=[0.6, 0.15, 0.1, 0.15])
            labels = LabelMap(semantic=np.zeros(n, dtype=np.int64),
                              instance=rng.integers(0, 3, size=n), role=role)
            scores = rng.integers(-4, 5, size=n) / 2.0  # heavy ties, both zeros
            scores[rng.random(n) < 0.1] = -0.0
            out.append((PointCloud(points=rng.uniform(-2, 2, size=(n, 3))), labels,
                        ScoreField(scores=scores)))
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_for_bit_with_the_public_functions(self, seed):
        scenes = self._scenes(seed)
        result = evaluate_scenes(scenes, EvalConfig(gamma=0.5, dbscan_min_pts=2))
        pooled = pooled_points(scenes)
        assert pooled[2].any()
        for key, metric in (("AUROC", auroc), ("FPR@95", fpr_at_95_tpr),
                            ("AP", average_precision)):
            want = metric(*pooled)
            assert np.float64(result[key]).tobytes() == np.float64(want).tobytes(), key
        assert list(result)[:3] == ["AUROC", "FPR@95", "AP"]

    def test_no_ood_point_is_contract_error(self):
        scenes = self._scenes(0)
        scenes = [(cloud, LabelMap(semantic=labels.semantic, instance=labels.instance,
                                   role=np.where(np.isin(labels.role, OOD_ROLES),
                                                 Role.INLIER, labels.role)), scores)
                  for cloud, labels, scores in scenes]
        with pytest.raises(ContractError):
            evaluate_scenes(scenes, EvalConfig(gamma=0.5))


class TestThresholdCalibration:
    def test_reaches_requested_tpr(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=500)
        pos = rng.random(500) < 0.3
        gamma = threshold_at_tpr(ScoreField(scores=s), pos, tpr=0.9)
        achieved = (s[pos] > gamma).sum() / pos.sum()
        assert achieved >= 0.9

    def test_classifier_agrees_with_threshold_sweep(self):
        """classify() at the calibrated gamma reproduces the TPR/FPR the
        sweep reports (same strict-> convention on both sides)."""
        rng = np.random.default_rng(5)
        s = np.round(rng.normal(size=400), 1)
        pos = rng.random(400) < 0.25
        pos[0] = True
        sf = ScoreField(scores=s)
        gamma = threshold_at_tpr(sf, pos, tpr=0.95)
        flagged = classify(sf, gamma)
        assert flagged[pos].sum() / pos.sum() >= 0.95
        want_fpr = fpr_at_95_tpr(sf, pos)
        got_fpr = flagged[~pos].sum() / (~pos).sum()
        assert abs(got_fpr - want_fpr) <= 1e-12

    @pytest.mark.parametrize("metric", [threshold_at_tpr, fpr_at_95_tpr])
    @pytest.mark.parametrize("tpr", [0.0, -0.5, 1.0 + 1e-12, 2.0, float("nan")])
    def test_target_tpr_outside_unit_interval(self, metric, tpr):
        sf = ScoreField(scores=np.array([3.0, 2.0, 1.0, 0.0]))
        pos = np.array([True, False, True, False])
        with pytest.raises(ContractError):
            metric(sf, pos, tpr=tpr)

    @pytest.mark.parametrize("metric, want", [(threshold_at_tpr, 0.0), (fpr_at_95_tpr, 0.5)])
    def test_target_tpr_one_flags_every_positive(self, metric, want):
        sf = ScoreField(scores=np.array([3.0, 2.0, 1.0, 0.0]))
        pos = np.array([True, False, True, False])
        assert metric(sf, pos, tpr=1.0) == want

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
    def test_zero_threshold_is_positive_zero(self, zeros):
        """A tie block of -0.0 and 0.0 may lead with either zero after the
        sort; the threshold reads +0.0 (and classifies the same either way)."""
        sf = ScoreField(scores=np.array([1.0, *zeros]))
        pos = np.array([True, False, False])
        gamma = threshold_at_tpr(sf, pos, tpr=1.0)
        assert gamma == 0.0 and not np.signbit(gamma)


class TestAurocRocIntegration:
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_statistic_equals_trapezoidal_roc(self, seed):
        """The rank-based AUROC equals trapezoidal integration of the ROC
        curve swept over every unique threshold, to 1e-9."""
        rng = np.random.default_rng(300 + seed)
        s = np.round(rng.normal(size=120), 1)
        pos = rng.random(120) < 0.4
        if not pos.any():
            pos[0] = True
        if pos.all():
            pos[1] = False
        thresholds = np.concatenate([[np.inf], np.unique(s)[::-1], [-np.inf]])
        tpr = [(s[pos] > t).sum() / pos.sum() for t in thresholds]
        fpr = [(s[~pos] > t).sum() / (~pos).sum() for t in thresholds]
        trapezoid = float(np.trapezoid(tpr, fpr))
        got = auroc(ScoreField(scores=s), pos)
        assert abs(got - trapezoid) <= 1e-9


POINT_METRICS = [auroc, fpr_at_95_tpr, average_precision, threshold_at_tpr]


class TestRankedSweep:
    """Properties of the one sorted sweep the four point metrics share."""

    @pytest.mark.parametrize("metric", POINT_METRICS)
    @pytest.mark.parametrize("case", ["all-ignored", "no-points"])
    def test_nothing_to_rank_is_contract_error(self, metric, case):
        n = 6 if case == "all-ignored" else 0
        pos = np.arange(n) % 2 == 0
        with pytest.raises(ContractError):
            metric(ScoreField(scores=np.arange(n, dtype=float)), pos, np.ones(n, dtype=bool))

    def test_auroc_is_exact_mann_whitney_fraction(self):
        """200k scores on a 0.01 grid: AUROC equals the correctly rounded
        fraction (2 wins + ties) / (2 n_pos n_neg), with no tolerance."""
        rng = np.random.default_rng(21)
        s = np.round(rng.normal(size=200_000), 2)
        pos = rng.random(s.size) < 0.3
        neg = np.sort(s[~pos])
        below = np.searchsorted(neg, s[pos], side="left")
        at_or_below = np.searchsorted(neg, s[pos], side="right")
        wins, ties = int(below.sum()), int((at_or_below - below).sum())
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        want = float(Fraction(2 * wins + ties, 2 * n_pos * n_neg))
        assert auroc(ScoreField(scores=s), pos) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_point_order_changes_no_byte(self, seed):
        """Heavy ties (both zeros among them) and an ignore mask: permuting
        the points gives the same bytes for every metric, so the order the
        sort leaves inside a tie block is never read."""
        rng = np.random.default_rng(400 + seed)
        n = 3000
        s = rng.integers(-6, 7, size=n) / 2.0
        s[rng.random(n) < 0.1] = -0.0
        pos = rng.random(n) < 0.3
        ignore = rng.random(n) < 0.1
        perm = rng.permutation(n)
        for metric in POINT_METRICS:
            a = metric(ScoreField(scores=s), pos, ignore)
            b = metric(ScoreField(scores=s[perm]), pos[perm], ignore[perm])
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), metric.__name__


class TestReport:
    def test_roundtrip_and_schema(self, tmp_path):
        metrics = {"AUROC": 0.875, "AP": 0.5, "PQ": 0.25}
        config = {"gamma": 0.1, "seed": 7}
        path = tmp_path / "report.txt"
        write_report(metrics, config, path)
        entries = read_report(path)
        assert set(entries) == {"metric.AUROC", "metric.AP", "metric.PQ",
                                "config.gamma", "config.seed"}
        assert float(entries["metric.AUROC"]) == 0.875
        # deterministic serialization
        text = path.read_text()
        write_report(metrics, config, path)
        assert path.read_text() == text
        assert text == "".join(sorted(text.splitlines(keepends=True)))

    def test_empty_metrics(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_report({"PQ": 0.0}, {}, path)
        assert read_report(path)["metric.PQ"] == "0.0"

    def test_numpy_scalars_written_like_python_numbers(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report({"AP": np.float64(0.5)}, {"gamma": np.float32(0.25)}, path)
        assert path.read_text() == "config.gamma = 0.25\nmetric.AP = 0.5\n"

    def test_line_without_separator_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("metric.AP = 0.5\nmetric.PQ 0.25\n")
        with pytest.raises(ContractError, match="malformed config line"):
            read_report(path)


class TestEvalConfig:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": np.nan}, {"dbscan_eps": 0.0}, {"dbscan_eps": -1.0},
        {"dbscan_eps": np.inf}, {"dbscan_eps": np.nan}, {"dbscan_min_pts": 0},
    ], ids=["gamma-nan", "eps-zero", "eps-negative", "eps-inf", "eps-nan", "min-pts-zero"])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ContractError):
            EvalConfig(**kwargs)

    def test_infinite_gamma_accepted(self):
        assert EvalConfig(gamma=-np.inf, dbscan_min_pts=1).gamma == -np.inf
