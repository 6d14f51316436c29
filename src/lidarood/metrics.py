"""Point-level (AUROC, FPR@95, AP) and object-level (RecallQ, SQ, RQ, PQ,
UQ) evaluation.

Point-level metrics are threshold-free ranking statistics over per-point
anomaly scores, with ignore-masked points excluded. AUROC, FPR@95, AP and
the TPR-calibrated threshold all read a ranked sweep (``_ranked``): one
descending sort, then the OOD and ID counts strictly above each distinct
score. Each public function makes its own sweep; ``evaluate_scenes`` makes
one for the pooled scenes and reads all three metrics from it.

Object-level metrics binarize scores at a decision threshold gamma, cluster
the flagged points with DBSCAN, and match predicted clusters to
ground-truth anomaly instances by point-set IoU (a match requires IoU
strictly greater than 0.5), with every intersection counted in one pass.
Predictions lying wholly inside ignore regions are not penalized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cluster import dbscan
from .core import (ContractError, LabelMap, PointCloud, Role, ScoreField, _run_bounds,
                   format_record, parse_record)
from .scoring import classify

__all__ = [
    "EvalConfig", "MatchResult", "OOD_ROLES", "pooled_points",
    "auroc", "fpr_at_95_tpr", "average_precision",
    "cluster_predictions", "match_instances", "panoptic_scores",
    "evaluate_scenes", "threshold_at_tpr", "write_report", "read_report",
]

IOU_THRESHOLD = 0.5  # protocol constant
OOD_ROLES = (Role.AUX_OOD, Role.REAL_OOD)  # the points a metric counts as anomalous


@dataclass(frozen=True)
class EvalConfig:
    gamma: float = 0.0
    dbscan_eps: float = 0.5
    dbscan_min_pts: int = 5

    def __post_init__(self):
        # classify's and dbscan's messages; they see these only when a point is flagged
        if np.isnan(self.gamma):
            raise ContractError("gamma must not be NaN")
        if not 0.0 < self.dbscan_eps < np.inf:
            raise ContractError(f"eps must be finite and positive, got {self.dbscan_eps}")
        if self.dbscan_min_pts < 1:
            raise ContractError("min_pts must be >= 1")


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Outcome of matching predicted clusters to ground-truth instances.

    tp holds (pred index, gt instance id, IoU) triples; fp holds unmatched
    pred indices; fn holds unmatched gt instance ids. Each prediction and
    each gt instance appears in at most one of the three."""

    tp: tuple[tuple[int, int, float], ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]


def pooled_points(scenes) -> tuple[ScoreField, np.ndarray, np.ndarray]:
    """The scores, OOD mask and ignore mask of every point of the
    (cloud, labels, scores) ``scenes``, concatenated in scene order."""
    if not scenes:
        raise ContractError("no scenes to pool")
    role = np.concatenate([labels.role for _, labels, _ in scenes])
    return (ScoreField(scores=np.concatenate([scores.scores for _, _, scores in scenes])),
            _is_ood(role), role == int(Role.IGNORE))


def _is_ood(role: np.ndarray) -> np.ndarray:
    """Per point, whether its role is one of OOD_ROLES. The roles compare
    as plain ints: numpy probes an enum member for array attributes on
    every compare, which costs more than the compare."""
    aux, real = map(int, OOD_ROLES)
    return (role == aux) | (role == real)


def _tally(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the 1-D integer ``keys`` ascending and how
    often each occurs, as ``np.unique(keys, return_counts=True)``; sorts
    ``keys`` in place."""
    keys.sort()
    bound = _run_bounds(keys)
    return keys.take(bound[:-1]), bound[1:] - bound[:-1]


def _ranked(scores: ScoreField, is_ood, ignore):
    """The one ranked sweep behind every point-level metric.

    Drops the ignore-masked points, sorts the rest once by descending score
    and returns (candidates, tp_above, fp_above, n_pos, n_neg): the
    candidate thresholds are the distinct scores, descending, plus -inf, and
    tp_above / fp_above count the OOD / ID points scoring strictly above
    each candidate. Those counts do not depend on the order inside a tie
    block, so the sort need not be stable."""
    s = scores.scores
    pos = np.asarray(is_ood, dtype=bool)
    ignore = np.zeros_like(pos) if ignore is None else np.asarray(ignore, dtype=bool)
    if not (s.shape == pos.shape == ignore.shape):
        raise ContractError("scores, is_ood, and ignore must have equal length")
    s, pos = s[~ignore], pos[~ignore]
    order = (-s).argsort()
    s_sorted = s[order]
    # the points above a tie block are those before its start
    n_above = _run_bounds(s_sorted)
    tp_above = np.concatenate(([0], pos[order].cumsum()))[n_above]
    n_pos = int(tp_above[-1])
    return (np.concatenate((s_sorted[n_above[:-1]], [-np.inf])), tp_above,
            n_above - tp_above, n_pos, s.size - n_pos)


def _auroc(sweep) -> float:
    _, tp_above, fp_above, n_pos, n_neg = sweep
    if n_pos == 0 or n_neg == 0:
        raise ContractError("AUROC undefined: need at least one OOD and one ID point")
    # each tie block's OOD points beat the ID points below the block and tie
    # with those inside it. Every term is a half-integer, so the sum is exact,
    # in any order, while it stays below 2**53.
    pos_b, neg_b = np.diff(tp_above), np.diff(fp_above)
    neg_below = n_neg - fp_above[1:]
    u = np.sum(pos_b * (neg_below + 0.5 * neg_b))
    return float(u / (n_pos * n_neg))


def _fpr_at_tpr(sweep, tpr: float) -> float:
    _, tp_above, fp_above, n_pos, n_neg = sweep
    if n_pos == 0 or n_neg == 0:
        raise ContractError("FPR@TPR undefined: need at least one OOD and one ID point")
    hit = np.flatnonzero(tp_above / n_pos >= tpr)[0]
    return float(fp_above[hit] / n_neg)


def _average_precision(sweep) -> float:
    _, tp_above, fp_above, n_pos, _ = sweep
    if n_pos == 0:
        raise ContractError("AP undefined: need at least one OOD point")
    # a block's end is what lies strictly above the next candidate
    precision = tp_above[1:] / (tp_above[1:] + fp_above[1:])
    return float(np.sum(np.diff(tp_above / n_pos) * precision))


def auroc(scores: ScoreField, is_ood, ignore=None) -> float:
    """Probability that an OOD point outscores an ID point, ties counting
    half (Mann-Whitney U statistic)."""
    return _auroc(_ranked(scores, is_ood, ignore))


def fpr_at_95_tpr(scores: ScoreField, is_ood, ignore=None, tpr: float = 0.95) -> float:
    """False-positive rate at the largest threshold reaching the target TPR.

    Candidate thresholds are the unique score values (scanned descending)
    plus -inf; a point is flagged when its score strictly exceeds the
    threshold."""
    _check_tpr(tpr)
    return _fpr_at_tpr(_ranked(scores, is_ood, ignore), tpr)


def _check_tpr(tpr: float) -> None:
    # some candidate (the -inf one flags every point) reaches any TPR in (0, 1]
    if not 0.0 < tpr <= 1.0:
        raise ContractError(f"target TPR must be in (0, 1], got {tpr}")


def average_precision(scores: ScoreField, is_ood, ignore=None) -> float:
    """Step-interpolated area under the precision-recall curve.

    Thresholds sweep the unique score values descending; tied scores are
    processed as one block."""
    return _average_precision(_ranked(scores, is_ood, ignore))


def threshold_at_tpr(scores: ScoreField, is_ood, ignore=None, tpr: float = 0.95) -> float:
    """Largest gamma whose strict-> classification reaches the target TPR."""
    _check_tpr(tpr)
    candidates, tp_above, _, n_pos, _ = _ranked(scores, is_ood, ignore)
    if n_pos == 0:
        raise ContractError("threshold calibration needs at least one OOD point")
    hit = np.flatnonzero(tp_above / n_pos >= tpr)[0]
    # a tie block of -0.0 and 0.0 may lead with either; adding +0.0 gives +0.0
    return float(candidates[hit]) + 0.0


def cluster_predictions(
    scores: ScoreField, cloud: PointCloud, cfg: EvalConfig
) -> list[np.ndarray]:
    """Binarize at cfg.gamma, DBSCAN the flagged points, and return one
    original-index array per non-noise cluster, ascending, in cluster id
    order. Noise points are discarded."""
    flagged = classify(scores, cfg.gamma).nonzero()[0]
    if flagged.size == 0:
        return []
    assign = dbscan(cloud.points[flagged], eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts)
    if assign.num_clusters == 0:
        return []
    cluster = assign.cluster_id
    kept = cluster >= 0
    # a stable sort keeps each cluster's points in index order
    members = flagged[kept][cluster[kept].argsort(kind="stable")]
    ends = assign.sizes().cumsum().tolist()
    return [members[lo:hi] for lo, hi in itertools.pairwise([0, *ends])]


def match_instances(
    pred_instances: list[np.ndarray], gt: LabelMap, ignore=None
) -> MatchResult:
    """Greedy one-to-one matching of predicted clusters (arrays of distinct
    point indices) to gt anomaly instances in descending IoU order (ties by
    ascending gt then pred id); pairs with IoU > 0.5 become true positives.

    Ignore-masked points are removed from both sides before IoU. Unmatched
    predictions lying wholly inside the ignore mask are dropped; other
    unmatched predictions are false positives, and unmatched gt instances
    are false negatives.

    Every (prediction, instance) intersection is counted in one pass over
    the predictions' points; IoU divides the integer counts, which gives the
    correctly rounded quotient."""
    if ignore is None:
        ignore = gt.role == int(Role.IGNORE)
    ignore = np.asarray(ignore, dtype=bool)

    counted = _is_ood(gt.role) & ~ignore
    instance = gt.instance[counted]
    gt_ids, gt_size = _tally(instance.copy())
    gt_index = np.full(gt.count, -1)  # per point: its gt instance's position in gt_ids
    gt_index[counted] = gt_ids.searchsorted(instance)

    preds = [np.asarray(p, dtype=np.intp) for p in pred_instances]
    points = np.concatenate([np.empty(0, np.intp), *preds])
    owner = np.arange(len(preds)).repeat([p.size for p in preds])
    seen = ~ignore[points]
    points, owner = points[seen], owner[seen]
    pred_size = np.bincount(owner, minlength=len(preds))

    point_gt = gt_index[points]
    hit = point_gt >= 0
    pair, inter = _tally(owner[hit] * gt_ids.size + point_gt[hit])
    pi, gi = np.divmod(pair, gt_ids.size)
    iou = inter / (pred_size[pi] + gt_size[gi] - inter)
    order = np.lexsort((pi, gi, -iou))
    order = order[iou[order] > IOU_THRESHOLD]

    tp = []
    pred_free = pred_size > 0
    gt_free = np.ones(gt_ids.size, dtype=bool)
    ids = gt_ids.tolist()
    for p, g, v in zip(pi[order].tolist(), gi[order].tolist(), iou[order].tolist()):
        if pred_free[p] and gt_free[g]:
            tp.append((p, ids[g], v))
            pred_free[p] = gt_free[g] = False

    return MatchResult(tp=tuple(tp), fp=tuple(pred_free.nonzero()[0].tolist()),
                       fn=tuple(gt_ids[gt_free].tolist()))


def panoptic_scores(match: MatchResult) -> dict[str, float]:
    """SQ, RQ, PQ, RecallQ, UQ from one match result; 0/0 counts as 0."""
    n_tp, n_fp, n_fn = len(match.tp), len(match.fp), len(match.fn)
    sq = float(np.mean([iou for _, _, iou in match.tp])) if n_tp else 0.0
    denom_rq = n_tp + 0.5 * n_fp + 0.5 * n_fn
    rq = n_tp / denom_rq if denom_rq > 0 else 0.0
    recall_q = n_tp / (n_tp + n_fn) if (n_tp + n_fn) > 0 else 0.0
    return {
        "SQ": sq,
        "RQ": rq,
        "PQ": sq * rq,
        "RecallQ": recall_q,
        "UQ": sq * recall_q,
    }


def evaluate_scenes(
    scenes: list[tuple[PointCloud, LabelMap, ScoreField]], cfg: EvalConfig
) -> dict[str, float]:
    """Point-level metrics pooled over all scenes; object-level matches
    aggregated (TP/FP/FN summed) before the panoptic scores."""
    tp: list[tuple[int, int, float]] = []
    n_fp = n_fn = 0
    for cloud, labels, scores in scenes:
        if not (cloud.count == labels.count == scores.count):
            raise ContractError("scene cloud/labels/scores lengths disagree")
        preds = cluster_predictions(scores, cloud, cfg)
        match = match_instances(preds, labels)
        tp.extend(match.tp)
        n_fp += len(match.fp)
        n_fn += len(match.fn)

    sweep = _ranked(*pooled_points(scenes))
    merged = MatchResult(tp=tuple(tp), fp=tuple(range(n_fp)), fn=tuple(range(n_fn)))

    out = {
        "AUROC": _auroc(sweep),
        "FPR@95": _fpr_at_tpr(sweep, 0.95),
        "AP": _average_precision(sweep),
    }
    out.update(panoptic_scores(merged))
    return out


# --------------------------------------------------------------------------
# report: one key-sorted "key = value" record
# --------------------------------------------------------------------------

def write_report(metrics: dict, config: dict, path) -> None:
    """Deterministic, key-sorted report containing every metric and every
    config/provenance value."""
    entries = {f"metric.{k}": v for k, v in metrics.items()}
    entries.update({f"config.{k}": v for k, v in config.items()})
    Path(path).write_text(format_record(entries), encoding="utf-8")


def read_report(path) -> dict[str, str]:
    return parse_record(Path(path).read_text(encoding="utf-8"))
