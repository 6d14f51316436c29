"""Point-level (AUROC, FPR@95, AP) and object-level (RecallQ, SQ, RQ, PQ,
UQ) evaluation.

Point-level metrics are threshold-free ranking statistics over per-point
anomaly scores, with ignore-masked points excluded. AUROC, FPR@95, AP and
the TPR-calibrated threshold all read one ranked sweep (``_ranked``): a
single descending sort per call, then the OOD and ID counts strictly above
each distinct score.

Object-level metrics binarize scores at a decision threshold gamma, cluster
the flagged points with DBSCAN, and match predicted clusters to
ground-truth anomaly instances by point-set IoU (a match requires IoU
strictly greater than 0.5). Predictions lying wholly inside ignore regions
are not penalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import dbscan
from .core import ContractError, LabelMap, PointCloud, Role, ScoreField
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
    roles = [labels.role for _, labels, _ in scenes]
    return (ScoreField(scores=np.concatenate([scores.scores for _, _, scores in scenes])),
            np.concatenate([np.isin(role, OOD_ROLES) for role in roles]),
            np.concatenate([role == Role.IGNORE for role in roles]))


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
    order = np.argsort(-s)
    s_sorted = s[order]
    # scores are finite, so the first point always opens a block
    starts = np.flatnonzero(np.diff(s_sorted, prepend=np.inf) != 0)
    n_above = np.append(starts, s.size)
    tp_above = np.concatenate([[0], np.cumsum(pos[order])])[n_above]
    n_pos = int(tp_above[-1])
    return (np.append(s_sorted[starts], -np.inf), tp_above, n_above - tp_above,
            n_pos, s.size - n_pos)


def auroc(scores: ScoreField, is_ood, ignore=None) -> float:
    """Probability that an OOD point outscores an ID point, ties counting
    half (Mann-Whitney U statistic)."""
    _, tp_above, fp_above, n_pos, n_neg = _ranked(scores, is_ood, ignore)
    if n_pos == 0 or n_neg == 0:
        raise ContractError("AUROC undefined: need at least one OOD and one ID point")
    # each tie block's OOD points beat the ID points below the block and tie
    # with those inside it. Every term is a half-integer, so the sum is exact,
    # in any order, while it stays below 2**53.
    pos_b, neg_b = np.diff(tp_above), np.diff(fp_above)
    neg_below = n_neg - fp_above[1:]
    u = np.sum(pos_b * (neg_below + 0.5 * neg_b))
    return float(u / (n_pos * n_neg))


def fpr_at_95_tpr(scores: ScoreField, is_ood, ignore=None, tpr: float = 0.95) -> float:
    """False-positive rate at the largest threshold reaching the target TPR.

    Candidate thresholds are the unique score values (scanned descending)
    plus -inf; a point is flagged when its score strictly exceeds the
    threshold."""
    _check_tpr(tpr)
    _, tp_above, fp_above, n_pos, n_neg = _ranked(scores, is_ood, ignore)
    if n_pos == 0 or n_neg == 0:
        raise ContractError("FPR@TPR undefined: need at least one OOD and one ID point")
    hit = np.flatnonzero(tp_above / n_pos >= tpr)[0]
    return float(fp_above[hit] / n_neg)


def _check_tpr(tpr: float) -> None:
    # some candidate (the -inf one flags every point) reaches any TPR in (0, 1]
    if not 0.0 < tpr <= 1.0:
        raise ContractError(f"target TPR must be in (0, 1], got {tpr}")


def average_precision(scores: ScoreField, is_ood, ignore=None) -> float:
    """Step-interpolated area under the precision-recall curve.

    Thresholds sweep the unique score values descending; tied scores are
    processed as one block."""
    _, tp_above, fp_above, n_pos, _ = _ranked(scores, is_ood, ignore)
    if n_pos == 0:
        raise ContractError("AP undefined: need at least one OOD point")
    # a block's end is what lies strictly above the next candidate
    precision = tp_above[1:] / (tp_above[1:] + fp_above[1:])
    return float(np.sum(np.diff(tp_above / n_pos) * precision))


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
    original-index array per non-noise cluster. Noise points are discarded."""
    flagged = np.flatnonzero(classify(scores, cfg.gamma))
    if flagged.size == 0:
        return []
    assign = dbscan(cloud.points[flagged], eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts)
    return [flagged[assign.cluster_id == cid] for cid in range(assign.num_clusters)]


def _gt_instances(gt: LabelMap) -> dict[int, np.ndarray]:
    ood = np.isin(gt.role, OOD_ROLES)
    out: dict[int, np.ndarray] = {}
    for inst in np.unique(gt.instance[ood]):
        out[int(inst)] = np.flatnonzero(ood & (gt.instance == inst))
    return out


def match_instances(
    pred_instances: list[np.ndarray], gt: LabelMap, ignore=None
) -> MatchResult:
    """Greedy one-to-one matching of predicted clusters to gt anomaly
    instances in descending IoU order (ties by ascending gt then pred id);
    pairs with IoU > 0.5 become true positives.

    Ignore-masked points are removed from both sides before IoU. Unmatched
    predictions lying wholly inside the ignore mask are dropped; other
    unmatched predictions are false positives, and unmatched gt instances
    are false negatives."""
    if ignore is None:
        ignore = gt.role == Role.IGNORE
    ignore = np.asarray(ignore, dtype=bool)

    preds = [np.asarray(p)[~ignore[np.asarray(p)]] for p in pred_instances]
    gt_sets = {g: idx[~ignore[idx]] for g, idx in _gt_instances(gt).items()}
    gt_sets = {g: idx for g, idx in gt_sets.items() if idx.size}

    pairs = []
    for pi, p in enumerate(preds):
        if p.size == 0:
            continue
        pset = set(p.tolist())
        for g, gidx in gt_sets.items():
            inter = len(pset.intersection(gidx.tolist()))
            if inter == 0:
                continue
            union = p.size + gidx.size - inter
            pairs.append((inter / union, g, pi))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))

    tp = []
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    for iou, g, pi in pairs:
        if iou <= IOU_THRESHOLD:
            break
        if pi in used_pred or g in used_gt:
            continue
        tp.append((pi, g, float(iou)))
        used_pred.add(pi)
        used_gt.add(g)

    fp = tuple(pi for pi, p in enumerate(preds) if pi not in used_pred and p.size > 0)
    fn = tuple(g for g in gt_sets if g not in used_gt)
    return MatchResult(tp=tuple(tp), fp=fp, fn=fn)


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

    pooled, pos, ignore = pooled_points(scenes)
    merged = MatchResult(tp=tuple(tp), fp=tuple(range(n_fp)), fn=tuple(range(n_fn)))

    out = {
        "AUROC": auroc(pooled, pos, ignore),
        "FPR@95": fpr_at_95_tpr(pooled, pos, ignore),
        "AP": average_precision(pooled, pos, ignore),
    }
    out.update(panoptic_scores(merged))
    return out


# --------------------------------------------------------------------------
# report: canonical key-sorted "key = value" text
# --------------------------------------------------------------------------

def write_report(metrics: dict, config: dict, path) -> None:
    """Deterministic, key-sorted report containing every metric and every
    config/provenance value."""
    entries: dict[str, str] = {}
    for k, v in metrics.items():
        entries[f"metric.{k}"] = _fmt(v)
    for k, v in config.items():
        entries[f"config.{k}"] = _fmt(v)
    lines = [f"{k} = {entries[k]}" for k in sorted(entries)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
