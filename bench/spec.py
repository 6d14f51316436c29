"""Metric and workload definitions of the benchmark, the source of BENCHMARK.json.

Per-layer values are per traced cycle (one train() call, scoring and
evaluating one group of held-out scenes), except ``scenes.*`` which are per
set-up and ``*.peak_mb`` which are tracemalloc peaks while one scene is
scored and evaluated.

Regenerate BENCHMARK.json after editing this file, from the repository root:

    python3 bench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 55

WORKLOADS = [
    {"name": "train_3k",
     "why": "training hot path at ~3.4k points (acceptance config): raise, features and "
            "GridIndex builds per step dominate; DBSCAN only sees tiny inputs, so a DBSCAN "
            "change should not move it"},
    {"name": "score_eval_20k",
     "why": "score and eval at the CLI default 20k points with a fixed checkpoint: features "
            "run on fresh clouds, and DBSCAN over the 21 % flagged points is most of eval"},
]

# name, unit, better, bound (share of the parent's median). The rates and
# setup_s get the largest bound: they are timed on the reference host
# (workloads.HostClock), but a host stretch the reference does not share
# still moves a whole run, and the shared host's noise differs from day to
# day. peak_mem_mb and auroc spread 0.03 or less between seeds
# (baseline.json), so their bounds are about three times their spread: a
# change that costs 10 % more memory or 7 % of AUROC is caught.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("train_steps_per_s", "1/s", "higher", 0.25),
    ("score_points_per_s", "1/s", "higher", 0.25),
    ("eval_points_per_s", "1/s", "higher", 0.25),
    ("peak_mem_mb", "MB", "lower", 0.1),
    ("auroc", "ratio", "higher", 0.07),
]

# name, unit, better
PER_LAYER = [
    # neighbour index and features: train_steps_per_s on train_3k, score_points_per_s
    ("neighbors.ball_stats.self_s", "s", "lower"),
    ("neighbors.ball_stats.peak_mb", "MB", "lower"),
    ("trainer.extract_features.s", "s", "lower"),
    ("trainer.extract_features.calls", "count", "lower"),
    ("trainer.extract_features.peak_mb", "MB", "lower"),
    ("neighbors.GridIndex.build.self_s", "s", "lower"),
    ("neighbors.GridIndex.build.calls", "count", "lower"),
    ("neighbors.GridIndex.build.features.self_s", "s", "lower"),
    ("neighbors.GridIndex.build.features.calls", "count", "lower"),
    ("neighbors.GridIndex.build.raise.self_s", "s", "lower"),
    ("neighbors.GridIndex.build.raise.calls", "count", "lower"),
    ("neighbors.GridIndex.build.dbscan.self_s", "s", "lower"),
    ("neighbors.GridIndex.build.dbscan.calls", "count", "lower"),
    # clustering: eval_points_per_s on score_eval_20k
    ("cluster.dbscan.self_s", "s", "lower"),
    ("cluster.dbscan.s", "s", "lower"),
    ("cluster.dbscan.calls", "count", "lower"),
    ("cluster.dbscan.points", "count", "lower"),
    ("cluster.dbscan.peak_mb", "MB", "lower"),
    ("neighbors.query_ball.calls", "count", "lower"),
    ("neighbors.query_ball.s", "s", "lower"),
    # training step: train_steps_per_s
    ("trainer.train.s", "s", "lower"),
    ("trainer.forward.s", "s", "lower"),
    ("trainer.backbone_backward.s", "s", "lower"),
    ("trainer.adam_step.s", "s", "lower"),
    ("trainer.skipped_scans", "count", "lower"),
    ("losses.total_loss.self_s", "s", "lower"),
    ("losses.ce_loss.s", "s", "lower"),
    ("scoring.static_score_grad.s", "s", "lower"),
    ("priornet.prior_backward.s", "s", "lower"),
    ("perlin.perlin_raise.self_s", "s", "lower"),
    ("perlin.perlin_raise.s", "s", "lower"),
    ("perlin.raise_hit_ratio", "ratio", "higher"),
    # scoring: score_points_per_s
    ("priornet.prior_weight.s", "s", "lower"),
    ("scoring.reweighted_score.self_s", "s", "lower"),
    ("core.io.s", "s", "lower"),
    ("core.io.calls", "count", "lower"),
    # evaluation: eval_points_per_s
    ("metrics.evaluate_scenes.s", "s", "lower"),
    ("metrics.evaluate_scenes.peak_mb", "MB", "lower"),
    ("metrics.point_metrics.s", "s", "lower"),
    ("metrics.match_instances.s", "s", "lower"),
    ("metrics.flagged_points", "count", "lower"),
    ("metrics.pred_match_ratio", "ratio", "higher"),
    ("metrics.ap", "ratio", "higher"),
    ("metrics.pq", "ratio", "higher"),
    # set-up: setup_s
    ("scenes.generate_scene.s", "s", "lower"),
    # traced minus untraced end-to-end rates, from alternating cycles of one process
    ("trace.overhead.train_steps_per_s", "1/s", "higher"),
    ("trace.overhead.score_points_per_s", "1/s", "higher"),
    ("trace.overhead.eval_points_per_s", "1/s", "higher"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
