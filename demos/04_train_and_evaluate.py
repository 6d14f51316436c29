"""End to end at desk scale: train with synthetic-anomaly augmentation,
score held-out scenes containing primitive-shape anomalies, and run the
point-level and object-level evaluation protocol.

Two models are trained from identical seeds: one scored by static extended
energy, one by the prior-reweighted form. Expect both to separate anomalies
well and the reweighted model to match or beat the static one.

Run:  python demos/04_train_and_evaluate.py      (about a minute)
"""

import tempfile
from pathlib import Path

import lidarood as lo
from lidarood.metrics import EvalConfig, evaluate_scenes, pooled_points, threshold_at_tpr
from lidarood.scenes import VOID_ID, default_budget
from lidarood.scoring import ScoreMethod, reweighted_score, static_score
from lidarood.trainer import TrainConfig, extract_features, forward, train

spec = lo.default_class_spec(extended=True)


def budget(total=2500):
    b = default_budget(total)
    b[VOID_ID] = int(total * 0.02)
    return b


train_scenes = [lo.generate_scene(lo.SceneConfig(seed=100 + i, extent=8.0,
                                                 class_budget=budget()))
                for i in range(15)]
eval_scenes = []
for i in range(8):
    cfg = lo.SceneConfig(seed=900 + i, extent=8.0, class_budget=budget())
    cloud, labels = lo.generate_scene(cfg)
    cloud, labels = lo.inject_eval_anomaly(cloud, labels, cfg, seed=555 + i, count=2)
    eval_scenes.append((cloud, labels))
print(f"{len(train_scenes)} training scenes, {len(eval_scenes)} held-out scenes")

results = {}
for use_prior in (False, True):
    cfg = TrainConfig(lr=1e-3, epochs=6, seed=0, use_prior=use_prior)
    backbone, params, tlog = train(train_scenes, spec, cfg)
    scored = []
    for cloud, labels in eval_scenes:
        logits = forward(backbone, extract_features(cloud), spec)
        if use_prior:
            sf = reweighted_score(logits, ScoreMethod.EXTENDED_ENERGY, params)
        else:
            sf = lo.ScoreField(scores=static_score(logits, ScoreMethod.EXTENDED_ENERGY))
        scored.append((cloud, labels, sf))

    gamma = threshold_at_tpr(*pooled_points(scored), tpr=0.95)
    metrics = evaluate_scenes(scored, EvalConfig(gamma=gamma, dbscan_eps=0.5,
                                                 dbscan_min_pts=5))
    name = "prior-reweighted" if use_prior else "static"
    results[name] = metrics
    print(f"\n{name} extended energy (gamma at 95% TPR = {gamma:.3f}):")
    print(f"  final epoch loss: {tlog.epochs[-1].total:.3f}")
    for key in ("AUROC", "FPR@95", "AP", "RecallQ", "SQ", "RQ", "UQ", "PQ"):
        print(f"  {key:<8} {metrics[key]:.4f}")

delta = results["prior-reweighted"]["AP"] - results["static"]["AP"]
print(f"\nAP(prior) - AP(static) = {delta:+.4f}")

# export a score map for the first held-out scene
with tempfile.TemporaryDirectory() as tmp:
    cloud, labels, sf = scored[0]
    lo.save_point_cloud(cloud, Path(tmp) / "scene.bin")
    lo.save_scores(sf, Path(tmp) / "scene.score")
    from lidarood.cli import main
    main(["export-map", "--cloud", str(Path(tmp) / "scene.bin"),
          "--scores", str(Path(tmp) / "scene.score"),
          "--out", str(Path(tmp) / "map"), "--resolution", "128"])
