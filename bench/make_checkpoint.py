"""Regenerate bench/model.ckpt, the fixed checkpoint of the score_eval workloads.

The checkpoint is trained once on the train_3k configuration (the acceptance
suite's directional-experiment setup: 50 scenes of ~3k points, 8 m extent,
2 % void, extended energy with the prior network, lr 1e-3, 6 epochs,
raise_per_scan 2, training seed 0, scene seeds 10000..10049) and committed,
so a change to training arithmetic cannot shift what the score and eval
phases of those workloads see.

Run from the repository root:

    python3 bench/make_checkpoint.py
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from lidarood import scenes, trainer  # noqa: E402

from workloads import TRAIN_3K  # noqa: E402

CHECKPOINT = BENCH_DIR / "model.ckpt"
SCENE_SEEDS = range(10_000, 10_050)
EPOCHS = 6
TRAIN_SEED = 0


def main() -> int:
    spec = scenes.default_class_spec(extended=True)
    data = [scenes.generate_scene(TRAIN_3K.scene_config(seed)) for seed in SCENE_SEEDS]
    cfg = TRAIN_3K.train_config(epochs=EPOCHS, seed=TRAIN_SEED)
    backbone, params, _ = trainer.train(data, spec, cfg)
    trainer.save_checkpoint(CHECKPOINT, backbone, params)
    print(f"wrote {CHECKPOINT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
