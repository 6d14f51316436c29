"""Scoring in row chunks against the whole-array expressions, bytewise.

``trainer.forward`` and ``scoring.reweighted_score`` walk ``core.row_chunks``
so their temporaries stay chunk-sized. Every step is row-independent, so
the chunked logits and scores must equal, byte for byte, the whole-array
expressions ``whole_logits`` and ``whole_scores`` below.

The float64 bytes are compared in a subprocess with one BLAS thread: under
some OpenBLAS kernels (Haswell, Prescott) with two threads, even the
whole-array float64 bytes of some sizes (4100, 8193 and 12289 rows of these
features) differ from their one-thread bytes. The float32 score-file bytes
agree at any thread count and are compared in-process. Run this file as a
script to print the float64 mismatches as JSON.
"""

import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lidarood.core import ContractError, LogitField, ScoreField, row_chunks, save_scores
from lidarood.priornet import prior_weight
from lidarood.scenes import SceneConfig, default_budget, default_class_spec, generate_scene
from lidarood.scoring import ScoreMethod, reweighted_score, static_score
from lidarood.trainer import _hidden, _scaled, extract_features, forward, load_checkpoint

ROOT = Path(__file__).resolve().parents[1]
SPEC = default_class_spec(extended=True)
# tails of 1-3 rows folded into the chunk before (4097-4099, 8193-8195,
# 12289), a tail of 4-7 rows kept (4100-4103), chunk bounds at 4096
SIZES = [1, 2, 3, 5, *range(4095, 4104), 8193, 8194, 8195, 12289, 20000]


@functools.cache
def checkpoint():
    return load_checkpoint(ROOT / "bench" / "model.ckpt")


@functools.cache
def scene_features() -> np.ndarray:
    """The features of a 20k-point scene at the CLI default extent, in a
    seeded row order, so every prefix mixes the classes."""
    cloud, _ = generate_scene(SceneConfig(seed=3, extent=12.0,
                                          class_budget=default_budget(20000)))
    features = extract_features(cloud)
    return features[np.random.default_rng(3).permutation(len(features))]


def whole_logits(backbone, features) -> np.ndarray:
    logits = _hidden(backbone, _scaled(backbone, features, None), None) @ backbone.w2
    logits += backbone.b2
    return logits


def whole_scores(field: LogitField, method: ScoreMethod, params) -> np.ndarray:
    return static_score(field, method) * prior_weight(field, params)[0]


def float64_mismatches() -> dict[str, list[int]]:
    """The sizes whose chunked float64 logits, or scores per method, differ
    from the whole-array bytes."""
    backbone, params = checkpoint()
    bad: dict[str, list[int]] = {}
    for m in SIZES:
        features = scene_features()[:m]
        field = forward(backbone, features, SPEC)
        want = whole_logits(backbone, features)
        if field.values.tobytes() != want.tobytes():
            bad.setdefault("logits", []).append(m)
        whole = LogitField(values=want, class_spec=SPEC)
        for method in ScoreMethod:
            got = reweighted_score(field, method, params).scores
            if got.tobytes() != whole_scores(whole, method, params).tobytes():
                bad.setdefault(method.value, []).append(m)
    return bad


class TestRowChunks:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, *SIZES[4:], 16384, 16387, 16388])
    def test_cover(self, m):
        chunks = row_chunks(m)
        assert [i for c in chunks for i in range(m)[c]] == list(range(m))
        assert all(c.stop - c.start == 4096 for c in chunks[:-1])
        assert all(c.stop - c.start >= min(m, 4) for c in chunks)
        assert all(c.step is None for c in chunks)

    def test_empty(self):
        """One empty chunk, so a walk of no rows runs its body's checks once."""
        assert row_chunks(0) == [slice(0, 0)]

    def test_fold(self):
        assert row_chunks(4099) == [slice(0, 4099)]
        assert row_chunks(4100) == [slice(0, 4096), slice(4096, 4100)]
        assert row_chunks(8193) == [slice(0, 4096), slice(4096, 8193)]


class TestEmpty:
    def test_forward(self):
        backbone, _ = checkpoint()
        field = forward(backbone, np.empty((0, 4)), SPEC)
        assert field.values.shape == (0, SPEC.logit_width)

    def test_reweighted_score(self):
        backbone, params = checkpoint()
        field = forward(backbone, np.empty((0, 4)), SPEC)
        for method in ScoreMethod:
            assert reweighted_score(field, method, params).scores.shape == (0,)

    def test_contracts_hold_on_no_rows(self):
        _, params = checkpoint()
        standard = default_class_spec(extended=False)
        empty = LogitField(values=np.empty((0, standard.logit_width)), class_spec=standard)
        with pytest.raises(ContractError, match="extended"):
            reweighted_score(empty, ScoreMethod.EXTENDED_ENERGY, params)
        with pytest.raises(ContractError, match="logits must be"):
            reweighted_score(empty, ScoreMethod.ENERGY, params)  # params are 2K wide
        with pytest.raises(ContractError, match="features must be"):
            forward(checkpoint()[0], np.empty((0, 3)), SPEC)


def test_fields_checked_once(monkeypatch):
    """Only ``forward``'s whole field checks its logits; the chunks of a
    field are views of it and are not checked again."""
    backbone, params = checkpoint()
    checks = []
    post_init = LogitField.__post_init__
    monkeypatch.setattr(LogitField, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    field = forward(backbone, scene_features()[:9000], SPEC)
    reweighted_score(field, ScoreMethod.EXTENDED_ENERGY, params)
    assert len(checks) == 1


def test_one_chunk_scores_the_field_itself():
    """Up to 4096 rows, the field's cached softmax reductions serve the
    score, as without chunks."""
    backbone, params = checkpoint()
    field = forward(backbone, scene_features()[:4096], SPEC)
    assert field._rows(row_chunks(field.count)[0]) is field
    reweighted_score(field, ScoreMethod.EXTENDED_ENERGY, params)
    assert "softmax" in vars(field) and "inlier_softmax" in vars(field)


def test_float64_bytes_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                         check=True)
    assert json.loads(run.stdout) == {}


@pytest.mark.parametrize("method", list(ScoreMethod))
def test_float32_score_files(method, tmp_path):
    backbone, params = checkpoint()
    for m in SIZES:
        features = scene_features()[:m]
        whole = LogitField(values=whole_logits(backbone, features), class_spec=SPEC)
        save_scores(reweighted_score(forward(backbone, features, SPEC), method, params),
                    tmp_path / "chunked.score")
        save_scores(ScoreField(scores=whole_scores(whole, method, params)),
                    tmp_path / "whole.score")
        assert (tmp_path / "chunked.score").read_bytes() == \
            (tmp_path / "whole.score").read_bytes(), m


@pytest.mark.parametrize("points, bound_mb", [
    pytest.param(20000, 8.0, id="20k"),
    pytest.param(100000, 20.0, id="100k"),  # the whole-scene pass peaks at 74 MB
])
def test_score_pass_peak_bounded(points, bound_mb):
    """The tracemalloc peak of forward plus reweighted_score, with the
    features given, including the (M, C) logits and the scores."""
    backbone, params = checkpoint()
    features = np.tile(scene_features(), (points // 20000, 1))
    tracemalloc.start()
    try:
        reweighted_score(forward(backbone, features, SPEC), ScoreMethod.EXTENDED_ENERGY, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


if __name__ == "__main__":
    print(json.dumps(float64_mismatches()))
