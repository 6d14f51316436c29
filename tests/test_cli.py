"""End-to-end command-line pipeline."""

import hashlib
import io
import struct
from pathlib import Path

import numpy as np
import pytest

from lidarood.cli import _KNOWN_KEYS, PipelineConfig, main
from lidarood.core import ContractError
from lidarood.metrics import read_report
from lidarood.priornet import init_params, save_params
from lidarood.scenes import IGNORE_ID
from lidarood.trainer import load_checkpoint, save_checkpoint


def dir_digest(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> train -> score chain shared by the fast checks."""
    root = tmp_path_factory.mktemp("pipe")
    train_dir = root / "train"
    eval_dir = root / "eval"
    ckpt = root / "model.ckpt"
    scores = root / "scores"
    assert main(["synth", "--out", str(train_dir), "--scenes", "10", "--seed", "3",
                 "--points", "1200", "--extent", "5"]) == 0
    assert main(["synth", "--out", str(eval_dir), "--scenes", "2", "--seed", "9",
                 "--points", "1200", "--extent", "5", "--anomalies", "1"]) == 0
    assert main(["train", "--data", str(train_dir), "--out", str(ckpt),
                 "--epochs", "2", "--lr", "1e-3", "--seed", "1"]) == 0
    assert main(["score", "--data", str(eval_dir), "--ckpt", str(ckpt),
                 "--out", str(scores), "--method", "ee", "--prior", "on"]) == 0
    return root


class TestSynth:
    def test_deterministic_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--scenes", "3",
                         "--seed", "7", "--points", "800", "--extent", "4"]) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_provenance_written(self, tmp_path):
        out = tmp_path / "d"
        main(["synth", "--out", str(out), "--scenes", "1", "--seed", "0",
              "--points", "500", "--extent", "4"])
        side = out / "dataset.provenance"
        assert side.exists()
        text = side.read_text()
        assert "scene.seed = 0" in text
        assert "version =" in text


class TestRaise:
    def test_raise_writes_modified_pairs(self, tmp_path):
        src = tmp_path / "src"
        dst = tmp_path / "dst"
        main(["synth", "--out", str(src), "--scenes", "2", "--seed", "5",
              "--points", "3000", "--extent", "4"])
        assert main(["raise", "--in", str(src), "--out", str(dst),
                     "--seed", "2"]) == 0
        assert sorted(p.name for p in dst.glob("*.bin")) == \
            sorted(p.name for p in src.glob("*.bin"))


class TestScoreEval:
    def test_score_files_match_cloud_lengths(self, pipeline):
        for bin_path in sorted((pipeline / "eval").glob("*.bin")):
            score_path = pipeline / "scores" / (bin_path.stem + ".score")
            assert score_path.exists()
            n_points = bin_path.stat().st_size // 16
            assert score_path.stat().st_size == 4 * n_points

    def test_eval_without_gamma_is_usage_error(self, pipeline, capsys):
        code = main(["eval", "--data", str(pipeline / "eval"),
                     "--scores", str(pipeline / "scores"),
                     "--report", str(pipeline / "r.txt")])
        assert code == 2

    def test_eval_report_has_all_eight_metrics(self, pipeline):
        report = pipeline / "report.txt"
        code = main(["eval", "--data", str(pipeline / "eval"),
                     "--scores", str(pipeline / "scores"),
                     "--gamma-from-tpr", "0.95", "--report", str(report)])
        assert code == 0
        entries = read_report(report)
        for name in ("AUROC", "FPR@95", "AP", "SQ", "RQ", "PQ", "RecallQ", "UQ"):
            assert f"metric.{name}" in entries
        assert "config.dbscan_eps" in entries
        assert "config.gamma" in entries

    def test_missing_data_is_exit_1(self, tmp_path):
        code = main(["score", "--data", str(tmp_path / "nope"),
                     "--ckpt", str(tmp_path / "nope.ckpt"), "--out", str(tmp_path)])
        assert code == 1


class TestBadInput:
    """Malformed inputs end with exit 1 and a one-line message."""

    @staticmethod
    def assert_one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage", ["truncated", "trailing-byte"])
    def test_damaged_checkpoint(self, pipeline, tmp_path, capsys, damage):
        good = (pipeline / "model.ckpt").read_bytes()
        bad = good[:len(good) // 2] if damage == "truncated" else good + b"\0"
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(bad)
        capsys.readouterr()
        code = main(["score", "--data", str(pipeline / "eval"), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        self.assert_one_line_error(capsys)

    def test_scores_overflowing_float32(self, pipeline, tmp_path, capsys):
        """Logits from float32-sized weights can give scores past float32's
        range; score must refuse to write them rather than save inf."""
        backbone, params = load_checkpoint(pipeline / "model.ckpt")
        backbone.w2 = np.sign(backbone.w2) * 3e38
        ckpt = tmp_path / "big.ckpt"
        save_checkpoint(ckpt, backbone, params)
        out = tmp_path / "s"
        capsys.readouterr()
        assert main(["score", "--data", str(pipeline / "eval"), "--ckpt", str(ckpt),
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys)
        assert not list(out.glob("*.score"))

    @pytest.mark.parametrize("container, prior", [
        ("latent-dim-0", "on"), ("width-7", "off")])
    def test_malformed_prior_container(self, pipeline, tmp_path, capsys, container, prior):
        """A prior container with a latent dimension init_params refuses, or
        with a logit width other than the backbone's, is refused on load."""
        good = (pipeline / "model.ckpt").read_bytes()
        _, params = load_checkpoint(pipeline / "model.ckpt")
        buf = io.BytesIO()
        save_params(params, buf)
        backbone_part = good[:len(good) - len(buf.getvalue())]
        if container == "latent-dim-0":
            prior_part = (b"PRW1" + struct.pack("<III", 1, params.logit_width, 0)
                          + struct.pack("<f", 0.0))
        else:
            buf = io.BytesIO()
            save_params(init_params(7, d=4, seed=0), buf)
            prior_part = buf.getvalue()
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(backbone_part + prior_part)
        out = tmp_path / "s"
        capsys.readouterr()
        assert main(["score", "--data", str(pipeline / "eval"), "--ckpt", str(ckpt),
                     "--out", str(out), "--prior", prior]) == 1
        self.assert_one_line_error(capsys)
        assert not list(out.glob("*.score"))

    def test_backbone_without_hidden_units(self, pipeline, tmp_path, capsys):
        """A backbone of hidden width 0 gives every point the same score; the
        checkpoint is refused on load."""
        backbone, params = load_checkpoint(pipeline / "model.ckpt")
        prior = io.BytesIO()
        save_params(params, prior)
        ckpt = tmp_path / "flat.ckpt"
        ckpt.write_bytes(b"LOCK" + struct.pack("<III", 1, 0, backbone.out_width)
                         + backbone.feature_scale.astype("<f4").tobytes()
                         + backbone.b2.astype("<f4").tobytes() + prior.getvalue())
        out = tmp_path / "s"
        capsys.readouterr()
        assert main(["score", "--data", str(pipeline / "eval"), "--ckpt", str(ckpt),
                     "--out", str(out), "--prior", "off"]) == 1
        self.assert_one_line_error(capsys)
        assert not list(out.glob("*.score"))

    @pytest.mark.parametrize("command", ["train", "raise", "eval"])
    def test_short_label_file(self, pipeline, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        for src in sorted((pipeline / "eval").glob("scene_*")):
            (data / src.name).write_bytes(src.read_bytes())
        label = sorted(data.glob("*.label"))[0]
        label.write_bytes(label.read_bytes()[:400])
        args = {
            "train": ["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                      "--epochs", "1"],
            "raise": ["raise", "--in", str(data), "--out", str(tmp_path / "r")],
            "eval": ["eval", "--data", str(data), "--scores", str(pipeline / "scores"),
                     "--gamma", "0.5", "--report", str(tmp_path / "r.txt")],
        }[command]
        capsys.readouterr()
        assert main(args) == 1
        self.assert_one_line_error(capsys)

    def test_point_file_with_nan_intensity(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for src in sorted((pipeline / "eval").glob("scene_*")):
            (data / src.name).write_bytes(src.read_bytes())
        cloud = sorted(data.glob("*.bin"))[0]
        records = np.fromfile(cloud, dtype="<f4").reshape(-1, 4)
        records[3, 3] = np.nan
        records.tofile(cloud)
        out = tmp_path / "s"
        capsys.readouterr()
        assert main(["score", "--data", str(data), "--ckpt", str(pipeline / "model.ckpt"),
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys)
        assert not list(out.glob("*.score"))

    def test_gamma_from_tpr_with_every_point_ignored(self, pipeline, tmp_path, capsys):
        """Calibrating gamma needs an OOD point outside the ignore mask; an
        all-ignore label set has none and is refused."""
        data = tmp_path / "data"
        data.mkdir()
        for src in sorted((pipeline / "eval").glob("scene_*.bin")):
            (data / src.name).write_bytes(src.read_bytes())
            n_points = src.stat().st_size // 16
            np.full(n_points, IGNORE_ID, dtype="<u4").tofile(data / (src.stem + ".label"))
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--scores", str(pipeline / "scores"),
                     "--gamma-from-tpr", "0.95", "--report", str(tmp_path / "r.txt")]) == 1
        self.assert_one_line_error(capsys)
        assert not (tmp_path / "r.txt").exists()


class TestBadNumericFlags:
    """No subcommand prints a traceback for a bad numeric flag: each run ends
    with exit 1 (2 for a usage error) and one stderr line."""

    @pytest.mark.parametrize("args, code", [
        pytest.param(["eval", "--gamma-from-tpr", "2"], 1, id="eval-tpr-above-1"),
        pytest.param(["eval", "--gamma-from-tpr", "nan"], 1, id="eval-tpr-nan"),
        pytest.param(["eval", "--gamma=-inf", "--eps", "nan"], 1, id="eval-eps-nan"),
        pytest.param(["eval", "--gamma=-inf", "--eps", "inf"], 1, id="eval-eps-inf"),
        pytest.param(["eval", "--gamma=-inf", "--min-pts", "-3"], 1, id="eval-min-pts"),
        pytest.param(["eval", "--gamma", "nan"], 1, id="eval-gamma-nan"),
        pytest.param(["eval", "--gamma", "0", "--gamma-from-tpr", "0.9"], 2,
                     id="eval-two-gammas"),
        pytest.param(["synth", "--extent", "nan"], 1, id="synth-extent-nan"),
        pytest.param(["synth", "--extent", "0"], 1, id="synth-extent-zero"),
        pytest.param(["synth", "--scenes", "0"], 1, id="synth-no-scenes"),
        pytest.param(["raise", "--r-min", "nan"], 1, id="raise-r-min-nan"),
        pytest.param(["raise", "--r-min", "2", "--r-max", "1"], 1, id="raise-r-range"),
        pytest.param(["raise", "--alpha", "nan"], 1, id="raise-alpha-nan"),
        pytest.param(["raise", "--eps", "nan"], 1, id="raise-eps-nan"),
        pytest.param(["raise", "--alpha", "1e39", "--eps", "1.0", "--min-pts", "2",
                      "--rho", "1.0"], 1, id="raise-points-beyond-float32"),
        pytest.param(["export-map", "--resolution", "0"], 1, id="export-map-resolution"),
        pytest.param(["export-map", "--resolution", "10000000"], 1,
                     id="export-map-resolution-huge"),
        pytest.param(["train", "--lr", "nan"], 1, id="train-lr-nan"),
        pytest.param(["train", "--lr", "inf"], 1, id="train-lr-inf"),
        pytest.param(["train", "--ood-weight", "nan"], 1, id="train-ood-weight-nan"),
        pytest.param(["train", "--ood-weight", "inf"], 1, id="train-ood-weight-inf"),
        pytest.param(["synth", "--road-noise-sigma", "-1"], 1, id="synth-road-noise-negative"),
        pytest.param(["synth", "--road-noise-sigma", "nan"], 1, id="synth-road-noise-nan"),
        pytest.param(["synth", "--extent", "1e308"], 1, id="synth-extent-span-overflow"),
        pytest.param(["synth", "--anomalies", "-1"], 1, id="synth-anomalies-negative"),
        pytest.param(["train", "--hidden", "-1"], 1, id="train-hidden-negative"),
        pytest.param(["train", "--hidden", "0"], 1, id="train-hidden-zero"),
        pytest.param(["train", "--raise-per-scan", "-1"], 1, id="train-raise-per-scan-negative"),
        # a later --cloud/--scores overrides the pipeline pair given below
        pytest.param(["export-map", "--cloud", "{tmp}/empty.bin", "--scores", "{tmp}/empty.score"],
                     1, id="export-map-empty-pair"),
    ])
    def test_one_line_no_traceback(self, pipeline, tmp_path, capsys, args, code):
        eval_dir = pipeline / "eval"
        (tmp_path / "empty.bin").write_bytes(b"")
        (tmp_path / "empty.score").write_bytes(b"")
        args = [a.replace("{tmp}", str(tmp_path)) for a in args]
        required = {
            "eval": ["--data", str(eval_dir), "--scores", str(pipeline / "scores"),
                     "--report", str(tmp_path / "r.txt")],
            "synth": ["--out", str(tmp_path / "s"), "--points", "600", "--extent", "4"],
            "raise": ["--in", str(eval_dir), "--out", str(tmp_path / "r")],
            "train": ["--data", str(eval_dir), "--out", str(tmp_path / "t" / "model.ckpt")],
            "export-map": ["--cloud", str(eval_dir / "scene_000.bin"),
                           "--scores", str(pipeline / "scores" / "scene_000.score"),
                           "--out", str(tmp_path / "m")],
        }[args[0]]
        capsys.readouterr()
        assert main([args[0], *required, *args[1:]]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: " if code == 1 else "usage error: "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err


class TestExportMap:
    def test_raster_header_and_colors(self, pipeline, tmp_path):
        cloud = sorted((pipeline / "eval").glob("*.bin"))[0]
        score = pipeline / "scores" / (cloud.stem + ".score")
        out = tmp_path / "map"
        assert main(["export-map", "--cloud", str(cloud), "--scores", str(score),
                     "--out", str(out), "--resolution", "64"]) == 0
        raster = out.with_suffix(".ppm")
        header = raster.read_bytes()[:15]
        assert header.startswith(b"P6\n64 64\n255\n")
        assert raster.stat().st_size == len(b"P6\n64 64\n255\n") + 64 * 64 * 3
        assert out.with_suffix(".xyzrgb").exists()

    def test_constant_scores_single_color(self, tmp_path):
        import lidarood as lo
        rng = np.random.default_rng(0)
        cloud = lo.PointCloud(points=rng.uniform(-1, 1, size=(50, 3)))
        lo.save_point_cloud(cloud, tmp_path / "c.bin")
        lo.save_scores(lo.ScoreField(scores=np.full(50, 2.5)), tmp_path / "c.score")
        out = tmp_path / "m"
        main(["export-map", "--cloud", str(tmp_path / "c.bin"),
              "--scores", str(tmp_path / "c.score"), "--out", str(out),
              "--resolution", "16"])
        body = out.with_suffix(".ppm").read_bytes()
        pixels = np.frombuffer(body[len(b"P6\n16 16\n255\n"):], dtype=np.uint8)
        pixels = pixels.reshape(-1, 3)
        occupied = pixels[pixels.any(axis=1)]
        assert len(np.unique(occupied, axis=0)) == 1

    def test_normalization_extremes(self, tmp_path):
        import lidarood as lo
        pts = np.array([[0.0, 0, 0], [5.0, 5.0, 0]])
        lo.save_point_cloud(lo.PointCloud(points=pts), tmp_path / "c.bin")
        lo.save_scores(lo.ScoreField(scores=np.array([-2.0, 6.0])), tmp_path / "c.score")
        out = tmp_path / "m"
        main(["export-map", "--cloud", str(tmp_path / "c.bin"),
              "--scores", str(tmp_path / "c.score"), "--out", str(out),
              "--resolution", "8"])
        lines = out.with_suffix(".xyzrgb").read_text().splitlines()
        assert lines[0].endswith(" 0 0 255")    # min score -> 0.0 -> blue
        assert lines[1].endswith(" 255 0 0")    # max score -> 1.0 -> red


class TestPipelineConfig:
    def test_roundtrip(self):
        cfg = PipelineConfig(entries={"scene.seed": 7, "train.lr": 0.001})
        again = PipelineConfig.from_text(cfg.to_text())
        assert again.entries == {"scene.seed": "7", "train.lr": "0.001"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractError):
            PipelineConfig(entries={"scene.wheels": 4})
        with pytest.raises(ContractError):
            PipelineConfig.from_text("bogus.key = 1\n")

    def test_digest_stable(self):
        a = PipelineConfig(entries={"scene.seed": 1})
        b = PipelineConfig(entries={"scene.seed": 1})
        assert a.digest() == b.digest()


class TestFullDeterminism:
    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        """synth -> raise -> train -> score -> eval twice; every artifact
        (data, checkpoint, scores, report, sidecars) matches byte-for-byte."""
        digests = []
        for run in ("r1", "r2"):
            root = tmp_path / run
            train_dir, raised, eval_dir = root / "t", root / "raised", root / "e"
            ckpt, scores, report = root / "m.ckpt", root / "s", root / "report.txt"
            assert main(["synth", "--out", str(train_dir), "--scenes", "2",
                         "--seed", "21", "--points", "2500", "--extent", "5"]) == 0
            assert main(["raise", "--in", str(train_dir), "--out", str(raised),
                         "--seed", "4"]) == 0
            assert main(["synth", "--out", str(eval_dir), "--scenes", "1",
                         "--seed", "22", "--points", "2500", "--extent", "5",
                         "--anomalies", "1"]) == 0
            assert main(["train", "--data", str(train_dir), "--out", str(ckpt),
                         "--epochs", "1", "--lr", "1e-3", "--seed", "2"]) == 0
            assert main(["score", "--data", str(eval_dir), "--ckpt", str(ckpt),
                         "--out", str(scores)]) == 0
            assert main(["eval", "--data", str(eval_dir), "--scores", str(scores),
                         "--gamma-from-tpr", "0.95",
                         "--report", str(report)]) == 0
            run_digest = {}
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    run_digest[str(p.relative_to(root))] = hashlib.sha256(
                        p.read_bytes()).hexdigest()
            digests.append(run_digest)
        assert digests[0] == digests[1]


# sha256 of every file of TestFullDeterminism's pipeline (numpy 2.4). All but
# the eval sidecar were computed before the CLI flags read their defaults
# from the library configs, so a change to what any command writes shows here.
PINNED_PIPELINE = {
    "e/dataset.provenance": "63649cec7fd4642acf730666df42f74b6edc11ff90fb35ade1b6ced6cc957b80",
    "e/scene_000.bin": "6dbca81540819f1fb6481095b93111f6757edafda135295cd9f55d8902385f88",
    "e/scene_000.label": "02bf2692f5842cf19ca1a29fadb11bb7c89c85f38b97cce9a4bac997b05992b3",
    "m.ckpt": "99d9677502e4d0946cd57d24dbe01e4a857b231612a318428e7557c9c53e8bb2",
    "m.ckpt.provenance": "4ea2e83dc04541969efa3ff8fe0d91dd3a9bb3198b57254f09d4bd3981959a43",
    "raised/dataset.provenance": "e59222ca6408c2f3dc5809bc8d966fd178dc63d0aef17015da18acd948aae878",
    "raised/scene_000.bin": "c8769cc597492229ae6cc8dbc41d9d6916c1a74287dc6f9aa194c94fcaf0556c",
    "raised/scene_000.label": "5ebd6d73c6ca05dec221e3bf582ce3f676be5b358b2d9275bff5ceac5d57d6d7",
    "raised/scene_001.bin": "500a6143fa02c4ce1e9900ea9f68ebe61cb06cdffccc51000fd9a478cc6f08db",
    "raised/scene_001.label": "215bcffd548eb7a8353b4966950a62517eab54cedaf7a4522415f1d6ce735f77",
    "report.txt": "e0252c2e630e24ecd8455f51aa5a08228c2ce9dce8c2415d97ff3b9ff7bb5710",
    "report.txt.provenance": "d3fd51aa9795cb363294b4b62da27dd9668d2f8831fed636b2e0f9e4b5e20933",
    "s/scene_000.score": "a85e32e35851c05e70d102a3d1c8ef9463f68b71d13b3166d61e1a7650fc1e1b",
    "s/scores.provenance": "bd0efbcf85149aa1397fb24f00f31a370ab9deebc7f5b67384ad0eb056dd1823",
    "t/dataset.provenance": "3fe830f0d490d12f341b652e323627e53eaa00741bc5a34afad9714971659a14",
    "t/scene_000.bin": "9772c761389bfaf2e60660ffaed7db422b86045cf08d544a3292d5df11266fdf",
    "t/scene_000.label": "47887ba5b2c9c028d4ba3cc69ca5cdb47b8b8568ddf66f367f1454a7b128ccb3",
    "t/scene_001.bin": "5a688bb22706932ee8092c96f18ec6307784cb19fad540811254714ba7610291",
    "t/scene_001.label": "47887ba5b2c9c028d4ba3cc69ca5cdb47b8b8568ddf66f367f1454a7b128ccb3",
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """TestFullDeterminism's synth -> raise -> synth -> train -> score -> eval
    chain (criterion 10's, with other seeds) in ``pipe``, then an ``eval
    --gamma`` and an ``export-map`` in ``more``, so every subcommand runs."""
    root = tmp_path_factory.mktemp("full")
    pipe, more = root / "pipe", root / "more"
    train_dir, eval_dir, scores = pipe / "t", pipe / "e", pipe / "s"
    assert main(["synth", "--out", str(train_dir), "--scenes", "2",
                 "--seed", "21", "--points", "2500", "--extent", "5"]) == 0
    assert main(["raise", "--in", str(train_dir), "--out", str(pipe / "raised"),
                 "--seed", "4"]) == 0
    assert main(["synth", "--out", str(eval_dir), "--scenes", "1",
                 "--seed", "22", "--points", "2500", "--extent", "5",
                 "--anomalies", "1"]) == 0
    assert main(["train", "--data", str(train_dir), "--out", str(pipe / "m.ckpt"),
                 "--epochs", "1", "--lr", "1e-3", "--seed", "2"]) == 0
    assert main(["score", "--data", str(eval_dir), "--ckpt", str(pipe / "m.ckpt"),
                 "--out", str(scores)]) == 0
    assert main(["eval", "--data", str(eval_dir), "--scores", str(scores),
                 "--gamma-from-tpr", "0.95", "--report", str(pipe / "report.txt")]) == 0
    more.mkdir()
    assert main(["eval", "--data", str(eval_dir), "--scores", str(scores),
                 "--gamma", "0.5", "--report", str(more / "report.txt")]) == 0
    assert main(["export-map", "--cloud", str(eval_dir / "scene_000.bin"),
                 "--scores", str(scores / "scene_000.score"), "--out", str(more / "map")]) == 0
    return root


class TestPinnedPipeline:
    def test_artifact_and_sidecar_bytes_pinned(self, full_run):
        pipe = full_run / "pipe"
        digest = {str(p.relative_to(pipe)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(pipe.rglob("*")) if p.is_file()}
        assert digest == PINNED_PIPELINE

    def test_sidecar_keys_known_and_all_written(self, full_run):
        """Every config key of a sidecar is a known key, and every known key
        is written by some subcommand."""
        written = set()
        for side in full_run.rglob("*.provenance"):
            for line in side.read_text().splitlines():
                written.add(line.partition(" = ")[0])
        written -= {"command", "config_digest", "version"}
        assert written <= _KNOWN_KEYS
        assert _KNOWN_KEYS <= written, sorted(_KNOWN_KEYS - written)
