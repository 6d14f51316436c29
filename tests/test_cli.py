"""End-to-end command-line pipeline."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from lidarood.cli import PipelineConfig, main
from lidarood.core import ContractError
from lidarood.metrics import read_report
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
        pytest.param(["export-map", "--resolution", "0"], 1, id="export-map-resolution"),
        pytest.param(["train", "--lr", "nan"], 1, id="train-lr-nan"),
        pytest.param(["train", "--lr", "inf"], 1, id="train-lr-inf"),
        pytest.param(["train", "--ood-weight", "nan"], 1, id="train-ood-weight-nan"),
        pytest.param(["train", "--ood-weight", "inf"], 1, id="train-ood-weight-inf"),
        pytest.param(["synth", "--road-noise-sigma", "-1"], 1, id="synth-road-noise-negative"),
        pytest.param(["synth", "--road-noise-sigma", "nan"], 1, id="synth-road-noise-nan"),
    ])
    def test_one_line_no_traceback(self, pipeline, tmp_path, capsys, args, code):
        eval_dir = pipeline / "eval"
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
