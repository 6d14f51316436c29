"""End-to-end command-line pipeline."""

import dataclasses
import enum
import hashlib
import io
import struct
from pathlib import Path

import numpy as np
import pytest

from lidarood import __version__, cli
from lidarood.cli import main
from lidarood.core import format_record, parse_record
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

    def test_eval_creates_report_directory(self, pipeline, tmp_path):
        report = tmp_path / "fresh" / "nested" / "r.txt"
        assert main(["eval", "--data", str(pipeline / "eval"),
                     "--scores", str(pipeline / "scores"),
                     "--gamma", "0.5", "--report", str(report)]) == 0
        assert report.stat().st_size > 0
        assert report.with_name("r.txt.provenance").stat().st_size > 0

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

    def test_truncated_point_file_leaves_no_out(self, pipeline, tmp_path, capsys):
        """A 20-byte point file is refused before any score is written, and
        the --out directory is never made."""
        data = tmp_path / "cut"
        data.mkdir()
        (data / "scene_000.bin").write_bytes((pipeline / "eval" / "scene_000.bin").read_bytes()[:20])
        out = tmp_path / "s"
        capsys.readouterr()
        assert main(["score", "--data", str(data), "--ckpt", str(pipeline / "model.ckpt"),
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys)
        assert not out.exists()

    def test_point_beyond_int64_cells(self, pipeline, tmp_path, capsys):
        """A finite x of 1e20 has no int64 cell key: score refuses the cloud."""
        data = tmp_path / "data"
        data.mkdir()
        for src in sorted((pipeline / "eval").glob("scene_*")):
            (data / src.name).write_bytes(src.read_bytes())
        cloud = sorted(data.glob("*.bin"))[0]
        records = np.fromfile(cloud, dtype="<f4").reshape(-1, 4)
        records[3, 0] = 1e20
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
        # --gamma 1e9 flags no point, so DBSCAN never sees its settings
        pytest.param(["eval", "--gamma", "1e9", "--eps", "-1"], 1,
                     id="eval-eps-negative-unflagged"),
        pytest.param(["eval", "--gamma", "1e9", "--eps", "0"], 1, id="eval-eps-zero-unflagged"),
        pytest.param(["eval", "--gamma", "1e9", "--eps", "inf"], 1, id="eval-eps-inf-unflagged"),
        pytest.param(["eval", "--gamma", "1e9", "--min-pts", "0"], 1,
                     id="eval-min-pts-zero-unflagged"),
        pytest.param(["eval", "--gamma", "0", "--gamma-from-tpr", "0.9"], 2,
                     id="eval-two-gammas"),
        pytest.param(["synth", "--extent", "nan"], 1, id="synth-extent-nan"),
        pytest.param(["synth", "--extent", "0"], 1, id="synth-extent-zero"),
        pytest.param(["synth", "--scenes", "0"], 1, id="synth-no-scenes"),
        pytest.param(["synth", "--points", "100"], 1, id="synth-points-too-few"),
        pytest.param(["synth", "--points", "100000000000"], 1, id="synth-points-too-many"),
        pytest.param(["raise", "--r-min", "nan"], 1, id="raise-r-min-nan"),
        pytest.param(["raise", "--r-min", "2", "--r-max", "1"], 1, id="raise-r-range"),
        # noise cells of 5e-301 m: the lattice indices would pass int64
        pytest.param(["raise", "--r-min", "1e-300", "--r-max", "1e-300"], 1, id="raise-r-tiny"),
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
        pytest.param(["train", "--hidden", "1000000000000"], 1, id="train-hidden-huge"),
        pytest.param(["train", "--latent-dim", "1000000000000"], 1, id="train-latent-dim-huge"),
        pytest.param(["train", "--raise-per-scan", "-1"], 1, id="train-raise-per-scan-negative"),
        pytest.param(["synth", "--seed", "-1"], 1, id="synth-seed-negative"),
        pytest.param(["raise", "--seed", "-1"], 1, id="raise-seed-negative"),
        pytest.param(["train", "--seed", "-1"], 1, id="train-seed-negative"),
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
        assert not (tmp_path / "r.txt").exists()
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("points", ["100", "100000000000"])
    def test_synth_points_range_named(self, tmp_path, capsys, points):
        """The message names the flag and its range, and nothing is written."""
        assert main(["synth", "--out", str(tmp_path / "s"), "--points", points]) == 1
        assert "--points must be in [200, 10000000]" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


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


# sha256 of every file of TestFullDeterminism's pipeline (numpy 2.4), so a
# change to what any command writes shows here. The data, checkpoint, score
# and report digests were computed before the CLI flags read their defaults
# from the library configs; the synth, raise, train and eval sidecar digests
# since each sidecar holds every field of the config its command built.
PINNED_PIPELINE = {
    "e/dataset.provenance": "41bb6e73c37128d2490e4f458e950ced8994cb59cc461d81c75aadc9d2b4b05b",
    "e/scene_000.bin": "6dbca81540819f1fb6481095b93111f6757edafda135295cd9f55d8902385f88",
    "e/scene_000.label": "02bf2692f5842cf19ca1a29fadb11bb7c89c85f38b97cce9a4bac997b05992b3",
    "m.ckpt": "99d9677502e4d0946cd57d24dbe01e4a857b231612a318428e7557c9c53e8bb2",
    "m.ckpt.provenance": "cbdbd9f231bfa3c065fa022c23b7dd75324b4b0bcbe45218ba204716aeb1cb4d",
    "raised/dataset.provenance": "bd4340ce57472ec3bac67c6f24e1d831c47a2e003d7dc1dd3c44303aa9842637",
    "raised/scene_000.bin": "c8769cc597492229ae6cc8dbc41d9d6916c1a74287dc6f9aa194c94fcaf0556c",
    "raised/scene_000.label": "5ebd6d73c6ca05dec221e3bf582ce3f676be5b358b2d9275bff5ceac5d57d6d7",
    "raised/scene_001.bin": "500a6143fa02c4ce1e9900ea9f68ebe61cb06cdffccc51000fd9a478cc6f08db",
    "raised/scene_001.label": "215bcffd548eb7a8353b4966950a62517eab54cedaf7a4522415f1d6ce735f77",
    "report.txt": "e0252c2e630e24ecd8455f51aa5a08228c2ce9dce8c2415d97ff3b9ff7bb5710",
    "report.txt.provenance": "ad2c186598c24d982a8241a530aae0a699918c66d91dc98bde827f72c880fd35",
    "s/scene_000.score": "a85e32e35851c05e70d102a3d1c8ef9463f68b71d13b3166d61e1a7650fc1e1b",
    "s/scores.provenance": "bd0efbcf85149aa1397fb24f00f31a370ab9deebc7f5b67384ad0eb056dd1823",
    "t/dataset.provenance": "b54d87268f16e47217beb506e308cb8030bb8ef159da0adf5bcf408b7f968a49",
    "t/scene_000.bin": "9772c761389bfaf2e60660ffaed7db422b86045cf08d544a3292d5df11266fdf",
    "t/scene_000.label": "47887ba5b2c9c028d4ba3cc69ca5cdb47b8b8568ddf66f367f1454a7b128ccb3",
    "t/scene_001.bin": "5a688bb22706932ee8092c96f18ec6307784cb19fad540811254714ba7610291",
    "t/scene_001.label": "47887ba5b2c9c028d4ba3cc69ca5cdb47b8b8568ddf66f367f1454a7b128ccb3",
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """TestFullDeterminism's synth -> raise -> synth -> train -> score -> eval
    chain (criterion 10's, with other seeds) in ``pipe``, then an ``eval
    --gamma`` and an ``export-map`` in ``more``, so every subcommand runs.
    Returns the root and, per library function, the last positional
    argument of each call the commands made to it, in call order."""
    root = tmp_path_factory.mktemp("full")
    pipe, more = root / "pipe", root / "more"
    train_dir, eval_dir, scores = pipe / "t", pipe / "e", pipe / "s"
    handed = {name: [] for name in ("generate_scene", "draw_raise", "train", "evaluate_scenes")}
    with pytest.MonkeyPatch.context() as mp:
        for name in handed:
            def spy(*args, _real=getattr(cli, name), _calls=handed[name], **kwargs):
                _calls.append((args[-1], kwargs))
                return _real(*args, **kwargs)
            mp.setattr(cli, name, spy)
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
    return root, handed


def config_as_text(section: str, cfg) -> dict[str, str]:
    """Each field of ``cfg`` as ``section.field = f"{value}"``, an enum by its
    value and a nested config under its own field name."""
    entries = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            entries.update(config_as_text(f.name, value))
        else:
            entries[f"{section}.{f.name}"] = f"{value.value if isinstance(value, enum.Enum) else value}"
    return entries


def sidecar_settings(path: Path) -> dict[str, str]:
    entries = parse_record(path.read_text(encoding="utf-8"))
    for key in ("command", "config_digest", "version"):
        entries.pop(key)
    return entries


class TestPinnedPipeline:
    def test_artifact_and_sidecar_bytes_pinned(self, full_run):
        pipe = full_run[0] / "pipe"
        digest = {str(p.relative_to(pipe)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(pipe.rglob("*")) if p.is_file()}
        assert digest == PINNED_PIPELINE

    def test_sidecar_holds_every_field_handed_to_the_library(self, full_run):
        """Each sidecar holds exactly the fields of the configs its command
        handed to the library, plus the command-level settings."""
        root, handed = full_run
        pipe, more = root / "pipe", root / "more"
        scenes = [cfg for cfg, _ in handed["generate_scene"]]
        assert len(scenes) == 3
        for directory, seed, anomalies, made in ((pipe / "t", 21, 0, scenes[:2]),
                                                 (pipe / "e", 22, 1, scenes[2:])):
            side = sidecar_settings(directory / "dataset.provenance")
            for cfg in made:
                assert side == {**config_as_text("scene", dataclasses.replace(cfg, seed=seed)),
                                "scene.count": f"{len(made)}", "scene.anomalies": f"{anomalies}"}

        r_range, settings = handed["draw_raise"][0]
        assert all(call == (r_range, settings) for call in handed["draw_raise"])
        assert sidecar_settings(pipe / "raised" / "dataset.provenance") == {
            "raise.r_range": f"{r_range}", "raise.seed": "4",
            **{f"raise.{key}": f"{value}" for key, value in settings.items()}}

        [(tcfg, _)] = handed["train"]
        side = sidecar_settings(pipe / "m.ckpt.provenance")
        assert side == config_as_text("train", tcfg)
        assert side["train.head_init_scale"] == f"{tcfg.head_init_scale}"
        assert side["train.raise_eps"] == f"{tcfg.raise_eps}"
        assert side["loss.orientation"] == "id_low"

        (calibrated, _), (fixed, _) = handed["evaluate_scenes"]
        assert sidecar_settings(pipe / "report.txt.provenance") == {
            **config_as_text("eval", calibrated), "eval.gamma_from_tpr": "0.95"}
        assert sidecar_settings(more / "report.txt.provenance") == config_as_text("eval", fixed)
        assert fixed.gamma == 0.5

    def test_sidecars_read_back(self, full_run):
        """Each sidecar parses to its command, the package version and the
        digest of its config entries."""
        commands = []
        for side in sorted(full_run[0].rglob("*.provenance")):
            rest = parse_record(side.read_text(encoding="utf-8"))
            commands.append(rest.pop("command"))
            assert rest.pop("version") == __version__
            digest = rest.pop("config_digest")
            assert digest == hashlib.sha256(format_record(rest).encode()).hexdigest()[:16], side
        assert sorted(set(commands)) == ["eval", "export-map", "raise", "score", "synth", "train"]
