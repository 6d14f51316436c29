"""Command-line pipeline driver.

Subcommands: ``synth`` (scene generation), ``raise`` (noise-based anomaly
augmentation), ``train``, ``score``, ``eval``, and ``export-map``. Every
artifact gets a ``.provenance`` sidecar holding every field of the library
config the command built, the command-level settings (synth's scene count,
seed and anomalies; raise's r range and seed), and the package version, with
no timestamps or absolute paths. The settings are complete; the identity of
the input files is not recorded yet.

Exit codes: 0 on success, 1 on contract/data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ContractError, FormatError, LabelMap, PointCloud, ScoreField, format_record,
    load_labels, load_point_cloud, load_scores,
    save_labels, save_point_cloud, save_scores,
)
from .losses import LossConfig, Orientation
from .metrics import (IOU_THRESHOLD, EvalConfig, evaluate_scenes, pooled_points,
                      threshold_at_tpr, write_report)
from .perlin import RaiseConfig, draw_raise, perlin_raise
from .scenes import SceneConfig, default_budget, default_class_spec, generate_scene, inject_eval_anomaly
from .scoring import ScoreMethod, reweighted_score, static_score
from .trainer import TrainConfig, extract_features, forward, load_checkpoint, save_checkpoint, train

__all__ = ["main"]


def _record(section: str, cfg) -> dict:
    """Each field of the config ``cfg`` as ``section.field``: an enum by its
    value, a nested config under its own field name."""
    entries = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            entries.update(_record(f.name, value))
        else:
            entries[f"{section}.{f.name}"] = value.value if isinstance(value, enum.Enum) else value
    return entries


def _write_provenance(artifact: Path, command: str, entries: dict) -> None:
    digest = hashlib.sha256(format_record(entries).encode()).hexdigest()[:16]
    record = {"command": command, "config_digest": digest, "version": __version__, **entries}
    artifact.with_name(artifact.name + ".provenance").write_text(
        format_record(record), encoding="utf-8")


def _scene_stems(directory: Path, suffix: str) -> list[Path]:
    files = sorted(directory.glob(f"*{suffix}"))
    if not files:
        raise ContractError(f"no {suffix} files in {directory}")
    return files


def _load_scene(bin_path: Path, label_path: Path, spec) -> tuple[PointCloud, LabelMap]:
    if not label_path.exists():
        raise ContractError(f"missing label file for {bin_path.name}")
    cloud, labels = load_point_cloud(bin_path), load_labels(label_path, spec)
    if labels.count != cloud.count:
        raise ContractError(
            f"{label_path.name}: {labels.count} labels for {cloud.count} points")
    return cloud, labels


def _load_dataset(directory: Path, spec) -> list[tuple[PointCloud, LabelMap]]:
    return [_load_scene(bin_path, bin_path.with_suffix(".label"), spec)
            for bin_path in _scene_stems(directory, ".bin")]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.scenes < 1:
        raise ContractError("--scenes must be >= 1")
    # below 200 the pole class gets no point; generation takes ~120 bytes a
    # point, 1.2 GB at 10**7
    if not 200 <= args.points <= 10**7:
        raise ContractError(f"--points must be in [200, 10000000], got {args.points}")
    template = SceneConfig(seed=args.seed, extent=args.extent,
                           class_budget=default_budget(args.points),
                           road_noise_sigma=args.road_noise_sigma)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.scenes):
        scene_cfg = dataclasses.replace(template, seed=int(rng.integers(2**63)))
        cloud, labels = generate_scene(scene_cfg)
        if args.anomalies:
            cloud, labels = inject_eval_anomaly(
                cloud, labels, scene_cfg, seed=int(rng.integers(2**63)),
                count=args.anomalies)
        save_point_cloud(cloud, out / f"scene_{i:03d}.bin")
        save_labels(labels, out / f"scene_{i:03d}.label")
    _write_provenance(out / "dataset", "synth", {
        **_record("scene", template), "scene.count": args.scenes,
        "scene.anomalies": args.anomalies})
    print(f"synth: wrote {args.scenes} scenes to {out}")
    return 0


def cmd_raise(args) -> int:
    if not 0.0 < args.r_min <= args.r_max < np.inf:
        raise ContractError("need 0 < --r-min <= --r-max, both finite")
    r_range = (args.r_min, args.r_max)
    settings = {"alpha": args.alpha, "rho": args.rho,
                "dbscan_eps": args.eps, "dbscan_min_pts": args.min_pts}
    RaiseConfig(r=args.r_min, seed=args.seed, **settings)  # checks them before any file is written
    spec = default_class_spec()
    src, out = Path(args.input), Path(args.out)
    rng = np.random.default_rng(args.seed)
    n_raised = 0
    for bin_path in _scene_stems(src, ".bin"):
        cloud, labels = _load_scene(bin_path, bin_path.with_suffix(".label"), spec)
        rcfg = draw_raise(rng, r_range, **settings)
        cloud, labels, report = perlin_raise(cloud, labels, spec, rcfg)
        n_raised += report.raised_count
        out.mkdir(parents=True, exist_ok=True)  # here, so a refused first raise leaves no --out
        save_point_cloud(cloud, out / bin_path.name)
        save_labels(labels, out / bin_path.with_suffix(".label").name)
    _write_provenance(out / "dataset", "raise", {
        "raise.r_range": r_range, "raise.seed": args.seed,
        **{f"raise.{key}": value for key, value in settings.items()}})
    print(f"raise: {n_raised} points raised across the set")
    return 0


def cmd_train(args) -> int:
    # a step holds (M, H) float64 and bool arrays and five (M, d) float64
    # arrays: at both caps, 0.37 + 0.41 GB for a CLI-default 20k-point scan
    for flag, width, cap in (("--hidden", args.hidden, 2048),
                             ("--latent-dim", args.latent_dim, 512)):
        if not 1 <= width <= cap:
            raise ContractError(f"{flag} must be in [1, {cap}], got {width}")
    spec = default_class_spec(extended=True)
    method = ScoreMethod(args.method)
    loss_cfg = LossConfig(beta=args.beta, ood_weight=args.ood_weight,
                          orientation=Orientation(args.orientation))
    tcfg = TrainConfig(
        lr=args.lr, epochs=args.epochs, seed=args.seed,
        raise_per_scan=args.raise_per_scan, loss=loss_cfg, method=method,
        hidden=args.hidden, latent_dim=args.latent_dim,
        use_prior=args.prior == "on",
    )
    scenes = _load_dataset(Path(args.data), spec)
    backbone, params, train_log = train(scenes, spec, tcfg)
    ckpt = Path(args.out)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, backbone, params)
    _write_provenance(ckpt, "train", _record("train", tcfg))
    for i, ep in enumerate(train_log.epochs):
        print(f"epoch {i}: total={ep.total:.4f} ce={ep.ce:.4f} "
              f"aux={ep.aux:.4f} void={ep.void:.4f} steps={ep.steps}")
    return 0


def _spec_for_checkpoint(backbone):
    spec = default_class_spec()
    if backbone.out_width == spec.num_classes:
        return spec
    if backbone.out_width == 2 * spec.num_classes:
        return default_class_spec(extended=True)
    raise ContractError(
        f"checkpoint output width {backbone.out_width} does not match the "
        f"synthetic class layout (expected {spec.num_classes} or {2 * spec.num_classes})")


def cmd_score(args) -> int:
    backbone, params = load_checkpoint(args.ckpt)
    spec = _spec_for_checkpoint(backbone)
    method = ScoreMethod(args.method)
    if method.requires_extended and not spec.extended:
        raise ContractError("extended energy needs an extended checkpoint")
    out = Path(args.out)
    for bin_path in _scene_stems(Path(args.data), ".bin"):
        cloud = load_point_cloud(bin_path)
        logits = forward(backbone, extract_features(cloud), spec)
        if args.prior == "on":
            scores = reweighted_score(logits, method, params)
        else:
            scores = ScoreField(scores=static_score(logits, method))
        out.mkdir(parents=True, exist_ok=True)  # here, so a refused first scan leaves no --out
        save_scores(scores, out / (bin_path.stem + ".score"))
    _write_provenance(out / "scores", "score",
                      {"score.method": method.value, "score.prior": args.prior})
    print(f"score: wrote {method.value} scores to {out}")
    return 0


def cmd_eval(args) -> int:
    if args.gamma is None and args.gamma_from_tpr is None:
        raise UsageError("eval needs --gamma or --gamma-from-tpr")
    if args.gamma is not None and args.gamma_from_tpr is not None:
        raise UsageError("--gamma and --gamma-from-tpr are mutually exclusive")

    spec = default_class_spec()
    data = Path(args.data)
    label_dir = Path(args.labels) if args.labels else data
    score_dir = Path(args.scores)
    scenes = []
    for bin_path in _scene_stems(data, ".bin"):
        cloud, labels = _load_scene(bin_path, label_dir / (bin_path.stem + ".label"), spec)
        scores = load_scores(score_dir / (bin_path.stem + ".score"))
        if scores.count != cloud.count:
            raise ContractError(f"score length mismatch for {bin_path.name}")
        scenes.append((cloud, labels, scores))

    if args.gamma_from_tpr is not None:
        gamma = threshold_at_tpr(*pooled_points(scenes), tpr=args.gamma_from_tpr)
        gamma_source = f"tpr={args.gamma_from_tpr}"
        calibration = {"eval.gamma_from_tpr": args.gamma_from_tpr}
    else:
        gamma = args.gamma
        gamma_source = "fixed"
        calibration = {}

    ecfg = EvalConfig(gamma=gamma, dbscan_eps=args.eps, dbscan_min_pts=args.min_pts)
    results = evaluate_scenes(scenes, ecfg)
    report_cfg = {
        "gamma": gamma, "gamma_source": gamma_source,
        "dbscan_eps": args.eps, "dbscan_min_pts": args.min_pts,
        "iou_threshold": IOU_THRESHOLD, "version": __version__,
        "scenes": len(scenes),
    }
    report = Path(args.report)
    report.parent.mkdir(parents=True, exist_ok=True)
    write_report(results, report_cfg, report)
    _write_provenance(report, "eval", {**_record("eval", ecfg), **calibration})
    for key in sorted(results):
        print(f"{key} = {results[key]:.6f}")
    return 0


def cmd_export_map(args) -> int:
    cloud = load_point_cloud(args.cloud)
    scores = load_scores(args.scores)
    if scores.count != cloud.count:
        raise ContractError("score length does not match the cloud")
    if cloud.count == 0:
        raise ContractError("cannot export a map of an empty cloud")
    res = args.resolution
    if not 2 <= res <= 4096:  # the map is built in res x res float64 arrays, 134 MB at 4096
        raise ContractError(f"resolution must be in [2, 4096], got {res}")

    s = scores.scores
    span = s.max() - s.min() if s.size else 0.0
    norm = (s - s.min()) / span if span > 0 else np.zeros_like(s)
    norm = np.clip(norm, 0.0, 1.0)

    pts = cloud.points
    lo = pts[:, :2].min(axis=0)
    hi = pts[:, :2].max(axis=0)
    extent = np.maximum(hi - lo, 1e-9)
    cols = np.minimum((pts[:, 0] - lo[0]) / extent[0] * res, res - 1).astype(int)
    rows = np.minimum((pts[:, 1] - lo[1]) / extent[1] * res, res - 1).astype(int)
    grid = np.full((res, res), -1.0)
    np.maximum.at(grid, (rows, cols), norm)

    rgb = np.zeros((res, res, 3), dtype=np.uint8)
    filled = grid >= 0
    t = np.clip(grid, 0.0, 1.0)
    rgb[..., 0] = np.where(filled, np.round(255 * t), 0)
    rgb[..., 2] = np.where(filled, np.round(255 * (1.0 - t)), 0)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    raster = out.with_suffix(".ppm")
    with open(raster, "wb") as fh:
        fh.write(f"P6\n{res} {res}\n255\n".encode())
        fh.write(rgb[::-1].tobytes())  # north-up

    point_file = out.with_suffix(".xyzrgb")
    with open(point_file, "w", encoding="utf-8") as fh:
        for (x, y, z), t_i in zip(pts, norm):
            r = int(round(255 * t_i))
            fh.write(f"{x:.6f} {y:.6f} {z:.6f} {r} 0 {255 - r}\n")

    _write_provenance(raster, "export-map", {"map.resolution": res})
    print(f"export-map: wrote {raster} and {point_file}")
    return 0


# --------------------------------------------------------------------------
# parser and entry point
# --------------------------------------------------------------------------

class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    methods = [m.value for m in ScoreMethod]
    p = argparse.ArgumentParser(prog="lidarood", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic labeled scenes")
    s.add_argument("--out", required=True)
    s.add_argument("--scenes", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--points", type=int, default=20000)
    s.add_argument("--extent", type=float, default=SceneConfig.extent)
    s.add_argument("--anomalies", type=int, default=0,
                   help="held-out primitive anomalies per scene")
    s.add_argument("--road-noise-sigma", type=float, default=SceneConfig.road_noise_sigma)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("raise", help="apply the noise-based surface raise")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--r-min", type=float, default=TrainConfig.raise_r_range[0])
    s.add_argument("--r-max", type=float, default=TrainConfig.raise_r_range[1])
    s.add_argument("--alpha", type=float, default=RaiseConfig.alpha)
    s.add_argument("--rho", type=float, default=RaiseConfig.rho)
    s.add_argument("--eps", type=float, default=RaiseConfig.dbscan_eps)
    s.add_argument("--min-pts", type=int, default=RaiseConfig.dbscan_min_pts)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_raise)

    s = sub.add_parser("train", help="train the backbone and prior network")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True, help="checkpoint path")
    s.add_argument("--method", default=TrainConfig.method.value, choices=methods)
    s.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    s.add_argument("--lr", type=float, default=TrainConfig.lr)
    s.add_argument("--seed", type=int, default=TrainConfig.seed)
    s.add_argument("--prior", choices=["on", "off"], default="on")
    s.add_argument("--raise-per-scan", type=int, default=TrainConfig.raise_per_scan)
    s.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    s.add_argument("--latent-dim", type=int, default=TrainConfig.latent_dim)
    s.add_argument("--beta", type=float, default=LossConfig.beta)
    s.add_argument("--ood-weight", type=float, default=LossConfig.ood_weight)
    s.add_argument("--orientation", choices=[o.value for o in Orientation],
                   default=LossConfig.orientation.value)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("score", help="score scans with a trained checkpoint")
    s.add_argument("--data", required=True)
    s.add_argument("--ckpt", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--method", default=TrainConfig.method.value, choices=methods)
    s.add_argument("--prior", choices=["on", "off"], default="on")
    s.set_defaults(func=cmd_score)

    s = sub.add_parser("eval", help="point- and object-level evaluation")
    s.add_argument("--data", required=True, help="directory of .bin scans")
    s.add_argument("--scores", required=True)
    s.add_argument("--labels", default=None,
                   help="directory of .label files (defaults to --data)")
    s.add_argument("--gamma", type=float, default=None)
    s.add_argument("--gamma-from-tpr", type=float, default=None)
    s.add_argument("--eps", type=float, default=EvalConfig.dbscan_eps)
    s.add_argument("--min-pts", type=int, default=EvalConfig.dbscan_min_pts)
    s.add_argument("--report", required=True)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("export-map", help="score map raster + colored cloud")
    s.add_argument("--cloud", required=True)
    s.add_argument("--scores", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--resolution", type=int, default=256)
    s.set_defaults(func=cmd_export_map)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
