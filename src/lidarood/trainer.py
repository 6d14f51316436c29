"""Pointwise feature backbone and the full optimization loop.

The backbone is deliberately small: four handcrafted per-point geometric
features (height, radial distance, local density, local height variance)
feed a one-hidden-layer perceptron that emits 2K logits. It stands in for a
large voxel encoder so the surrounding machinery (noise-based anomaly
synthesis, prior-reweighted scoring, the three-term objective) runs at desk
scale with exact, finite-difference-checkable gradients.

Training is fully deterministic under the config seed: initialization, scan
order, and every augmentation draw derive from seeded generators.
"""

from __future__ import annotations

import io
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (ClassSpec, ContractError, LabelMap, LogitField, PointCloud, read_exact,
                   to_float32)
from .losses import LossConfig, total_loss
from .neighbors import GridIndex
from .perlin import RaiseConfig, perlin_raise
from .priornet import PriorParams, init_params, load_params, prior_weight, save_params
from .scoring import ScoreMethod

log = logging.getLogger(__name__)

__all__ = ["FEATURE_DIM", "extract_features", "Backbone", "init_backbone", "forward",
           "backbone_backward", "TrainConfig", "TrainLog", "train",
           "save_checkpoint", "load_checkpoint"]

FEATURE_DIM = 4
_FEATURE_RADIUS = 0.5
# rough magnitudes of (z, range, density, z-variance) in desk-scale scenes
DEFAULT_FEATURE_SCALE = (1.0, 10.0, 20.0, 0.05)


def extract_features(cloud: PointCloud) -> np.ndarray:
    """(M, 4) array: z height, radial distance from the sensor origin,
    neighbor count within 0.5 m (self inclusive), and population variance of
    neighbor heights within 0.5 m."""
    if cloud.count == 0:
        raise ContractError("cannot extract features from an empty cloud")
    pts = cloud.points.astype(np.float64)
    index = GridIndex(pts, cell_size=_FEATURE_RADIUS)
    density, zvar = index.ball_stats(_FEATURE_RADIUS)
    radial = np.sqrt((pts**2).sum(axis=1))
    return np.c_[pts[:, 2], radial, density, zvar]


@dataclass
class Backbone:
    """One-hidden-layer ReLU perceptron over scaled point features."""

    w1: np.ndarray  # (4, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, C)
    b2: np.ndarray  # (C,)
    feature_scale: np.ndarray = field(
        default_factory=lambda: np.array(DEFAULT_FEATURE_SCALE))

    @property
    def out_width(self) -> int:
        return self.w2.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def init_backbone(hidden: int, out_width: int, seed: int = 0) -> Backbone:
    rng = np.random.default_rng(seed)

    def glorot(shape):
        a = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-a, a, size=shape)

    return Backbone(
        w1=glorot((FEATURE_DIM, hidden)),
        b1=np.zeros(hidden),
        w2=glorot((hidden, out_width)),
        b2=np.zeros(out_width),
    )


def forward(backbone: Backbone, features: np.ndarray, spec: ClassSpec) -> LogitField:
    x = np.asarray(features, dtype=np.float64) / backbone.feature_scale
    h = np.maximum(x @ backbone.w1 + backbone.b1, 0.0)
    return LogitField(values=h @ backbone.w2 + backbone.b2, class_spec=spec)


def backbone_backward(
    backbone: Backbone, features: np.ndarray, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of sum(dlogits * logits) w.r.t. the backbone tensors."""
    x = np.asarray(features, dtype=np.float64) / backbone.feature_scale
    pre = x @ backbone.w1 + backbone.b1
    h = np.maximum(pre, 0.0)
    dh = (dlogits @ backbone.w2.T) * (pre > 0.0)
    return {
        "w1": x.T @ dh,
        "b1": dh.sum(axis=0),
        "w2": h.T @ dlogits,
        "b2": dlogits.sum(axis=0),
    }


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-4
    epochs: int = 10
    batch_scans: int = 1
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    raise_per_scan: int = 1
    raise_r_range: tuple[float, float] = (0.75, 1.5)
    raise_alpha: float = 0.4
    raise_rho: float = 0.3
    raise_eps: float = 0.3
    raise_min_pts: int = 5
    road_class: int = 1
    loss: LossConfig = field(default_factory=LossConfig)
    method: ScoreMethod = ScoreMethod.EXTENDED_ENERGY
    hidden: int = 32
    latent_dim: int = 16
    use_prior: bool = True
    # the zero-initialized weight head is a stationary point of the
    # optimizer (ReLU subgradient at 0 is 0), so prior training starts from
    # a small seeded perturbation; 0 disables it
    head_init_scale: float = 1e-2

    def __post_init__(self):
        if not 0.0 <= self.lr < np.inf:
            raise ContractError("lr must be finite and >= 0")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.batch_scans < 1:
            raise ContractError("batch_scans must be >= 1")


@dataclass
class EpochStats:
    total: float
    ce: float
    aux: float
    void: float
    steps: int


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)
    skipped: list[tuple[int, int]] = field(default_factory=list)  # (epoch, scan index)


class _Adam:
    def __init__(self, tensors: dict[str, np.ndarray], cfg: TrainConfig):
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.t = 0

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.adam_beta1**self.t
        bc2 = 1.0 - cfg.adam_beta2**self.t
        for k, g in grads.items():
            self.m[k] = cfg.adam_beta1 * self.m[k] + (1.0 - cfg.adam_beta1) * g
            self.v[k] = cfg.adam_beta2 * self.v[k] + (1.0 - cfg.adam_beta2) * g * g
            update = cfg.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + cfg.adam_eps)
            tensors[k] -= update
            if not np.all(np.isfinite(tensors[k])):
                raise ContractError(f"non-finite parameter {k} after update {self.t}")


def train(
    scenes: list[tuple[PointCloud, LabelMap]],
    spec: ClassSpec,
    cfg: TrainConfig,
) -> tuple[Backbone, PriorParams, TrainLog]:
    """Optimize the backbone and prior network on a list of labeled scans.

    Per scan and epoch: run the noise-raise augmentation ``raise_per_scan``
    times, extract features, compute logits and the total loss through the
    configured scoring method, then take one Adam step over every trainable
    tensor (the attention tensors only when ``use_prior``; the bias b
    always). Scans without enough road points are skipped and logged.

    Each scan's features are computed once per call, on first use, and
    reused at every step whose raises moved no point; a step whose raises
    moved points recomputes them on the raised cloud.
    """
    if not scenes:
        raise ContractError("training requires at least one scene")
    if not spec.extended and cfg.method.requires_extended:
        raise ContractError("extended-energy training needs an extended class spec")

    scan_features: dict[int, np.ndarray] = {}

    def base_features(k: int) -> np.ndarray:
        if k not in scan_features:
            scan_features[k] = extract_features(scenes[k][0])
        return scan_features[k]

    init_rng = np.random.default_rng([cfg.seed, 0])
    backbone = init_backbone(cfg.hidden, spec.logit_width,
                             seed=int(init_rng.integers(2**63)))
    params = init_params(spec.logit_width, cfg.latent_dim,
                         seed=int(init_rng.integers(2**63)))
    if cfg.use_prior and cfg.head_init_scale > 0.0:
        head_rng = np.random.default_rng([cfg.seed, 1])
        params.w_head = head_rng.uniform(
            -cfg.head_init_scale, cfg.head_init_scale, size=params.w_head.shape)
        # the head only receives gradient through points with a positive
        # pre-activation; if the draw leaves every point of the first scan
        # inactive, flip its sign so the head is trainable
        probe = forward(backbone, base_features(0), spec)
        _, tape = prior_weight(probe, params)
        if not np.any(tape.pre > 0.0):
            params.w_head = -params.w_head

    loop_rng = np.random.default_rng([cfg.seed, 2])
    tensors = dict(backbone.tensors())
    tensors["b"] = np.zeros(())  # scalar bias as a 0-d array
    if cfg.use_prior:
        tensors.update(params.tensors())
    opt = _Adam(tensors, cfg)

    train_log = TrainLog()
    pending: dict[str, np.ndarray] = {}
    pending_count = 0

    def flush():
        nonlocal pending, pending_count
        if not pending_count:
            return
        mean = {k: g / pending_count for k, g in pending.items()}
        opt.step(tensors, mean)
        params.b = float(tensors["b"])
        params.mark_updated()
        pending, pending_count = {}, 0

    for epoch in range(cfg.epochs):
        order = loop_rng.permutation(len(scenes))
        sums = np.zeros(4)
        steps = 0
        for scan_idx in order:
            cloud, labels = scenes[scan_idx]
            n_road = int(np.count_nonzero(labels.semantic == cfg.road_class))
            if n_road < cfg.raise_min_pts:
                log.info("epoch %d: scan %d skipped (no road)", epoch, scan_idx)
                train_log.skipped.append((epoch, int(scan_idx)))
                continue

            moved = False
            for _ in range(cfg.raise_per_scan):
                r = float(loop_rng.uniform(*cfg.raise_r_range))
                raise_seed = int(loop_rng.integers(2**63))
                rcfg = RaiseConfig(
                    r=r, alpha=cfg.raise_alpha, rho=cfg.raise_rho,
                    dbscan_eps=cfg.raise_eps, dbscan_min_pts=cfg.raise_min_pts,
                    seed=raise_seed, road_class=cfg.road_class,
                )
                cloud, labels, report = perlin_raise(cloud, labels, spec, rcfg)
                moved = moved or report.raised_count > 0

            features = extract_features(cloud) if moved else base_features(int(scan_idx))
            logits = forward(backbone, features, spec)
            result = total_loss(logits, labels, spec, cfg.method, params,
                                cfg.loss, use_prior=cfg.use_prior)
            if not np.isfinite(result.total):
                raise ContractError(f"non-finite loss at epoch {epoch}")

            grads = backbone_backward(backbone, features, result.dlogits)
            grads["b"] = np.asarray(result.prior_grads.b)
            if cfg.use_prior:
                grads.update(result.prior_grads.tensors())

            for k, g in grads.items():
                pending[k] = pending.get(k, 0.0) + g
            pending_count += 1
            if pending_count >= cfg.batch_scans:
                flush()

            sums += (result.total, result.ce, result.aux, result.void)
            steps += 1
        flush()  # partial batch at epoch end

        if steps:
            train_log.epochs.append(EpochStats(
                total=sums[0] / steps, ce=sums[1] / steps,
                aux=sums[2] / steps, void=sums[3] / steps, steps=steps))
        else:
            train_log.epochs.append(EpochStats(0.0, 0.0, 0.0, 0.0, 0))
    return backbone, params, train_log


# --------------------------------------------------------------------------
# checkpoint: backbone tensors followed by the prior-network container
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"LOCK"


def save_checkpoint(path, backbone: Backbone, params: PriorParams) -> None:
    """Write the checkpoint; ContractError, with no file written, if a tensor
    overflows float32."""
    fh = io.BytesIO()
    fh.write(_CKPT_MAGIC)
    hidden = backbone.w1.shape[1]
    fh.write(struct.pack("<III", 1, hidden, backbone.out_width))
    for name in ("feature_scale", "w1", "b1", "w2", "b2"):
        fh.write(to_float32(getattr(backbone, name), name).tobytes())
    save_params(params, fh)
    Path(path).write_bytes(fh.getvalue())


def load_checkpoint(path) -> tuple[Backbone, PriorParams]:
    fh = io.BytesIO(Path(path).read_bytes())  # a bad header size cannot over-allocate a read
    magic = read_exact(fh, 4)
    if magic != _CKPT_MAGIC:
        raise ContractError(f"bad checkpoint magic {magic!r}")
    version, hidden, out = struct.unpack("<III", read_exact(fh, 12))
    if version != 1:
        raise ContractError(f"unsupported checkpoint version {version}")

    def mat(*shape):
        n = int(np.prod(shape))
        return np.frombuffer(read_exact(fh, n * 4), dtype="<f4").astype(np.float64).reshape(shape)

    scale = mat(FEATURE_DIM)
    backbone = Backbone(
        w1=mat(FEATURE_DIM, hidden), b1=mat(hidden),
        w2=mat(hidden, out), b2=mat(out), feature_scale=scale,
    )
    return backbone, load_params(fh)
