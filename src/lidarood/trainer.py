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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (ClassSpec, ContractError, LabelMap, LogitField, PointCloud, Role, Workspace,
                   read_float32, read_header, row_chunks, to_float32, work_array,
                   write_header)
from .losses import LossConfig, total_loss
from .neighbors import GridIndex, near_boxes
from .perlin import RaiseConfig, draw_raise, perlin_raise
from .priornet import PriorParams, glorot, init_params, load_params, prior_weight, save_params
from .scenes import ROAD
from .scoring import ScoreMethod

log = logging.getLogger(__name__)

__all__ = ["FEATURE_DIM", "extract_features", "Backbone", "init_backbone", "forward",
           "backbone_backward", "TrainConfig", "TrainLog", "train",
           "save_checkpoint", "load_checkpoint"]

FEATURE_DIM = 4
_FEATURE_RADIUS = 0.5
# rough magnitudes of (z, range, density, z-variance) in desk-scale scenes
DEFAULT_FEATURE_SCALE = (1.0, 10.0, 20.0, 0.05)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def extract_features(cloud: PointCloud) -> np.ndarray:
    """(M, 4) array: z height, radial distance from the sensor origin,
    neighbor count within 0.5 m (self inclusive), and population variance of
    neighbor heights within 0.5 m."""
    if cloud.count == 0:
        raise ContractError("cannot extract features from an empty cloud")
    pts = cloud.points.astype(np.float64)
    index = GridIndex(pts, cell_size=_FEATURE_RADIUS)
    density, zvar = index.ball_stats()
    radial = np.sqrt((pts**2).sum(axis=1))
    return np.column_stack((pts[:, 2], radial, density, zvar))


def _refresh_features(features: np.ndarray, cloud: PointCloud, *moved: np.ndarray) -> np.ndarray:
    """Bitwise ``extract_features(cloud)``, given ``features`` of a cloud that
    differs from ``cloud`` only in the z of the ``moved`` rows (one or more
    groups of them, such as one per raise).

    Only the points within the feature radius of a moved point can change,
    and they lie within it on x and on y. They are extracted again on the
    sub-cloud of the points within twice that of the moved ones, in index
    order, which holds all their neighbors (``near_boxes``): each point
    keeps its cell, as keys are per point, and so the order in which
    ``ball_stats`` adds its neighbors.
    """
    sub, redo = near_boxes(cloud.points, moved, _FEATURE_RADIUS)
    if not sub.size:
        return features.copy()
    # extracted before the copy is made, so their peaks do not add up
    fresh = extract_features(PointCloud(points=cloud.points[sub]))
    out = features.copy()
    out[sub[redo]] = fresh[redo]
    return out


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
    return Backbone(
        w1=glorot(rng, (FEATURE_DIM, hidden)),
        b1=np.zeros(hidden),
        w2=glorot(rng, (hidden, out_width)),
        b2=np.zeros(out_width),
    )


def _feature_rows(features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != FEATURE_DIM:
        raise ContractError(f"features must be (M, {FEATURE_DIM}), got shape {x.shape}")
    return x


def _scaled(backbone: Backbone, x: np.ndarray, work: Workspace | None) -> np.ndarray:
    """``x`` (checked by ``_feature_rows``) over the feature scale."""
    return np.divide(x, backbone.feature_scale, out=work_array(work, "x", *x.shape))


def _hidden(backbone: Backbone, x: np.ndarray, work: Workspace | None) -> np.ndarray:
    """ReLU(x @ w1 + b1), built in one (M, H) buffer."""
    h = np.matmul(x, backbone.w1, out=work_array(work, "a", x.shape[0], backbone.w1.shape[1]))
    h += backbone.b1
    return np.maximum(h, 0.0, out=h)


def forward(backbone: Backbone, features: np.ndarray, spec: ClassSpec, *,
            work: Workspace | None = None) -> LogitField:
    """The logit field of ``features``.

    The rows go through the network in ``core.row_chunks``, all into one
    fresh (M, C) logit array, so the scaled features and the hidden layer
    are chunk-sized (in the buffers of ``work`` when it is given); the
    logits have the bytes of one whole-array pass. Up to 4096 rows are one
    chunk."""
    x = _feature_rows(features)
    logits = None
    for rows in row_chunks(x.shape[0]):
        h = _hidden(backbone, _scaled(backbone, x[rows], work), work)
        if logits is None:
            # made while the first hidden layer is alive, where the
            # whole-array pass makes its product, so one chunk allocates in
            # the unchunked order (made first, the logits let malloc trim
            # and regrow the heap top: ~430 page faults a call at 3.4k rows)
            logits = np.empty((x.shape[0], backbone.out_width))
        np.matmul(h, backbone.w2, out=logits[rows])
        logits[rows] += backbone.b2
    return LogitField(values=logits, class_spec=spec)


def backbone_backward(
    backbone: Backbone, features: np.ndarray, dlogits: np.ndarray, *,
    work: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of sum(dlogits * logits) w.r.t. the backbone tensors.

    The hidden layer is recomputed, as ``forward`` builds it and in the same
    ``work`` buffer, rather than kept from the forward pass: a kept one
    needs a buffer of its own, which raises a 3.4k-point ``train()`` peak."""
    x = _scaled(backbone, _feature_rows(features), work)
    if np.shape(dlogits) != (x.shape[0], backbone.out_width):
        raise ContractError(f"dlogits must be ({x.shape[0]}, {backbone.out_width}) for these "
                            f"features and backbone, got shape {np.shape(dlogits)}")
    h = _hidden(backbone, x, work)
    g_w2 = h.T @ dlogits
    active = h > 0.0  # exactly where x @ w1 + b1 > 0
    # h is spent: dh takes its buffer
    dh = np.matmul(dlogits, backbone.w2.T, out=h)
    dh *= active
    return {
        "w1": x.T @ dh,
        "b1": dh.sum(axis=0),
        "w2": g_w2,
        "b2": dlogits.sum(axis=0),
    }


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-4
    epochs: int = 10
    seed: int = 0
    raise_per_scan: int = 1
    raise_r_range: tuple[float, float] = (0.75, 1.5)
    raise_alpha: float = RaiseConfig.alpha
    raise_rho: float = RaiseConfig.rho
    raise_eps: float = RaiseConfig.dbscan_eps
    raise_min_pts: int = RaiseConfig.dbscan_min_pts
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
        # an Adam step moves each weight by about lr: far past 1 (1e300,
        # say) the forward pass overflows float64 before a check sees it
        if not 0.0 <= self.lr <= 1.0:
            raise ContractError(f"lr must be in [0, 1], got {self.lr}")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.raise_per_scan < 0:
            raise ContractError("raise_per_scan must be >= 0")
        if self.hidden < 1:
            raise ContractError("hidden must be >= 1")
        if self.latent_dim < 1:
            raise ContractError("latent_dim must be >= 1")
        lo, hi = self.raise_r_range
        if not lo <= hi:
            raise ContractError("raise_r_range must be (lo, hi) with lo <= hi")
        # each raise draws r from the range: the configs at both ends check
        # every raise setting
        for r in (lo, hi):
            RaiseConfig(r=r, **self._raise_settings())

    def _raise_settings(self) -> dict:
        """The ``RaiseConfig`` fields that every raise of a run shares."""
        return {"alpha": self.raise_alpha, "rho": self.raise_rho,
                "dbscan_eps": self.raise_eps, "dbscan_min_pts": self.raise_min_pts}


@dataclass
class EpochStats:
    total: float
    ce: float
    aux: float
    void: float
    steps: int
    # the share of the steps' points with a positive prior pre-activation
    # (0 without the prior), and the steps with none: a head at 0 on every
    # point gets no gradient, and the prior stays the identity
    live: float = 0.0
    dead_steps: int = 0


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)
    skipped: list[tuple[int, int]] = field(default_factory=list)  # (epoch, scan index)


class _Adam:
    """Bias-corrected Adam over one flat vector of every trainable value.

    ``__init__`` copies the tensors of ``tensors`` into one float64 vector
    and replaces each dict entry by a view of it, so a step updates every
    tensor with one array expression; the caller reads its tensors back
    from the dict. ``step`` takes a gradient for every tensor.
    """

    def __init__(self, tensors: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.names = list(tensors)
        sizes = [np.size(tensors[k]) for k in self.names]
        self.ends = np.cumsum(sizes)
        self.values = np.concatenate([np.ravel(tensors[k]) for k in self.names],
                                     dtype=np.float64)
        for k, end, n in zip(self.names, self.ends, sizes):
            tensors[k] = self.values[end - n:end].reshape(np.shape(tensors[k]))
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1**self.t
        bc2 = 1.0 - _ADAM_BETA2**self.t
        g = np.concatenate([np.ravel(grads[k]) for k in self.names])
        self.m *= _ADAM_BETA1
        self.m += (1.0 - _ADAM_BETA1) * g
        g2 = (1.0 - _ADAM_BETA2) * g
        g2 *= g
        self.v *= _ADAM_BETA2
        self.v += g2
        update = self.m / bc1
        update *= self.lr
        denom = self.v / bc2
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        update /= denom
        self.values -= update
        finite = np.isfinite(self.values)
        if not finite.all():
            k = self.names[np.searchsorted(self.ends, np.argmin(finite), side="right")]
            raise ContractError(f"non-finite parameter {k} after update {self.t}")


def train(
    scenes: list[tuple[PointCloud, LabelMap]],
    spec: ClassSpec,
    cfg: TrainConfig,
) -> tuple[Backbone, PriorParams, TrainLog]:
    """Optimize the backbone and prior network on a list of labeled scans.

    Per scan and epoch: run the noise-raise augmentation ``raise_per_scan``
    times, extract features, compute logits and the total loss through the
    configured scoring method, then take one bias-corrected Adam step
    (beta1 0.9, beta2 0.999, eps 1e-8) on that scan's gradient over every
    trainable tensor (the attention tensors only when ``use_prior``; the
    bias b always). Scans without enough road points are skipped and logged.

    Each scan's features are computed once per call, on first use, and
    reused at every step whose raises moved no point. A step whose raises
    moved points patches a copy of them: it extracts again only the points
    within the 0.5 m feature radius of a raise's patch on x and on y, on the
    sub-cloud within twice that (``near_boxes``), with a full extraction's
    bytes.

    A step, and the prior-head probe, walk the scan in ``core.row_chunks``:
    per chunk ``forward``, ``total_loss`` (with the scan's loss normalizers)
    and ``backbone_backward``, the chunks' gradients added in row order, so
    each per-point gradient keeps its bytes and a scan of up to 4096 rows is
    one chunk. Their large arrays fill one ``Workspace`` (``core``'s slot
    table: 80 float64 columns per row at the default widths) of the call's
    largest chunk, dropped on return. One ``train()`` call (2 epochs, two
    raises) on a seed-1 scene peaks at 1.16, 0.33 and 0.16 KB per point at
    3.4k, 20k and 100k points (1.14-1.22 KB with whole-scan steps).
    """
    if not scenes:
        raise ContractError("training requires at least one scene")
    for k, (cloud, labels) in enumerate(scenes):
        if labels.count != cloud.count:
            raise ContractError(f"scan {k}: {labels.count} labels for {cloud.count} points")
    if not spec.extended and cfg.method.requires_extended:
        raise ContractError("extended-energy training needs an extended class spec")

    scan_features: dict[int, np.ndarray] = {}
    # every step fills its chunks' arrays into this, and it dies with the call
    work = Workspace(max(r.stop - r.start for c, _ in scenes for r in row_chunks(c.count)),
                     cfg.hidden, cfg.latent_dim, spec.logit_width)

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
        probe = base_features(0)
        fields = (forward(backbone, probe[r], spec, work=work) for r in row_chunks(len(probe)))
        if not any(np.any(prior_weight(f, params, work=work)[1].pre > 0.0) for f in fields):
            params.w_head = -params.w_head

    loop_rng = np.random.default_rng([cfg.seed, 2])
    tensors = dict(backbone.tensors())
    tensors["b"] = np.zeros(())  # scalar bias as a 0-d array
    if cfg.use_prior:
        tensors.update(params.tensors())
    opt = _Adam(tensors, cfg.lr)
    for owner in (backbone, params):  # the tensors now live in the optimizer's flat vector
        for k in owner.tensors().keys() & tensors.keys():
            setattr(owner, k, tensors[k])

    train_log = TrainLog()
    for epoch in range(cfg.epochs):
        order = loop_rng.permutation(len(scenes))
        sums = np.zeros(4)
        steps = points = live = dead_steps = 0
        for scan_idx in order:
            cloud, labels = scenes[scan_idx]
            n_road = int(np.count_nonzero(labels.semantic == ROAD))
            if n_road < cfg.raise_min_pts:
                log.info("epoch %d: scan %d skipped (no road)", epoch, scan_idx)
                train_log.skipped.append((epoch, int(scan_idx)))
                continue

            moved = []  # raised_indices of the raises that moved points
            for _ in range(cfg.raise_per_scan):
                rcfg = draw_raise(loop_rng, cfg.raise_r_range, **cfg._raise_settings())
                cloud, labels, report = perlin_raise(cloud, labels, spec, rcfg)
                if report.raised_count:
                    moved.append(report.raised_indices)

            features = base_features(int(scan_idx))
            if moved:
                features = _refresh_features(features, cloud, *moved)
            grads, terms, n_live = _step_grads(backbone, params, features, labels, spec, cfg, work)
            if not np.isfinite(terms[0]):
                raise ContractError(f"non-finite loss at epoch {epoch}")
            opt.step(grads)
            params.b = float(tensors["b"])

            sums += terms
            steps += 1
            points += labels.count
            live += n_live
            dead_steps += n_live == 0

        train_log.epochs.append(EpochStats(*sums / max(steps, 1), steps, live / max(points, 1),
                                           dead_steps))
    return backbone, params, train_log


def _step_grads(backbone, params, features, labels, spec, cfg: TrainConfig, work):
    """A step's gradients (the prior's zero without it), loss terms (total,
    ce, aux, void) and points with a positive prior pre-activation: its row
    chunks', each with the scan's loss normalizers, summed in row order."""
    counts = [np.count_nonzero(labels.role == r) for r in (Role.INLIER, Role.AUX_OOD, Role.VOID)]
    grads, terms, live = {}, np.zeros(3), 0
    for rows in row_chunks(labels.count):
        part = LabelMap(labels.semantic[rows], labels.instance[rows], labels.role[rows])
        result = total_loss(forward(backbone, features[rows], spec, work=work), part, spec,
                            cfg.method, params, cfg.loss, cfg.use_prior, work=work, counts=counts)
        chunk = backbone_backward(backbone, features[rows], result.dlogits, work=work)
        chunk.update(result.prior_grads.tensors(), b=np.asarray(result.prior_grads.b))
        grads = {k: grads[k] + g if grads else g for k, g in chunk.items()}
        terms += (result.ce, result.aux, result.void)
        live += result.live
    return grads, (terms[0] + terms[1] + terms[2], *terms), live


# --------------------------------------------------------------------------
# checkpoint: backbone tensors followed by the prior-network container
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"LOCK"


def _check_hidden(hidden: int) -> None:
    # a backbone of width 0 gives every point the same logits (b2)
    if hidden < 1:
        raise ContractError(f"backbone hidden width must be >= 1, got {hidden}")


def save_checkpoint(path, backbone: Backbone, params: PriorParams) -> None:
    """Write the checkpoint; ContractError, with no file written, if a tensor
    overflows float32 or the backbone has no hidden unit."""
    hidden = backbone.w1.shape[1]
    _check_hidden(hidden)
    fh = io.BytesIO()
    write_header(fh, _CKPT_MAGIC, hidden, backbone.out_width)
    for name in ("feature_scale", "w1", "b1", "w2", "b2"):
        fh.write(to_float32(getattr(backbone, name), name).tobytes())
    save_params(params, fh)
    Path(path).write_bytes(fh.getvalue())


def load_checkpoint(path) -> tuple[Backbone, PriorParams]:
    fh = io.BytesIO(Path(path).read_bytes())  # a bad header size cannot over-allocate a read
    hidden, out = read_header(fh, _CKPT_MAGIC)
    _check_hidden(hidden)
    scale = read_float32(fh, FEATURE_DIM)
    backbone = Backbone(
        w1=read_float32(fh, FEATURE_DIM, hidden), b1=read_float32(fh, hidden),
        w2=read_float32(fh, hidden, out), b2=read_float32(fh, out), feature_scale=scale,
    )
    params = load_params(fh)
    if params.logit_width != backbone.out_width:
        raise ContractError(
            f"prior logit width {params.logit_width} does not match the backbone "
            f"output width {backbone.out_width}")
    return backbone, params
