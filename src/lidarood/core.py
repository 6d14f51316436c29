"""Domain types, label semantics, and bit-exact binary file I/O.

Binary conventions follow the common LiDAR benchmark layout:

* point file (``.bin``): N x 4 little-endian float32 records (x, y, z, intensity)
* label file (``.label``): N x 1 little-endian uint32, lower 16 bits semantic
  class id, upper 16 bits instance id
* score file (``.score``): N x 1 little-endian float32, one scalar per point

All types are immutable after construction (backing arrays are marked
read-only, and so are the values a ``LogitField`` derives and caches on
first use) and therefore safe to share across threads for reading.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "ContractError",
    "FormatError",
    "Role",
    "PointCloud",
    "ClassSpec",
    "LabelMap",
    "LogitField",
    "ScoreField",
    "roles_from_semantic",
    "load_point_cloud",
    "save_point_cloud",
    "load_labels",
    "save_labels",
    "load_scores",
    "save_scores",
    "read_exact",
    "to_float32",
]


class ContractError(ValueError):
    """An operation was called with inputs violating its contract."""


class FormatError(ValueError):
    """A binary file does not conform to the expected layout."""


class Role(enum.IntEnum):
    """Per-point role tag derived from the semantic label."""

    INLIER = 0
    VOID = 1
    AUX_OOD = 2   # synthetic anomaly generated during training
    REAL_OOD = 3  # held-out anomaly used for evaluation
    IGNORE = 4


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A set of 3D points in meters with optional per-point intensity.

    ``points`` is stored as float32 so that a save/load cycle through the
    ``.bin`` format is bit-exact.
    """

    points: np.ndarray                 # (M, 3) float32
    intensity: np.ndarray | None = None  # (M,) float32 in [0, 1]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float32).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ContractError("point coordinates must be finite")
        object.__setattr__(self, "points", _readonly(pts))
        if self.intensity is not None:
            inten = np.asarray(self.intensity, dtype=np.float32).reshape(-1)
            if inten.shape[0] != pts.shape[0]:
                raise ContractError(
                    f"intensity length {inten.shape[0]} != point count {pts.shape[0]}"
                )
            object.__setattr__(self, "intensity", _readonly(inten))

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ClassSpec:
    """Closed-set class layout: which ids are inliers, void, anomaly, ignore.

    ``extended`` marks models whose logit fields carry 2K channels, the first
    K for the inlier classes and the second K for their negative
    counterparts.
    """

    inlier_classes: tuple[int, ...]
    void_id: int
    ood_id: int
    ignore_id: int
    extended: bool = False

    def __post_init__(self):
        object.__setattr__(self, "inlier_classes", tuple(int(c) for c in self.inlier_classes))
        ids = list(self.inlier_classes) + [self.void_id, self.ood_id, self.ignore_id]
        if len(set(ids)) != len(ids):
            raise ContractError("inlier/void/ood/ignore ids must be mutually disjoint")
        if len(self.inlier_classes) < 2:
            raise ContractError("need at least two inlier classes")

    @property
    def num_classes(self) -> int:
        return len(self.inlier_classes)

    @property
    def logit_width(self) -> int:
        return 2 * self.num_classes if self.extended else self.num_classes

    def class_index(self) -> np.ndarray:
        """Inlier-list position per semantic id (0..max inlier id); -1 elsewhere."""
        index = np.full(max(self.inlier_classes) + 1, -1, dtype=np.int64)
        index[list(self.inlier_classes)] = np.arange(self.num_classes)
        return index


def roles_from_semantic(
    semantic: np.ndarray, spec: ClassSpec, ood_role: Role = Role.REAL_OOD
) -> np.ndarray:
    """Assign a role tag to every semantic id under a fixed class spec.

    Deterministic: the same (semantic, spec, ood_role) always produces the
    same role array. ``ood_role`` selects which OOD tag the anomaly id maps
    to; loaders default to REAL_OOD while the synthetic-anomaly generator
    tags its raised points AUX_OOD explicitly.
    """
    semantic = np.asarray(semantic)
    roles = np.full(semantic.shape, Role.VOID, dtype=np.int8)
    roles[np.isin(semantic, list(spec.inlier_classes))] = Role.INLIER
    roles[semantic == spec.ood_id] = ood_role
    roles[semantic == spec.ignore_id] = Role.IGNORE
    return roles


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Per-point semantic class id, instance id, and role tag."""

    semantic: np.ndarray  # (M,) int64, values fit in 16 bits for file I/O
    instance: np.ndarray  # (M,) int64, 0 = no instance
    role: np.ndarray      # (M,) int8 of Role values

    def __post_init__(self):
        sem = np.asarray(self.semantic, dtype=np.int64).reshape(-1)
        inst = np.asarray(self.instance, dtype=np.int64).reshape(-1)
        role = np.asarray(self.role, dtype=np.int8).reshape(-1)
        if not (sem.shape == inst.shape == role.shape):
            raise ContractError("semantic, instance, and role must have equal length")
        object.__setattr__(self, "semantic", _readonly(sem))
        object.__setattr__(self, "instance", _readonly(inst))
        object.__setattr__(self, "role", _readonly(role))

    @property
    def count(self) -> int:
        return self.semantic.shape[0]


class RowSoftmax:
    """Row-wise softmax of an (M, c) logit block.

    ``max`` (row maxima), ``lse`` (log-sum-exp), ``logp()`` (log-softmax),
    ``p()`` (softmax) and ``entropy`` (natural log) all derive from one
    max -> shift -> exp -> sum -> log pass, and each is the same
    floating-point expression whichever is asked for first. Only the
    reductions are kept: the row maxima, the log of the row exp-sums and
    the entropy are computed on first use and kept as read-only (M,)
    arrays. ``lse``, ``logp()`` and ``p()`` are rebuilt from them on each
    call (an add, or a subtraction and an exp) and not kept, so a field
    holds no extra (M, c) array.
    """

    def __init__(self, values: np.ndarray):
        self._values = values

    @cached_property
    def max(self) -> np.ndarray:
        # from a channel-major copy: a max over short rows is slow in numpy,
        # and a max is exact in any order
        return _readonly(np.ascontiguousarray(self._values.T).max(axis=0))

    def _shifted(self) -> np.ndarray:
        return self._values - self.max[:, None]

    @cached_property
    def _log_sum(self) -> np.ndarray:
        return _readonly(np.log(np.exp(self._shifted()).sum(axis=1)))

    @property
    def lse(self) -> np.ndarray:
        return self.max + self._log_sum

    def logp(self) -> np.ndarray:
        return self._shifted() - self._log_sum[:, None]

    def p(self) -> np.ndarray:
        return np.exp(self.logp())

    @cached_property
    def entropy(self) -> np.ndarray:
        logp = self.logp()
        return _readonly(-(np.exp(logp) * logp).sum(axis=1))


@dataclass(frozen=True, eq=False)
class LogitField:
    """Per-point logit vectors of width K (standard) or 2K (extended).

    ``softmax`` and ``inlier_softmax`` hold the row-wise softmax parts over
    all channels and over the first K, so every score, gradient and loss
    term of one field shares one max / exp-sum / log pass per group.
    """

    values: np.ndarray  # (M, C) float
    class_spec: ClassSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ContractError("logits must be a 2D (points x channels) array")
        if v.shape[1] != self.class_spec.logit_width:
            raise ContractError(
                f"logit width {v.shape[1]} does not match class spec "
                f"(expected {self.class_spec.logit_width})"
            )
        if not np.all(np.isfinite(v)):
            raise ContractError("logits must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @cached_property
    def softmax(self) -> RowSoftmax:
        """Softmax parts over all channels."""
        return RowSoftmax(self.values)

    @cached_property
    def inlier_softmax(self) -> RowSoftmax:
        """Softmax parts over the first K (inlier) channels; the same object
        as ``softmax`` for a standard K-channel field."""
        if not self.class_spec.extended:
            return self.softmax
        return RowSoftmax(self.values[:, :self.class_spec.num_classes])


@dataclass(frozen=True, eq=False)
class ScoreField:
    """Per-point scalar anomaly score. Orientation: larger = more OOD."""

    scores: np.ndarray  # (M,) float64

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(s)):
            raise ContractError("scores must be finite")
        object.__setattr__(self, "scores", _readonly(s))

    @property
    def count(self) -> int:
        return self.scores.shape[0]


# --------------------------------------------------------------------------
# binary I/O
# --------------------------------------------------------------------------

def load_point_cloud(path) -> PointCloud:
    """Read an N x 4 float32 point file into a cloud with intensity."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % 16 != 0:
        raise FormatError(f"{path}: size {raw.size} is not a multiple of 16 bytes")
    data = raw.view("<f4").reshape(-1, 4)
    return PointCloud(points=data[:, :3], intensity=data[:, 3])


def save_point_cloud(cloud: PointCloud, path) -> None:
    """Inverse of :func:`load_point_cloud`; missing intensity written as 0."""
    data = np.zeros((cloud.count, 4), dtype="<f4")
    data[:, :3] = cloud.points
    if cloud.intensity is not None:
        data[:, 3] = cloud.intensity
    data.tofile(path)


def load_labels(path, spec: ClassSpec) -> LabelMap:
    """Read an N x 1 uint32 label file, splitting semantic/instance halves.

    Semantic ids that are neither inlier classes nor the configured
    void/ood/ignore ids degrade to ``spec.void_id`` (test-set label maps are
    routinely partial); the number of remapped points is logged as a warning.
    """
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % 4 != 0:
        raise FormatError(f"{path}: size {raw.size} is not a multiple of 4 bytes")
    words = raw.view("<u4")
    semantic = (words & 0xFFFF).astype(np.int64)
    instance = (words >> 16).astype(np.int64)

    known = np.isin(
        semantic, list(spec.inlier_classes) + [spec.void_id, spec.ood_id, spec.ignore_id]
    )
    n_unknown = int(np.count_nonzero(~known))
    if n_unknown:
        log.warning("%s: %d points with unknown semantic id mapped to void", path, n_unknown)
        semantic = semantic.copy()
        semantic[~known] = spec.void_id

    return LabelMap(semantic=semantic, instance=instance, role=roles_from_semantic(semantic, spec))


def save_labels(labels: LabelMap, path) -> None:
    """Pack semantic (low 16 bits) and instance (high 16 bits) into uint32."""
    if np.any(labels.semantic < 0) or np.any(labels.semantic > 0xFFFF):
        raise ContractError("semantic ids must fit in 16 bits")
    if np.any(labels.instance < 0) or np.any(labels.instance > 0xFFFF):
        raise ContractError("instance ids must fit in 16 bits")
    words = (labels.semantic.astype(np.uint32) | (labels.instance.astype(np.uint32) << 16))
    words.astype("<u4").tofile(path)


def load_scores(path) -> ScoreField:
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % 4 != 0:
        raise FormatError(f"{path}: size {raw.size} is not a multiple of 4 bytes")
    values = raw.view("<f4")
    # checked before widening: casting a NaN payload would warn
    if not np.all(np.isfinite(values)):
        raise ContractError("scores must be finite")
    return ScoreField(scores=values.astype(np.float64))


def save_scores(scores: ScoreField, path) -> None:
    to_float32(scores.scores, "scores").tofile(path)


def to_float32(values, what: str) -> np.ndarray:
    """``values`` narrowed to little-endian float32 for writing; ContractError
    (before anything is written) if an entry is not finite as float32."""
    with np.errstate(over="ignore"):
        out = np.asarray(values, dtype=np.float64).astype("<f4")
    if not np.all(np.isfinite(out)):
        raise ContractError(f"{what} has values that are not finite as float32")
    return out


def read_exact(fh, size: int) -> bytes:
    """Read exactly ``size`` bytes from a binary file handle."""
    buf = fh.read(size)
    if len(buf) != size:
        raise FormatError(f"truncated input: expected {size} more bytes, found {len(buf)}")
    return buf
