"""Deterministic synthetic LiDAR-like scenes with a long-tailed class mix.

The generator produces labeled scans at desk scale: a flat road plane,
box-shaped buildings, scattered vegetation blobs, sidewalk strips, and
sparse tail-class clusters (person, bicycle, pole). Class budgets default to
the long-tail profile typical of street scans, where road and vegetation
dominate and traffic participants are rare.

Held-out evaluation anomalies are geometric primitives (box, hemisphere,
ramp) placed on the road, deliberately disjoint from the noise-based shapes
used to synthesize training anomalies, so end-to-end benchmarks measure
generalization rather than memorization of the augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ClassSpec, ContractError, LabelMap, PointCloud, Role, roles_from_semantic

__all__ = [
    "VOID_ID", "ROAD", "SIDEWALK", "BUILDING", "VEGETATION", "PERSON",
    "BICYCLE", "POLE", "OOD_ID", "IGNORE_ID", "CLASS_NAMES",
    "default_class_spec", "default_budget", "SceneConfig",
    "generate_scene", "inject_eval_anomaly",
]

VOID_ID = 0
ROAD = 1
SIDEWALK = 2
BUILDING = 3
VEGETATION = 4
PERSON = 5
BICYCLE = 6
POLE = 7
OOD_ID = 200
IGNORE_ID = 250

# points per held-out anomaly, inclusive range
_ANOMALY_POINTS = (120, 300)

CLASS_NAMES = {
    VOID_ID: "void", ROAD: "road", SIDEWALK: "sidewalk", BUILDING: "building",
    VEGETATION: "vegetation", PERSON: "person", BICYCLE: "bicycle", POLE: "pole",
    OOD_ID: "anomaly", IGNORE_ID: "ignore",
}


def default_class_spec(extended: bool = False) -> ClassSpec:
    return ClassSpec(
        inlier_classes=(ROAD, SIDEWALK, BUILDING, VEGETATION, PERSON, BICYCLE, POLE),
        void_id=VOID_ID,
        ood_id=OOD_ID,
        ignore_id=IGNORE_ID,
        extended=extended,
    )


def default_budget(total: int = 20000) -> dict[int, int]:
    """Long-tail point budget: road 45%, vegetation 30%, building 15%,
    sidewalk 8%, tail classes share the remaining 2%."""
    return {
        ROAD: int(total * 0.45),
        VEGETATION: int(total * 0.30),
        BUILDING: int(total * 0.15),
        SIDEWALK: int(total * 0.08),
        PERSON: int(total * 0.008),
        BICYCLE: int(total * 0.007),
        POLE: int(total * 0.005),
    }


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    extent: float = 12.0  # scene half-width in meters
    class_budget: dict[int, int] = field(default_factory=default_budget)
    road_noise_sigma: float = 0.02
    eval_anomaly_kinds: tuple[str, ...] = ("box", "hemisphere", "ramp")
    anomaly_size_range: tuple[float, float] = (0.3, 0.8)

    def __post_init__(self):
        # the road plane spans 2 * extent, and every coordinate (at most 1.6 *
        # extent, the building rows) is stored as float32
        if not 0.0 < self.extent <= float(np.finfo(np.float32).max) / 2.0:
            raise ContractError(
                f"extent must be positive with 2 * extent within float32 range, got {self.extent}")
        if not 0.0 <= self.road_noise_sigma < np.inf:
            raise ContractError(
                f"road_noise_sigma must be finite and >= 0, got {self.road_noise_sigma}")
        if ROAD not in self.class_budget:
            raise ContractError("class budget must include the road class")
        if any(v <= 0 for v in self.class_budget.values()):
            raise ContractError("class budgets must be positive")
        for kind in self.eval_anomaly_kinds:
            if kind not in ("box", "hemisphere", "ramp"):
                raise ContractError(f"unknown anomaly kind {kind!r}")


def _object_sizes(n: int, per_object: int, most: int | None = None) -> list[int]:
    """n points split over n // per_object objects (at least one, at most
    ``most``; none when n is 0) as evenly as possible, the first ones taking
    one point more."""
    if n == 0:
        return []
    k = max(1, n // per_object if most is None else min(most, n // per_object))
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    return sizes.tolist()


def _box_surface(rng, center, size, n):
    """n points on the four walls and roof of an axis-aligned box."""
    w, d, h = size
    faces = rng.integers(0, 5, size=n)
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(0.0, 1.0, size=n)
    pts = np.empty((n, 3))
    for f in range(5):
        m = faces == f
        if f == 0:    # +x wall
            pts[m] = np.c_[np.full(m.sum(), w / 2), u[m] * d, v[m] * h]
        elif f == 1:  # -x wall
            pts[m] = np.c_[np.full(m.sum(), -w / 2), u[m] * d, v[m] * h]
        elif f == 2:  # +y wall
            pts[m] = np.c_[u[m] * w, np.full(m.sum(), d / 2), v[m] * h]
        elif f == 3:  # -y wall
            pts[m] = np.c_[u[m] * w, np.full(m.sum(), -d / 2), v[m] * h]
        else:         # roof
            pts[m] = np.c_[u[m] * w, (v[m] - 0.5) * d, np.full(m.sum(), h)]
    pts[:, 0] += center[0]
    pts[:, 1] += center[1]
    return pts


def generate_scene(config: SceneConfig) -> tuple[PointCloud, LabelMap]:
    """Generate one labeled scan; fully deterministic under config.seed.

    Per-class point counts equal the budget exactly. Instance ids are
    assigned per object for countable classes (buildings, vegetation blobs,
    persons, bicycles, poles); road and sidewalk carry instance 0.
    """
    rng = np.random.default_rng(config.seed)
    ext = config.extent
    chunks: list[np.ndarray] = []
    semantic: list[np.ndarray] = []
    instance: list[np.ndarray] = []
    next_instance = 1

    def add(points, class_id, inst):
        chunks.append(points)
        semantic.append(np.full(len(points), class_id, dtype=np.int64))
        instance.append(np.full(len(points), inst, dtype=np.int64))

    # road plane fills the scene interior
    n_road = config.class_budget[ROAD]
    road = np.c_[
        rng.uniform(-ext, ext, n_road),
        rng.uniform(-ext, ext, n_road),
        rng.normal(0.0, config.road_noise_sigma, n_road),
    ]
    add(road, ROAD, 0)

    # sidewalk strips along two opposite edges, slightly elevated
    n_side = config.class_budget.get(SIDEWALK, 0)
    if n_side:
        side_y = rng.uniform(-ext, ext, n_side)
        edge = np.where(rng.random(n_side) < 0.5, 1.0, -1.0)
        side_x = edge * rng.uniform(ext * 1.02, ext * 1.15, n_side)
        side_z = 0.12 + rng.normal(0.0, config.road_noise_sigma, n_side)
        add(np.c_[side_x, side_y, side_z], SIDEWALK, 0)

    # buildings: box surfaces placed beyond the road rectangle
    for k in _object_sizes(config.class_budget.get(BUILDING, 0), 400, most=4):
        w, d = rng.uniform(2.0, 4.0, size=2)
        h = rng.uniform(2.5, 5.0)
        cx = rng.uniform(-ext * 0.6, ext * 0.6)
        cy = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(ext * 1.25, ext * 1.6)
        add(_box_surface(rng, (cx, cy), (w, d, h), k), BUILDING, next_instance)
        next_instance += 1

    # vegetation: ellipsoidal blobs raised above ground
    for k in _object_sizes(config.class_budget.get(VEGETATION, 0), 300, most=6):
        cx, cy = rng.uniform(-ext * 0.9, ext * 0.9, size=2)
        radius = rng.uniform(0.8, 1.8)
        height = rng.uniform(1.2, 3.0)
        blob = np.c_[
            cx + rng.normal(0, radius / 2, k),
            cy + rng.normal(0, radius / 2, k),
            height / 2 + np.abs(rng.normal(0, height / 3, k)) + 0.4,
        ]
        add(blob, VEGETATION, next_instance)
        next_instance += 1

    # tail classes: small, sparse clusters
    def tail_cluster(class_id, spread_xy, z_lo, z_hi):
        nonlocal next_instance
        for k in _object_sizes(config.class_budget.get(class_id, 0), 25):
            cx, cy = rng.uniform(-ext * 0.8, ext * 0.8, size=2)
            pts = np.c_[
                cx + rng.normal(0, spread_xy, k),
                cy + rng.normal(0, spread_xy, k),
                rng.uniform(z_lo, z_hi, k),
            ]
            add(pts, class_id, next_instance)
            next_instance += 1

    tail_cluster(PERSON, 0.15, 0.1, 1.7)
    tail_cluster(BICYCLE, 0.35, 0.1, 1.0)
    tail_cluster(POLE, 0.03, 0.0, 3.5)

    # optional unlabeled clutter (bins, posts, ...) near the sidewalk: small
    # raised blobs carrying the void id
    for k in _object_sizes(config.class_budget.get(VOID_ID, 0), 30):
        cx = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(ext * 0.95, ext * 1.1)
        cy = rng.uniform(-ext, ext)
        pts = np.c_[
            cx + rng.normal(0, 0.12, k),
            cy + rng.normal(0, 0.12, k),
            rng.uniform(0.1, 0.9, k),
        ]
        add(pts, VOID_ID, 0)

    points = np.vstack(chunks)
    sem = np.concatenate(semantic)
    inst = np.concatenate(instance)
    intensity = rng.uniform(0.0, 1.0, len(points)).astype(np.float32)

    cloud = PointCloud(points=points, intensity=intensity)
    labels = LabelMap(semantic=sem, instance=inst,
                      role=roles_from_semantic(sem, default_class_spec()))
    return cloud, labels


def _anomaly_points(rng, kind: str, size: float, n: int) -> np.ndarray:
    """Surface samples of one primitive, centered at the origin, base at z=0."""
    if kind == "box":
        pts = _box_surface(rng, (0.0, 0.0), (size, size, size), n)
    elif kind == "hemisphere":
        phi = rng.uniform(0, 2 * np.pi, n)
        cos_t = rng.uniform(0.0, 1.0, n)
        sin_t = np.sqrt(1.0 - cos_t**2)
        r = size / 2
        pts = np.c_[r * sin_t * np.cos(phi), r * sin_t * np.sin(phi), r * cos_t]
    else:  # ramp: inclined plane rising from the road
        u = rng.uniform(0.0, 1.0, n)
        v = rng.uniform(-0.5, 0.5, n)
        pts = np.c_[u * size - size / 2, v * size, u * size * 0.6]
    return pts


def inject_eval_anomaly(
    cloud: PointCloud,
    labels: LabelMap,
    config: SceneConfig,
    seed: int,
    count: int = 1,
) -> tuple[PointCloud, LabelMap]:
    """Append primitive-shaped anomaly clusters on the road surface.

    Each anomaly gets role REAL_OOD, semantic OOD_ID, and a fresh instance
    id. Placement avoids building footprints. Original points are untouched;
    count == 0 returns the inputs unchanged, and a negative count is a
    contract violation.
    """
    if count < 0:
        raise ContractError(f"anomaly count must be >= 0, got {count}")
    if count == 0:
        return cloud, labels
    road_mask = labels.semantic == ROAD
    if not np.any(road_mask):
        raise ContractError("cannot place anomaly: no road points")

    rng = np.random.default_rng(seed)
    road_xy = cloud.points[road_mask][:, :2].astype(np.float64)
    margin = config.extent * 0.85

    # building AABBs (xy), so anomalies never intrude into their interiors
    boxes = []
    building_mask = labels.semantic == BUILDING
    if np.any(building_mask):
        for inst_id in np.unique(labels.instance[building_mask]):
            pts = cloud.points[building_mask & (labels.instance == inst_id)]
            boxes.append((pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max()))

    def clear_of_buildings(anchor, reach):
        for x0, x1, y0, y1 in boxes:
            if (anchor[0] + reach >= x0 and anchor[0] - reach <= x1
                    and anchor[1] + reach >= y0 and anchor[1] - reach <= y1):
                return False
        return True

    new_points = [np.asarray(cloud.points, dtype=np.float64)]
    new_sem = [np.asarray(labels.semantic)]
    new_inst = [np.asarray(labels.instance)]
    new_role = [np.asarray(labels.role)]
    new_intensity = None
    if cloud.intensity is not None:
        new_intensity = [np.asarray(cloud.intensity, dtype=np.float64)]
    next_instance = int(labels.instance.max()) + 1 if labels.count else 1

    interior = road_xy[np.max(np.abs(road_xy), axis=1) < margin]
    if len(interior) == 0:
        interior = road_xy

    for _ in range(count):
        kind = config.eval_anomaly_kinds[rng.integers(len(config.eval_anomaly_kinds))]
        size = rng.uniform(*config.anomaly_size_range)
        n = int(rng.integers(_ANOMALY_POINTS[0], _ANOMALY_POINTS[1] + 1))
        # anchor on an interior road point outside every building footprint
        anchor = interior[rng.integers(len(interior))]
        for _try in range(64):
            if clear_of_buildings(anchor, size):
                break
            anchor = interior[rng.integers(len(interior))]
        pts = _anomaly_points(rng, kind, size, n)
        pts[:, 0] += anchor[0]
        pts[:, 1] += anchor[1]
        new_points.append(pts)
        new_sem.append(np.full(n, OOD_ID, dtype=np.int64))
        new_inst.append(np.full(n, next_instance, dtype=np.int64))
        new_role.append(np.full(n, Role.REAL_OOD, dtype=np.int8))
        if new_intensity is not None:
            new_intensity.append(rng.uniform(0.0, 1.0, n))
        next_instance += 1

    out_cloud = PointCloud(
        points=np.vstack(new_points),
        intensity=None if new_intensity is None else np.concatenate(new_intensity),
    )
    out_labels = LabelMap(
        semantic=np.concatenate(new_sem),
        instance=np.concatenate(new_inst),
        role=np.concatenate(new_role),
    )
    return out_cloud, out_labels
