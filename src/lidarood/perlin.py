"""2D gradient noise and the noise-driven road-surface raise augmentation.

The augmentation synthesizes training anomalies directly from a scan: it
samples a road patch, evaluates a fresh gradient-noise field over the patch,
selects the top-noise fraction of points, and lifts the largest density
cluster of the selection by a noise-proportional height gain. Raised points
are relabeled as synthetic anomalies. The patch is the road points of one
``neighbors.ball``: a direct distance pass, boundary inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import dbscan, largest_cluster
from .core import ClassSpec, ContractError, LabelMap, PointCloud, Role
from .neighbors import ball
from .scenes import ROAD

__all__ = ["PerlinField", "perlin2d", "RaiseConfig", "RaiseReport", "draw_raise", "perlin_raise"]

# classic quintic fade 6t^5 - 15t^4 + 10t^3
def _fade(t):
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


# unit gradients give |value| <= sqrt(2)/2 in 2D; rescale into [-1, 1]
_RANGE_SCALE = np.sqrt(2.0)

# largest |u|, |v| in noise cells whose lattice indices fit int64
_LATTICE_LIMIT = 2.0**62


@dataclass(frozen=True)
class PerlinField:
    """Seeded 2D gradient-noise field.

    Lattice gradients are unit 2-vectors derived from a hashed permutation
    table, so evaluation at exact lattice nodes is 0 and the field is a pure
    function of (seed, cell_size, origin).
    """

    cell_size: float
    seed: int
    origin: tuple[float, float] = (0.0, 0.0)
    _perm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ContractError("cell_size must be positive")
        rng = np.random.default_rng(self.seed)
        perm = rng.permutation(256)
        object.__setattr__(self, "_perm", np.concatenate([perm, perm]))

    def _gradients(self, ix: np.ndarray, iy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = self._perm[self._perm[ix & 255] + (iy & 255)]
        theta = h * (2.0 * np.pi / 256.0)
        return np.cos(theta), np.sin(theta)


def perlin2d(field: PerlinField, u, v) -> np.ndarray:
    """Evaluate the field at world coordinates (u, v); output in [-1, 1].

    Accepts scalars or same-shape arrays.
    """
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        u = (np.asarray(u, dtype=np.float64) - field.origin[0]) / field.cell_size
        v = (np.asarray(v, dtype=np.float64) - field.origin[1]) / field.cell_size
    # the int64 lattice indices (and the next node) must not wrap; NaN fails too
    if not (np.all(np.abs(u) < _LATTICE_LIMIT) and np.all(np.abs(v) < _LATTICE_LIMIT)):
        raise ContractError("query coordinates must be finite and within 2**62 noise "
                            f"cells of size {field.cell_size} of the field origin")

    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fx = u - x0
    fy = v - y0

    total = np.zeros(np.broadcast(u, v).shape, dtype=np.float64)
    wx = _fade(fx)
    wy = _fade(fy)
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        gx, gy = field._gradients(x0 + dx, y0 + dy)
        dot = gx * (fx - dx) + gy * (fy - dy)
        weight = (wx if dx == 1 else 1.0 - wx) * (wy if dy == 1 else 1.0 - wy)
        total = total + weight * dot
    return total * _RANGE_SCALE


@dataclass(frozen=True)
class RaiseConfig:
    """Parameters of one raise call.

    r: patch radius in meters; the noise cell is r/2, so a patch spans at
    least two noise cells. alpha: noise strength, the maximum height gain in
    meters. rho: target fraction of the patch to select, in (0, 1].
    dbscan_eps, dbscan_min_pts: the density filter over the selection; only
    the points of its largest cluster are raised and relabeled.
    """

    r: float = 1.0
    alpha: float = 0.4
    rho: float = 0.3
    dbscan_eps: float = 0.3
    dbscan_min_pts: int = 5
    seed: int = 0

    def __post_init__(self):
        # perlin_raise draws the noise origin over 256 noise cells of r / 2
        if not (0.0 < self.r and 256.0 * (self.r / 2.0) < np.inf):
            raise ContractError(
                f"patch radius r must be positive with 128 * r finite, got {self.r}")
        if not 0.0 <= self.alpha < np.inf:
            raise ContractError("alpha must be finite and >= 0")
        if not (0.0 < self.rho <= 1.0):
            raise ContractError("rho must be in (0, 1]")
        if not 0.0 < self.dbscan_eps < np.inf:
            raise ContractError("dbscan_eps must be finite and positive")
        if self.dbscan_min_pts < 1:
            raise ContractError("dbscan_min_pts must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def draw_raise(rng: np.random.Generator, r_range: tuple[float, float], **settings) -> RaiseConfig:
    """One raise's config: r uniform in ``r_range``, then its seed, drawn from ``rng``."""
    r = float(rng.uniform(*r_range))
    return RaiseConfig(r=r, seed=int(rng.integers(2**63)), **settings)


@dataclass(frozen=True, eq=False)
class RaiseReport:
    """What one raise call did. Empty (raised_count == 0) when the density
    filter found no cluster."""

    center_index: int = -1
    center: np.ndarray | None = None
    neighborhood_size: int = 0
    selected_size: int = 0
    cluster_sizes: tuple[int, ...] = ()
    raised_cluster: int = -1
    raised_count: int = 0
    selected_indices: np.ndarray | None = None  # indices into the input cloud
    raised_indices: np.ndarray | None = None
    deltas: np.ndarray | None = None            # height gains of raised points


def perlin_raise(
    cloud: PointCloud, labels: LabelMap, spec: ClassSpec, cfg: RaiseConfig
) -> tuple[PointCloud, LabelMap, RaiseReport]:
    """Lift a noise-selected road patch and relabel it as synthetic anomaly.

    Steps: pick a random road point c; gather road points within radius r of
    c; evaluate a fresh noise field at their (x, y); keep the points whose
    noise exceeds the (1 - rho) quantile; min-max normalize the kept noise
    values into gains g in [0, 1]; cluster the kept points with DBSCAN and
    raise z of the largest cluster by alpha * g. Raised points get semantic
    ood_id and role AUX_OOD. Only road-class points are ever modified.

    Returns the input unchanged (with an empty report) when DBSCAN finds no
    cluster; raises ContractError when the labels and the cloud differ in
    length or there are fewer road points than dbscan_min_pts.
    """
    if labels.count != cloud.count:
        raise ContractError(f"{labels.count} labels for {cloud.count} points")
    road_idx = np.flatnonzero(labels.semantic == ROAD)
    if road_idx.size < cfg.dbscan_min_pts:
        raise ContractError(
            f"need at least {cfg.dbscan_min_pts} road points, found {road_idx.size}"
        )

    rng = np.random.default_rng(cfg.seed)
    center_index = int(road_idx[rng.integers(road_idx.size)])
    center = cloud.points[center_index].astype(np.float64)

    neighborhood = road_idx[ball(cloud.points[road_idx], center, cfg.r)]  # ascending

    cell = cfg.r / 2.0
    field_seed = int(rng.integers(2**63))
    origin = tuple(rng.uniform(0.0, 256.0 * cell, size=2))
    noise_field = PerlinField(cell_size=cell, seed=field_seed, origin=origin)
    noise = perlin2d(noise_field, cloud.points[neighborhood, 0], cloud.points[neighborhood, 1])

    if cfg.rho >= 1.0:
        keep = np.ones(noise.shape, dtype=bool)  # quantile at 0 selects everything
    else:
        keep = noise > np.quantile(noise, 1.0 - cfg.rho)
    selected = neighborhood[keep]
    sel_noise = noise[keep]

    if selected.size == 0:
        return cloud, labels, RaiseReport(center_index=center_index, center=center,
                                          neighborhood_size=int(neighborhood.size))

    span = sel_noise.max() - sel_noise.min()
    if span == 0.0:
        gains = np.ones_like(sel_noise)  # degenerate flat patch
    else:
        gains = (sel_noise - sel_noise.min()) / span
    deltas = cfg.alpha * gains

    assign = dbscan(cloud.points[selected], eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts)
    if assign.num_clusters == 0:
        return cloud, labels, RaiseReport(
            center_index=center_index, center=center,
            neighborhood_size=int(neighborhood.size), selected_size=int(selected.size),
        )
    k = largest_cluster(assign)
    in_k = assign.cluster_id == k

    raised = selected[in_k]
    raised_deltas = deltas[in_k]
    points = np.array(cloud.points, dtype=np.float64)
    points[raised, 2] += raised_deltas

    semantic = np.array(labels.semantic)
    role = np.array(labels.role)
    semantic[raised] = spec.ood_id
    role[raised] = Role.AUX_OOD

    new_cloud = PointCloud(points=points, intensity=cloud.intensity)
    new_labels = LabelMap(semantic=semantic, instance=labels.instance, role=role)
    report = RaiseReport(
        center_index=center_index,
        center=center,
        neighborhood_size=int(neighborhood.size),
        selected_size=int(selected.size),
        cluster_sizes=tuple(int(s) for s in assign.sizes()),
        raised_cluster=int(k),
        raised_count=int(raised.size),
        selected_indices=selected,
        raised_indices=raised,
        deltas=raised_deltas,
    )
    return new_cloud, new_labels, report
