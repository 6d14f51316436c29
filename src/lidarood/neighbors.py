"""Sorted-cell spatial index for fixed-radius neighbor queries.

Points are bucketed into cubic cells of side ``cell_size``. Built once per
point array, the index holds the sorted integer codes of the occupied
cells, the points ordered by cell (ascending index within a cell) and each
cell's start and length in that order. A ball query scans the cells around
one centre; ``pairs`` scans the 3x3x3 cells around every point at once.
Both filter by exact Euclidean distance, boundary inclusive.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridIndex"]


class GridIndex:
    """Fixed-radius neighbor index over an (M, 3) point array."""

    def __init__(self, points: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        self.cell_size = float(cell_size)
        keys = np.floor(self.points / self.cell_size).astype(np.int64)
        # shift occupied cells into [1, dims - 2] per axis, so every cell next
        # to an occupied one has a code of its own
        self._origin = keys.min(axis=0) - 1 if len(keys) else np.zeros(3, dtype=np.int64)
        keys -= self._origin
        self._dims = keys.max(axis=0, initial=0) + 2
        self._code = self._encode(*keys.T)
        self._order = np.argsort(self._code, kind="stable")
        self._cell_code, self._cell_start = np.unique(self._code[self._order],
                                                      return_index=True)
        self._cell_len = np.diff(self._cell_start, append=len(keys))

    def _encode(self, kx, ky, kz):
        return (kx * self._dims[1] + ky) * self._dims[2] + kz

    def _members(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points of the cells with these codes, concatenated in code order,
        and how many each code contributed (0 for an empty cell)."""
        at = np.minimum(np.searchsorted(self._cell_code, codes), len(self._cell_code) - 1)
        found = self._cell_code[at] == codes
        starts = np.where(found, self._cell_start[at], 0)
        lens = np.where(found, self._cell_len[at], 0)
        offsets = np.cumsum(lens) - lens
        slots = np.arange(lens.sum()) - np.repeat(offsets - starts, lens)
        return self._order[slots], lens

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all points with Euclidean distance <= radius of center."""
        center = np.asarray(center, dtype=np.float64)
        reach = int(np.ceil(radius / self.cell_size))
        base = np.floor(center / self.cell_size).astype(np.int64) - self._origin
        lo = np.maximum(base - reach, 1)                 # clipped to the occupied box
        hi = np.minimum(base + reach, self._dims - 2)
        if np.any(lo > hi):
            return np.empty(0, dtype=np.int64)
        cells = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)), indexing="ij")
        idx, _ = self._members(self._encode(*cells).ravel())
        d2 = np.sum((self.points[idx] - center) ** 2, axis=1)
        hits = idx[d2 <= radius * radius]
        hits.sort()
        return hits

    def pairs(self, radius: float):
        """Yield (i, j) index arrays of every pair with distance <= radius,
        self pairs included, one chunk per 3x3x3 cell offset. Within a chunk
        i ascends and, for each i, j ascends.

        Requires radius <= cell_size so one ring of neighbor cells covers
        the ball.
        """
        if radius > self.cell_size:
            raise ValueError("pairs need radius <= cell_size")
        pts = self.points
        point_ids = np.arange(len(pts))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    j, lens = self._members(self._code + self._encode(dx, dy, dz))
                    i = np.repeat(point_ids, lens)
                    ok = ((pts[i] - pts[j]) ** 2).sum(axis=1) <= radius * radius
                    yield i[ok], j[ok]

    def ball_stats(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-point neighbor count and population variance of neighbor z
        values within radius (self inclusive), fully vectorized.

        Requires radius <= cell_size.
        """
        n = len(self.points)
        counts = np.zeros(n, dtype=np.int64)
        s1 = np.zeros(n)
        s2 = np.zeros(n)
        z = self.points[:, 2]
        for i, j in self.pairs(radius):
            counts += np.bincount(i, minlength=n)
            np.add.at(s1, i, z[j])
            np.add.at(s2, i, z[j] ** 2)
        mean = s1 / counts
        zvar = np.maximum(s2 / counts - mean * mean, 0.0)
        return counts, zvar
