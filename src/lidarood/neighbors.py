"""Sorted-cell spatial index for fixed-radius neighbor queries.

Points are bucketed into cubic cells of side ``cell_size``. Built once per
point array, the index holds the sorted integer codes of the occupied
cells, the points ordered by cell (ascending index within a cell) and where
each cell's points start and end in that order. A ball query scans the cells around
one centre. ``pairs`` works per occupied cell: for each of the 9 columns
of neighbor cells (three stacked cells, one run of points in cell order)
it looks up every cell's run at once, expands each (cell, run) block into
candidate pairs, in chunks of bounded size, and measures them on
coordinate columns in cell order. Both filter by exact Euclidean distance,
boundary inclusive.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["GridIndex"]

# candidate pairs per chunk of ``pairs``: whole rows up to about this many,
# so the distance temporaries stay cache-sized and memory does not grow
# with the cloud
_CHUNK = 1 << 16


class GridIndex:
    """Fixed-radius neighbor index over an (M, 3) point array."""

    def __init__(self, points: np.ndarray, cell_size: float):
        if not 0.0 < cell_size < np.inf:
            raise ValueError(f"cell_size must be finite and positive, got {cell_size}")
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        self.cell_size = float(cell_size)
        keys = np.floor(self.points / self.cell_size).astype(np.int64)
        # shift occupied cells into [1, dims - 2] per axis, so every cell next
        # to an occupied one has a code of its own
        self._origin = keys.min(axis=0) - 1 if len(keys) else np.zeros(3, dtype=np.int64)
        keys -= self._origin
        self._dims = keys.max(axis=0, initial=0) + 2
        code = self._encode(*keys.T)
        self._order = np.argsort(code, kind="stable")
        self._cell_code, cell_start = np.unique(code[self._order], return_index=True)
        # cell c holds the points at positions _cell_bound[c]:_cell_bound[c + 1]
        # of _order; a run of cells c..d those at _cell_bound[c]:_cell_bound[d + 1]
        self._cell_bound = np.append(cell_start, len(keys))

    def _encode(self, kx, ky, kz):
        return (kx * self._dims[1] + ky) * self._dims[2] + kz

    def _runs(self, column: np.ndarray, dz_lo, dz_hi) -> tuple[np.ndarray, np.ndarray]:
        """Start and end, in cell order, of the points in cells dz_lo..dz_hi
        above each column code (the code of a cell at z = 0). Cells stacked
        in z have consecutive codes, so their points form one run."""
        bound = self._cell_bound
        first = bound[np.searchsorted(self._cell_code, column + dz_lo)]
        end = bound[np.searchsorted(self._cell_code, column + dz_hi, side="right")]
        return first, end

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all points with Euclidean distance <= radius of center."""
        center = np.asarray(center, dtype=np.float64)
        reach = int(np.ceil(radius / self.cell_size))
        base = np.floor(center / self.cell_size).astype(np.int64) - self._origin
        lo = np.maximum(base - reach, 1)                 # clipped to the occupied box
        hi = np.minimum(base + reach, self._dims - 2)
        if np.any(lo > hi):
            return np.empty(0, dtype=np.int64)
        kx, ky = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1),
                             indexing="ij")
        first, end = self._runs(self._encode(kx.ravel(), ky.ravel(), 0), lo[2], hi[2])
        idx = self._order[_ranges(first, end - first)]
        d2 = np.sum((self.points[idx] - center) ** 2, axis=1)
        hits = idx[d2 <= radius * radius]
        hits.sort()
        return hits

    def pairs(self, radius: float):
        """Yield (i, j) index arrays that together hold every pair with
        distance <= radius exactly once, self pairs included. Across the
        chunks, in the order yielded, the pairs of each point i come in
        lexicographic order of the neighbor cell's offset and, within one
        cell, by ascending j: sums over the chunks per point
        (``ball_stats``) run in that fixed order. ``cluster.dbscan`` does
        not depend on the order.

        Requires radius <= cell_size so one ring of neighbor cells covers
        the ball.
        """
        if radius > self.cell_size:
            raise ValueError("pairs need radius <= cell_size")
        # p and q below are positions in cell order, where a cell's points
        # are contiguous and ascend by index; a point's neighbor cells
        # z - 1, z, z + 1 of one column are one run of q, in offset order
        x, y, z = np.ascontiguousarray(self.points[self._order].T)
        start, length = self._cell_bound[:-1], np.diff(self._cell_bound)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                first, end = self._runs(self._cell_code + self._encode(dx, dy, 0), -1, 1)
                a = np.flatnonzero(end > first)
                # one row per point of cell a, spanning the run of its
                # occupied neighbor cells in this column
                p_row = _ranges(start[a], length[a])
                q_row = np.repeat(first[a], length[a])
                span = np.repeat(end[a] - first[a], length[a])
                cand = np.concatenate(([0], np.cumsum(span)))  # row -> first candidate
                cuts = np.searchsorted(cand, np.arange(_CHUNK, cand[-1], _CHUNK))
                for r0, r1 in itertools.pairwise([0, *cuts, len(span)]):
                    rows = slice(r0, r1)
                    q = (np.arange(cand[r0], cand[r1])
                         - np.repeat(cand[rows] - q_row[rows], span[rows]))
                    p = np.repeat(p_row[rows], span[rows])
                    # summed in x, y, z order; another order can round a
                    # pair at d == radius to the other side
                    d2 = (x[p] - x[q]) ** 2
                    d2 += (y[p] - y[q]) ** 2
                    d2 += (z[p] - z[q]) ** 2
                    ok = d2 <= radius * radius
                    yield self._order[p[ok]], self._order[q[ok]]

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
            np.add.at(counts, i, 1)  # O(chunk), where a bincount is O(n) per chunk
            np.add.at(s1, i, z[j])
            np.add.at(s2, i, z[j] ** 2)
        mean = s1 / counts
        zvar = np.maximum(s2 / counts - mean * mean, 0.0)
        return counts, zvar


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """arange(s, s + n) for each (s, n) of starts and lens, concatenated."""
    offsets = np.cumsum(lens) - lens
    return np.arange(lens.sum()) - np.repeat(offsets - starts, lens)
