"""Sorted-cell spatial index for fixed-radius neighbor queries.

Points are bucketed into cubic cells of side ``cell_size``. Built once per
point array, the index holds the sorted integer codes of the occupied
cells, the points ordered by cell (ascending index within a cell) and where
each cell's points start and end in that order. A ball query scans the cells around
one centre. The pair enumerator works per point of the cell order: for 5
of the 9 columns of neighbor cells (three stacked cells, one run of points
in cell order) it looks up every cell's run at once, expands each point's
runs into candidate pairs, in blocks of bounded size, and measures them on
coordinate columns in cell order, filtering by exact Euclidean distance,
boundary inclusive. Each unordered pair comes once: ``unique_pairs`` gives
them as positions in cell order (``order`` maps them to indices) for
``cluster.dbscan``, and ``ball_stats`` adds each to both ends. Its order
contract: each point's sums take its neighbors one at a time in ascending
cell order (by cell in lexicographic offset order, then by index), as a
walk over all 9 columns from the point would, whatever the block size. It
keeps that order by replaying each hit mirrored for the far point, which
always comes later in cell order, ahead of that point's own hits.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["GridIndex"]

# candidate pairs per block of ``unique_pairs``: whole points up to about this
# many, so the distance temporaries stay cache-sized and memory does not
# grow with the cloud
_CHUNK = 1 << 15

# (dx, dy) columns of neighbor cells that give each unordered pair once: the
# (0, 0) column from each point itself (the later points of its cell and all
# of the cell above) plus the four columns after it in lexicographic order.
# Column (dx, dy) seen from its far end is column (-dx, -dy).
_HALF_COLUMNS = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


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
        self.order = np.argsort(code, kind="stable")
        self._cell_code, cell_start = np.unique(code[self.order], return_index=True)
        # cell c holds the points at positions _cell_bound[c]:_cell_bound[c + 1]
        # of order; a run of cells c..d those at _cell_bound[c]:_cell_bound[d + 1]
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
        """Indices of all points with Euclidean distance <= radius of center. No
        product code calls it: it stays for ``bench/tracing.py``'s wrap table."""
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
        idx = self.order[_ranges(first, end - first)]
        d2 = np.sum((self.points[idx] - center) ** 2, axis=1)
        hits = idx[d2 <= radius * radius]
        hits.sort()
        return hits

    def unique_pairs(self, radius: float):
        """Yield (p, q, cut) per block of consecutive points p in cell order:
        the pairs within radius of each point p with the points q of its rows,
        as cell-order positions, q > p except self pairs, each pair once.

        A row is one point and one column of ``_HALF_COLUMNS``: the point's
        cells z - 1..z + 1 of that column, one run of q in cell order, in
        the (0, 0) column from p itself. Hits cut[k]:cut[k + 1] are those
        of column k, by ascending p, then ascending q. A block holds whole
        points up to about ``_CHUNK`` candidates. Requires radius <= cell_size.
        """
        if radius > self.cell_size:
            raise ValueError("pairs need radius <= cell_size")
        # p and q below are positions in cell order, where a cell's points
        # are contiguous and ascend by index; a point's neighbor cells
        # z - 1, z, z + 1 of one column are one run of q, in offset order
        x, y, z = np.ascontiguousarray(self.points[self.order].T)
        n = len(x)
        cell = np.repeat(np.arange(len(self._cell_code)), np.diff(self._cell_bound))
        first, end = np.stack([self._runs(self._cell_code + self._encode(dx, dy, 0), -1, 1)
                               for dx, dy in _HALF_COLUMNS], axis=1)
        # a point's candidates: its cell's runs, less the (0, 0) run before it
        per_point = (end - first).sum(axis=0)[cell] + first[0, cell] - np.arange(n)
        cand = np.concatenate(([0], np.cumsum(per_point)))  # point -> first candidate
        cuts = np.unique(np.searchsorted(cand, np.arange(_CHUNK, cand[-1], _CHUNK)))

        def block(lo, hi):
            rows = np.arange(lo, hi)
            q_row = first[:, cell[lo:hi]]
            q_row[0] = rows
            span = end[:, cell[lo:hi]] - q_row
            q = _ranges(q_row.ravel(), span.ravel())
            p = np.repeat(np.tile(rows, len(_HALF_COLUMNS)), span.ravel())
            # summed in x, y, z order; another order can round a pair at
            # d == radius to the other side. The mirror pair (q, p) has the
            # same d2: x[q] - x[p] is exactly -(x[p] - x[q]).
            d2 = x[p]
            d2 -= x[q]
            d2 *= d2
            for w in (y, z):
                dw = w[p]
                dw -= w[q]
                dw *= dw
                d2 += dw
            hit = np.flatnonzero(d2 <= radius * radius)
            cut = np.searchsorted(hit, np.cumsum(span.sum(axis=1)))
            return p[hit], q[hit], [0, *cut]

        for lo, hi in itertools.pairwise([0, *cuts, n]):
            yield block(lo, hi)

    def _ordered_pairs(self, radius: float):
        """Yield (t, s) per block of ``unique_pairs``: every ordered pair with
        distance <= radius once over all blocks, self pairs included, as
        positions in cell order, target t and source s. Over the blocks in
        order, each target's sources come one at a time in ascending cell
        order (by cell in lexicographic offset order, then by index), the
        order of a walk over all 9 columns from the target, whatever the
        block size.

        Each unordered pair is measured once (``unique_pairs``) and given to
        both ends: p gets q directly, and q gets p mirrored, as a neighbor in
        column (-dx, -dy), or for (0, 0) ahead of q's own row. A point's
        mirrored neighbors all precede it in cell order and come before its
        direct ones; within a block, the columns in reverse order, each by
        ascending p, give them in that order. So each block's mirrored hits,
        then its direct ones, keep every target's order within and across
        blocks. Requires radius <= cell_size.
        """
        for p, q, cut in self.unique_pairs(radius):
            col = [slice(cut[k], cut[k + 1]) for k in range(len(_HALF_COLUMNS))]
            col[0] = np.flatnonzero(p[col[0]] != q[col[0]])  # self pairs only direct
            t = np.concatenate([*(q[c] for c in col[::-1]), p])
            s = np.concatenate([*(p[c] for c in col[::-1]), q])
            yield t, s

    def ball_stats(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-point neighbor count and population variance of neighbor z
        values within radius (self inclusive), fully vectorized.

        Each point's sums add its neighbors one float add at a time in
        ascending cell order (by neighbor cell in lexicographic offset
        order, then by ascending index), the order in which
        ``_ordered_pairs`` gives them, so the bytes do not depend on the
        blocks. Each unordered pair is measured once and added to both ends.

        Requires radius <= cell_size.
        """
        n = len(self.points)
        z = self.points[self.order, 2]
        counts = np.zeros(n, dtype=np.int64)
        s1 = np.zeros(n)
        s2 = np.zeros(n)
        for t, s in self._ordered_pairs(radius):
            # np.add.at adds in array order, onto what earlier blocks added
            zs = z[s]
            np.add.at(counts, t, 1)
            np.add.at(s1, t, zs)
            np.add.at(s2, t, zs * zs)
        mean = s1 / counts
        zvar = np.maximum(s2 / counts - mean * mean, 0.0)
        out_counts, out_zvar = np.empty_like(counts), np.empty_like(zvar)
        out_counts[self.order] = counts
        out_zvar[self.order] = zvar
        return out_counts, out_zvar

def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """arange(s, s + n) for each (s, n) of starts and lens, concatenated."""
    offsets = np.cumsum(lens) - lens
    return np.arange(lens.sum()) - np.repeat(offsets - starts, lens)
