"""Sorted-cell spatial index for fixed-radius neighbor queries.

Points are bucketed into cubic cells of side ``cell_size``. Built once per
point array, the index holds the sorted integer codes of the occupied
cells, the points ordered by cell (ascending index within a cell) and where
each cell's points start and end in that order (``cell_bound``). Cells
stacked in z have consecutive codes, so a column of them is one run of
cells and of points, found by two lookups. A cloud whose int64 codes would
wrap, or whose float keys are too large to be exact to 2**-23 of a cell,
is refused with ``ContractError``.

``cell_pairs`` lists each pair of occupied cells within 2 cells on every
axis once, with the squared length of their offset; ``cell_pair_hits``
measures the point pairs of given cell pairs in blocks of bounded size,
and ``box_d2`` bounds them from above per cell pair, from the farthest
corners of the cells' point boxes.
``cluster.dbscan`` counts and joins over them on cells of side eps / 2.
``ball`` is a single centre's query, by a direct distance pass;
``near_boxes`` finds the points within one and two radii on x and on y of
boxes of given points (the feature refresh), from the radius alone. Every
squared distance is summed in x, y, z order (``_d2``), and every cell key
is floor(coordinate / cell_size).

The pair enumerator, which serves only the density features, finds the
pairs within ``cell_size``. It walks the points in cell order, each over
its 5 columns of ``_half_block(1)``, the stencil ``cell_pairs`` takes at
reach 2 (three stacked cells, one run of points in cell order). It expands
each point's runs into candidate pairs, in blocks of bounded size, and
measures them on coordinate columns in cell order, in x and y first and in
z only those within the radius there, by exact Euclidean distance,
boundary inclusive. Each pair of distinct points comes once, as positions
in cell order (``order`` maps them to indices), by ascending first, then
second position (``unique_pairs``). ``ball_stats`` adds each to both
ends, per block the mirrored hits, the points themselves, then the direct
hits, so each point's sums take its neighbors one at a time in ascending
cell order (by cell in lexicographic offset order, then by index), as a
walk over all 9 columns from the point would, whatever the block size.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cache, cached_property

import numpy as np

from .core import ContractError, _run_bounds

__all__ = ["GridIndex", "ball", "near_boxes"]

# largest cell key magnitude: float64 keeps 53 bits, so a key this large is
# within 2**-23 of a cell of its exact quotient (dbscan's cells are wider
# than eps / 2 by more than that)
_KEY_LIMIT = 2.0**30

# largest cell-box volume (with room for offsets of 2 cells) whose int64
# codes cannot wrap
_CODE_LIMIT = 2.0**62

# candidate pairs per block of ``unique_pairs`` and ``cell_pair_hits``: whole
# points or cell pairs up to about this many, so the distance temporaries stay
# cache-sized and memory does not grow with the cloud
_CHUNK = 1 << 15

# ``cell_pairs`` lists the cell pairs within this many cells on every axis
_REACH = 2


@cache
def _half_block(reach: int):
    """(dx, dy, dz_lo) of the columns of half the block of cells within
    reach on every axis: the cells above in the own column and all of the
    columns after it in lexicographic order, which give each unordered pair
    of cells once. Made once per reach, read-only."""
    span = range(-reach, reach + 1)
    dx, dy = np.array([(0, 0), *((a, b) for a in span for b in span if (a, b) > (0, 0))]).T
    columns = dx, dy, np.where(dx | dy, -reach, 1)
    for a in columns:
        a.setflags(write=False)
    return columns


class GridIndex:
    """Fixed-radius neighbor index over an (M, 3) point array."""

    def __init__(self, points: np.ndarray, cell_size: float):
        if not 0.0 < cell_size < np.inf:
            raise ValueError(f"cell_size must be finite and positive, got {cell_size}")
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        self.cell_size = float(cell_size)
        # per axis, one contiguous row: reductions along rows are fast; a key
        # that overflows to inf is refused below
        with np.errstate(over="ignore"):
            keys = np.ascontiguousarray(np.floor(self.points / self.cell_size).T)
        # an empty cloud gets origin 0 and dims 2
        lo, hi = (keys.min(axis=1), keys.max(axis=1)) if keys.size else (np.ones(3), np.zeros(3))
        # the keys must stay precise and the int64 codes, also a few cells
        # past the box, must not wrap: either would put distant points in
        # one cell
        if not (-_KEY_LIMIT <= lo.min() and hi.max() <= _KEY_LIMIT
                and np.prod(hi - lo + 5) <= _CODE_LIMIT):
            raise ContractError(f"points span too many cells of size {cell_size} "
                                "for exact int64 cell codes")
        # shift occupied cells into [1, dims - 2] per axis, so every cell next
        # to an occupied one has a code of its own
        origin = lo.astype(np.int64) - 1
        self._dims = (hi - lo).astype(np.int64) + 3
        code = self._encode(*(keys.astype(np.int64) - origin[:, None]))
        self.order = code.argsort(kind="stable")
        code = code[self.order]
        # cell c holds the points at positions cell_bound[c]:cell_bound[c + 1]
        # of order; a run of cells c..d those at cell_bound[c]:cell_bound[d + 1]
        self.cell_bound = _run_bounds(code)
        self._cell_code = code[self.cell_bound[:-1]]

    def _encode(self, kx, ky, kz):
        return (kx * self._dims[1] + ky) * self._dims[2] + kz

    def _column_runs(self, reach: int) -> tuple[np.ndarray, np.ndarray]:
        """First and end cell index, per column of ``_half_block(reach)``
        (rows, in its order) and cell, of the column's run of occupied cells
        dz_lo..reach above the cell. Cells stacked in z have consecutive
        codes, so they form one run of cells."""
        dx, dy, dz_lo = _half_block(reach)
        # one row of ascending lookups per column, which searchsorted takes
        # faster than rows of mixed columns
        column = self._cell_code + self._encode(dx, dy, 0)[:, None]
        first = self._cell_code.searchsorted(column + dz_lo[:, None])
        end = self._cell_code.searchsorted(column + reach, side="right")
        return first, end

    def cell_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each unordered pair of distinct occupied cells at most 2 cells
        apart on each axis once, as cell indices c < d (cell c holds the
        points at positions cell_bound[c]:cell_bound[c + 1]), with the
        squared length of d's offset from c in cells: 1, 2 and 3 are the
        face, edge and corner neighbors.

        Per cell, each (dx, dy) column of 5 stacked cells is one run of
        cells, found by two lookups: the cells above in its own column and
        the columns after it in lexicographic order. The one empty margin
        code per axis catches every offset that leaves the box of occupied
        cells, and a run never reaches into the next column.
        """
        dx, dy, _ = _half_block(_REACH)
        first, end = self._column_runs(_REACH)
        lens = end - first
        d = _ranges(first.ravel(), lens.ravel())
        cells = len(self._cell_code)
        c = np.arange(len(dx) * cells)  # each lookup's cell
        c %= cells
        c = c.repeat(lens.ravel())
        kz = self._cell_code % self._dims[2]
        dz = kz.take(d) - kz.take(c)
        dist2 = (dx * dx + dy * dy).repeat(np.add.reduce(lens, axis=1)) + dz * dz
        return c, d, dist2

    @cached_property
    def _xyz(self) -> np.ndarray:
        """The coordinates in cell order, one contiguous row per axis."""
        return np.ascontiguousarray(self.points[self.order].T)

    @cached_property
    def _boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per axis and cell, the least and greatest coordinate of its points."""
        start = self.cell_bound[:-1]
        return (np.minimum.reduceat(self._xyz, start, axis=1),
                np.maximum.reduceat(self._xyz, start, axis=1))

    def box_d2(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Squared distance between the farthest corners of the point boxes
        of cells c and d. Each axis term bounds that of every pair of their
        points, as rounding is monotone, so the sum bounds every d2
        ``cell_pair_hits`` measures from above."""
        lo, hi = self._boxes
        return _d2(*[np.maximum(hi[k].take(d) - lo[k].take(c), hi[k].take(c) - lo[k].take(d))
                     for k in range(3)])

    def cell_pair_hits(self, c: np.ndarray, d: np.ndarray, radius: float,
                       among_c: np.ndarray | None = None, among_d: np.ndarray | None = None):
        """Yield (p, q, k) per block of consecutive cell pairs (c[k], d[k]):
        each point p of cell c[k] and point q of cell d[k] within radius,
        boundary inclusive, as positions in cell order, by ascending k.
        ``among_c`` and ``among_d``, ascending positions in cell order, limit
        p and q to those points. A block holds whole cell pairs up to about
        ``_CHUNK`` candidates; no cell pairs give one empty block.
        """
        if not len(c):
            none = np.zeros(0, dtype=np.intp)
            yield none, none, none
            return
        # the members of cell e are among[bound[e]:bound[e + 1]], or the
        # positions bound[e]:bound[e + 1] themselves
        bound_c = self.cell_bound if among_c is None else among_c.searchsorted(self.cell_bound)
        bound_d = self.cell_bound if among_d is None else among_d.searchsorted(self.cell_bound)
        size_c, size_d = bound_c[1:] - bound_c[:-1], bound_d[1:] - bound_d[:-1]
        cand = size_c.take(c)
        cand *= size_d.take(d)
        x, y, z = self._xyz
        r2 = radius * radius
        for lo, hi in _blocks(cand):
            # a row per member p of cell c[k]: p and the run of d[k]'s members
            cc = c[lo:hi]
            rows = size_c.take(cc)
            rows_p = _ranges(bound_c.take(cc), rows)
            if among_c is not None:
                rows_p = among_c.take(rows_p)
            rows_k = np.arange(len(cc)).repeat(rows)
            dd = d[lo:hi].take(rows_k)
            start, lens = bound_d.take(dd), size_d.take(dd)
            # whole rows, so one cell pair of more candidates is split too
            for rlo, rhi in _blocks(lens):
                span = lens[rlo:rhi]
                q = _ranges(start[rlo:rhi], span)
                p, k = rows_p[rlo:rhi].repeat(span), rows_k[rlo:rhi].repeat(span)
                if among_d is not None:
                    q = among_d.take(q)
                hit = (_d2(x.take(p) - x.take(q), y.take(p) - y.take(q),
                           z.take(p) - z.take(q)) <= r2).nonzero()[0]
                yield p.take(hit), q.take(hit), k.take(hit) + lo

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """``ball(self.points, center, radius)``. No product code calls it: it
        stays for ``bench/tracing.py``'s wrap table."""
        return ball(self.points, center, radius)

    def unique_pairs(self):
        """Yield (rows, p, q) per block of consecutive cell-order positions
        ``rows``: the pairs within ``cell_size`` (the radius) of each point
        p of rows with the points q > p of its row, as cell-order
        positions, each pair once.

        A point's row is its 5 columns of ``_half_block(1)`` in lexicographic
        order: per column, its cells z - 1..z + 1, one run of q in cell
        order; in the (0, 0) column, from the point after p through cell
        z + 1. Codes ascend with the column offsets, so over all blocks the
        hits come by ascending p, then ascending q. A block holds whole
        points up to about ``_CHUNK`` candidates, measured in x and y, and
        those within radius there in z too: rounding is monotone, so
        fl(a + dz * dz) >= a, and a pair beyond radius in x and y is beyond
        it in x, y and z.
        """
        x, y, z = self._xyz
        n = len(x)
        r2 = self.cell_size * self.cell_size
        cell = np.arange(len(self._cell_code)).repeat(self.cell_bound[1:] - self.cell_bound[:-1])
        # per cell and column, the start and end of the column's run of points
        first, end = (self.cell_bound[run.T] for run in self._column_runs(1))
        # a point's candidates: its cell's runs, less the (0, 0) run through it
        per_point = (end - first).sum(axis=1)[cell] + first[cell, 0] - np.arange(1, n + 1)

        # a function, so a block's candidates are freed before its hits are used
        def block(lo, hi):
            rows = np.arange(lo, hi)
            q_row = first[cell[lo:hi]]
            q_row[:, 0] = rows + 1
            q = _ranges(q_row.ravel(), (end[cell[lo:hi]] - q_row).ravel())
            span = per_point[lo:hi]
            # p's coordinates repeated along its row; the mirror pair (q, p)
            # has the same d2: x[q] - x[p] is exactly -(x[p] - x[q])
            dx, dy = x[lo:hi].repeat(span), y[lo:hi].repeat(span)
            dx -= x.take(q)
            dy -= y.take(q)
            near = (_d2(dx, dy) <= r2).nonzero()[0]
            p, q = rows.repeat(span).take(near), q.take(near)
            dz = z.take(p)
            dz -= z.take(q)
            # IEEE addition commutes: this is (dx * dx + dy * dy) + dz * dz
            hit = (_d2(dz) + dx.take(near) <= r2).nonzero()[0]
            return rows, p.take(hit), q.take(hit)

        for lo, hi in _blocks(per_point):
            yield block(lo, hi)

    def ball_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-point neighbor count and population variance of neighbor z
        values within ``cell_size`` (self inclusive), fully vectorized.

        Each point's sums add its neighbors one float add at a time in
        ascending cell order (by neighbor cell in lexicographic offset
        order, then by ascending index), whatever the block size. Each pair
        (p, q) of ``unique_pairs`` is added to both ends: q gets p
        mirrored, p gets q directly. A point's mirrored sources are earlier
        points, met in their own rows in this or an earlier block, and its
        direct ones follow in its own row; so each block adds its mirrored
        hits, then its points themselves, then its direct hits.
        """
        n = len(self.points)
        z = self._xyz[2]
        counts = np.zeros(n, dtype=np.int64)
        s1 = np.zeros(n)
        s2 = np.zeros(n)
        for rows, p, q in self.unique_pairs():
            # np.add.at adds in array order, onto what was added before
            for t, zs in ((q, z.take(p)), (rows, z.take(rows)), (p, z.take(q))):
                np.add.at(counts, t, 1)
                np.add.at(s1, t, zs)
                np.add.at(s2, t, zs * zs)
        mean = s1 / counts
        zvar = np.maximum(s2 / counts - mean * mean, 0.0)
        out_counts, out_zvar = np.empty_like(counts), np.empty_like(zvar)
        out_counts[self.order] = counts
        out_zvar[self.order] = zvar
        return out_counts, out_zvar


def ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Ascending indices of the (M, 3) ``points`` within ``radius`` of
    ``center``, boundary inclusive: one direct distance pass in float64,
    cheaper than building an index for a single query."""
    diff = np.asarray(points).reshape(-1, 3) - np.asarray(center, dtype=np.float64)
    return np.flatnonzero(_d2(*diff.T) <= radius * radius)


def near_boxes(points: np.ndarray, moved: Sequence[np.ndarray],
               radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(sub, redo): the ascending indices of the points within 2 * reach on
    x and on y of the xy box of a group of ``moved`` rows, and which of
    them lie within reach, with reach ``radius * (1 + 2**-20)``. ``moved``
    holds groups of row indices, each in any order (one per raise); an
    empty group has no box. A pair within radius (``_d2``) is within it on
    x and on y, up to rounding far below 2**-20 of the radius for
    coordinates whose cell keys ``GridIndex`` accepts: so ``redo`` holds
    every point within radius of a moved one, and ``sub`` each of their
    neighbors. The cut is scalar compares on the coordinate columns."""
    x, y = np.asarray(points)[:, 0], np.asarray(points)[:, 1]
    reach = radius * (1 + 2.0**-20)
    # float64 bounds, so float32 columns are compared in float64
    boxes = [[np.float64(f(c[rows], initial=i)) for c in (x, y) for f, i in
              ((np.min, np.inf), (np.max, -np.inf))] for rows in moved]

    def within(xs, ys, d):
        hit = np.zeros(len(xs), dtype=bool)
        for x_lo, x_hi, y_lo, y_hi in boxes:
            hit |= (xs >= x_lo - d) & (xs <= x_hi + d) & (ys >= y_lo - d) & (ys <= y_hi + d)
        return hit

    sub = np.flatnonzero(within(x, y, 2 * reach))
    return sub, within(x[sub], y[sub], reach)


def _d2(dx: np.ndarray, *axes: np.ndarray) -> np.ndarray:
    """dx * dx + dy * dy + dz * dz (or the squares of the axes given), in
    place in them. Every squared distance here is summed in this x, y, z
    order, as the brute-force references sum theirs: another order can
    round a pair at d == radius to the other side."""
    dx *= dx
    for a in axes:
        a *= a
        dx += a
    return dx


def _blocks(counts: np.ndarray):
    """(lo, hi) of consecutive runs of items, whole items up to about
    ``_CHUNK`` of ``counts`` per run: a run ends after each item whose
    running total first reaches a multiple of ``_CHUNK`` below the grand
    total."""
    cum = counts.cumsum()
    if not len(cum) or cum[-1] <= _CHUNK:  # one run, nothing searched
        return ((0, len(counts)),)
    # an item that reaches several multiples ends one run
    cuts = dict.fromkeys((cum.searchsorted(np.arange(_CHUNK, cum[-1], _CHUNK)) + 1).tolist())
    return itertools.pairwise([0, *cuts, len(counts)])


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """arange(s, s + n) for each (s, n) of starts and lens, concatenated."""
    ends = lens.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) - (ends - lens - starts).repeat(lens)
