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
and ``box_d2`` bounds them per cell pair from the cells' point boxes.
``cluster.dbscan`` counts and joins over them on cells of side eps / 2.
``ball`` is a single centre's query, by a direct distance pass;
``columns_near`` finds the points within one and two xy columns of given
points (the feature refresh). Every squared distance is summed in x, y, z
order (``_d2``), and every cell key is floor(coordinate / cell_size).

The pair enumerator, which serves only the density features, walks the
points in cell order, each over its 5 columns of ``_half_block(1)``, the
stencil ``cell_pairs`` takes at reach 2 (three stacked cells, one run of
points in cell order). It expands each point's runs into candidate pairs,
in blocks of bounded size, and measures them on coordinate columns in cell
order, filtering by exact Euclidean distance, boundary inclusive. Each
unordered pair comes once, as positions in cell order (``order`` maps them
to indices), by ascending first, then second position (``unique_pairs``),
and ``ball_stats`` adds each to both ends. Its order contract: each
point's sums take its neighbors one at a time in ascending cell order (by
cell in lexicographic offset order, then by index), as a walk over all 9
columns from the point would, whatever the block size. The point-major
walk keeps that order: a point's earlier neighbors reach it mirrored from
their own rows, which come before its own row of later ones.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .core import ContractError

__all__ = ["GridIndex", "ball", "columns_near"]

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


def _half_block(reach: int):
    """(dx, dy, dz_lo) of the columns of half the block of cells within
    reach on every axis: the cells above in the own column and all of the
    columns after it in lexicographic order, which give each unordered pair
    of cells once."""
    span = range(-reach, reach + 1)
    dx, dy = np.array([(0, 0), *((a, b) for a in span for b in span if (a, b) > (0, 0))]).T
    return dx, dy, np.where(dx | dy, -reach, 1)


class GridIndex:
    """Fixed-radius neighbor index over an (M, 3) point array."""

    def __init__(self, points: np.ndarray, cell_size: float):
        if not 0.0 < cell_size < np.inf:
            raise ValueError(f"cell_size must be finite and positive, got {cell_size}")
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        self.cell_size = float(cell_size)
        # per axis, one contiguous row: reductions along rows are fast
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
        self.order = np.argsort(code, kind="stable")
        code = code[self.order]
        new = np.empty(len(code), dtype=bool)
        new[:1] = True
        np.not_equal(code[1:], code[:-1], out=new[1:])
        cell_start = np.flatnonzero(new)
        self._cell_code = code[cell_start]
        # cell c holds the points at positions cell_bound[c]:cell_bound[c + 1]
        # of order; a run of cells c..d those at cell_bound[c]:cell_bound[d + 1]
        self.cell_bound = np.append(cell_start, len(code))

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
        first = np.searchsorted(self._cell_code, column + dz_lo[:, None])
        end = np.searchsorted(self._cell_code, column + reach, side="right")
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
        c = np.repeat(np.tile(np.arange(len(self._cell_code)), len(dx)), lens.ravel())
        kz = self._cell_code % self._dims[2]
        dz = kz.take(d) - kz.take(c)
        dist2 = np.repeat(dx * dx + dy * dy, lens.sum(axis=1)) + dz * dz
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

    def box_d2(self, c: np.ndarray, d: np.ndarray, farthest: bool = False) -> np.ndarray:
        """Squared distance between the point boxes of cells c and d, over
        their nearest corners, or their farthest with ``farthest``. Each
        axis term bounds that of every pair of their points, as rounding is
        monotone, so the sum bounds every d2 ``cell_pair_hits`` measures."""
        lo, hi = self._boxes
        axes = []
        for k in range(3):
            lo_c, hi_c, lo_d, hi_d = lo[k].take(c), hi[k].take(c), lo[k].take(d), hi[k].take(d)
            if farthest:
                axes.append(np.maximum(hi_d - lo_c, hi_c - lo_d))
            else:
                axes.append(np.maximum(np.maximum(lo_d - hi_c, lo_c - hi_d), 0.0))
        return _d2(*axes)

    def cell_pair_hits(self, c: np.ndarray, d: np.ndarray, radius: float,
                       among_c: np.ndarray | None = None, among_d: np.ndarray | None = None):
        """Yield (p, q, k) per block of consecutive cell pairs (c[k], d[k]):
        each point p of cell c[k] and point q of cell d[k] within radius,
        boundary inclusive, as positions in cell order, by ascending k.
        ``among_c`` and ``among_d``, ascending positions in cell order, limit
        p and q to those points. A block holds whole cell pairs up to about
        ``_CHUNK`` candidates.
        """
        # the members of cell e are among[bound[e]:bound[e + 1]], or the
        # positions bound[e]:bound[e + 1] themselves
        bound_c, bound_d = (self.cell_bound if among is None else
                            np.searchsorted(among, self.cell_bound) for among in (among_c, among_d))
        size_c, size_d = np.diff(bound_c), np.diff(bound_d)
        cand = size_c.take(c)
        cand *= size_d.take(d)
        x, y, z = self._xyz
        r2 = radius * radius
        for lo, hi in _blocks(cand):
            # a row per member p of cell c[k]: p and the run of d[k]'s members
            cc = c[lo:hi]
            rows = size_c.take(cc)
            rows_p = _ranges(bound_c.take(cc), rows)
            rows_k = np.repeat(np.arange(len(cc)), rows)
            dd = d[lo:hi].take(rows_k)
            start, lens = bound_d.take(dd), size_d.take(dd)
            # whole rows, so one cell pair of more candidates is split too
            for rlo, rhi in _blocks(lens):
                span = lens[rlo:rhi]
                q = _ranges(start[rlo:rhi], span)
                p, k = rows_p[rlo:rhi].repeat(span), rows_k[rlo:rhi].repeat(span)
                if among_c is not None:
                    p = among_c.take(p)
                if among_d is not None:
                    q = among_d.take(q)
                hit = np.flatnonzero(_d2(x.take(p) - x.take(q), y.take(p) - y.take(q),
                                         z.take(p) - z.take(q)) <= r2)
                yield p.take(hit), q.take(hit), k.take(hit) + lo

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """``ball(self.points, center, radius)``. No product code calls it: it
        stays for ``bench/tracing.py``'s wrap table."""
        return ball(self.points, center, radius)

    def unique_pairs(self, radius: float):
        """Yield (p, q) per block of consecutive points p in cell order: the
        pairs within radius of each point p with the points q of its row, as
        cell-order positions, q > p except self pairs, each pair once.

        A point's row is its 5 columns of ``_half_block(1)`` in lexicographic
        order: per column, its cells z - 1..z + 1, one run of q in cell
        order; in the (0, 0) column, from p itself through cell z + 1.
        Codes ascend with the column offsets, so over all blocks the hits
        come by ascending p, then ascending q. A block holds whole points up
        to about ``_CHUNK`` candidates. Requires radius <= cell_size.
        """
        if radius > self.cell_size:
            raise ValueError("pairs need radius <= cell_size")
        x, y, z = self._xyz
        n = len(x)
        cell = np.repeat(np.arange(len(self._cell_code)), np.diff(self.cell_bound))
        # per cell and column, the start and end of the column's run of points
        first, end = (self.cell_bound[run.T] for run in self._column_runs(1))
        # a point's candidates: its cell's runs, less the (0, 0) run before it
        per_point = (end - first).sum(axis=1)[cell] + first[cell, 0] - np.arange(n)

        # a function, so a block's candidates are freed before its hits are used
        def block(lo, hi):
            rows = np.arange(lo, hi)
            q_row = first[cell[lo:hi]]
            q_row[:, 0] = rows
            q = _ranges(q_row.ravel(), (end[cell[lo:hi]] - q_row).ravel())
            p = np.repeat(rows, per_point[lo:hi])
            # the mirror pair (q, p) has the same d2: x[q] - x[p] is exactly
            # -(x[p] - x[q])
            hit = np.flatnonzero(_d2(x[p] - x[q], y[p] - y[q], z[p] - z[q]) <= radius * radius)
            return p[hit], q[hit]

        for lo, hi in _blocks(per_point):
            yield block(lo, hi)

    def _ordered_pairs(self, radius: float):
        """Yield (t, s) per block of ``unique_pairs``: every ordered pair with
        distance <= radius once over all blocks, self pairs included, as
        positions in cell order, target t and source s. Over the blocks in
        order, each target's sources come one at a time in ascending cell
        order (by cell in lexicographic offset order, then by index), the
        order of a walk over all 9 columns from the target, whatever the
        block size.

        Each unordered pair (p, q), p < q, is measured once, in p's row, and
        given to both ends: q gets p mirrored, p gets q directly. A point's
        mirrored sources are earlier points, met in their own rows in this
        or an earlier block, and its direct ones follow in its own row. So
        each block's mirrored hits, then its direct ones, keep every
        target's order within and across blocks. Requires radius <= cell_size.
        """
        for p, q in self.unique_pairs(radius):
            mirror = p != q                                 # self pairs only direct
            yield np.concatenate([q[mirror], p]), np.concatenate([p[mirror], q])

    def ball_stats(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-point neighbor count and population variance of neighbor z
        values within radius (self inclusive), fully vectorized.

        Each point's sums add its neighbors one float add at a time in
        ascending cell order (by neighbor cell in lexicographic offset
        order, then by ascending index), the order in which
        ``_ordered_pairs`` gives them: the earlier ones mirrored from their
        own rows, then the point's own row. So the bytes do not depend on
        the blocks. Each unordered pair is measured once and added to both
        ends.

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


def ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Ascending indices of the (M, 3) ``points`` within ``radius`` of
    ``center``, boundary inclusive: one direct distance pass in float64,
    cheaper than building an index for a single query."""
    diff = np.asarray(points).reshape(-1, 3) - np.asarray(center, dtype=np.float64)
    return np.flatnonzero(_d2(*diff.T) <= radius * radius)


def columns_near(points: np.ndarray, moved: np.ndarray,
                 cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """(sub, redo): the ascending indices of the points within two xy
    columns of a ``moved`` point (one or more row indices, in any order),
    and which of them lie within one. Columns are those of ``GridIndex``,
    keyed in float64; two are k apart when their keys differ by at most k
    on each axis. The box of columns around the moved ones is cut first,
    so the temporaries scale with the moved region, not with the cloud."""
    xy = np.asarray(points)[:, :2]

    def keys(rows):
        return np.floor(np.asarray(xy[rows], dtype=np.float64) / cell_size).astype(np.int64)

    moved_cols = keys(moved)
    # the box of columns within 3 of a moved one: the two and one more on
    # each side, so rounding in the cut drops no point
    lo = moved_cols.min(axis=0) - 3
    hi = moved_cols.max(axis=0) + 4
    box = np.flatnonzero(np.all((xy >= lo * cell_size) & (xy < hi * cell_size), axis=1))
    # per column of the box: 1 or 2 if within that many columns of a moved
    # one, else 3, as on the box's border
    gap = np.full(hi - lo, 3, dtype=np.int8)
    for k in (2, 1):
        dx, dy = np.mgrid[-k:k + 1, -k:k + 1].reshape(2, -1)
        gap[moved_cols[:, :1] - lo[0] + dx, moved_cols[:, 1:] - lo[1] + dy] = k
    # a key that rounding put past the box lies past its border
    gap = gap[tuple(np.clip(keys(box) - lo, 0, hi - lo - 1).T)]
    near = gap <= 2
    return box[near], gap[near] <= 1


def _d2(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """dx * dx + dy * dy + dz * dz, in place in dx. Every squared distance
    here is summed in this x, y, z order, as the brute-force references sum
    theirs: another order can round a pair at d == radius to the other side."""
    dx *= dx
    dy *= dy
    dx += dy
    dz *= dz
    dx += dz
    return dx


def _blocks(counts: np.ndarray):
    """(lo, hi) of consecutive runs of items, whole items up to about
    ``_CHUNK`` of ``counts`` per run."""
    cum = np.concatenate(([0], np.cumsum(counts)))
    cuts = np.unique(np.searchsorted(cum, np.arange(_CHUNK, cum[-1], _CHUNK)))
    return itertools.pairwise([0, *cuts, len(counts)])


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """arange(s, s + n) for each (s, n) of starts and lens, concatenated."""
    offsets = np.cumsum(lens) - lens
    return np.arange(lens.sum()) - np.repeat(offsets - starts, lens)
