"""Exact dyadic geometry: scales, boxes, cell sets, dyadic tubes and their raster.

Slopes and offsets live on the grid delta*Z for delta = 2^-k, so every
predicate in this module is decided in exact integer or Fraction
arithmetic. Grid cells are half-open squares
[i*delta, (i+1)*delta) x [j*delta, (j+1)*delta); a raster "includes" a
cell when the closed column hull of the tube section meets it (boundary
grazing cells may be included, nothing else differs from exact
membership).

A dyadic tube is the point-line dual of a dyadic square p contained in
[-1,1) x R: the union of the lines y = a'x + b' over (a', b') in p. Its
slope is the left edge a of p, always a multiple of delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling division for ints of either sign (b > 0)."""
    return -((-a) // b)


def sorted_distinct(x) -> np.ndarray:
    """np.unique(x) for NaN-free x: its distinct values, sorted. A bare
    np.unique asks np.ma.is_masked, which imports numpy.ma on first use."""
    x = np.sort(np.ravel(x))
    keep = np.ones(x.shape, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


class Measurement(float):
    """A measured value with its ingredients kept in .details."""

    details: dict

    def __new__(cls, value: float, details: dict):
        obj = super().__new__(cls, value)
        obj.details = details
        return obj


@dataclass(frozen=True, order=True)
class DyadicScale:
    """Scale delta = 2^-k, k >= 0."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("dyadic scale needs k >= 0")

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    def __repr__(self):
        return f"DyadicScale(2^-{self.k})"


@dataclass(frozen=True)
class Box:
    """Axis rectangle [x0, x1) x [y0, y1) with rational corners."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    @staticmethod
    def of(x0, y0, x1, y1) -> "Box":
        b = Box(_frac(x0), _frac(y0), _frac(x1), _frac(y1))
        if not (b.x0 < b.x1 and b.y0 < b.y1):
            raise ValueError("empty box")
        return b

    def grid_range(self, k: int) -> tuple[int, int, int, int]:
        """Enclosing cell index ranges (col_lo, col_hi, row_lo, row_hi), hi exclusive."""
        s = 1 << k
        return (
            (self.x0 * s).__floor__(),
            ceil_div((self.x1 * s).numerator, (self.x1 * s).denominator),
            (self.y0 * s).__floor__(),
            ceil_div((self.y1 * s).numerator, (self.y1 * s).denominator),
        )


BOX_UNIT = Box.of(0, 0, 1, 1)
BOX_DEFAULT = Box.of(-2, -2, 2, 2)  # default working window for grids


@dataclass(frozen=True, order=True)
class DyadicTube:
    """Union of lines y = a'x + b' over the dual square [a, a+d) x [b, b+d).

    a = i*d is the slope, b = j*d the offset, d = 2^-k. The dual square
    must sit inside [-1, 1) x R, so -2^k <= i < 2^k.
    """

    k: int
    i: int
    j: int

    def __post_init__(self):
        if not (-(1 << self.k) <= self.i < (1 << self.k)):
            raise ValueError(f"slope index {self.i} outside [-2^k, 2^k) at k={self.k}")

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.i, 1 << self.k)

    @property
    def offset(self) -> Fraction:
        return Fraction(self.j, 1 << self.k)

    def section(self, x) -> tuple[Fraction, Fraction]:
        """Closure hull [lo, up] of the vertical section at abscissa x."""
        x = _frac(x)
        a, d, b = self.slope, self.delta, self.offset
        lo = min(a * x, (a + d) * x) + b
        up = max(a * x, (a + d) * x) + b + d
        return lo, up

    def contains(self, x, y) -> bool:
        """Exact union-of-lines membership.

        The section at x > 0 is [a x + b, (a+d)x + b + d), at x < 0 it is
        open on the left because a' < a + d strictly.
        """
        x, y = _frac(x), _frac(y)
        lo, up = self.section(x)
        if x < 0:
            return lo < y < up
        return lo <= y < up


class CellSet:
    """Finite set of same-scale cells, stored as a sorted (n, 2) int64 array."""

    __slots__ = ("k", "idx")

    def __init__(self, k: int, idx):
        arr = np.asarray(idx, dtype=np.int64).reshape(-1, 2)
        (c1, r1), (c0, r0) = arr[1:].T, arr[:-1].T
        if not ((c1 > c0) | ((c1 == c0) & (r1 > r0))).all():  # sort and dedup unless in order
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            arr = arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]]
        elif isinstance(idx, np.ndarray) and np.may_share_memory(arr, idx):
            arr = arr.copy()  # idx is the set's own, not a view of the caller's array
        self.k = k
        self.idx = arr

    def __len__(self):
        return len(self.idx)

    def __repr__(self):
        return f"CellSet(k={self.k}, n={len(self)})"


def _tube_column_rows(tube: DyadicTube, kg: int, m: int) -> tuple[int, int]:
    """Grid row range [lo, hi) met by the tube over grid column m, exact ints.

    Works in units of delta * delta_g. The section hull endpoints over the
    closed column are attained at column endpoints because the lower
    envelope is concave and the upper convex.
    """
    ta, tb, k = tube.i, tube.j, tube.k
    # unit = delta * delta_g; slope lines evaluate to integers at column ends
    vals = (ta * m, (ta + 1) * m, ta * (m + 1), (ta + 1) * (m + 1))
    lo_u = min(vals) + tb * (1 << kg)
    up_u = max(vals) + (tb + 1) * (1 << kg)
    return lo_u >> k, ceil_div(up_u, 1 << k)


def _slope_hull(a, m, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row ranges [lo, hi) of the tubes DyadicTube(k, a, 0) over the grid
    columns m at the tube scale, for int64 arrays a and m that broadcast:
    the vectorised _tube_column_rows at kg = k. An offset b shifts both by b."""
    vals = (a * m, (a + 1) * m, a * (m + 1), (a + 1) * (m + 1))
    lo = np.minimum(np.minimum(vals[0], vals[1]), np.minimum(vals[2], vals[3])) >> k
    up = np.maximum(np.maximum(vals[0], vals[1]), np.maximum(vals[2], vals[3]))
    return lo, 1 - ((-up) >> k)


_COUNT_CHUNK = 1 << 17  # bound on a column block's tube entries plus difference cells


def tube_count_blocks(t, b, k: int, rows: tuple[int, int] | None = None, weights=None):
    """tube_count_grid one block of consecutive columns at a time, on the
    band of rows that the block's tubes reach; tube q counts weights[q] >= 1 times.

    Returns ((r0, r1), blocks): the grid's rows (by default every row a tube
    reaches) and an iterator of (m0, j0, block). block[m - m0, j - j0] is
    grid[m, j] for the columns m of the block and the grid rows j of its
    band [j0, j0 + block.shape[1] - 1); its last column, one spare row past
    the band, is 0. block is an int64 array of at most about _COUNT_CHUNK
    cells, and every grid cell outside the bands is 0. Callers that reduce
    the grid never hold all of it. A block is a view of one band buffer
    that the next block overwrites, so a caller copies what it keeps: the
    iterator holds that buffer and one event buffer, two parts of one
    scratch array of about _COUNT_CHUNK cells (1 MiB), and allocates
    neither again.
    """
    n = 1 << k
    t, b = np.ravel(t).astype(np.int64), np.ravel(b).astype(np.int64)
    if not t.size:
        return ((0, 0) if rows is None else rows), iter(())
    # distinct tubes with their counts, sorted by slope, then offset
    b0 = int(b.min())
    span = int(b.max()) - b0 + 1
    keys, inv = np.unique((t + n) * span + (b - b0), return_inverse=True)
    cnt = np.bincount(inv, weights)
    t, b = keys // span - n, keys % span + b0
    slopes, per_slope = np.unique(t, return_counts=True)
    last = np.cumsum(per_slope) - 1
    b_lo, b_hi = b[last - per_slope + 1], b[last]  # each slope's offset range

    def reach(cols):
        """Slope rows over cols, each (len(cols), len(slopes)), and the rows
        [lo, hi) any tube reaches there."""
        lo, hi = _slope_hull(slopes[None, :], cols[:, None], k)
        return lo, hi, int((lo.min(axis=0) + b_lo).min()), int((hi.max(axis=0) + b_hi).max())

    # the lower hull is concave and the upper convex along x, so each
    # tube's extreme rows sit in the first or the last column
    *_, top0, top1 = reach(np.array([0, n - 1]))
    if rows is None:
        rows = top0, top1
    r0, r1 = max(rows[0], top0), min(rows[1], top1)  # window rows a tube reaches
    counts = cnt.astype(np.int64)  # exact integers; each 1 without repeats or weights
    unit = counts.max() == 1

    def blocks():
        if r0 >= r1:
            return
        step = max(1, min(n, _COUNT_CHUNK // (len(t) + r1 - r0 + 1)))
        scratch = np.empty(step * (len(t) + r1 - r0 + 1), dtype=np.int64)
        events, band = scratch[: step * len(t)], scratch[step * len(t) :]
        tube_slope = np.repeat(np.arange(len(slopes)), per_slope)
        wts = 1 if unit else counts[:0]  # tiled once per block width
        for m0 in range(0, n, step):
            cols = np.arange(m0, min(m0 + step, n))
            lo, hi, j0, j1 = reach(cols)
            j0, j1 = max(j0, r0), min(j1, r1)
            if j0 >= j1:
                continue
            # difference array of the band: +count where a tube enters a
            # column, -count where it leaves. A range outside the window is
            # clipped to one row, where its count is added and removed; one
            # spare row absorbs the exits at j1.
            w = j1 - j0 + 1
            diff = band[: len(cols) * w]
            diff.fill(0)
            # column-major events: each in-place pass runs over whole columns
            ev = events[: len(cols) * len(t)].reshape(len(cols), len(t))
            if not unit and len(wts) != ev.size:
                wts = np.tile(counts, len(cols))
            shift = ((cols - m0) * w - j0)[:, None]
            for end, at in ((lo, np.add.at), (hi, np.subtract.at)):
                # each tube's slope rows; mode="clip" (the indices are valid)
                # spares the buffered copy that out= makes under mode="raise"
                np.take(end, tube_slope, axis=1, out=ev, mode="clip")
                ev += b  # shift by the offset, clip, index the band
                np.clip(ev, j0, j1, out=ev)
                ev += shift
                at(diff, ev.ravel(), wts)
            diff = diff.reshape(len(cols), w)
            yield m0, j0 - rows[0], np.cumsum(diff, axis=1, out=diff)

    return rows, blocks()


def tube_count_grid(t, b, k: int, rows: tuple[int, int] | None = None) -> np.ndarray:
    """Exact tube multiplicities on the slab of columns [0, 2^k), int64.

    grid[m, j - r0] counts the tubes DyadicTube(k, t[q], b[q]), repeats
    included, whose raster meets cell (m, j), for rows j in
    [r0, r1) = rows; by default every row a tube reaches, r0 the lowest.
    """
    (r0, r1), blocks = tube_count_blocks(t, b, k, rows)
    grid = np.zeros((1 << k, r1 - r0), dtype=np.int64)
    for m0, j0, block in blocks:
        grid[m0 : m0 + len(block), j0 : j0 + block.shape[1] - 1] = block[:, :-1]
    return grid


def rasterize_tube(tube: DyadicTube, grid: DyadicScale, box: Box = BOX_UNIT) -> CellSet:
    """Cells of the grid meeting the tube inside box, one column at a time.

    The scalar oracle of _slope_hull and tube_count_grid.
    """
    if not isinstance(tube, DyadicTube):
        raise TypeError(f"not a dyadic tube: {tube!r}")
    if grid.k < tube.k:
        raise ValueError("grid must be at least as fine as the tube scale")
    c0, c1, r0, r1 = box.grid_range(grid.k)
    cells = []
    for m in range(c0, c1):
        lo, hi = _tube_column_rows(tube, grid.k, m)
        cells.extend((m, j) for j in range(max(lo, r0), min(hi, r1)))
    return CellSet(grid.k, cells)
