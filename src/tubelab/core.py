"""Exact dyadic geometry: scales, squares, tubes, duality, covering counts.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction | int


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling division for ints of either sign (b > 0)."""
    return -((-a) // b)


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


@dataclass(frozen=True, order=True)
class DyadicSquare:
    """Half-open square [i*d, (i+1)*d) x [j*d, (j+1)*d), d = 2^-k."""

    k: int
    i: int
    j: int

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    @property
    def x0(self) -> Fraction:
        return Fraction(self.i, 1 << self.k)

    @property
    def y0(self) -> Fraction:
        return Fraction(self.j, 1 << self.k)

    @property
    def x1(self) -> Fraction:
        return Fraction(self.i + 1, 1 << self.k)

    @property
    def y1(self) -> Fraction:
        return Fraction(self.j + 1, 1 << self.k)

    def contains(self, x, y) -> bool:
        x, y = _frac(x), _frac(y)
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def center(self) -> tuple[Fraction, Fraction]:
        d = self.delta
        return (self.x0 + d / 2, self.y0 + d / 2)


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


@dataclass(frozen=True)
class Line:
    """Line y = a*x + b."""

    a: Fraction
    b: Fraction

    def __call__(self, x) -> Fraction:
        return self.a * _frac(x) + self.b


def dual_line(a, b) -> Line:
    """Point-line duality: the parameter point (a, b) maps to y = a*x + b."""
    return Line(_frac(a), _frac(b))


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

    def dual_square(self) -> DyadicSquare:
        return DyadicSquare(self.k, self.i, self.j)

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


def tube_point_test(tube, x, y) -> bool:
    """Membership of the point (x, y), exact for either tube kind."""
    return tube.contains(x, y)


@dataclass(frozen=True)
class OrdinaryTube:
    """Closed rectangle of dimensions length x width along direction (1, slope).

    slope is rational with |slope| <= 1; the direction is the unit vector
    (1, slope)/sqrt(1 + slope^2). Corner coordinates are irrational in
    general, but membership is exact (squared half-plane inequalities).
    """

    slope: Fraction
    cx: Fraction
    cy: Fraction
    width: Fraction
    length: Fraction = Fraction(1)

    def __post_init__(self):
        if abs(self.slope) > 1:
            raise ValueError("ordinary tubes here are near-horizontal: |slope| <= 1")
        if self.width <= 0 or self.length <= 0:
            raise ValueError("degenerate tube")

    def contains(self, x, y) -> bool:
        vx, vy = _frac(x) - self.cx, _frac(y) - self.cy
        s = self.slope
        n2 = 1 + s * s
        along = vx + s * vy      # <v, (1, s)>, scaled by sqrt(n2)
        across = vy - s * vx     # <v, (-s, 1)>, scaled by sqrt(n2)
        return (
            along * along * 4 <= self.length * self.length * n2
            and across * across * 4 <= self.width * self.width * n2
        )

    def corners(self) -> list[tuple[float, float]]:
        s = float(self.slope)
        n = (1.0 + s * s) ** 0.5
        ux, uy = 1.0 / n, s / n
        hx, hy = float(self.length) / 2 * ux, float(self.length) / 2 * uy
        wx, wy = -float(self.width) / 2 * uy, float(self.width) / 2 * ux
        cx, cy = float(self.cx), float(self.cy)
        return [
            (cx + hx + wx, cy + hy + wy),
            (cx + hx - wx, cy + hy - wy),
            (cx - hx - wx, cy - hy - wy),
            (cx - hx + wx, cy - hy + wy),
        ]


class CellSet:
    """Finite set of same-scale cells, stored as a sorted (n, 2) int64 array."""

    __slots__ = ("k", "idx")

    def __init__(self, k: int, idx):
        arr = np.asarray(idx, dtype=np.int64).reshape(-1, 2)
        if len(arr):
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            arr = arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]]
        self.k = k
        self.idx = arr

    def __len__(self):
        return len(self.idx)

    def index(self, cell) -> int:
        """Row of cell in idx, or -1 when the cell is not in the set."""
        i, j = int(cell[0]), int(cell[1])
        lo, hi = np.searchsorted(self.idx[:, 0], (i, i + 1))
        p = int(lo + np.searchsorted(self.idx[lo:hi, 1], j))
        return p if p < hi and self.idx[p, 1] == j else -1

    def __contains__(self, cell) -> bool:
        return self.index(cell) >= 0

    def squares(self) -> list[DyadicSquare]:
        return [DyadicSquare(self.k, int(i), int(j)) for i, j in self.idx]

    def area(self) -> Fraction:
        return len(self) * Fraction(1, 1 << (2 * self.k))

    def __eq__(self, other):
        return (
            isinstance(other, CellSet)
            and self.k == other.k
            and self.idx.shape == other.idx.shape
            and bool(np.all(self.idx == other.idx))
        )

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


def tube_rows(t, b, k: int, cols) -> tuple[np.ndarray, np.ndarray]:
    """Row ranges [lo, hi) of the tubes DyadicTube(k, t[q], b[q]) (or one b
    for all) over the grid columns cols at the tube scale: two
    (len(t), len(cols)) int64 arrays.

    The vectorised _tube_column_rows (its scalar oracle) at kg = k. The
    offset only shifts rows, so the hull is computed once per distinct slope.
    """
    slopes, inv = np.unique(np.ravel(t).astype(np.int64), return_inverse=True)
    a, m = slopes[:, None], np.asarray(cols, dtype=np.int64)[None, :]
    vals = (a * m, (a + 1) * m, a * (m + 1), (a + 1) * (m + 1))
    lo = np.minimum(np.minimum(vals[0], vals[1]), np.minimum(vals[2], vals[3])) >> k
    up = np.maximum(np.maximum(vals[0], vals[1]), np.maximum(vals[2], vals[3]))
    off = np.ravel(b).astype(np.int64)[:, None]
    return lo[inv] + off, 1 - ((-up) >> k)[inv] + off


_COUNT_CHUNK = 1 << 19  # bound on a column block's tube entries and difference cells


def tube_count_blocks(t, b, k: int, rows: tuple[int, int] | None = None):
    """tube_count_grid one block of consecutive columns at a time.

    Yields (m0, block): block[m - m0, j - r0] is grid[m, j - r0] for the
    columns m of the block, as an int64 array of at most about _COUNT_CHUNK
    cells. Callers that reduce the grid never hold all of it.
    """
    n = 1 << k
    t, b = np.ravel(t).astype(np.int64), np.ravel(b).astype(np.int64)
    if not t.size:
        yield 0, np.zeros((n, rows[1] - rows[0] if rows else 0), dtype=np.int64)
        return
    # distinct tubes with their counts
    b0 = int(b.min())
    span = int(b.max()) - b0 + 1
    keys, cnt = np.unique((t + n) * span + (b - b0), return_counts=True)
    t, b = keys // span - n, keys % span + b0
    if rows is None:
        # the lower hull is concave and the upper convex along x, so each
        # tube's extreme rows sit in the first or the last column
        lo, hi = tube_rows(t, b, k, (0, n - 1))
        rows = int(lo.min()), int(hi.max())
    r0, r1 = rows
    w = r1 - r0 + 1  # one spare row absorbs the exits at r1
    step = max(1, _COUNT_CHUNK // max(len(t), w))
    slopes, per_slope = np.unique(t, return_counts=True)  # t is sorted
    for m0 in range(0, n, step):
        cols = np.arange(m0, min(m0 + step, n))
        # difference array of the column block: +count where a tube enters
        # a column, -count where it leaves. A range outside the window is
        # clipped to one row, where its count is added and removed.
        base, size = (cols - m0) * w - r0, len(cols) * w
        lo, hi = (np.repeat(e, per_slope, axis=0) for e in tube_rows(slopes, 0, k, cols))
        for e in (lo, hi):  # in place: shift by the offset, clip, index the block
            e += b[:, None]
            np.clip(e, r0, r1, out=e)
            e += base
        # without weights bincount counts in int64; weighted, it sums the
        # tube counts as exact doubles, which the int64 prefix sum casts
        wts = None if cnt.max() == 1 else np.repeat(cnt, len(cols))
        diff = np.bincount(lo.ravel(), wts, size)
        diff -= np.bincount(hi.ravel(), wts, size)
        yield m0, diff.reshape(len(cols), w).cumsum(axis=1, dtype=np.int64)[:, :-1]


def tube_count_grid(t, b, k: int, rows: tuple[int, int] | None = None) -> np.ndarray:
    """Exact tube multiplicities on the slab of columns [0, 2^k), int64.

    grid[m, j - r0] counts the tubes DyadicTube(k, t[q], b[q]), repeats
    included, whose raster (tube_rows) meets cell (m, j), for rows j in
    [r0, r1) = rows; by default every row a tube reaches, r0 the lowest.
    """
    grid = None
    for m0, block in tube_count_blocks(t, b, k, rows):
        if grid is None:
            grid = np.empty((1 << k, block.shape[1]), dtype=np.int64)
        grid[m0 : m0 + len(block)] = block
    return grid


def rasterize_tube(tube, grid: DyadicScale, box: Box = BOX_UNIT, weights: bool = False):
    """Cells of the grid meeting the tube inside box.

    Returns a CellSet, or with weights=True a list of ((i, j), area) pairs
    where area is the exact Leb(tube ∩ cell ∩ box) as a Fraction for
    DyadicTube (float for OrdinaryTube). The weights partition the total
    intersection area.
    """
    if isinstance(tube, DyadicTube):
        if grid.k < tube.k:
            raise ValueError("grid must be at least as fine as the tube scale")
        return _rasterize_dyadic(tube, grid.k, box, weights)
    if isinstance(tube, OrdinaryTube):
        return _rasterize_ordinary(tube, grid.k, box, weights)
    raise TypeError(f"not a tube: {tube!r}")


def _rasterize_dyadic(tube: DyadicTube, kg: int, box: Box, weights: bool):
    c0, c1, r0, r1 = box.grid_range(kg)
    cells = []
    for m in range(c0, c1):
        lo, hi = _tube_column_rows(tube, kg, m)
        lo, hi = max(lo, r0), min(hi, r1)
        for j in range(lo, hi):
            cells.append((m, j))
    if not weights:
        return CellSet(kg, cells)
    dg = Fraction(1, 1 << kg)
    out = []
    for (m, j) in cells:
        u, v = m * dg, (m + 1) * dg
        u, v = max(u, box.x0), min(v, box.x1)
        y0, y1 = max(j * dg, box.y0), min((j + 1) * dg, box.y1)
        area = _column_overlap_area(tube, u, v, y0, y1)
        out.append(((m, j), area))
    return out


def _column_overlap_area(tube: DyadicTube, u: Fraction, v: Fraction, y0: Fraction, y1: Fraction) -> Fraction:
    """Exact integral over x in [u, v] of |section(x) ∩ [y0, y1]|.

    The section envelopes are linear on each sign of x, so the integrand is
    piecewise linear; we split at x = 0 and at every envelope crossing.
    """
    if u >= v:
        return Fraction(0)
    if u < 0 < v:
        return _column_overlap_area(tube, u, Fraction(0), y0, y1) + _column_overlap_area(
            tube, Fraction(0), v, y0, y1
        )
    a, d, b = tube.slope, tube.delta, tube.offset
    if u >= 0:
        lo_a, lo_b = a, b                 # lower envelope lo_a * x + lo_b
        up_a, up_b = a + d, b + d
    else:
        lo_a, lo_b = a + d, b
        up_a, up_b = a, b + d

    cuts = {u, v}
    for la, lb, c in ((up_a, up_b, y0), (up_a, up_b, y1), (lo_a, lo_b, y0), (lo_a, lo_b, y1)):
        if la != 0:
            x = (c - lb) / la
            if u < x < v:
                cuts.add(x)

    def f(x: Fraction) -> Fraction:
        top = min(up_a * x + up_b, y1)
        bot = max(lo_a * x + lo_b, y0)
        return top - bot if top > bot else Fraction(0)

    xs = sorted(cuts)
    total = Fraction(0)
    for p, q in zip(xs, xs[1:]):
        total += (f(p) + f(q)) * (q - p) / 2
    return total


def _rasterize_ordinary(tube: OrdinaryTube, kg: int, box: Box, weights: bool):
    # Float path: corner coordinates are irrational for rational slopes.
    dg = 1.0 / (1 << kg)
    corners = tube.corners()
    xmin = max(min(c[0] for c in corners), float(box.x0))
    xmax = min(max(c[0] for c in corners), float(box.x1))
    if xmin >= xmax:
        return [] if weights else CellSet(kg, [])
    c0, c1, r0, r1 = box.grid_range(kg)
    m0 = max(int(np.floor(xmin / dg)), c0)
    m1 = min(int(np.ceil(xmax / dg)), c1)
    s = float(tube.slope)
    n = (1.0 + s * s) ** 0.5
    cx, cy = float(tube.cx), float(tube.cy)
    hl, hw = float(tube.length) / 2 * n, float(tube.width) / 2 * n

    def envelopes(x):
        # y bounds at abscissa x from the two half-plane pairs
        vx = x - cx
        lo = cy + s * vx - hw
        up = cy + s * vx + hw
        if s != 0.0:
            e1 = cy + (-vx + hl) / s if s > 0 else cy + (-vx - hl) / s
            e2 = cy + (-vx - hl) / s if s > 0 else cy + (-vx + hl) / s
            lo, up = max(lo, e2), min(up, e1)
        return lo, up

    corner_xs = [c[0] for c in corners]
    cells, wts = [], []
    for m in range(m0, m1):
        u, v = max(m * dg, xmin), min((m + 1) * dg, xmax)
        if u >= v:
            continue
        # envelope kinks sit at corner abscissas; sample them for exact hulls
        samples = [u, v] + [x for x in corner_xs if u < x < v]
        los, ups = zip(*(envelopes(x) for x in samples))
        lo, up = min(los), max(ups)
        jlo, jhi = max(int(np.floor(lo / dg)), r0), min(int(np.ceil(up / dg)), r1)
        for j in range(jlo, jhi):
            if weights:
                area = _numeric_area(envelopes, u, v, j * dg, (j + 1) * dg)
                if area <= 0:
                    continue
                wts.append(((m, j), area))
            else:
                cells.append((m, j))
    if weights:
        return wts
    return CellSet(kg, cells)


def _numeric_area(envelopes, u, v, y0, y1, steps=64) -> float:
    xs = np.linspace(u, v, steps + 1)
    vals = []
    for x in xs:
        lo, up = envelopes(x)
        vals.append(max(0.0, min(up, y1) - max(lo, y0)))
    return float(np.trapezoid(vals, xs))


class CoveringCount(int):
    """Covering number with the counting convention recorded in .method."""

    method: str

    def __new__(cls, value: int, method: str):
        obj = super().__new__(cls, value)
        obj.method = method
        return obj


def _as_intervals(s) -> list[tuple[Fraction, Fraction]]:
    out = []
    for item in s:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            lo, hi = _frac(item[0]), _frac(item[1])
            if hi < lo:
                raise ValueError("interval with hi < lo")
            out.append((lo, hi))
        else:
            x = _frac(item)
            out.append((x, x))
    return sorted(out)


def greedy_ball_cover_1d(items: Sequence, r) -> int:
    """Minimum number of closed balls of radius r covering the 1-d set.

    Items are numbers or (lo, hi) interval pairs. The left-to-right greedy
    sweep is exactly optimal in one dimension.
    """
    r = _frac(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    intervals = _as_intervals(items)
    count = 0
    covered = None
    for lo, hi in intervals:
        if covered is not None and hi <= covered:
            continue
        start = lo if covered is None or lo > covered else covered
        while True:
            covered = start + 2 * r
            count += 1
            if hi <= covered:
                break
            start = covered
    return count


def covering_number(s, r, dim: int | None = None) -> CoveringCount:
    """|S|_r: minimal covering count of a finite union of points/cells.

    dim=1 inputs (numbers or (lo, hi) pairs) use the exact greedy sweep.
    dim=2 inputs (point pairs or DyadicSquare) use the dyadic-cube proxy at
    the smallest dyadic scale >= r, which sandwiches the exact count within
    a factor 3; the convention is recorded on the returned value.
    """
    s = list(s)
    if not s:
        return CoveringCount(0, "empty")
    if dim is None:
        # a (lo, hi) interval and an (x, y) point look alike; callers pass dim for points
        dim = 2 if isinstance(s[0], DyadicSquare) else 1
    if dim == 1:
        return CoveringCount(greedy_ball_cover_1d(s, r), "greedy-balls-1d")
    # dyadic proxy scale: smallest power of two >= r
    r = _frac(r)
    kp = 0
    while Fraction(2) ** -kp < r:
        kp -= 1
    while Fraction(2) ** -(kp + 1) >= r:
        kp += 1
    step = Fraction(2) ** -kp
    cells = set()
    for item in s:
        if isinstance(item, DyadicSquare):
            i0, i1 = (item.x0 / step).__floor__(), ((item.x1) / step).__floor__()
            j0, j1 = (item.y0 / step).__floor__(), ((item.y1) / step).__floor__()
            for ii in range(i0, i1 + 1):
                for jj in range(j0, j1 + 1):
                    if Fraction(ii) * step < item.x1 and Fraction(jj) * step < item.y1:
                        cells.add((ii, jj))
        else:
            x, y = _frac(item[0]), _frac(item[1])
            cells.add(((x / step).__floor__(), (y / step).__floor__()))
    return CoveringCount(len(cells), f"dyadic-proxy(2^{-kp})")


def dyadic_cubes(a, scale: DyadicScale):
    """Cells of the scale grid meeting the set a.

    a may be a Box (2-d), an iterable of (x, y) points (2-d, returns a
    CellSet), or an iterable of numbers / (lo, hi) intervals (1-d, returns
    the sorted cell indices).
    """
    k, n = scale.k, 1 << scale.k
    if isinstance(a, Box):
        c0, c1, r0, r1 = a.grid_range(k)
        idx = [(i, j) for i in range(c0, c1) for j in range(r0, r1)]
        return CellSet(k, idx)
    a = list(a)
    if not a:
        return []
    first = a[0]
    if isinstance(first, (tuple, list)) and len(first) == 2 and isinstance(first[0], (tuple, list)):
        raise TypeError("unsupported input")
    if isinstance(first, (tuple, list)) and len(first) == 2:
        # ambiguous pairs: points if any coordinate differs in role; here treat as 2-d points
        return CellSet(k, [(math.floor(_frac(x) * n), math.floor(_frac(y) * n)) for x, y in a])
    return sorted({math.floor(_frac(item) * n) for item in a})


# ---------------------------------------------------------------- serialization

def dump_tubes(tubes: Iterable[DyadicTube]) -> str:
    """One record per tube, 'k:i:j' (dual square lower corner + scale)."""
    return "\n".join(f"{t.k}:{t.i}:{t.j}" for t in tubes) + "\n"


def load_tubes(text: str) -> list[DyadicTube]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, i, j = (int(part) for part in line.split(":"))
        out.append(DyadicTube(k, i, j))
    return out


def dump_rationals(values: Iterable[Fraction]) -> str:
    """Sorted rational list, one 'num/den' per line."""
    vals = sorted(_frac(v) for v in values)
    return "\n".join(f"{v.numerator}/{v.denominator}" for v in vals) + "\n"


def load_rationals(text: str) -> list[Fraction]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        num, den = line.split("/")
        out.append(Fraction(int(num), int(den)))
    return out
