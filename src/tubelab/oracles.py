"""Brute-force oracles of the fast counting paths, one per quantity.

Each recomputes its quantity directly, one tube, center, window or tuple at
a time; the verifier's oracle check and the tests import them from here.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np

from tubelab.core import BOX_UNIT, CellSet, DyadicScale, DyadicTube, rasterize_tube, sorted_distinct


def brute_cell_counts(family) -> Counter:
    """Tubes per cell of [0,1)^2, from each tube's raster."""
    c: Counter = Counter()
    k = family.scale.k
    for t, b in zip(family.t.tolist(), family.b.tolist()):
        c.update(map(tuple, rasterize_tube(DyadicTube(k, t, b), family.scale, BOX_UNIT).idx.tolist()))
    return c


def brute_window_counts(xs, r, windows, closed_right=False):
    """Greedy closed r-ball cover count of the points xs in each window
    [lo, hi) (or [lo, hi] when closed_right)."""
    counts = []
    for lo, hi in windows:
        pts = [x for x in xs if lo <= x < hi or (closed_right and x == hi)]
        covered = None
        c = 0
        for x in pts:
            if covered is None or x > covered:
                c += 1
                covered = x + 2 * r
        counts.append(c)
    return counts


def brute_regularity(xs, s, amax):
    best = 0.0
    for a in range(amax + 1):
        r = 2.0 ** -a
        for b in range(a + 1):
            w = 2.0 ** -b
            cells = sorted({math.floor(x / w) for x in xs})
            windows = [(c * w, (c + 1) * w) for c in cells]
            for cnt in brute_window_counts(xs, r, windows):
                best = max(best, cnt / 2.0 ** ((a - b) * s))
    return best


def brute_frostman(xs, s, amax, dv):
    tot = brute_window_counts(xs, dv, [(min(xs), max(xs))], closed_right=True)[0]
    best = 0.0
    for a in range(amax + 1):
        r = 2.0 ** -a
        windows = [(x - r, x + r) for x in xs]
        for cnt in brute_window_counts(xs, dv, windows, closed_right=True):
            best = max(best, cnt / (r ** s * tot))
    return best


def brute_katz_tao(xs, t, amax, dv):
    best = 0.0
    for a in range(amax + 1):
        r = 2.0 ** -a
        windows = [(x - r, x + r) for x in xs]
        for cnt in brute_window_counts(xs, dv, windows, closed_right=True):
            best = max(best, cnt * (dv / r) ** t)
    return best


def brute_planar_ball_counts(pts, k: int) -> tuple[list[int], int]:
    """For a = 0..k, the max over centers c in pts of the delta-cell count
    of pts ∩ B(c, 2^-a), delta = 2^-k; and the delta-cell count of pts.

    One center at a time over its x-window, in doubles (exact for dyadic
    points with short numerators).
    """
    p = np.asarray([[float(x), float(y)] for x, y in pts])
    p = p[np.argsort(p[:, 0], kind="stable")]
    xs = p[:, 0]
    cells = np.floor(p * float(1 << k)).astype(np.int64)
    keys = (cells[:, 0] << 32) + (cells[:, 1] + (np.int64(1) << 30))
    tot = len(sorted_distinct(keys))
    counts = []
    for a in range(k + 1):
        r = 2.0 ** -a
        los = np.searchsorted(xs, xs - r, side="left")
        his = np.searchsorted(xs, xs + r, side="right")
        best = 0
        for i in range(len(p)):
            lo, hi = los[i], his[i]
            seg = p[lo:hi]
            mask = (seg[:, 0] - p[i, 0]) ** 2 + (seg[:, 1] - p[i, 1]) ** 2 <= r * r
            best = max(best, len(sorted_distinct(keys[lo:hi][mask])))
        counts.append(best)
    return counts, tot


def brute_aim_assignment(theta, cells=None) -> dict:
    """Per-cell Fraction rule: each of the cells (by default every cell of
    [0,1)^2) takes the slope of theta nearest the slope of the line from the
    origin to its center, and the offset row of that line at the tube's scale."""
    k = theta.scale.k
    n = 1 << k
    idx = theta.indices.tolist()  # Python ints, compared exactly with Fractions
    out = {}
    for i, j in itertools.product(range(n), repeat=2) if cells is None else cells:
        cx, cy = F(2 * i + 1, 2 * n), F(2 * j + 1, 2 * n)
        target = cy / cx * n  # in units of delta
        p = bisect.bisect_left(idx, target)
        t = min(idx[max(p - 1, 0) : p + 1], key=lambda a: abs(a - target))
        out[(i, j)] = DyadicTube(k, t, math.floor((cy - F(t, n) * cx) * n))
    return out


def digital_tube_cells(scale: DyadicScale, center, t: int) -> CellSet:
    """Cells of the 4-delta digital tube with slope index t centered at a
    cell: in each column ix in [m - 2^(k-1), m + 2^(k-1)), the rows
    n + sigma(ix) - sigma(m) + {-2, -1, 0, 1}, sigma(ix) = (t*ix + 2^(k-1)) >> k."""
    k = scale.k
    m, n = int(center[0]), int(center[1])
    K = 1 << (k - 1)
    ix = np.arange(m - K, m + K, dtype=np.int64)
    rows = n + ((t * ix + K) >> k) - ((t * m + K) >> k)
    cols = np.repeat(ix, 4)
    rws = (rows[:, None] + np.array([-2, -1, 0, 1])).ravel()
    return CellSet(k, np.stack([cols, rws], axis=1))


def naive_tube_average(f, t: int, m: int, n: int) -> float:
    """Average of the grid function f over the digital tube of slope index
    t centered at cell (m, n), summed cell by cell."""
    cells = digital_tube_cells(f.scale, (m, n), t)
    total = sum(f.cell_value(int(i), int(j)) for i, j in cells.idx)
    return total / len(cells.idx)


def brute_sum_multiplicity(intervals, m: int, closed: bool) -> int:
    """Every ordered m-tuple's sum interval in Fractions. The deepest point
    can be taken at a left end: the largest left end of the intervals that
    hold a point lies in all of them."""
    ivs = [(F(a), F(b)) for a, b in intervals]
    sums = [(sum(a for a, _ in t), sum(b for _, b in t)) for t in itertools.product(ivs, repeat=m)]

    def depth(y):
        return sum(lo <= y <= hi if closed else lo <= y < hi for lo, hi in sums)

    return max(depth(y) for y in {lo for lo, _ in sums})
