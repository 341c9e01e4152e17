"""Grid Nikodym/Kakeya maximal operators, bushes, and dual-sum norms.

Direction-restricted maximal averages are realized on 4-delta-wide digital
tubes: for slope index t, the tube centered at cell (m, n) occupies, in each
of the 2^k columns ix in [m - 2^(k-1), m + 2^(k-1)), the four rows
n + sigma(ix) - sigma(m) + {-2, -1, 0, 1} with sigma(ix) = (t*ix + 2^(k-1)) >> k.
All tubes then hold the same cell count, so tube averages are plain sums, and
a per-direction pass reduces to one running row of prefix sums along the
columns, into which each column's sheared rows of f are added in place and
out of which each center's endpoints are read, and one vertical 4-window
sum over all of the direction's windows.

Both operators reduce one pass, _tube_sums: Nikodym by the max over
directions at each cell, Kakeya by the max over cells in each direction.
A pass works only where f's box reaches, the columns it fills and the
band of centers their sheared rows reach: a direction costs time in
proportion to f's box plus that band (2^k times its height), not to
(2^k)^2. It holds f's part as a view, not a copy, one running row, a
buffer of 2^k windows and a block of _PAIR_CELLS pair sums. Values and
sums are float64: exact for integer-valued f, within rounding of the
per-cell sum for float f. A pass refuses a scale before it allocates a
(2^k)^2 grid of more than _MAX_GRID_CELLS cells, and the dual sum one
whose multiplicity histogram could be longer.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from tubelab.core import (
    BOX_DEFAULT,
    BOX_UNIT,
    Box,
    CellSet,
    DyadicScale,
    DyadicTube,
    Measurement,
    sorted_distinct,
)
from tubelab.incidence import TubeFamily, cantor_slope_indices, tube_count_histogram
from tubelab.setgen import frostman_constant

F = Fraction


# ---------------------------------------------------------------------------
# direction sets


_MAX_SLOPE_K = 62  # slope indices t in [-2^k, 2^k) fit int64 up to here


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """Sorted distinct slope indices at one scale, with provenance. indices
    is one read-only int64 array, copied from any integer sequence."""

    scale: DyadicScale
    indices: np.ndarray
    tag: str = "explicit"
    s: float | None = None

    def __post_init__(self):
        k = self.scale.k
        if k > _MAX_SLOPE_K:
            raise ValueError(f"delta 1/{1 << k}: slope indices fit int64 only up to k = {_MAX_SLOPE_K}")
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError(f"slope indices must be integers, got a {idx.ndim}-d {idx.dtype} array")
        n = 1 << k
        if idx.size and (idx.min() < -n or idx.max() >= n):
            raise ValueError("slopes must lie in [-1, 1)")
        idx = idx.astype(np.int64)
        if not np.all(np.diff(idx) > 0):
            raise ValueError("slope indices must be sorted and distinct")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    @staticmethod
    def cantor(s: float, scale: DyadicScale) -> "DirectionSet":
        return DirectionSet(scale, cantor_slope_indices(s, scale.k), "cantor", s)

    def window(self, omega, rho) -> "DirectionSet":
        """The indices t with |t delta - omega| <= rho, by two binary searches."""
        omega, rho, d, n = F(omega), F(rho), self.scale.delta, 1 << self.scale.k
        # clamped into [-n, n], which keeps the searches in int64 and changes neither
        lo, hi = (min(max(v, -n), n) for v in (math.ceil((omega - rho) / d), math.floor((omega + rho) / d)))
        a = np.searchsorted(self.indices, lo, side="left")
        b = np.searchsorted(self.indices, hi, side="right")
        return DirectionSet(self.scale, self.indices[a:b], self.tag, self.s)


# ---------------------------------------------------------------------------
# grid functions


class GridFunction:
    """Nonnegative cell-constant function on any grid-aligned box, 0 off it.

    The operators read f only where their tubes meet its box, so a function
    is stored on its support's box: indicators default to the bounding box
    of their cells. Values are held as float64.
    """

    def __init__(self, scale: DyadicScale, box: Box, values: np.ndarray):
        c0, c1, r0, r1 = box.grid_range(scale.k)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (c1 - c0, r1 - r0):
            raise ValueError(
                f"values shape {values.shape} does not match box grid {(c1 - c0, r1 - r0)}"
            )
        # by reductions, not bool temporaries: a NaN fails the min's test
        if not (values.min(initial=0) >= 0 and np.isfinite(values.max(initial=0))):
            raise ValueError("values must be finite and nonnegative")
        self.scale = scale
        self.box = box
        self.values = values
        self._col0 = c0
        self._row0 = r0

    @staticmethod
    def constant(value, scale: DyadicScale) -> "GridFunction":
        c0, c1, r0, r1 = BOX_DEFAULT.grid_range(scale.k)
        return GridFunction(scale, BOX_DEFAULT, np.full((c1 - c0, r1 - r0), float(value)))

    @staticmethod
    def indicator_cells(scale: DyadicScale, cells) -> "GridFunction":
        """1.0 on the cells, on the cells' bounding box (one zero cell at the
        origin for no cells)."""
        idx = cells.idx if isinstance(cells, CellSet) else np.asarray(list(cells), dtype=np.int64)
        lo, hi = (idx.min(axis=0), idx.max(axis=0) + 1) if len(idx) else ((0, 0), (1, 1))
        d = scale.delta
        box = Box.of(int(lo[0]) * d, int(lo[1]) * d, int(hi[0]) * d, int(hi[1]) * d)
        vals = np.zeros((int(hi[0] - lo[0]), int(hi[1] - lo[1])))
        if len(idx):
            vals[idx[:, 0] - lo[0], idx[:, 1] - lo[1]] = 1
        return GridFunction(scale, box, vals)

    @staticmethod
    def ball_indicator(scale: DyadicScale) -> "GridFunction":
        """1 on the cells whose center ((2i + 1), (2j + 1)) delta/2 lies in the closed
        delta-ball at the origin: (2i + 1)^2 + (2j + 1)^2 <= 4, so i and j are -1 or 0."""
        return GridFunction.indicator_cells(scale, [(-1, -1), (-1, 0), (0, -1), (0, 0)])

    def cell_value(self, i: int, j: int) -> float:
        return float(self.values[i - self._col0, j - self._row0])

    def lp_norm(self, p: float) -> float:
        if not 1 <= p < math.inf:  # NaN fails too
            raise ValueError("p must be >= 1")
        d2 = float(self.scale.delta) ** 2
        # one block of rows at a time, so values**p is never held whole
        v = self.values
        step = max(1, _BLOCK_CELLS // max(1, v.shape[1]))
        blocks = (v[a:a + step] for a in range(0, len(v), step))
        total = sum(float((b**p).sum()) for b in blocks)
        return (total * d2) ** (1.0 / p)

    def max_value(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0


# ---------------------------------------------------------------------------
# the digital tube and the per-direction pipeline


def _sigma(t: int, ix: np.ndarray, k: int) -> np.ndarray:
    return (t * ix + (1 << (k - 1))) >> k


_BLOCK_CELLS = 1 << 18  # bound on the cells of one block of lp_norm and dual_sum_norm
_MAX_GRID_CELLS = 1 << 24  # most cells of a (2^k)^2 grid (k <= 12) or histogram a pass holds
_PAIR_CELLS = 1 << 15  # cells of the pass's pair sums, a block that stays in cache


def _read_part(f: GridFunction) -> tuple:
    """(part, c0, y0, rows): f's part inside the read window, a view of
    f.values, with part[c - c0, y - y0] f at column ix = c - 2^(k-1) and row y.

    The outputs read V4[c, y] = f[ix, y-2] + f[ix, y-1] + f[ix, y] +
    f[ix, y+1], f = 0 off its box, at the columns ix = c - 2^(k-1) in
    [-2^(k-1), 2^k + 2^(k-1)) and the rows y in [-_shear_pad(k), 2^k +
    _shear_pad(k)): a sheared read for |t| <= 2^k moves a row by at most
    that pad. So f's rows from 2 below to 1 above those are read; V4 is 0
    off the rows [rows[0], rows[1]).
    """
    k = f.scale.k
    n = 1 << k
    if n * n > _MAX_GRID_CELLS:
        raise ValueError(f"delta 1/{n}: a {n}x{n} grid would exceed {_MAX_GRID_CELLS} cells")
    K = n >> 1
    pad = _shear_pad(k)
    y0, y1 = -pad, n + pad
    c0, r0 = f._col0, f._row0
    c_lo = max(-K, c0)  # f's columns and rows inside the read window
    c_hi = max(c_lo, min(n + K, c0 + f.values.shape[0]))
    r_lo = max(y0 - 2, r0)
    r_hi = max(r_lo, min(y1 + 1, r0 + f.values.shape[1]))
    part = f.values[c_lo - c0 : c_hi - c0, r_lo - r0 : r_hi - r0]
    rows = (max(y0, r_lo - 1), min(y1, r_hi + 2)) if part.size else (0, 0)
    return part, c_lo + K, r_lo, rows


def _shear_pad(k: int) -> int:
    """The most a sheared read moves a row: |sigma(t, ix) - sigma(t, m)| <=
    2^k + 2^(k-1) for |t| <= 2^k, ix in the read columns and m in [0, 2^k)."""
    return (1 << k) + (1 << (k - 1))


def _windows(a: np.ndarray, L: int) -> np.ndarray:
    """The view w of a with w[..., j, :] = a[..., j : j + L], which writes
    through to a: sliding_window_view along the last axis, without its
    per-call checks."""
    shape = a.shape[:-1] + (a.shape[-1] - L + 1, L)
    return np.lib.stride_tricks.as_strided(a, shape, a.strides + a.strides[-1:])


def _direction_sums(rp: tuple, k: int, t: int, buf: np.ndarray, pair: np.ndarray):
    """(m0, j0, out): out[i, h] is the sum of f over the tube in direction t
    centered at (m0 + i, j0[i] + h); the tube average is that over 4 * 2^k.
    Every center of [0,1)^2 outside these windows has tube sum 0. rp is
    _read_part's; out is a view of buf, and pair is scratch.

    W[c, r] is V4 at column ix = c - 2^(k-1) and row r + lo + sigma(ix), so
    with Q[c] = W[0] + ... + W[c - 1] down the columns, the tube centered at
    (m, j) sums to Q[m + 2^k] - Q[m] at row j - sigma(m) - lo.

    Only the columns [ca, cb) that the part holds add to Q, so Q[c] is 0
    for c <= ca and Q[cb] for c >= cb. W is 0 off the band of rows [ra, rb)
    that the part's V4 rows shear to. So the live centers are the m whose
    tube columns [m, m + 2^k) meet [ca, cb) and whose rows [0, 2^k) meet
    the band; at every other center the sum is 0. Each live center gets a
    window of L = min(rb - ra, 2^k) rows inside [0, 2^k) that holds all its
    band rows; for a function on the whole read window that is every row of
    every center. sigma is monotone in ix, so these bounds come from sigma
    at the ends of f's columns and of the centers, and the live centers
    are one run, found by bisection.

    Q is kept as Qf, the same prefix sum over f's rows: Q at row r is Qf at
    rows r - 2 .. r + 1 summed. One running row holds Qf on the rows
    [Ra - 2, Rb + 1) that the windows [Ra, Rb) read, and each column adds
    its slice of the part into it in place. When it holds Qf[m], its window
    of L + 3 rows is copied into out[m], and when it holds Qf[m + 2^k],
    out[m] is subtracted from it in place; after the last column it holds
    Qf[cb], which the centers with m + 2^k > cb take. The 4-sums of all
    windows are then taken on the flat buffer, by pair sums into pair and
    their pairs back into buf: exact for integer-valued f (partial sums are
    integers below 2^53), and within rounding of the per-cell sum for float f.
    """
    n = 1 << k
    K = n >> 1
    t = int(t)
    part, ca, y0, (ya, yb) = rp
    cb = min(ca + len(part), 2 * n - 1)  # the last column feeds only Q[2n], never read

    def sig(c):  # sigma at column c
        return _sigma(t, c - K, k)

    none = 0, np.zeros(0, dtype=np.int64), buf[:0].reshape(0, 0)
    if ca >= cb or not part.size:
        return none
    lo, hi = -max(sig(K), sig(K + n - 1)), n - min(sig(K), sig(K + n - 1))  # centers m in [0, n)
    ra = max(0, ya - lo - max(sig(ca), sig(cb - 1)))
    rb = min(hi - lo, yb - lo - min(sig(ca), sig(cb - 1)))
    if ra >= rb:
        return none
    # start(m) = -sig(m + K) - lo, the Q row of center (m, 0), lies in
    # (ra - n, rb) for the live m; d * sig is nondecreasing in m
    d = 1 if t >= 0 else -1
    below, above = sorted((d * (-lo - rb), d * (n - lo - ra)))
    cand = range(max(0, ca - n + 1), min(n, cb))
    m0 = cand.start + bisect.bisect_right(cand, below, key=lambda m: d * sig(m + K))
    m1 = cand.start + bisect.bisect_left(cand, above, key=lambda m: d * sig(m + K))
    if m0 >= m1:
        return none
    L = min(rb - ra, n)
    start = -_sigma(t, np.arange(m0, m1), k) - lo
    win = np.minimum(np.maximum(start, ra), start + n - L)  # each window's first Q row
    Ra, Rb = int(win.min()), int(win.max()) + L
    q = np.zeros(Rb - Ra + 3)  # Qf on the rows [Ra - 2, Rb + 1)
    at, W, live = win - Ra, L + 3, m1 - m0
    o = buf[: live * W]
    out = o.reshape(live, W)
    out[: max(0, ca + 1 - m0)] = 0  # Q[m] for m <= ca
    # q[j] takes the part's row j + y in column ca + i, for j in [a, b)
    first = _sigma(t, np.arange(ca - K, cb - K), k) + (lo + Ra - 2 - y0)
    ja, jb = np.maximum(-first, 0), np.minimum(part.shape[1] - first, len(q))
    w = at.tolist()
    for i, (y, a, b) in enumerate(zip(first.tolist(), ja.tolist(), jb.tolist())):
        if a < b:
            r = q[a:b]
            r += part[i, a + y : b + y]  # q = Qf[ca + i + 1]
        m = ca + i + 1 - m0
        if 0 <= m < live:
            out[m] = q[w[m] : w[m] + W]
        m -= n
        if 0 <= m < live:
            r = out[m]
            np.subtract(q[w[m] : w[m] + W], r, out=r)
    a = max(cb + 1 - n, m0) - m0  # Qf[m + n] = Qf[cb] for m + n > cb
    if a < live:
        np.subtract(_windows(q, W)[at[a:]], out[a:], out=out[a:])
    # one block of the flat windows at a time, while it is in cache; a
    # row's last 3 sums mix with the next row's and are never read
    for j in range(0, len(o) - 3, len(pair) - 2):
        s = pair[: min(len(pair), len(o) - 1 - j)]
        np.add(o[j : j + len(s)], o[j + 1 : j + 1 + len(s)], out=s)
        np.add(s[:-2], s[2:], out=o[j : j + len(s) - 2])
    return m0, win - start, out[:, :L]


def _tube_sums(f: GridFunction, theta: DirectionSet):
    """For each slope index of theta in order, the live windows of f's tube
    sums over the centers of [0,1)^2, as _direction_sums gives them, in a
    buffer and a block of pair sums reused by every direction. The
    windows of a direction are at most 2^k centers by L + 3 rows, and L, the
    band's height capped at 2^k, is less than the part's V4 rows plus its
    columns."""
    if f.scale != theta.scale:
        raise ValueError("scale mismatch between function and direction set")
    if not len(theta):
        raise ValueError("empty direction set")
    n = 1 << theta.scale.k
    part, _, _, (ya, yb) = rp = _read_part(f)
    buf = np.empty(n * (min(n, yb - ya + len(part)) + 3))
    pair = np.empty(min(len(buf), _PAIR_CELLS))
    for t in theta.indices:
        yield _direction_sums(rp, theta.scale.k, t, buf, pair)


def nikodym_apply(f: GridFunction, theta: DirectionSet) -> GridFunction:
    """Largest tube average over the direction set, at every cell of [0,1)^2."""
    n = 1 << theta.scale.k
    best = None  # one grid, made once the pass has checked the scale
    for m0, j0, cur in _tube_sums(f, theta):
        if best is None:
            best = np.zeros((n, n))
        # the running max over each direction's windows
        if cur.shape[1] == n:  # whole rows, so j0 is 0
            dst = best[m0 : m0 + len(cur)]
            np.maximum(dst, cur, out=dst)
        elif cur.size:
            rows = _windows(best, cur.shape[1])
            at = np.arange(m0, m0 + len(cur)), j0
            rows[at] = np.maximum(rows[at], cur)
    # dividing by a positive constant is monotone, so it commutes with the max
    best /= 4 << theta.scale.k
    return GridFunction(theta.scale, BOX_UNIT, best)


def kakeya_apply(f: GridFunction, theta: DirectionSet) -> np.ndarray:
    """Best tube average over [0,1)^2 centers per direction, in theta's order."""
    cells = 4 << theta.scale.k
    return np.array([float(s.max(initial=0)) / cells for *_, s in _tube_sums(f, theta)], dtype=np.float64)


# ---------------------------------------------------------------------------
# bushes


@dataclass(frozen=True)
class BushCore:
    """Slope-aligned parallelogram |x| <= x_half, |y - slope*x - y_center| <= y_half."""

    slope: Fraction
    y_center: Fraction
    x_half: Fraction
    y_half: Fraction

    def area(self) -> Fraction:
        return 4 * self.x_half * self.y_half

    def vertices(self) -> list:
        out = []
        for sx in (-1, 1):
            for sy in (-1, 1):
                x = sx * self.x_half
                out.append((x, self.slope * x + self.y_center + sy * self.y_half))
        out.extend((F(0), self.y_center + sy * self.y_half) for sy in (-1, 1))
        return out

    def cells(self, scale: DyadicScale) -> list:
        """Cells overlapping the core with positive area."""
        d = scale.delta
        out = []
        i_lo = math.floor(-self.x_half / d)
        i_hi = math.ceil(self.x_half / d) - 1
        for i in range(i_lo, i_hi + 1):
            x_lo, x_hi = max(i * d, -self.x_half), min((i + 1) * d, self.x_half)
            if x_lo >= x_hi:
                continue
            ys = (self.slope * x_lo, self.slope * x_hi)
            y_lo = min(ys) + self.y_center - self.y_half
            y_hi = max(ys) + self.y_center + self.y_half
            for j in range(math.floor(y_lo / d), math.ceil(y_hi / d)):
                out.append((i, j))
        return out

    def indicator(self, scale: DyadicScale) -> GridFunction:
        return GridFunction.indicator_cells(scale, self.cells(scale))


@dataclass(frozen=True)
class BushPair:
    """A bush's certified core and the window of directions whose tubes,
    all through the origin, contain it."""

    core: BushCore
    window: DirectionSet
    meta: dict = field(compare=False, default_factory=dict)


def bush_construction(theta: DirectionSet, omega, rho) -> BushPair:
    """The core shared by the direction-set tubes through the origin with
    slope within rho of omega (the window).

    The core is a certified parallelogram: every vertex lies in every
    window tube DyadicTube(k, t, 0), by exact rational membership in the
    first and last of them, which bind the rest; no other tube is built.
    Its inscribed slope-aligned rectangle of dimensions
    (delta/(4 rho)) x (delta/4) is certified by rational envelope bounds
    when the window geometry allows, and reported in meta["rect_certified"].
    """
    scale = theta.scale
    d = scale.delta
    omega, rho = F(omega), F(rho)
    if rho < d:
        raise ValueError("rho must be at least delta")
    win = theta.window(omega, rho)
    if not len(win):
        raise ValueError("empty direction window")
    t0, t1 = int(win.indices[0]), int(win.indices[-1])  # Python ints for the exact Fraction code
    a_min, a_max = t0 * d, t1 * d
    spread = a_max - a_min  # slope spread of the window
    mid = (a_min + a_max + d) / 2
    # sqrt(1+mid^2) bounded above by 1 + mid^2/2, its reciprocal below by
    # 1 - mid^2/2 + 3 mid^4/8 (both rational), for the inscribed rectangle
    # of dimensions (delta/(4 rho)) x (delta/4).
    s_up = 1 + mid * mid / 2
    r_inv = 1 - mid * mid / 2 + 3 * mid**4 / 8
    w_half, l_half = d / 8, d / (8 * rho)
    # The tubes share offset 0, so at a fixed x both section bounds are
    # monotone in the slope a: [a x, (a+d)x + d) for x > 0, ((a+d)x, a x + d)
    # for x < 0, and [0, d) at x = 0. A point in the first and the last
    # window tube is therefore in every tube between them.
    ends = (DyadicTube(scale.k, t0, 0), DyadicTube(scale.k, t1, 0))
    candidates = []
    for num in range(6, 0, -1):
        x_half = min(F(num, 8) * d / (spread + d), F(1, 4))
        y_half = (d + (d - spread) * x_half) / 2 if spread < d else (d - (spread - d) * x_half) / 2
        y_half = min(y_half * F(7, 8), 3 * d / 8)
        if y_half <= 0:
            continue
        cand = BushCore(mid, d / 2, x_half, y_half)
        if all(t.contains(x, y) for x, y in cand.vertices() for t in ends):
            rect_ok = (w_half * s_up <= y_half) and (
                (l_half + w_half * abs(mid)) * r_inv <= x_half
            )
            candidates.append((cand, rect_ok))
            if rect_ok:
                break
    if not candidates:
        raise RuntimeError("could not certify a bush core")
    # the loop stops at the first certified rectangle
    core, rect_ok = candidates[-1] if candidates[-1][1] else candidates[0]

    area = core.area()
    meta = {
        "core_area": area,
        "c0_core": float(area * rho / (d * d)),
        "rect_certified": bool(rect_ok),
        "rect_dims": (float(d / (4 * rho)), float(d / 4)),
    }
    return BushPair(core, win, meta)


# ---------------------------------------------------------------------------
# norms


def norm_ratio(f: GridFunction, theta: DirectionSet, p: float, operator: str) -> float:
    """||op f||_p / ||f||_p.

    Nikodym output is measured over [0,1)^2. The Kakeya norm weighs each
    direction by mu: delta^s for tagged direction sets (Frostman
    normalization), else 1/|Theta|.
    """
    fnorm = f.lp_norm(p)
    if fnorm == 0:
        raise ValueError("f is identically zero")
    if operator == "nikodym":
        return nikodym_apply(f, theta).lp_norm(p) / fnorm
    if operator == "kakeya":
        return kakeya_norm(kakeya_apply(f, theta), theta, p) / fnorm
    raise ValueError(f"unknown operator: {operator!r}")


def kakeya_norm(values: np.ndarray, theta: DirectionSet, p: float) -> float:
    """L^p(mu) norm over directions of kakeya_apply's per-direction values,
    with mu as in norm_ratio."""
    if not 1 <= p < math.inf:
        raise ValueError("p must be >= 1")
    if not len(theta):
        raise ValueError("empty direction set")
    if len(values) != len(theta):
        raise ValueError(f"{len(values)} values for {len(theta)} directions")
    w = float(theta.scale.delta) ** theta.s if theta.s is not None else 1.0 / len(theta)
    total = sum(v ** p * w for v in values.tolist())
    return total ** (1.0 / p)


def _hist_lp(counts: np.ndarray, pprime: float, delta: float) -> float:
    """L^p' norm of a multiplicity grid, from its tube_count_histogram."""
    vals = np.arange(len(counts), dtype=np.float64)
    total = float((counts[1:] * vals[1:] ** pprime).sum()) * delta * delta
    return total ** (1.0 / pprime)


class Assignment(Mapping):
    """The aim-at-origin assignment, held by theta's indices idx and its rule.

    With n = 2^k, cell (i, j) of the unit square takes the tube through its
    center with the t in theta minimizing |t(2i+1) - n(2j+1)| (no ties: u = 2i+1
    is odd, so (t+t')u = 2n(2j+1) would make t+t' a nonzero multiple of 2n in
    (-2n, 2n)) and offset b = floor((n(2j+1) - t(2i+1)) / (2n)). As a Mapping
    from (i, j) it builds that tube on access, like the equal dict.
    """

    __slots__ = ("k", "idx")

    def __init__(self, theta: DirectionSet):
        if not len(theta):
            raise ValueError("empty direction set")
        self.k, self.idx = theta.scale.k, theta.indices

    def _runs(self, cols):
        """(lo, hi, c), each (len(idx), len(cols)): in column i, idx[q] takes rows
        [lo, hi), cut where 2n(2j+1) passes (idx[q-1] + idx[q])(2i+1), at offsets row + c."""
        n, t = 1 << self.k, self.idx[:, None]
        u = 2 * np.asarray(cols, dtype=np.int64)[None, :] + 1
        cuts = np.minimum(np.maximum(((t[:-1] + t[1:]) * u - 2 * n) // (4 * n) + 1, 0), n)
        return np.concatenate([0 * u, cuts]), np.concatenate([cuts, 0 * u + n]), (n - t * u) // (2 * n)

    def __getitem__(self, cell) -> DyadicTube:
        i, j = cell
        if not (0 <= i < 1 << self.k and 0 <= j < 1 << self.k):
            raise KeyError(cell)
        _, hi, c = self._runs([i])
        q = int(np.searchsorted(hi[:, 0], j, side="right"))  # the run holding row j
        return DyadicTube(self.k, int(self.idx[q]), j + int(c[q, 0]))

    def __iter__(self):
        return ((i, j) for i in range(1 << self.k) for j in range(1 << self.k))

    def __len__(self) -> int:
        return 1 << (2 * self.k)


def dual_sum_norm(asg: Assignment, pprime: float) -> Measurement:
    """L^p' norm of the assignment's summed tube indicators over the slab
    x in [0,1), with the largest (vertical) cell-to-tube distance in units of
    delta as details["A"]. Each distinct tube counts once, weighted by its cells:
    a run of rows [lo, hi) of idx[q] adds 1 to offsets [lo + c, hi + c), in a
    difference array keyed by q 4n + offset + n (offsets lie in [-n, 2n))."""
    if not 1 <= pprime < math.inf:
        raise ValueError("p' must be >= 1")
    k, idx, n = asg.k, asg.idx, 1 << asg.k
    # the n^2 cells each add 1 to one of the 3n offsets of their slope, so
    # sum_q max w >= n/3 and the guard below refuses this n after its walk
    if 4 * n >= 3 * _MAX_GRID_CELLS:
        raise ValueError(f"delta 1/{n}: a multiplicity histogram of at least {4 * -(-n // 3) + 1} "
                         f"entries would exceed {_MAX_GRID_CELLS}")
    base = (np.arange(len(idx), dtype=np.int64) * (4 * n) + n)[:, None]
    keys, steps, a_max = np.zeros(0, dtype=np.int64), np.zeros(0), 0
    step = max(1, _BLOCK_CELLS // len(idx))
    for i0 in range(0, n, step):
        cols = np.arange(i0, min(i0 + step, n))
        lo, hi, c = asg._runs(cols)
        run, u = lo < hi, 2 * cols + 1
        # the section's low end less the center's y, in units of delta^2/2, is
        # t u + 2n (b - j) - n, constant along a run; the section is u + 2n tall
        e = idx[:, None] * u + (2 * n) * c - n
        a_max = max(a_max, int(e[run].max()), int((-e - u)[run].max()) - 2 * n)
        edges = np.concatenate([keys, (base + lo + c)[run], (base + hi + c)[run]])
        keys, inv = np.unique(edges, return_inverse=True)
        steps = np.bincount(inv, np.concatenate([steps, np.repeat([1.0, -1.0], run.sum())]))
    depth = np.cumsum(steps)[:-1].astype(np.int64)  # cells of each offset in [keys[s], keys[s+1])
    start, length, w = (a[depth > 0] for a in (keys[:-1], np.diff(keys), depth))
    q = start // (4 * n)
    # a tube's hull over a column is under 3 rows tall, so a cell meets at
    # most 4 offsets of a slope: 4 sum_q max w bounds the top multiplicity
    top = 4 * int(np.maximum.reduceat(w, np.flatnonzero(np.diff(q, prepend=-1))).sum())
    if top >= _MAX_GRID_CELLS:
        raise ValueError(f"delta 1/{n}: a multiplicity histogram of up to {top + 1} "
                         f"entries would exceed {_MAX_GRID_CELLS}")
    # each stretch [start, start + length) of equal depth w expands to its tubes' keys
    tube = np.repeat(start - np.cumsum(length) + length, length) + np.arange(int(length.sum()))
    hist = tube_count_histogram(idx[tube // (4 * n)], tube % (4 * n) - n, k, weights=np.repeat(w, length))
    details = {"A": a_max / float(2 << k), "max_multiplicity": len(hist) - 1, "pprime": pprime}
    return Measurement(_hist_lp(hist, pprime, float(F(1, n))), details)


def tube_sum_norm(family: TubeFamily, pprime: float) -> Measurement:
    """L^p' norm of the family's summed indicators, with the density bound.

    Requires one tube per direction. The norm integrates over the slab
    x in [0,1). The comparison bound is C^(1/p) * delta^(2/p') * |F| with C
    the Frostman constant of the slope set at exponent s = 1/(p' - 1)
    (so p = 1 + s is the conjugate exponent).
    """
    if not 1 < pprime < math.inf:
        raise ValueError("p' must exceed 1")
    slopes = sorted_distinct(family.t)
    if len(slopes) != len(family):
        raise ValueError("duplicate directions in the family")
    k = family.scale.k
    delta = float(family.scale.delta)
    s = 1.0 / (pprime - 1.0)
    p = 1.0 + s
    hist = tube_count_histogram(family.t, family.b, k)
    value = _hist_lp(hist, pprime, delta)
    c = float(frostman_constant(slopes / (1 << k), s, family.scale))
    bound = c ** (1.0 / p) * delta ** (2.0 / pprime) * len(family)
    return Measurement(
        value,
        {"bound": bound, "ratio": value / bound, "frostman": c, "p": p, "s": s},
    )


def aim_at_origin_assignment(theta: DirectionSet) -> Assignment:
    """Adversarial assignment of theta, held by its rule: see Assignment."""
    return Assignment(theta)


# ---------------------------------------------------------------------------
# exponent fitting


class ExponentFit(NamedTuple):
    beta: float
    residual: float


def exponent_fit(samples) -> ExponentFit:
    """OLS slope of log(value) against log(1/delta)."""
    pts = [(float(d.delta if isinstance(d, DyadicScale) else d), float(v)) for d, v in samples]
    if len(pts) < 3:
        raise ValueError("need at least 3 samples")
    if len({d for d, _ in pts}) < 2:
        raise ValueError("need at least 2 distinct delta values")
    if any(v <= 0 for _, v in pts):
        raise ValueError("values must be positive")
    x = np.log([1.0 / d for d, _ in pts])
    y = np.log([v for _, v in pts])
    beta, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (beta * x + intercept)) ** 2)))
    return ExponentFit(float(beta), resid)
