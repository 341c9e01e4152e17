"""Homogeneous Moran sets, dimension estimators, and low-energy interval families.

Moran constructions live on the base interval [-1/2, 1/2] with exact
rational endpoints. All covering-style estimators count with closed balls
(greedy left-to-right sweep, which is exactly optimal in one dimension);
window positions and radii range over dyadic values, so the supremum they
estimate is approximated within a bounded factor per scale, never exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from tubelab.core import DyadicScale, sorted_distinct

F = Fraction

BASE_LEFT = F(-1, 2)

# max Minkowski sums of one fold: the earlier folds materialize at most this
# many merged rows, the last is swept in windows, and all overflow past it
_FOLD_CAP = 1 << 22
_MAX_INTERVALS = 1 << 21  # most intervals one generation of build_moran may hold


# --------------------------------------------------------------------- specs


class MoranSpec:
    """Per-level data for a Moran construction on [-1/2, 1/2].

    n(k), c(k), offsets(k) give, for level k >= 1, the child count, the
    contraction ratio, and the child placement. offsets(k) is one sorted
    layout of positions in [0, 1 - c_k], as fractions of the parent length,
    shared by every parent of the level. levels is the number of levels the
    contractions are listed for, or None when every level has one.
    moran_spec_from_config builds a spec from [moran] text.
    """

    def __init__(self, n: Callable[[int], int], c: Callable[[int], Fraction],
                 offsets: Callable[[int], Sequence[Fraction]], levels: int | None = None):
        self.n = n
        self.c = c
        self.offsets = offsets
        self.levels = levels

    def level(self, k: int) -> tuple[int, Fraction, tuple[Fraction, ...]]:
        """(n_k, c_k, offsets_k), validated; the layout is read only once
        n_k and c_k have passed."""
        n_k, c_k = self.n(k), self.c(k)
        if n_k < 2:
            raise ValueError(f"level {k}: need n_k >= 2, got {n_k}")
        if not (0 < c_k < 1):
            raise ValueError(f"level {k}: contraction {c_k} outside (0,1)")
        if n_k * c_k >= 1:
            raise ValueError(f"level {k}: n_k * c_k = {n_k * c_k} >= 1")
        off = tuple(self.offsets(k))
        if len(off) != n_k:
            raise ValueError(f"level {k}: {len(off)} offsets for n_k = {n_k}")
        if any(b <= a for a, b in zip(off, off[1:])):
            raise ValueError(f"level {k}: offsets not strictly sorted")
        if off[0] < 0 or off[-1] > 1 - c_k:
            raise ValueError(f"level {k}: offsets outside [0, 1 - c_k]")
        for a, b in zip(off, off[1:]):
            if b - a <= c_k:
                raise ValueError(f"level {k}: children overlap (offset gap {b - a} <= c_k = {c_k})")
        return n_k, c_k, off


# ---------------------------------------------------------------- moran sets

# Level numerators are int64 while the level denominator stays below this
# bound: every numerator of a point of [-1/2, 1/2], and every gap-endpoint
# sum, is then at most the denominator in magnitude. Past it, Python ints.
_INT64_DEN_LIMIT = 1 << 62
_FLOAT_EXACT = 1 << 53  # integers below it are exact doubles


class _Level(NamedTuple):
    """One generation on the integer lattice 1/den: every point is num/den."""

    den: int            # common denominator of the level
    length: int         # interval length numerator
    lefts: np.ndarray   # sorted left-endpoint numerators
    gap_lo: np.ndarray  # removed open gaps (gap_lo[i], gap_hi[i]), sorted
    gap_hi: np.ndarray


def _fractions(nums: np.ndarray, den: int) -> list[Fraction]:
    return [F(v, den) for v in nums.tolist()]


class MoranSet:
    """Interval tree of a Moran construction, materialized to generation K.

    Level k holds intervals of exact length c_1 * ... * c_k, each nested in
    its level k-1 parent. Removed gaps (the maximal open intervals of
    E_{k-1} minus E_k) are stored per level. Each level is kept as integer
    numerators over one common denominator (midpoints over twice it);
    Fractions are made only when a method returns them.
    """

    def __init__(self, spec: MoranSpec, K: int, levels: list[_Level]):
        self.spec = spec
        self.K = K
        self._levels = levels

    def interval_count(self, k: int) -> int:
        return len(self._level(k).lefts)

    def length(self, k: int) -> Fraction:
        lev = self._level(k)
        return F(lev.length, lev.den)

    def lefts(self, k: int) -> list[Fraction]:
        lev = self._level(k)
        return _fractions(lev.lefts, lev.den)

    def endpoint_lattice(self, k: int) -> tuple[np.ndarray, int]:
        """(numerators, den) of the sorted generation-k interval endpoints."""
        lev = self._level(k)
        # siblings are strictly separated, so interleaving is strictly increasing
        ends = np.empty(2 * len(lev.lefts), dtype=lev.lefts.dtype)
        ends[0::2] = lev.lefts
        ends[1::2] = lev.lefts + lev.length
        return ends, lev.den

    def endpoints(self, k: int) -> list[Fraction]:
        """Sorted endpoints of the generation-k intervals."""
        return _fractions(*self.endpoint_lattice(k))

    def endpoint_values(self, k: int) -> np.ndarray:
        """endpoints(k) as float64, each the double nearest the exact value."""
        ends, den = self.endpoint_lattice(k)
        if den < _FLOAT_EXACT:
            # numerators and den convert exactly, and one division rounds once
            return ends / den
        return np.array([v / den for v in ends.tolist()], dtype=np.float64)

    def removed_intervals(self, k: int) -> list[tuple[Fraction, Fraction]]:
        lev = self._level(k)
        return list(zip(_fractions(lev.gap_lo, lev.den), _fractions(lev.gap_hi, lev.den)))

    def all_midpoints(self) -> list[Fraction]:
        # every level denominator divides the deepest one
        top = self._levels[self.K]
        sums = [
            (lev.gap_lo + lev.gap_hi).astype(top.lefts.dtype) * (top.den // lev.den)
            for lev in self._levels
        ]
        return _fractions(np.sort(np.concatenate(sums)), 2 * top.den)

    def _level(self, k: int) -> _Level:
        if not (0 <= k <= self.K):
            raise ValueError(f"generation {k} outside built depth {self.K}")
        return self._levels[k]


def build_moran(spec: MoranSpec, K: int) -> MoranSet:
    """Materialize the construction to generation K with exact endpoints.

    Each generation refines the previous lattice by the least factor that
    puts every child offset and the child length on it; parents and their
    children are then shifted integer arrays.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    none = np.zeros(0, dtype=np.int64)
    levels = [_Level(2, 2, np.array([-1], dtype=np.int64), none, none)]  # [-1/2, 1/2]
    for k in range(1, K + 1):
        n_k, c_k, off = spec.level(k)
        par = levels[-1]
        if len(par.lefts) * n_k > _MAX_INTERVALS:
            raise ValueError(f"generation {k} would exceed {_MAX_INTERVALS} intervals")
        # offsets and child length in parent-lattice units, then the refinement
        rel = [o * par.length for o in off]
        child = c_k * par.length
        q = math.lcm(child.denominator, *(x.denominator for x in rel))
        den = par.den * q
        dtype = np.int64 if den < _INT64_DEN_LIMIT else object
        span = par.length * q
        length = int(child * q)
        parents = par.lefts.astype(dtype)[:, None] * q
        offs = np.array([int(x * q) for x in rel], dtype=dtype)
        # candidate gaps per parent: left sliver, between siblings, right sliver
        lo = np.concatenate([np.zeros(1, dtype=dtype), offs + length])
        hi = np.concatenate([offs, np.full(1, span, dtype=dtype)])
        keep = lo < hi
        lo, hi = (parents + lo[keep]).ravel(), (parents + hi[keep]).ravel()
        levels.append(_Level(den, length, (parents + offs).ravel(), lo, hi))
    return MoranSet(spec, K, levels)


def check_gcs(m: MoranSet) -> dict:
    """End-point flushness and the per-level ratio log c_k / log(c_1...c_k).

    The ratio sequence tending to 0 is the growth condition needed for the
    convex-domain constructions; at finite depth it is reported as a trend.
    """
    endpoint_ok = True
    ratios = []
    acc = 0.0
    for k in range(1, m.K + 1):
        n_k, c_k, off = m.spec.level(k)
        endpoint_ok = endpoint_ok and off[0] == 0 and off[-1] == 1 - c_k
        lc = math.log(c_k.numerator) - math.log(c_k.denominator)
        acc += lc
        ratios.append(lc / acc)
    return {"endpoint_ok": endpoint_ok, "hrww_ratio": ratios}


def box_dim_ratio(m: MoranSet, k_lo: int, K: int) -> float:
    """log(prod n_k) / -log(prod c_k) over levels k_lo..K (floats at the end)."""
    if not (1 <= k_lo <= K):
        raise ValueError("need 1 <= k_lo <= K")
    if K > m.K:
        raise ValueError(f"generation {K} beyond built depth {m.K}")
    num = 0.0
    den = 0.0
    for k in range(k_lo, K + 1):
        num += math.log(m.spec.n(k))
        c_k = m.spec.c(k)
        den -= math.log(c_k.numerator) - math.log(c_k.denominator)
    return num / den


# ------------------------------------------------------- counting machinery


def _sorted_floats(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        if points.dtype == np.float64 and points.ndim == 1 and (points[1:] >= points[:-1]).all():
            return points
        arr = points.astype(np.float64)
    else:
        arr = np.asarray([float(p) for p in points], dtype=np.float64)
    arr.sort()
    return arr


class BallCounter1D:
    """Greedy closed-ball cover counts over runs of one sorted point set.

    A ball of radius r placed at the leftmost uncovered point x covers
    [x, x + 2r]. The jump to the next uncovered index is binary-lifted in
    int32 tables, table b holding 2^b jumps, kept while 2^b jumps from the
    first point stop short of the end and b <= h = ceil(bit_length(n) / 2).
    Jumps are monotone in the start, float rounding included, so no run of
    the sorted points needs more balls than all of them, and a table whose
    first entry is the end holds only the end. The min(L, h + 1) tables
    kept, L = (tot - 1).bit_length() for a whole-set cover of tot balls,
    count up to 2^L balls by descent. When the cover outgrows 2^(h + 1)
    balls, a run first strides by table h while it lands before its end,
    at most n / 2^h < 2^floor(bit_length(n) / 2) steps, and then descends
    tables h - 1..0 for the fewer than 2^h balls left.
    """

    def __init__(self, xs: np.ndarray, r: float):
        n = len(xs)
        if n >= 1 << 31:
            raise ValueError(f"{n} points: int32 jump tables hold fewer than 2^31")
        self.n = n
        h = (n.bit_length() + 1) // 2
        t = np.empty(n + 1, dtype=np.int32)
        t[n] = n
        for i in range(0, n, 1 << 15):
            x = xs[i : i + (1 << 15)]
            t[i : i + len(x)] = np.searchsorted(xs, x + 2.0 * r, side="right")
        self.tables = []
        while t[0] < n:
            self.tables.append(t)
            if len(self.tables) > h:
                break
            t = t[t]
        # runs stride by table h when the whole cover outgrows 2^(h + 1) balls
        self.stride = len(self.tables) > h and bool(t[t[0]] < n)

    def runs(self, pos: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Ball counts for the index runs [pos, end) of the sorted points."""
        inside = pos < end
        cnt = inside.astype(np.int64)
        pos = np.where(inside, pos, self.n)
        bits = len(self.tables)
        if self.stride:
            bits -= 1
            top, live = self.tables[bits], np.flatnonzero(inside)
            end = np.broadcast_to(end, pos.shape)
            while len(live):
                cand = top[pos[live]]
                ok = cand < end[live]
                live = live[ok]
                pos[live] = cand[ok]
                cnt[live] += 1 << bits
        for b in range(bits - 1, -1, -1):
            cand = self.tables[b][pos]
            ok = cand < end
            pos = np.where(ok, cand, pos)
            cnt += ok.astype(np.int64) << b
        return cnt


def _scale_floor_exponent(delta) -> int:
    """Largest a >= 0 with 2^-a >= delta."""
    if isinstance(delta, DyadicScale):
        return delta.k
    d = F(delta)  # exact for floats too
    if not (0 < d <= 1):
        raise ValueError("delta must be in (0, 1]")
    # 2^-a >= p/q  <=>  2^a <= floor(q/p)
    return (d.denominator // d.numerator).bit_length() - 1


def _delta_value(delta) -> float:
    if isinstance(delta, DyadicScale):
        return float(delta.delta)
    return float(delta)


def _nonempty_windows(xs: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """The index runs [pos, end) of xs in its nonempty dyadic windows of length width."""
    lo = sorted_distinct(np.floor(xs / width)) * width
    return np.searchsorted(xs, lo), np.searchsorted(xs, lo + width)


def _window_maxima(xs: np.ndarray, bmaxes: dict[int, int]):
    """(a, b, max ball count at radius 2^-a over the nonempty dyadic windows
    of length 2^-b) for each a of bmaxes and b = 0..bmaxes[a]; the window
    runs of each width serve every radius, and one counter lives at a time."""
    windows = [_nonempty_windows(xs, 2.0 ** -b) for b in range(max(bmaxes.values()) + 1)]
    for a, bmax in bmaxes.items():
        counter = BallCounter1D(xs, 2.0 ** -a)
        for b, (pos, end) in enumerate(windows[: bmax + 1]):
            yield a, b, int(counter.runs(pos, end).max())
        del counter


def qa_profile(e, gamma: float, delta) -> float:
    """Finite-scale profile max log|E ∩ I|_r / log(R/r).

    The max runs over dyadic r = 2^-a >= delta, dyadic R = 2^-b with
    r <= r^(1-gamma) <= R <= 1, and dyadic windows I of length R. This is
    an estimator of the gamma-profile of E, not the limit dimension.
    """
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    xs = _sorted_floats(e)
    if not len(xs):
        raise ValueError("empty set")
    amax = _scale_floor_exponent(delta)
    if amax < 1:
        raise ValueError("scale range empty")
    bmaxes = {a: min(a - 1, int(math.floor((1.0 - gamma) * a + 1e-9))) for a in range(1, amax + 1)}
    ratios = (math.log2(mx) / (a - b) for a, b, mx in _window_maxima(xs, bmaxes) if mx >= 2)
    return max(ratios, default=0.0)


def regularity_constant(e, s: float, delta) -> float:
    """Minimal C with |E ∩ I|_r <= C (R/r)^s over dyadic scale pairs and windows."""
    if not (0 < s <= 1):
        raise ValueError("s must lie in (0, 1]")
    xs = _sorted_floats(e)
    if not len(xs):
        raise ValueError("empty set")
    maxima = _window_maxima(xs, {a: a for a in range(_scale_floor_exponent(delta) + 1)})
    return max(mx / 2.0 ** ((a - b) * s) for a, b, mx in maxima)


_PAIR_CHUNK = 1 << 19  # bound on the (center, column) pairs of one center block


def _blocks(weights: np.ndarray, cap: int):
    """Consecutive index ranges [i0, i1) whose weights sum to at most cap
    (or one index whose weight alone exceeds it)."""
    cum = np.cumsum(weights)
    i0 = 0
    while i0 < len(cum):
        done = int(cum[i0 - 1]) if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(cum, done + cap, side="right")))
        yield i0, i1
        i0 = i1


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(v)) for int64 v in [0, 2^60]: the double root is off
    by at most one."""
    h = np.sqrt(v.astype(np.float64)).astype(np.int64)
    h -= h * h > v
    h += (h + 1) * (h + 1) <= v
    return h


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges [lo[q], hi[q])."""
    size = hi - lo
    return np.repeat(lo - (np.cumsum(size) - size), size) + np.arange(int(size.sum()))


def _planar_lattice(p: list, delta) -> tuple[np.ndarray, np.ndarray, int]:
    """Distinct points of p as int64 numerators X, Y over 2^k, sorted by
    (X, Y), for delta = 2^-k; the points must lie on the delta-lattice."""
    k = _scale_floor_exponent(delta)
    d = delta.delta if isinstance(delta, DyadicScale) else F(delta)
    exact = (F, int, float)  # the types with an exact as_integer_ratio
    coords = [(c if isinstance(c, exact) else F(c)).as_integer_ratio() for pt in p for c in pt]
    if d != F(1, 1 << k) or any(den & (den - 1) for _, den in coords):
        raise ValueError("planar estimators need a dyadic delta and dyadic points")
    if any(den > 1 << k for _, den in coords):
        raise ValueError(f"planar points must lie on the delta-lattice 2^-{k} Z^2")
    nums = [num << (k + 1 - den.bit_length()) for num, den in coords]
    if k > 30 or max(map(abs, nums)) >> 60:
        raise ValueError("planar points need a lattice 2^-k, k <= 30, and |x|, |y| < 2^(60-k)")
    xy = np.asarray(nums, dtype=np.int64).reshape(-1, 2)
    xy = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    xy = xy[np.r_[True, (xy[1:] != xy[:-1]).any(axis=1)]]
    return xy[:, 0], xy[:, 1], k


def _planar_ball_counter(X: np.ndarray, Y: np.ndarray, k: int):
    """(count, bound, tot): count(a) is the max over centers c in P of the
    delta-cell count of P ∩ B(c, 2^-a), bound(a) >= count(a) the max over c
    of the fewer points of P in c's closed strips |X - Xc| <= R and
    |Y - Yc| <= R (the ball lies in both), tot the delta-cell count of P.

    P is the distinct points (X, Y) / 2^k sorted by (X, Y), delta = 2^-k,
    so each point is its own delta-cell and counts are point counts. The
    points of one abscissa form a column, sorted by Y; a center meets each
    column within R = 2^(k-a) of it in the Y-run [Yc - H, Yc + H] with
    H = isqrt(R^2 - dX^2), read off one sorted table of (column, Y) keys.
    """
    cols, size = np.unique(X, return_counts=True)
    y0 = int(Y.min())
    width = int(Y.max()) - y0 + 1
    if len(cols) * width >> 62:
        raise ValueError("planar points span too many lattice rows for int64 keys")
    col = np.repeat(np.arange(len(cols)), size)
    table = col * width + (Y - y0)  # ascending, as P is sorted by (X, Y)

    def count(a: int) -> int:
        R = 1 << (k - a)
        lo = np.searchsorted(cols, X - R, side="left")
        npairs = np.searchsorted(cols, X + R, side="right") - lo
        best = 0
        for c0, c1 in _blocks(npairs, _PAIR_CHUNK):
            per = npairs[c0:c1]
            start = np.cumsum(per) - per  # each center's first pair in the block
            owner = np.repeat(np.arange(c0, c1), per)
            cidx = np.arange(len(owner)) - np.repeat(start - lo[c0:c1], per)
            dx = cols[cidx] - X[owner]
            h = _isqrt(R * R - dx * dx)
            yc, base = Y[owner] - y0, cidx * width
            s = np.searchsorted(table, base + np.maximum(yc - h, 0), side="left")
            e = np.searchsorted(table, base + np.minimum(yc + h, width - 1), side="right")
            best = max(best, int(np.add.reduceat(e - s, start).max()))  # points per ball
        return best

    Ys = np.sort(Y)

    def bound(a: int) -> int:
        R = 1 << (k - a)
        sx = np.searchsorted(X, X + R, side="right") - np.searchsorted(X, X - R, side="left")
        sy = np.searchsorted(Ys, Y + R, side="right") - np.searchsorted(Ys, Y - R, side="left")
        return int(np.minimum(sx, sy).max())

    return count, bound, len(X)


def _is_planar(p) -> bool:
    first = next(iter(p))
    return isinstance(first, (tuple, list, np.ndarray)) and len(first) == 2


def katz_tao_constant(p, t: float, delta) -> float:
    """Minimal C with |P ∩ B(x,r)|_δ <= C (r/δ)^t, centers in P, dyadic radii.

    P is points on the line, or points of the plane on the δ-lattice δZ^2
    for dyadic δ (finer planar points are refused)."""
    return _ball_ratio_constant(p, delta, lambda count, r, dv, tot: count * (dv / r) ** t)


def frostman_constant(p, s: float, delta) -> float:
    """Minimal C with |P ∩ B(x,r)|_δ <= C r^s |P|_δ, centers in P, dyadic radii.

    P is as for katz_tao_constant."""
    return _ball_ratio_constant(p, delta, lambda count, r, dv, tot: count / (r ** s * tot))


def _line_ball_counter(xs: np.ndarray, dv: float):
    """(count, bound, tot) on the line: count(a) is the max over centers x in
    xs of the dv-ball count of xs ∩ [x - 2^-a, x + 2^-a], bound(a) >= count(a)
    the most points of xs in one such window, capped by tot, the dv-ball
    count of all of xs: a greedy cover of a run of the sorted points needs
    no more balls than it has points, nor than the cover of them all."""
    counter = BallCounter1D(xs, dv)
    tot = int(counter.runs(np.zeros(1, dtype=np.intp), len(xs))[0])

    def windows(a: int) -> tuple[np.ndarray, np.ndarray]:
        r = 2.0 ** -a
        return np.searchsorted(xs, xs - r, side="left"), np.searchsorted(xs, xs + r, side="right")

    def count(a: int) -> int:
        return int(counter.runs(*windows(a)).max())

    def bound(a: int) -> int:
        pos, end = windows(a)
        return min(int((end - pos).max()), tot)

    return count, bound, tot


def _ball_ratio_constant(p, delta, ratio) -> float:
    p = list(p)
    if not p:
        raise ValueError("empty set")
    amax = _scale_floor_exponent(delta)
    dv = _delta_value(delta)
    if _is_planar(p):
        count, bound, tot = _planar_ball_counter(*_planar_lattice(p, delta))
    else:
        count, bound, tot = _line_ball_counter(_sorted_floats(p), dv)
    # count(a) <= bound(a) and ratio is nondecreasing in the count, so a
    # radius whose bound ratio(bound(a), ...) is at most the best ratio so
    # far cannot raise it: visit the radii by descending bound, stop at the
    # first such
    bounds = {a: ratio(bound(a), 2.0 ** -a, dv, tot) for a in range(amax + 1)}
    best = 0.0
    for a in sorted(bounds, key=bounds.get, reverse=True):
        if bounds[a] <= best:
            break
        best = max(best, ratio(count(a), 2.0 ** -a, dv, tot))
    return best


# ------------------------------------------------------------ sum structure


@dataclass(frozen=True)
class IntervalFamily:
    """Sorted closed intervals with rational endpoints."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ivs = tuple(sorted((F(a), F(b)) for a, b in self.intervals))
        for a, b in ivs:
            if b < a:
                raise ValueError("interval with b < a")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self):
        return len(self.intervals)

    def separated_by(self, gap: Fraction) -> bool:
        ivs = self.intervals
        return all(b[0] - a[1] >= gap for a, b in zip(ivs, ivs[1:]))


class MultiplicityOverflow(ValueError):
    """An exact m-fold sum fold would exceed its row cap or int64."""


def sum_multiplicity(intervals, m: int, closed: bool = True) -> int:
    """Exact max over y of the number of ordered m-tuples with y in I_1+...+I_m.

    intervals is an IntervalFamily or (lo, hi) pairs, closed when closed=True
    (separated families) and half-open [lo, hi) otherwise (abutting caps).
    Endpoints are rescaled to a common integer denominator, on which closed
    [a, b] covers the points of half-open [a, b + 1). Each of the first m - 2
    folds adds one summand and merges equal sum intervals with weights, so it
    materializes at most _FOLD_CAP rows; the last fold is never materialized
    but swept for its max overlap depth in coordinate windows (_swept_depth).
    Every fold, the last one included, that would make more than _FOLD_CAP
    sums raises MultiplicityOverflow, which points to the per-level product bound.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if isinstance(intervals, IntervalFamily):
        intervals = intervals.intervals
    if not intervals:
        raise ValueError("empty interval family")
    if len(intervals) ** m > np.iinfo(np.int64).max:  # the tuple weights are int64
        raise MultiplicityOverflow(f"{len(intervals)}^{m} tuples overflow int64 weights")
    fr = [F(x) for ab in intervals for x in ab]
    den = math.lcm(*(x.denominator for x in fr))
    ends = [int(x * den) for x in fr]
    if max(map(abs, ends)) > (1 << 60) // m:
        raise MultiplicityOverflow("denominators too large for exact integer sums")
    lo0, hi0 = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    lo, hi, w = lo0, hi0, np.ones(len(lo0), dtype=np.int64)
    # the last fold reads |(m-1)A| >= (m-1)(|A|-1)+1 rows, A the left ends (Cauchy-Davenport)
    last = (m - 1) * (len(sorted_distinct(lo0)) - 1) + 1
    for fold in range(1, m):
        if max(len(lo), last) * len(lo0) > _FOLD_CAP:
            raise MultiplicityOverflow(
                f"{max(len(lo), last)} x {len(lo0)} sum intervals exceed the fold cap; "
                "use moran_sum_multiplicity_bound for the per-level product bound"
            )
        if fold == m - 1:
            break
        nl = (lo[:, None] + lo0[None, :]).ravel()
        nh = (hi[:, None] + hi0[None, :]).ravel()
        nw = np.repeat(w, len(lo0))
        order = np.lexsort((nh, nl))
        nl, nh, nw = nl[order], nh[order], nw[order]
        new_group = np.empty(len(nl), dtype=bool)
        new_group[0] = True
        new_group[1:] = (nl[1:] != nl[:-1]) | (nh[1:] != nh[:-1])
        starts = np.flatnonzero(new_group)
        lo, hi = nl[starts], nh[starts]
        w = np.add.reduceat(nw, starts)
    if m == 1:  # the family itself is the last fold, added to the empty sum
        lo0 = hi0 = np.zeros(1, dtype=np.int64)
    return _swept_depth(lo, hi, w, lo0, hi0 + closed)  # closed [a, b] as [a, b + 1)


_SWEEP_CHUNK = 1 << 16  # bound on the sum endpoints of one window of the last fold


def _swept_depth(lo, hi, w, lo0, hi0) -> int:
    """Max over y of the weight of the half-open sums [lo[g] + lo0[i],
    hi[g] + hi0[i]) that hold y, without materializing those sums.

    The rows g are sorted once by lo and once by hi, with prefix weights.
    In a window [y0, y1) of y the opens of base interval i are one index
    range of the lo order, and its closes one range of the hi order, found
    by searchsorted; the depth carried in at y0 is the prefix weights read
    at the range starts. Each window holds at most _SWEEP_CHUNK ends, or
    the ends of one coordinate. The deepest point is an open, so the sweep
    stops past the last one.
    """
    by_lo, by_hi = np.argsort(lo), np.argsort(hi)
    los, his, wlo, whi = lo[by_lo], hi[by_hi], w[by_lo], w[by_hi]
    plo = np.concatenate([[0], np.cumsum(wlo)])
    phi = np.concatenate([[0], np.cumsum(whi)])

    def cut(y: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Per base interval, the first open and first close at or past y,
        and the number of ends below y."""
        a, b = np.searchsorted(los, y - lo0), np.searchsorted(his, y - hi0)
        return a, b, int(a.sum() + b.sum())

    y0, end = int(los[0] + lo0.min()), int(los[-1] + lo0.max()) + 1
    a, b, below = cut(y0)
    best, width = 0, end - y0
    while y0 < end:
        # gallop from the last window's width (the first tries the whole
        # range): double while the window fits, halve until it fits or is
        # one coordinate wide. Each try is a searchsorted per base interval,
        # so a fresh bisection over a range of ~2^40 coordinates would cost
        # ~40 tries per window; neighbouring windows have similar widths
        y1 = min(y0 + width, end)
        a1, b1, below1 = cut(y1)
        if below1 - below <= _SWEEP_CHUNK:
            while y1 < end:
                y2 = min(y0 + 2 * (y1 - y0), end)
                a2, b2, below2 = cut(y2)
                if below2 - below > _SWEEP_CHUNK:
                    break
                y1, a1, b1, below1 = y2, a2, b2, below2
        else:
            while y1 - y0 > 1 and below1 - below > _SWEEP_CHUNK:
                y1 = y0 + (y1 - y0) // 2
                a1, b1, below1 = cut(y1)
        if below1 > below:
            opens, closes = _ranges(a, a1), _ranges(b, b1)
            at = np.concatenate([los[opens] + np.repeat(lo0, a1 - a), his[closes] + np.repeat(hi0, b1 - b)])
            order = np.argsort(at)
            at = at[order]
            depth = np.cumsum(np.concatenate([wlo[opens], -whi[closes]])[order])
            last = np.append(at[1:] != at[:-1], True)  # depth after every end of a coordinate
            carry = int(plo[a].sum() - phi[b].sum())
            best = max(best, carry + int(depth[last].max()))
        width = y1 - y0
        y0, a, b, below = y1, a1, b1, below1
    return best


@functools.lru_cache(maxsize=32)
def _index_multisets(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Multisets of size m from range(n), as an (m, count) array of slot
    indices, with the number of ordered m-tuples each one stands for."""
    rows = list(itertools.combinations_with_replacement(range(n), m))
    weights = [
        math.factorial(m) // math.prod(math.factorial(len(list(g))) for _, g in itertools.groupby(row))
        for row in rows
    ]
    cols = np.array(rows, dtype=np.int64).reshape(-1, m).T
    return np.ascontiguousarray(cols), np.array(weights, dtype=np.int64)


def _slot_sum_depth(ts: np.ndarray, m: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The multiset sums of a slot pattern, its exact sum multiplicity g, and
    the sorted attained starts s0 whose window [s0, s0+m] holds g tuples.

    The sums are in the column order of _index_multisets.
    """
    cols, weights = _index_multisets(len(ts), m)
    sums = ts[cols].sum(axis=0)
    # sort the sums with their weights (at most m!) packed below them
    pack = math.factorial(m) + 1
    key = np.sort(sums * pack + weights)
    ordered = key // pack
    wts = key - ordered * pack
    cum = np.cumsum(wts)
    end = np.searchsorted(ordered, ordered + m, side="right")
    depth = cum[end - 1] - cum + wts  # a repeated sum reads its full window at its first copy
    g = int(depth.max())
    return sums, g, ordered[depth == g]


def _slot_sum_multiplicity(slots: Sequence[int], m: int) -> int:
    """sum_multiplicity for slot-aligned unit intervals [t, t+1], exact.

    The m-fold sums are the closed intervals [s, s+m] with integer s, so the
    deepest overlap is the largest number of ordered tuples whose sum lies
    in a window [s0, s0+m] that starts at an attained sum s0. Tuples are
    counted through multisets of slot indices, weighted by their orderings.
    """
    return _slot_sum_depth(np.asarray(slots, dtype=np.int64), m)[1]


_STEPS = (-2, -1, 1, 2)  # single-slot moves of the family search


def _slot_move_bounds(slots: Sequence[int], m: int) -> np.ndarray:
    """Lower bounds on the sum multiplicity after each single-slot move.

    Entry [i, j] bounds the g of the pattern with slot i moved by _STEPS[j].
    The move shifts the sum of each multiset holding slot i mu times by
    step * mu, at most 2m, and leaves every other sum in place. In each
    deepest window of the current pattern the moved pattern then counts
    g - lost + gained tuples; the max of that over the deepest windows is at
    most the moved g, which is the max over every integer window start. Only
    multisets whose sums lie within 2m of a deepest window can be lost or
    gained there.
    """
    ts = np.asarray(slots, dtype=np.int64)
    cols, weights = _index_multisets(len(ts), m)
    sums, g, deep = _slot_sum_depth(ts, m)
    order = np.argsort(sums)
    ordered = sums[order]
    lo = np.searchsorted(ordered, deep - 2 * m)
    hi = np.searchsorted(ordered, deep + 3 * m, side="right")
    near = order[_ranges(lo, hi)]  # (multiset, deepest window) pairs, window by window
    win = np.repeat(np.arange(len(deep)), hi - lo)
    # one entry per distinct slot of each multiset; rows are sorted, so repeats are adjacent
    sub = cols[:, near]
    first = np.ones(sub.shape, dtype=bool)
    first[1:] = sub[1:] != sub[:-1]
    mu = (sub[:, None, :] == sub[None, :, :]).sum(axis=1)[first]
    win = np.broadcast_to(win, sub.shape)[first]
    at = sums[np.broadcast_to(near, sub.shape)[first]] - deep[win]  # sum - s0
    w = np.broadcast_to(weights[near], sub.shape)[first]
    moved = at[:, None] + np.outer(mu, _STEPS)
    change = ((moved >= 0) & (moved <= m)).astype(np.int64) - ((at >= 0) & (at <= m))[:, None]
    cell = (sub[first][:, None] * len(_STEPS) + np.arange(len(_STEPS))) * len(deep) + win[:, None]
    size = len(ts) * len(_STEPS) * len(deep)
    table = np.bincount(cell.ravel(), weights=(w[:, None] * change).ravel(), minlength=size)
    # the per-window sums are integers far below 2^53, so the float table is exact
    return g + table.reshape(len(ts), len(_STEPS), len(deep)).max(axis=2).astype(np.int64)


def moran_sum_multiplicity_bound(m: MoranSet, mfold: int, K: int) -> int:
    """Product over levels k <= K of the m-fold sum multiplicity of the
    normalized child family; an upper bound for the full generation-K family."""
    if K > m.K:
        raise ValueError(f"generation {K} beyond built depth {m.K}")
    if mfold < 1:
        raise ValueError("m must be >= 1")
    out = 1
    for k in range(1, K + 1):
        n_k, c_k, off = m.spec.level(k)
        out *= sum_multiplicity([(o, o + c_k) for o in off], mfold)
    return out


# ------------------------------------------------------------- family search


def search_interval_family(n: int, m: int, budget: int = 4000, seed: int = 0) -> IntervalFamily:
    """N closed slot intervals of length N^-m in [-1/2, 1/2] with small m-fold
    sum multiplicity.

    The family always contains the two end intervals, and consecutive
    intervals keep distance >= (m/2) N^-m (slot gaps of ceil(m/2)). Candidate
    slot patterns come from perturbed progressions plus seeded random
    restarts; for small N the interior slots are enumerated exhaustively.
    The achieved multiplicity is certified by exact evaluation and stored in
    meta["g"]; more budget never worsens it.

    Each restart hill-climbs by single-slot moves, and every valid trial
    counts against the budget. A trial runs the exact kernel only when the
    exact lower bound of _slot_move_bounds lies below the current g: a trial
    whose g is at least the current g is neither accepted nor better than
    the best pattern so far (which is at most the current g), so skipping it
    leaves the walk, the chosen slots and meta unchanged.
    """
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if F(n, n ** m) * (F(m, 2) + 1) > 1:
        raise ValueError("infeasible geometry: intervals plus gaps exceed the base interval")
    slots = n ** m
    gap = 1 + (m + 1) // 2  # consecutive slot distance; interval distance >= ceil(m/2) slots
    last = slots - 1
    if (n - 1) * gap > last:
        raise ValueError("infeasible geometry: slot gaps do not fit")

    rng = random.Random(seed)
    evals = 0
    best_ts: tuple[int, ...] | None = None
    best_g: int | None = None

    def valid(ts: Sequence[int]) -> bool:
        return (
            ts[0] == 0
            and ts[-1] == last
            and len(set(ts)) == n
            and all(b - a >= gap for a, b in zip(ts, ts[1:]))
        )

    known: dict[tuple[int, ...], int] = {}  # repeats still count against budget

    def evaluate(ts: Sequence[int]) -> int:
        nonlocal evals, best_ts, best_g
        evals += 1
        key = tuple(ts)
        g = known.get(key)
        if g is None:
            g = known[key] = _slot_sum_multiplicity(key, m)
        if best_g is None or g < best_g:
            best_g, best_ts = g, key
        return g

    # deterministic openers: even progression plus quadratic perturbations
    base = [round(i * last / (n - 1)) for i in range(n)]
    for c in (0, 1, 2, 3):
        cand = _repair_slots([base[i] + c * i * i for i in range(n)], n, gap, last)
        if valid(cand) and evals < budget:
            evaluate(cand)

    if _seed_blind(n, m, budget):
        # every interior pattern; for n = 2 the end intervals are the family
        for interior in itertools.combinations(range(1, last), n - 2):
            if evals >= budget:
                break
            cand = (0, *interior, last)
            if valid(cand):
                evaluate(cand)
    else:
        while evals < budget:
            interior = sorted(rng.sample(range(1, last), n - 2))
            cur = _repair_slots([0, *interior, last], n, gap, last)
            cur_g = evaluate(cur)
            bounds = _slot_move_bounds(cur, m).tolist()
            improved = True
            while improved and evals < budget:
                improved = False
                for idx in range(1, n - 1):
                    for j, step in enumerate(_STEPS):
                        t = cur[idx] + step
                        if not cur[idx - 1] + gap <= t <= cur[idx + 1] - gap:
                            continue
                        if bounds[idx][j] >= cur_g:
                            evals += 1  # cannot lower g: counted, not evaluated
                        else:
                            tt = (*cur[:idx], t, *cur[idx + 1:])
                            g = evaluate(tt)
                            if g < cur_g:
                                cur, cur_g = tt, g
                                bounds = _slot_move_bounds(cur, m).tolist()
                                improved = True
                        if evals >= budget:
                            break
                    if evals >= budget:
                        break

    if best_ts is None:
        # budget exhausted before any candidate: take the guaranteed repair
        best_ts = _repair_slots(base, n, gap, last)
        best_g = _slot_sum_multiplicity(best_ts, m)

    u = F(1, slots)
    intervals = tuple((BASE_LEFT + t * u, BASE_LEFT + (t + 1) * u) for t in best_ts)
    return IntervalFamily(
        intervals,
        meta={"N": n, "m": m, "g": int(best_g), "slots": list(best_ts), "seed": seed, "separated": True},
    )


def _seed_blind(n: int, m: int, budget: int) -> bool:
    """Whether search_interval_family(n, m, budget, seed) enumerates every
    interior slot pattern, so that it never draws from its seed."""
    if n == 2:
        return True
    return n > 2 and m >= 2 and n**m - 2 <= 64 and math.comb(n**m - 2, n - 2) <= max(budget, 1)


def _repair_slots(ts: Sequence[int], n: int, gap: int, last: int) -> tuple[int, ...]:
    """Round an n-slot pattern to a valid one: sorted, gapped, endpoints pinned.
    Given (n - 1) * gap <= last, each slot kept is at most its bound, so all gaps hold."""
    ts = sorted(ts)
    out = [0]
    for t in ts[1:-1]:
        # keep room for the slots still to come, each needing one gap
        bound = last - gap * (n - 1 - len(out))
        out.append(max(out[-1] + gap, min(t, bound)))
    out.append(last)
    return tuple(out)


def family_offsets(fam: IntervalFamily) -> list[Fraction]:
    """Offsets (parent-relative child positions) realizing the family on [0, 1]."""
    return [a - BASE_LEFT for a, _ in fam.intervals]


# ----------------------------------------------------------- searched layouts

def cached_family(n: int, m: int, budget: int, seed: int, /) -> IntervalFamily:
    """search_interval_family, cached; a search that never reads its seed
    is cached under seed 0."""
    return _cached_search(n, m, budget, 0 if _seed_blind(n, m, budget) else seed)


@functools.lru_cache(maxsize=None)
def _cached_search(n: int, m: int, budget: int, seed: int, /) -> IntervalFamily:
    # positional-only: lru_cache keys keyword spellings of one call apart
    return search_interval_family(n, m, budget=budget, seed=seed)


# ------------------------------------------------------------------- config


def parse_keyvals(text: str) -> dict[str, str]:
    """'key = value' lines; '#' comments and blank lines ignored, a repeated
    key refused."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"line {lineno}: repeated key '{key}'")
        out[key] = val
    return out


_POWER_RULE = re.compile(r"^(\d+)\^(-?)(\d*)k$")
_CONST_POWER = re.compile(r"^(\d+)\^(-?\d+)$")


def _rule_fn(expr: str) -> tuple[Callable[[int], Fraction], int | None]:
    """Closed-form sequence rule: '2', '1/3', '2^k', '2^-3k', '8^-3', or a
    comma list of values indexed by level; and the number of levels it
    defines, the list's length, or None when it defines every level."""
    expr = expr.strip()
    mt = _POWER_RULE.match(expr)
    if mt:
        base = int(mt.group(1))
        coef = int(mt.group(3) or 1) * (-1 if mt.group(2) else 1)
        if base == 0 and coef < 0:  # every level k >= 1 would divide by zero
            raise ValueError(f"rule '{expr}' raises 0 to a negative power")
        return (lambda k: F(base) ** (coef * k)), None
    if "," in expr:
        items = [F(part.strip()) for part in expr.split(",")]

        def listed(k: int) -> Fraction:
            if k > len(items):
                raise ValueError(f"spec defines {len(items)} levels, asked for {k}")
            return items[k - 1]

        return listed, len(items)
    mt = _CONST_POWER.match(expr)
    val = F(int(mt.group(1))) ** int(mt.group(2)) if mt else F(expr)
    return (lambda k: val), None


MORAN_KEYS = frozenset("n c offsets m budget seed".split())

# the named constructions as [moran] text; the searched layouts are the
# families search_interval_family(n, 3) finds at its default budget and seed
PRESETS = {
    "middle-thirds": "n = 2\nc = 1/3\noffsets = 0, 2/3\n",
    "constant-branch-8": "n = 8\nc = 8^-3\noffsets = searched\n",
    "doubling": "n = 2^k\nc = 2^-3k\noffsets = searched\n",
}


def moran_spec_from_config(text: str) -> MoranSpec:
    """Build a MoranSpec from [moran] config text.

    Keys: n, c (closed-form rules or comma lists), offsets (comma list of
    fractions, 'even', or 'searched'), optional m / budget / seed for the
    searched layout, refused with any other. Any other key is rejected.
    """
    kv = parse_keyvals(text)
    unknown = sorted(kv.keys() - MORAN_KEYS)
    if unknown:
        raise ValueError(f"unknown [moran] key(s): {', '.join(unknown)}")
    for key in ("n", "c"):
        if key not in kv:
            raise ValueError(f"config missing '{key}'")
    n_rule, _ = _rule_fn(kv["n"])
    c_rule, levels = _rule_fn(kv["c"])

    def n_fn(k: int) -> int:
        val = n_rule(k)
        if val != int(val):
            raise ValueError(f"n rule gave non-integer {val} at level {k}")
        return int(val)

    mode = kv.get("offsets", "even").strip()
    unread = sorted(kv.keys() & {"m", "budget", "seed"})
    if unread and mode != "searched":
        raise ValueError(f"[moran] key(s) read only by offsets = searched: {', '.join(unread)}")
    if mode == "even":
        def off_fn(k: int):
            n_k, c_k = n_fn(k), c_rule(k)
            step = (1 - c_k) / (n_k - 1)
            return [i * step for i in range(n_k)]
    elif mode == "searched":
        m = int(kv.get("m", 3))
        budget = int(kv.get("budget", 4000))
        seed = int(kv.get("seed", 0))

        def off_fn(k: int):
            return family_offsets(cached_family(n_fn(k), m, budget, seed))
    else:
        fixed = [F(part.strip()) for part in mode.split(",")]

        def off_fn(k: int):
            return fixed

    return MoranSpec(n=n_fn, c=c_rule, offsets=off_fn, levels=levels)
