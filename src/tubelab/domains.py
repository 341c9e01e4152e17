"""Convex domains spanned by Cantor-type boundary sets.

A Moran construction C on [-1/2, 1/2] generates the convex region whose
lower boundary interpolates the parabola t^2 - 1/8 over C. At build depth
K the lower boundary is an exact piecewise graph: parabola arcs over the
generation-K intervals and straight chords over every removed gap (the
chord over a gap (a, b) has slope a + b); the upper boundary is the
horizontal segment at height 1/8. All boundary geometry, supporting-line
caps, and multiplicity counts below are exact rational computations.

Cap covers follow the two-regime recipe: every removed gap up to level
K(delta) carries its own chord cap (distance zero), and each surviving
generation-K(delta) interval is split greedily into tangent caps using the
exact quadratic distance rule: the boundary height above the tangent at a
construction point u, evaluated at another construction point v, is
exactly (v - u)^2, and convexity puts the supremum over [u, v] at the
endpoints, so one comparison per candidate certifies the whole cap.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from tubelab.maximal import DirectionSet, ExponentFit, exponent_fit
from tubelab.setgen import (
    MoranSet,
    MoranSpec,
    build_moran,
    check_gcs,
    moran_sum_multiplicity_bound,
    parse_keyvals,
    sum_multiplicity,
)

F = Fraction

CEILING_HEIGHT = F(1, 8)

_FOLD_CAP = 1 << 22  # max Minkowski-sum rows materialized per fold


def _parab(t: Fraction) -> Fraction:
    return t * t - CEILING_HEIGHT


class BoundaryPiece(NamedTuple):
    """One maximal piece of the lower boundary graph.

    chord is None for a parabola arc, else (slope, intercept) of the
    straight segment; on either kind the graph runs over [lo, hi].
    """

    lo: Fraction
    hi: Fraction
    chord: tuple[Fraction, Fraction] | None


@dataclass(frozen=True)
class GcsDomain:
    """Convex domain carried by a depth-K Moran set, with exact boundary.

    The lower boundary function is gamma; the flat top sits at height 1/8.
    Pieces tile [-1/2, 1/2], agree at shared endpoints, and their slopes
    are non-decreasing left to right (checked exactly on construction).
    """

    moran: MoranSet
    pieces: tuple[BoundaryPiece, ...]

    def __post_init__(self):
        ps = self.pieces
        if not ps or ps[0].lo != F(-1, 2) or ps[-1].hi != F(1, 2):
            raise ValueError("boundary pieces must tile [-1/2, 1/2]")
        prev_exit = None
        for p in ps:
            if p.hi <= p.lo:
                raise ValueError("degenerate boundary piece")
            entry = p.chord[0] if p.chord else 2 * p.lo
            exit_ = p.chord[0] if p.chord else 2 * p.hi
            if prev_exit is not None and entry < prev_exit:
                raise ValueError("boundary is not convex")
            prev_exit = exit_
        for a, b in zip(ps, ps[1:]):
            if a.hi != b.lo or self._piece_value(a, a.hi) != self._piece_value(b, b.lo):
                raise ValueError("boundary pieces must be contiguous")
        if self.gamma(F(-1, 2)) != CEILING_HEIGHT or self.gamma(F(1, 2)) != CEILING_HEIGHT:
            raise ValueError("boundary must meet the ceiling at height 1/8")

    @property
    def depth(self) -> int:
        return self.moran.K

    @staticmethod
    def _piece_value(p: BoundaryPiece, t: Fraction) -> Fraction:
        if p.chord is None:
            return _parab(t)
        s, c = p.chord
        return s * t + c

    def _piece_index(self, t: Fraction) -> int:
        i = bisect.bisect_right(self.pieces, t, key=lambda p: p.lo) - 1
        return max(0, min(i, len(self.pieces) - 1))

    def gamma(self, t) -> Fraction:
        """Exact lower-boundary height at parameter t in [-1/2, 1/2]."""
        t = F(t)
        if not (F(-1, 2) <= t <= F(1, 2)):
            raise ValueError("parameter outside [-1/2, 1/2]")
        return self._piece_value(self.pieces[self._piece_index(t)], t)

    def gamma_right_slope(self, t) -> Fraction:
        """Right derivative of the boundary at t in [-1/2, 1/2)."""
        t = F(t)
        if not (F(-1, 2) <= t < F(1, 2)):
            raise ValueError("right slope needs t in [-1/2, 1/2)")
        p = self.pieces[self._piece_index(t)]
        if p.hi == t:  # t is the shared endpoint; the right side is the next piece
            p = self.pieces[self._piece_index(t) + 1]
        return p.chord[0] if p.chord else 2 * t

    def gamma_left_slope(self, t) -> Fraction:
        """Left derivative of the boundary at t in (-1/2, 1/2]."""
        t = F(t)
        if not (F(-1, 2) < t <= F(1, 2)):
            raise ValueError("left slope needs t in (-1/2, 1/2]")
        i = self._piece_index(t)
        p = self.pieces[i]
        if p.lo == t:
            p = self.pieces[i - 1]
        return p.chord[0] if p.chord else 2 * t

    def breakpoints(self) -> list[Fraction]:
        out = [p.lo for p in self.pieces]
        out.append(self.pieces[-1].hi)
        return out


def gcs_domain(m: MoranSet) -> GcsDomain:
    """Exact boundary of the convex domain generated by a Moran set.

    Requires the flush end-point condition (every generation keeps both
    parent endpoints), which makes every piece endpoint a point of the
    underlying set, so all pieces meet on the parabola.
    """
    if not check_gcs(m)["endpoint_ok"]:
        raise ValueError(
            "construction violates the end-point condition (children must be flush with both parent ends)"
        )
    pieces = [BoundaryPiece(a, b, None) for a, b in m.intervals(m.K)]
    for k in range(1, m.K + 1):
        for a, b in m.removed_intervals(k):
            pieces.append(BoundaryPiece(a, b, (a + b, -a * b - CEILING_HEIGHT)))
    pieces.sort(key=lambda p: p.lo)
    return GcsDomain(moran=m, pieces=tuple(pieces))


# ------------------------------------------------------------ direction sets


def slope_set(domain: GcsDomain) -> tuple[Fraction, ...]:
    """Exact sorted set of one-sided boundary slopes, plus the flat top.

    Collects the left/right derivative values at every piece endpoint
    (parabola arcs contribute twice their endpoints, chords contribute
    their slope) together with 0 from the ceiling segment.
    """
    vals = {F(0)}
    for p in domain.pieces:
        if p.chord is None:
            vals.add(2 * p.lo)
            vals.add(2 * p.hi)
        else:
            vals.add(p.chord[0])
    return tuple(sorted(vals))


def direction_set(domain: GcsDomain, scale) -> DirectionSet:
    """Slope set snapped to the nearest grid slopes at the given scale.

    The exact slopes fill [-1, 1]; the grid admits [-1, 1), so +1 snaps to
    the largest representable slope. Intended for feeding the maximal
    operators; use slope_set for exact identities.
    """
    n = 1 << scale.k
    idx = sorted({min(round(a * n), n - 1) for a in slope_set(domain)})
    return DirectionSet(scale, tuple(int(i) for i in idx), tag="explicit")


def map_F(direction) -> Fraction:
    """Slope of a direction vector (the tangent of its angle)."""
    ux, uy = direction
    if ux == 0:
        raise ValueError("vertical direction has no slope under the tangent map")
    return F(uy) / F(ux)


def map_F_inverse(slope) -> tuple[float, float]:
    """Unit vector with the given slope; restricted to |slope| <= 1."""
    a = float(slope)
    if abs(a) > 1:
        raise ValueError("inverse tangent map is restricted to slopes in [-1, 1]")
    r = math.hypot(1.0, a)
    return (1.0 / r, a / r)


# -------------------------------------------------------------------- caps


@dataclass(frozen=True)
class Cap:
    """Boundary piece within distance delta of one supporting line.

    level 0 marks a tangent cap from splitting a surviving interval,
    level k >= 1 a chord cap over a gap removed at level k, and level -1
    the ceiling segment. Parameter intervals of level-0 caps abut, so they
    are treated as half-open [t_lo, t_hi) in multiplicity counts.
    """

    slope: Fraction
    intercept: Fraction
    t_lo: Fraction
    t_hi: Fraction
    delta: Fraction
    level: int

    def line_value(self, t) -> Fraction:
        return self.slope * F(t) + self.intercept

    def boundary_gap(self, domain: GcsDomain) -> Fraction:
        """Exact sup over the parameter interval of gamma - line (>= 0).

        gamma minus an affine function is convex, so the supremum sits at
        an endpoint; supporting lines keep it nonnegative.
        """
        if self.level == -1:
            return F(0)
        lo = domain.gamma(self.t_lo) - self.line_value(self.t_lo)
        hi = domain.gamma(self.t_hi) - self.line_value(self.t_hi)
        return max(lo, hi)

    def is_valid_cap(self, domain: GcsDomain) -> bool:
        """Definition check: every covered boundary point is within delta
        of the line (exact comparison of squared Euclidean distance)."""
        g = self.boundary_gap(domain)
        return g * g < self.delta * self.delta * (1 + self.slope * self.slope)


@dataclass(frozen=True)
class CapCover:
    """Canonical cap cover: chord caps per removal level plus tangent caps.

    classes[k] holds the level-k caps for 0 <= k <= k_delta; the flat top
    is covered by the single ceiling cap.
    """

    delta: Fraction
    eta: float
    k_delta: int
    classes: tuple[tuple[Cap, ...], ...]
    ceiling: Cap

    def __len__(self) -> int:
        return sum(len(c) for c in self.classes) + 1

    def all_caps(self) -> Iterator[Cap]:
        for cls in self.classes:
            yield from cls
        yield self.ceiling

    def parameter_cover_ok(self) -> bool:
        """Exact check that class intervals tile [-1/2, 1/2]."""
        ivs = sorted((c.t_lo, c.t_hi) for cls in self.classes for c in cls)
        if not ivs or ivs[0][0] != F(-1, 2) or ivs[-1][1] != F(1, 2):
            return False
        return all(a[1] == b[0] for a, b in zip(ivs, ivs[1:]))


def k_delta(domain: GcsDomain, delta) -> int:
    """Largest k with (c_1 ... c_k)^2 >= delta (0 if none); exact."""
    d = F(delta)
    if not (0 < d < 1):
        raise ValueError("delta must lie in (0, 1)")
    prod = F(1)
    k = 0
    while True:
        nxt = prod * domain.moran.spec.c(k + 1)
        if nxt * nxt < d:
            return k
        prod = nxt
        k += 1


def cap_cover(domain: GcsDomain, delta, eta: float = 0.05) -> CapCover:
    """Cover of the boundary by delta-caps, classed by removal level.

    Chord caps (levels 1..K(delta)) are exact zero-distance caps. Each
    surviving generation-K(delta) interval is split greedily at built
    construction points: from the current point u, the cap extends to the
    farthest candidate v with (v - u)^4 < delta^2 (1 + 4 u^2), i.e. with
    Euclidean distance to the tangent at u strictly below delta. A gap
    removed below level K(delta) that is too wide for any tangent step
    (possible only when delta is large for the construction) contributes
    its own chord cap to class 0, after which the tangent sweep resumes.
    """
    d = F(delta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    kd = k_delta(domain, d)
    if kd > domain.depth:
        raise ValueError(f"built depth {domain.depth} is insufficient: K(delta) = {kd}")
    classes: list[list[Cap]] = [[] for _ in range(kd + 1)]
    for k in range(1, kd + 1):
        for a, b in domain.moran.removed_intervals(k):
            classes[k].append(Cap(a + b, -a * b - CEILING_HEIGHT, a, b, d, k))
    gen = min(domain.depth, kd + 2)
    cands = domain.moran.endpoints(gen)
    for a, b in domain.moran.intervals(kd):
        lo_i = bisect.bisect_left(cands, a)
        hi_i = bisect.bisect_right(cands, b)
        pts = cands[lo_i:hi_i]
        u = a
        pos = 0
        while u < b:
            bound = d * d * (1 + 4 * u * u)
            # farthest candidate v > u with (v - u)^4 < bound
            lo, hi = pos, len(pts) - 1
            best = -1
            while lo <= hi:
                mid = (lo + hi) // 2
                step = pts[mid] - u
                if step > 0 and step ** 4 < bound:
                    best = mid
                    lo = mid + 1
                elif step <= 0:
                    lo = mid + 1
                else:
                    hi = mid - 1
            if best < 0:
                piece = domain.pieces[domain._piece_index(u)]
                if piece.chord is not None and piece.lo == u and piece.hi <= b:
                    classes[0].append(Cap(piece.chord[0], piece.chord[1], u, piece.hi, d, 0))
                    u = piece.hi
                    pos = bisect.bisect_left(pts, u)
                    continue
                raise ValueError(
                    f"built depth {domain.depth} too shallow to split [{a}, {b}] into delta-caps"
                )
            v = pts[best]
            cap = Cap(2 * u, -u * u - CEILING_HEIGHT, u, v, d, 0)
            if not cap.is_valid_cap(domain):
                raise AssertionError("greedy split produced an invalid cap")
            classes[0].append(cap)
            u = v
            pos = best
    ceiling = Cap(F(0), CEILING_HEIGHT, F(-1, 2), F(1, 2), d, -1)
    return CapCover(d, eta, kd, tuple(tuple(c) for c in classes), ceiling)


@dataclass(frozen=True)
class CapCount:
    """Bracket on the minimal number of delta-caps covering the boundary.

    lower is the surviving-interval count at level K(delta): any delta-cap
    contains at most separation_constant of their left endpoints (caps
    span a parameter window of measure <= 2 sqrt(2 delta sqrt(1 + s^2))
    by the quadratic distance rule, at most two components, versus endpoint
    spacing >= sqrt(delta)), so the true optimum is >= lower / that
    constant. upper is the canonical cover's size.
    """

    lower: int
    upper: int
    k_delta: int
    separation_constant: int = 4

    def __iter__(self):
        return iter((self.lower, self.upper))


def cap_count(domain: GcsDomain, delta, eta: float = 0.05) -> CapCount:
    d = F(delta)
    cover = cap_cover(domain, d, eta)
    return CapCount(
        lower=domain.moran.interval_count(cover.k_delta),
        upper=len(cover),
        k_delta=cover.k_delta,
    )


def affine_dim_estimate(domain: GcsDomain, deltas, eta: float = 0.05) -> ExponentFit:
    """Fitted exponent of the cap-count bracket's geometric mean vs 1/delta."""
    samples = []
    for d in deltas:
        cc = cap_count(domain, d, eta)
        samples.append((F(d), math.sqrt(cc.lower * cc.upper)))
    return exponent_fit(samples)


# -------------------------------------------------------- additive energy


class MultiplicityOverflow(Exception):
    """Exact enumeration would exceed the fold cap."""


def _projection_multiplicity(intervals, m: int, closed: bool, cap: int = _FOLD_CAP) -> int:
    """Exact max multiplicity of m-fold Minkowski sums of rational intervals.

    Intervals are closed when closed=True (chord caps: separated families)
    and half-open [lo, hi) otherwise (abutting tangent caps). Endpoints
    are rescaled to a common integer denominator; folds compress duplicate
    sum intervals with weights, and the final sweep takes the max overlap
    depth (ties at a shared coordinate count for closed, not for half-open).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not intervals:
        raise ValueError("empty interval family")
    fr = [(F(a), F(b)) for a, b in intervals]
    den = math.lcm(*(x.denominator for ab in fr for x in ab))
    lo0 = np.array([int(a * den) for a, _ in fr], dtype=np.int64)
    hi0 = np.array([int(b * den) for _, b in fr], dtype=np.int64)
    if max(int(np.abs(lo0).max()), int(np.abs(hi0).max())) > (1 << 60) // max(m, 1):
        raise MultiplicityOverflow("denominators too large for exact integer sums")
    lo, hi, w = lo0.copy(), hi0.copy(), np.ones(len(lo0), dtype=np.int64)
    for _ in range(m - 1):
        if len(lo) * len(lo0) > cap:
            raise MultiplicityOverflow(f"{len(lo)} x {len(lo0)} sum intervals exceed the fold cap")
        nl = (lo[:, None] + lo0[None, :]).ravel()
        nh = (hi[:, None] + hi0[None, :]).ravel()
        nw = (w[:, None] * np.ones(len(lo0), dtype=np.int64)[None, :]).ravel()
        order = np.lexsort((nh, nl))
        nl, nh, nw = nl[order], nh[order], nw[order]
        new_group = np.empty(len(nl), dtype=bool)
        new_group[0] = True
        new_group[1:] = (nl[1:] != nl[:-1]) | (nh[1:] != nh[:-1])
        starts = np.flatnonzero(new_group)
        lo, hi = nl[starts], nh[starts]
        w = np.add.reduceat(nw, starts)
    # sweep: +w at lo, -w at hi; closed intervals count a shared endpoint
    # as overlap (opens sort before closes), half-open ones do not
    open_key, close_key = (0, 1) if closed else (1, 0)
    coords = np.concatenate([lo, hi])
    kinds = np.concatenate(
        [np.full(len(lo), open_key, np.int64), np.full(len(hi), close_key, np.int64)]
    )
    weights = np.concatenate([w, -w])
    order = np.lexsort((kinds, coords))
    return int(np.maximum.accumulate(np.cumsum(weights[order])).max())


def _class_product_bound(domain: GcsDomain, level: int, m: int, kd: int, max_splits: int) -> int:
    """Per-level product fallback for a class too large to enumerate.

    Mirrors the telescoping bound: multiplicities multiply across levels
    for uniform child layouts, and the finest level contributes either the
    per-parent gap multiplicity (chord classes) or the split count to the
    m-th power (tangent class).
    """
    spec = domain.moran.spec
    if level == 0:
        below = moran_sum_multiplicity_bound(domain.moran, m, kd) if kd >= 1 else 1
        return (max_splits ** m) * below
    below = moran_sum_multiplicity_bound(domain.moran, m, level - 1) if level > 1 else 1
    n_k, c_k, off = spec.level(level)
    gaps = [(o + c_k, off[i + 1]) for i, o in enumerate(off[:-1])]
    per_parent = sum_multiplicity(gaps, m) if gaps else 1
    return per_parent * below


def additive_energy_estimate(domain: GcsDomain, delta, m: int, eta: float = 0.05) -> dict:
    """Upper bound on the m-fold cap-interaction count of the canonical cover.

    The cover's classes (one per removal level plus the tangent class) give
    the partition; per class, the max number of m-tuples of caps whose sum
    sets share a point is bounded through first-coordinate projections.
    Classes too large for exact enumeration fall back to the per-level
    product bound and are listed in product_bound_classes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    d = F(delta)
    cover = cap_cover(domain, d, eta)
    kd = cover.k_delta
    mults: dict[int, int] = {}
    flagged: list[int] = []
    max_splits = 0
    if cover.classes[0]:
        per_interval: dict[tuple[Fraction, Fraction], int] = {}
        starts = {a: 0 for a, _ in domain.moran.intervals(kd)}
        for c in cover.classes[0]:
            key = max(a for a in starts if a <= c.t_lo)
            per_interval[key] = per_interval.get(key, 0) + 1
        max_splits = max(per_interval.values())
    for level in range(kd + 1):
        caps = cover.classes[level]
        ivs = [(c.t_lo, c.t_hi) for c in caps]
        if not ivs:
            mults[level] = 1
            continue
        try:
            mults[level] = _projection_multiplicity(ivs, m, closed=level > 0)
        except MultiplicityOverflow:
            mults[level] = _class_product_bound(domain, level, m, kd, max_splits)
            flagged.append(level)
    m0 = kd + 1
    m1 = max(mults.values())
    xi = m0 ** (2 * m) * m1
    return {
        "M0": m0,
        "M1": m1,
        "Xi_bound": xi,
        "energy_exponent": math.log(xi) / math.log(1 / float(d)) if xi > 1 else 0.0,
        "K_delta": kd,
        "class_multiplicities": mults,
        "product_bound_classes": flagged,
    }


# ----------------------------------------------------------- serialization


def dump_domain(domain: GcsDomain) -> str:
    """Per-level construction data plus depth, in key = value lines."""
    spec = domain.moran.spec
    K = domain.depth
    lines = [f"depth = {K}"]
    if spec.label:
        lines.append(f"label = {spec.label}")
    lines.append("n = " + ", ".join(str(spec.n(k)) for k in range(1, K + 1)))
    lines.append("c = " + ", ".join(str(spec.c(k)) for k in range(1, K + 1)))
    for k in range(1, K + 1):
        if not spec.uniform_level(k):
            raise ValueError("non-uniform child layouts do not serialize")
        _, _, off = spec.level(k)
        lines.append(f"offsets_{k} = " + ", ".join(str(o) for o in off))
    return "\n".join(lines) + "\n"


def domain_from_config(text: str) -> GcsDomain:
    """Rebuild a domain serialized by dump_domain."""
    kv = parse_keyvals(text)
    if "depth" not in kv:
        raise ValueError("config missing 'depth'")
    K = int(kv["depth"])
    ns = [int(x) for x in kv["n"].split(",")]
    cs = [F(x.strip()) for x in kv["c"].split(",")]
    if len(ns) != K or len(cs) != K:
        raise ValueError("n and c must list one value per level")
    offs = []
    for k in range(1, K + 1):
        key = f"offsets_{k}"
        if key not in kv:
            raise ValueError(f"config missing '{key}'")
        offs.append([F(x.strip()) for x in kv[key].split(",")])
    spec = MoranSpec(
        n=lambda k: ns[k - 1],
        c=lambda k: cs[k - 1],
        offsets=lambda k: offs[k - 1],
        label=kv.get("label", "config"),
    )
    return gcs_domain(build_moran(spec, K))


def cap_cover_csv(cover: CapCover) -> str:
    """Rows 'class, t_lo, t_hi, slope, intercept' with exact rationals."""
    lines = ["class,t_lo,t_hi,slope,intercept"]
    for cap in cover.all_caps():
        cls = "ceiling" if cap.level == -1 else str(cap.level)
        lines.append(f"{cls},{cap.t_lo},{cap.t_hi},{cap.slope},{cap.intercept}")
    return "\n".join(lines) + "\n"
