"""Convex domains spanned by Cantor-type boundary sets.

A Moran construction C on [-1/2, 1/2] generates the convex region whose
lower boundary interpolates the parabola t^2 - 1/8 over C. At build depth
K the boundary is read off the sorted generation-K endpoints e_0 < ... <
e_{2n-1}: parabola arcs over [e_{2i}, e_{2i+1}], chords over the gaps
(e_{2i+1}, e_{2i+2}) (over a gap (a, b) the slope is a + b), and the
ceiling segment at height 1/8. Flush children make every such gap a
removed gap, so the graph tiles [-1/2, 1/2], is convex and meets the
ceiling by algebra alone; no pieces are stored, only flushness checked.
Boundary geometry, caps, and multiplicity counts are exact rationals.

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
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from tubelab.core import sorted_distinct
from tubelab.maximal import DirectionSet, ExponentFit, exponent_fit
from tubelab.setgen import (
    MoranSet,
    MultiplicityOverflow,
    check_gcs,
    moran_sum_multiplicity_bound,
    sum_multiplicity,
)

F = Fraction

CEILING_HEIGHT = F(1, 8)


def _chord(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """(slope, intercept) of the chord of t^2 - 1/8 over [a, b]."""
    return a + b, -a * b - CEILING_HEIGHT


@dataclass(frozen=True)
class GcsDomain:
    """Convex domain carried by a depth-K Moran set, with exact boundary.

    The lower boundary function is gamma, under a flat top at height 1/8.
    Piece j runs over [e_j, e_{j+1}] of the sorted generation-K endpoints,
    an arc for even j and a chord for odd j; construction checks the flush
    end-point condition this relies on.
    """

    moran: MoranSet

    def __post_init__(self):
        if not check_gcs(self.moran)["endpoint_ok"]:
            raise ValueError(
                "construction violates the end-point condition (children must be flush with both parent ends)"
            )

    @property
    def depth(self) -> int:
        return self.moran.K

    @functools.cached_property
    def _lattice(self) -> tuple[np.ndarray, int]:
        return self.moran.endpoint_lattice(self.depth)

    def piece(self, t) -> tuple[Fraction, Fraction, bool]:
        """(lo, hi, is_chord) of the last piece starting at or before t in [-1/2, 1/2]."""
        t = F(t)
        ends, den = self._lattice
        # e_j <= t exactly when its numerator is at most floor(t * den)
        j = int(np.searchsorted(ends, t.numerator * den // t.denominator, side="right")) - 1
        j = max(0, min(j, len(ends) - 2))
        return F(int(ends[j]), den), F(int(ends[j + 1]), den), j % 2 == 1

    def gamma(self, t) -> Fraction:
        """Exact lower-boundary height at parameter t in [-1/2, 1/2]."""
        t = F(t)
        if not (F(-1, 2) <= t <= F(1, 2)):
            raise ValueError("parameter outside [-1/2, 1/2]")
        lo, hi, is_chord = self.piece(t)
        if not is_chord:
            return t * t - CEILING_HEIGHT
        s, c = _chord(lo, hi)
        return s * t + c


def gcs_domain(m: MoranSet) -> GcsDomain:
    """Exact boundary of the convex domain generated by a flush Moran set:
    every generation keeps both parent endpoints, so every gap between
    consecutive generation-K intervals is a removed gap."""
    return GcsDomain(m)


# ------------------------------------------------------------ direction sets


def _slope_numerators(domain: GcsDomain) -> tuple[np.ndarray, int]:
    """(nums, den): slope_set's slopes are the sorted distinct nums over den."""
    ends, den = domain._lattice
    return sorted_distinct(np.concatenate([2 * ends, ends[1:-1:2] + ends[2::2], [0]])), den


def slope_set(domain: GcsDomain) -> tuple[Fraction, ...]:
    """Exact sorted set of one-sided boundary slopes, plus the flat top.

    Collects the left/right derivative values at every piece endpoint:
    twice every generation-K endpoint e_j from the parabola arcs, the slope
    e_{2i+1} + e_{2i+2} of each chord, and 0 from the ceiling segment.
    """
    nums, den = _slope_numerators(domain)
    return tuple(F(v, den) for v in nums.tolist())


def direction_set(domain: GcsDomain, scale) -> DirectionSet:
    """Slope set snapped to the nearest grid slopes at the given scale.

    The exact slopes fill [-1, 1]; the grid admits [-1, 1), so +1 snaps to
    the largest representable slope. Each v/den rounds half to even in
    Python ints, as Fraction's round does; rounding is monotone, so the
    sorted numerators give sorted indices. Intended for feeding the
    maximal operators; use slope_set for exact identities.
    """
    nums, den = _slope_numerators(domain)
    n = 1 << scale.k
    idx = []
    for v in nums.tolist():
        q, r = divmod(v * n, den)
        q = min(q + (2 * r > den or (2 * r == den and q & 1)), n - 1)
        if not idx or q != idx[-1]:
            idx.append(q)
    return DirectionSet(scale, idx)


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
    """Largest k with (c_1 ... c_k)^2 >= delta (0 if none); exact. A spec
    that lists its contractions for L levels only gives at most L."""
    d = F(delta)
    if not (0 < d < 1):
        raise ValueError("delta must lie in (0, 1)")
    spec = domain.moran.spec
    prod = F(1)
    k = 0
    while k != spec.levels:
        nxt = prod * spec.c(k + 1)
        if nxt * nxt < d:
            return k
        prod = nxt
        k += 1
    return k


def cap_cover(domain: GcsDomain, delta) -> CapCover:
    """Cover of the boundary by delta-caps, classed by removal level.

    Chord caps (levels 1..K(delta)) are exact zero-distance caps. Each
    surviving generation-K(delta) interval is split greedily at the
    generation-min(K, K(delta) + 2) endpoints U/den inside it: from u, the
    cap runs to the farthest v with (v - u)^4 < delta^2 (1 + 4 u^2). At v
    the boundary sits (v - u)^2 above the tangent at u, so this is the
    cap's exact validity test (Cap.is_valid_cap is its Fraction oracle);
    with delta = p/q it reads (V - U)^4 q^2 < p^2 den^2 (den^2 + 4 U^2),
    and one integer fourth root bounds V - U. Where no step exists and u
    ends an interval, the gap after it (removed below level K(delta); only
    for large delta) takes its own chord cap in class 0.
    """
    d = F(delta)
    kd = k_delta(domain, d)
    if kd > domain.depth:
        raise ValueError(f"built depth {domain.depth} is insufficient: K(delta) = {kd}")
    classes: list[list[Cap]] = [[] for _ in range(kd + 1)]
    for k in range(1, kd + 1):
        for a, b in domain.moran.removed_intervals(k):
            classes[k].append(Cap(*_chord(a, b), a, b, d, k))
    lattice, den = domain.moran.endpoint_lattice(min(domain.depth, kd + 2))
    ends = lattice.tolist()
    # homogeneous: every level-K(delta) interval holds per consecutive endpoints
    per = len(ends) // domain.moran.interval_count(kd)
    scale, q2 = d.numerator ** 2 * den * den, d.denominator ** 2
    for first in range(0, len(ends), per):
        pos, last = first, first + per - 1
        while pos < last:
            U = ends[pos]
            u = F(U, den)
            top = scale * (den * den + 4 * U * U)
            w = math.isqrt(math.isqrt(top // q2))  # the largest w with w^4 q^2 <= top
            if w ** 4 * q2 == top:
                w -= 1
            step = bisect.bisect_right(ends, U + w, pos, last + 1) - 1
            if step > pos:
                nxt, line = step, _chord(u, u)  # the tangent at u
            elif pos % 2:  # u ends an interval; the gap after it is one depth-K piece
                nxt = pos + 1
                line = _chord(u, F(ends[nxt], den))
            else:
                raise ValueError(
                    f"built depth {domain.depth} too shallow to split "
                    f"[{F(ends[first], den)}, {F(ends[last], den)}] into delta-caps"
                )
            classes[0].append(Cap(*line, u, F(ends[nxt], den), d, 0))
            pos = nxt
    ceiling = Cap(F(0), CEILING_HEIGHT, F(-1, 2), F(1, 2), d, -1)
    return CapCover(d, kd, tuple(tuple(c) for c in classes), ceiling)


@dataclass(frozen=True)
class CapCount:
    """Bracket on the minimal number of delta-caps covering the boundary.

    lower is the surviving-interval count at level K(delta): any delta-cap
    contains at most 4 of their left endpoints (caps span a parameter window
    of measure <= 2 sqrt(2 delta sqrt(1 + s^2)) by the quadratic distance
    rule, at most two components, versus endpoint spacing >= sqrt(delta)),
    so the true optimum is >= lower / 4. upper is the canonical cover's size.
    """

    lower: int
    upper: int
    k_delta: int


def cap_count(domain: GcsDomain, delta) -> CapCount:
    cover = cap_cover(domain, delta)
    return CapCount(
        lower=domain.moran.interval_count(cover.k_delta),
        upper=len(cover),
        k_delta=cover.k_delta,
    )


def affine_dim_estimate(domain: GcsDomain, deltas) -> ExponentFit:
    """Fitted exponent of the cap-count bracket's geometric mean vs 1/delta."""
    samples = []
    for d in deltas:
        cc = cap_count(domain, d)
        samples.append((F(d), math.sqrt(cc.lower * cc.upper)))
    return exponent_fit(samples)


# -------------------------------------------------------- additive energy


def _class_product_bound(domain: GcsDomain, level: int, m: int, kd: int, max_splits: int) -> int:
    """Per-level product fallback for a class too large to enumerate.

    Mirrors the telescoping bound: multiplicities multiply across levels,
    each with one child layout, and the finest level contributes either the
    per-parent gap multiplicity (chord classes) or the split count to the
    m-th power (tangent class).
    """
    if level == 0:
        return max_splits ** m * moran_sum_multiplicity_bound(domain.moran, m, kd)
    below = moran_sum_multiplicity_bound(domain.moran, m, level - 1)
    n_k, c_k, off = domain.moran.spec.level(level)
    gaps = [(o + c_k, b) for o, b in zip(off, off[1:])]
    return sum_multiplicity(gaps, m) * below


def _max_tangent_splits(domain: GcsDomain, cover: CapCover) -> int:
    """Most tangent-class caps that start in one level-K(delta) interval."""
    lefts = domain.moran.lefts(cover.k_delta)
    per_interval = [0] * len(lefts)
    for c in cover.classes[0]:
        per_interval[bisect.bisect_right(lefts, c.t_lo) - 1] += 1
    return max(per_interval)


def additive_energy_estimate(domain: GcsDomain, delta, m: int) -> dict:
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
    cover = cap_cover(domain, d)
    kd = cover.k_delta
    mults: dict[int, int] = {}
    flagged: list[int] = []
    max_splits = _max_tangent_splits(domain, cover)
    for level in range(kd + 1):
        caps = cover.classes[level]
        ivs = [(c.t_lo, c.t_hi) for c in caps]
        if not ivs:
            mults[level] = 1
            continue
        try:
            mults[level] = sum_multiplicity(ivs, m, closed=level > 0)
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
