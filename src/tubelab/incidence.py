"""Rich points of tube families and incidence-bound measurements.

A cell of the delta-grid in [0,1]^2 is r-rich for a family when at least r
tubes rasterize onto it. Multiplicities are exact 64-bit counts from
core.tube_count_blocks, which reproduces per-tube rasterization cell for cell.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from tubelab.core import (
    Box,
    CellSet,
    DyadicScale,
    Measurement,
    sorted_distinct,
    tube_count_blocks,
)
from tubelab.setgen import katz_tao_constant, regularity_constant

F = Fraction


class TubeFamily:
    """Same-scale dyadic tubes, repeats kept: tube q is DyadicTube(k, t[q], b[q]),
    held as equal-length int64 arrays of slope indices t and offset indices b."""

    __slots__ = ("scale", "t", "b")

    def __init__(self, scale: DyadicScale, t, b):
        t, b = np.asarray(t, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if t.ndim != 1 or t.shape != b.shape:
            raise ValueError(f"slope and offset indices need one length, got {t.shape} and {b.shape}")
        n = 1 << scale.k
        if t.size and (t.min() < -n or t.max() >= n):
            raise ValueError(f"slope indices outside [-2^k, 2^k) at k={scale.k}")
        self.scale, self.t, self.b = scale, t, b

    def __len__(self):
        return len(self.t)


class RichPointSet:
    """Cells whose tube multiplicity reaches the threshold."""

    def __init__(self, threshold: int, cells: CellSet, counts: np.ndarray):
        if len(counts) != len(cells):
            raise ValueError("counts misaligned with cells")
        self.threshold = threshold
        self.cells = cells
        self.counts = np.asarray(counts, dtype=np.int64)


def rich_points(family: TubeFamily, r: int) -> RichPointSet:
    """Cells of [0,1)^2 at scale delta covered by at least r tubes."""
    if r < 1:
        raise ValueError("threshold r must be >= 1")
    k = family.scale.k
    _, blocks = tube_count_blocks(family.t, family.b, k, (0, 1 << k))  # exact counts
    cells, counts = [np.zeros((0, 2), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for m0, j0, block in blocks:  # a block's spare last row is 0 < r
        mask = block >= r
        cells.append(np.argwhere(mask) + (m0, j0))
        counts.append(block[mask])
    # blocks come in column order and argwhere and the mask list each one's
    # cells in row-major order, so the cells are in CellSet order, which
    # CellSet checks and keeps; each list is freed as it is joined
    counts = np.concatenate(counts)
    cells = np.concatenate(cells)
    return RichPointSet(r, CellSet(k, cells), counts)


def tube_count_histogram(t, b, k: int, rows: tuple[int, int] | None = None, weights=None) -> np.ndarray:
    """np.bincount(tube_count_grid(t, b, k, rows).ravel()), tube q repeated
    weights[q] times, reduced one column block at a time, so the grid is
    never held: hist[c] cells meet exactly c of the tubes, and hist[-1] counts
    the top multiplicity (a window of no cells gives [0], not the empty bincount)."""
    (r0, r1), blocks = tube_count_blocks(t, b, k, rows, weights)
    hist = np.zeros(1, dtype=np.int64)
    # the zero cells outside the bands, less the spare rows counted below
    zeros = (1 << k) * (r1 - r0)
    for _, _, block in blocks:
        h = np.bincount(block.ravel())
        if len(h) > len(hist):
            hist, h = h, hist
        hist[: len(h)] += h
        zeros -= block.size
    hist[0] += zeros
    return hist


def _incidence_ratios(family: TubeFamily, s: float, rs) -> list[Measurement]:
    """incidence_profile's ratios; s and every r are checked before any counting."""
    if not (0.5 <= s <= 1.0):
        raise ValueError("s must lie in [1/2, 1]")
    if rs is not None:
        if not all(isinstance(r, numbers.Integral) and r >= 1 for r in rs):
            raise ValueError("threshold r must be an integer >= 1")
        rs = [int(r) for r in rs]
    k = family.scale.k
    n = 1 << k
    # the dual points and slopes t / 2^k, b / 2^k as doubles: exact, and
    # without a Fraction per tube
    pts = list(zip((family.t / n).tolist(), (family.b / n).tolist()))
    c_kt = float(katz_tao_constant(pts, 1.0, family.scale))
    c_reg = float(regularity_constant(sorted_distinct(family.t) / n, s, family.scale))
    hist = tube_count_histogram(family.t, family.b, k, (0, n))
    if rs is None:
        rs = [1 << e for e in range(max(len(hist) - 1, 1).bit_length())]
    norm = (c_kt * c_reg) ** (1.0 / s) * float(1 / family.scale.delta) * len(family)
    out = []
    for r in rs:
        rich = int(hist[r:].sum())
        details = {"rich_cells": rich, "c_kt": c_kt, "c_reg": c_reg, "tubes": len(family), "r": r, "s": s}
        out.append(Measurement(rich * r ** ((s + 1.0) / s) / norm, details))
    return out


def verify_incidence_bound(family: TubeFamily, s: float, r: int) -> Measurement:
    """rho = |P_r|_delta * r^((s+1)/s) / ((C_KT * C_reg)^(1/s) * delta^-1 |F|).

    C_KT is the Katz-Tao constant of the family's dual points at exponent 1;
    C_reg the regularity constant of the slope set at exponent s. The
    incidence bound predicts rho = O(delta^-eps) for admissible families;
    r beyond the family size gives rho = 0 (no cell can be that rich).
    """
    return _incidence_ratios(family, s, [r])[0]


def incidence_profile(family: TubeFamily, s: float) -> list[Measurement]:
    """verify_incidence_bound at every power of two r up to the top cell
    multiplicity (just r = 1 when no cell is covered), with the multiplicity
    histogram and the two constants computed once for the whole sweep."""
    return _incidence_ratios(family, s, None)


@dataclass(frozen=True)
class SharpExample:
    """Family whose rich-point count meets the incidence bound's shape."""

    family: TubeFamily
    rect: Box          # every cell of this rectangle is r-rich by construction
    richness: int
    meta: dict = field(compare=False, default_factory=dict)


def sharp_example(s: float, delta: DyadicScale, r: int) -> SharpExample:
    """Direction-sparse family saturating the rich-point count.

    Slopes are r consecutive multiples (centered at 0) of the dyadic step
    2^-sep nearest delta^s from above, sep = floor(s k); each slope carries
    the offsets _offset_range gives for the slab P = [0, 1/r] x [0, 2^-sep / 4].
    Their lowest tube starts at or below P and their highest ends at or
    above it, so every point of P lies in one tube per slope and every cell
    of P is r-rich. Tube count is comparable to r * delta^(s-1).
    """
    if not (0.5 <= s < 1.0):
        raise ValueError("s must lie in [1/2, 1)")
    k = delta.k
    if r < 1:
        raise ValueError("need r >= 1")
    if r > 2 * 2.0 ** (k * s):
        raise ValueError(f"r = {r} exceeds 2 * delta^-s = {2 * 2.0 ** (k * s):.1f}")
    strict_r_ok = r <= 2.0 ** (k * s)
    # paper-style thinness condition delta^(-s(1-s)) >= r^(1-s); recorded, not fatal
    thin_ok = 2.0 ** (k * s * (1.0 - s)) >= r ** (1.0 - s)

    sep_exp = math.floor(s * k)  # separation 2^-sep_exp >= delta^s
    step = 1 << (k - sep_exp)    # slope-index step
    slope_idx = [(t - r // 2) * step for t in range(r)]
    if slope_idx[0] < -(1 << k) or slope_idx[-1] >= (1 << k):
        raise ValueError(
            f"r = {r} directions at separation 2^-{sep_exp} do not fit in [-1, 1)"
        )

    c = F(1, 4)
    rect = Box.of(0, 0, F(1, r), c * F(2) ** (-sep_exp))
    t, b = [], []
    for i in slope_idx:
        offsets = _offset_range(i, k, rect.x1, rect.y1)
        t += [i] * len(offsets)
        b += offsets

    return SharpExample(
        TubeFamily(delta, t, b),
        rect,
        r,
        meta={
            "predicted_tubes": r * 2.0 ** (k * (1.0 - s)),
            "slab_height_factor": c,
            "theta_separation": F(2) ** (-sep_exp),
            "arc_length": r * F(2) ** (-sep_exp),
            "strict_r_precondition": strict_r_ok,
            "thinness_condition": thin_ok,
        },
    )


def _offset_range(i: int, k: int, x1, y1) -> range:
    """Offset indices j whose slope-i tube at scale 2^-k meets the box
    [0, x1] x [0, y1] with positive length, as exact integers.

    At x >= 0 the tube's hull is [i x + j, (i + 1) x + j + 1] / 2^k, so over
    [0, x1] it reaches down to (min(0, i x1) + j) / 2^k and up to
    (max(0, (i + 1) x1) + j + 1) / 2^k. Strict inequalities drop tubes that
    only graze the box, so every index in the range rasterizes to at least
    one cell inside it; the range's ends put the lowest tube at or below 0
    and the highest at or above y1 at both x = 0 and x = x1.
    """
    return range(-math.ceil(max(0, (i + 1) * x1)), math.ceil(y1 * (1 << k) - min(0, i * x1)))


def cantor_slope_indices(s: float, k: int) -> np.ndarray:
    """Digit-restricted (Cantor-like) slope indices at scale 2^-k.

    Binary digits are free exactly at positions i <= k where floor(i*s)
    increments, giving 2^floor(k*s) indices in [0, 2^k) that form a
    (delta, s, O(1))-regular set of slopes, as one sorted int64 array. More
    than maximal._MAX_GRID_CELLS of them are refused before any is made.
    """
    from tubelab import maximal  # its caps, read at call time; maximal imports this module
    if not (0 < s <= 1):
        raise ValueError("s must lie in (0, 1]")
    free = [i for i in range(1, k + 1) if math.floor(i * s) > math.floor((i - 1) * s)]
    if k > maximal._MAX_SLOPE_K:
        raise ValueError(f"delta 1/{1 << k}: slope indices fit int64 only up to k = {maximal._MAX_SLOPE_K}")
    count, cap = 1 << len(free), maximal._MAX_GRID_CELLS
    if count > cap:
        raise ValueError(f"delta 1/{1 << k}: {count} Cantor slopes would exceed {cap}")
    slopes = np.zeros(1, dtype=np.int64)
    for i in reversed(free):  # smallest bit first: each tops every earlier sum, so slopes stay sorted
        slopes = np.concatenate([slopes, slopes + (1 << (k - i))])
    return slopes


def cantor_slope_family(s: float, delta: DyadicScale, seed: int = 0) -> TubeFamily:
    """Random family whose slopes form a digit-restricted (Cantor-like) set.

    Slopes come from cantor_slope_indices; each receives max(1,
    round(2^(k(1 - s)))) random offsets, which keeps the family near the
    Katz-Tao density delta^-1.
    """
    k = delta.k
    slopes = cantor_slope_indices(s, k)
    per_slope = max(1, round(2.0 ** (k * (1.0 - s))))
    rng = random.Random(seed)
    t, b = [], []
    for i in slopes.tolist():
        valid = _offset_range(i, k, 1, 1)
        chosen = rng.sample(valid, min(per_slope, len(valid)))
        t += [i] * len(chosen)
        b += sorted(chosen)
    return TubeFamily(delta, t, b)
