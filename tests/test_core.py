"""Core geometry: exact dyadic tube membership and rasterization."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import core
from tubelab.core import (
    Box,
    CellSet,
    DyadicScale,
    DyadicTube,
    _slope_hull,
    _tube_column_rows,
    rasterize_tube,
    tube_count_blocks,
    tube_count_grid,
)
from tubelab.incidence import TubeFamily
from tubelab.oracles import brute_cell_counts

F = Fraction


def _tube_rows(t, b, k, cols):
    """Row ranges [lo, hi) of the tubes DyadicTube(k, t[q], b[q]) over the
    grid columns cols, (len(t), len(cols)) each: the slope hull, shifted by
    the offset."""
    lo, hi = _slope_hull(np.array(t, dtype=np.int64)[:, None], np.array(cols, dtype=np.int64)[None, :], k)
    off = np.array(b, dtype=np.int64)[:, None]
    return lo + off, hi + off


class TestDyadicTubeMembership:
    def test_vertical_section_right_halfplane(self):
        # k=2: a=1/4, b=-1/4; at x=1/2 the section is [-1/8, 1/4)
        t = DyadicTube(2, 1, -1)
        assert t.contains(F(1, 2), F(-1, 8))
        assert t.contains(F(1, 2), F(24, 100))
        assert not t.contains(F(1, 2), F(1, 4))
        assert not t.contains(F(1, 2), F(-13, 100))

    def test_section_at_zero_is_offset_interval(self):
        t = DyadicTube(2, 1, -1)
        assert t.contains(0, F(-1, 4))
        assert t.contains(0, F(-1, 100))
        assert not t.contains(0, 0)

    def test_section_left_halfplane_is_open_below(self):
        # at x=-1/2 the section of the same tube is the open interval (-1/2, -1/8)
        t = DyadicTube(2, 1, -1)
        assert not t.contains(F(-1, 2), F(-1, 2))
        assert t.contains(F(-1, 2), F(-3, 10))
        assert not t.contains(F(-1, 2), F(-1, 8))

    def test_membership_equals_union_of_dual_lines(self):
        rng = random.Random(20240817)
        for _ in range(200):
            k = rng.randrange(1, 5)
            t = DyadicTube(k, rng.randrange(-(1 << k), 1 << k), rng.randrange(-6, 6))
            d = t.delta
            # a point on a line whose parameters lie inside the dual square
            ap = t.slope + d * F(rng.randrange(0, 64), 64)
            bp = t.offset + d * F(rng.randrange(0, 64), 64)
            x = F(rng.randrange(-32, 33), 16)
            assert t.contains(x, ap * x + bp)

    def test_points_outside_section_hull_rejected(self):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randrange(1, 5)
            t = DyadicTube(k, rng.randrange(-(1 << k), 1 << k), rng.randrange(-6, 6))
            x = F(rng.randrange(-32, 33), 16)
            lo, up = t.section(x)
            assert not t.contains(x, lo - F(1, 1000))
            assert not t.contains(x, up + F(1, 1000))
            assert not t.contains(x, up)

    def test_vertical_extent_grows_linearly(self):
        t = DyadicTube(3, 2, 1)
        for x in (0, F(1, 2), 1, F(-3, 4)):
            lo, up = t.section(x)
            assert up - lo == t.delta * (1 + abs(x))

    def test_slope_index_must_fit_dual_strip(self):
        with pytest.raises(ValueError):
            DyadicTube(2, 4, 0)
        with pytest.raises(ValueError):
            DyadicTube(2, -5, 0)
        DyadicTube(2, -4, 0)  # a = -1 allowed, square [-1, -3/4) x ...


class TestRasterize:
    def test_no_false_negatives_dyadic(self):
        # per_side^2 sample points per cell, decided in integers over
        # the common denominator d2 * 2^k, d2 = 2 per_side 2^kg: the point
        # (m + (2u+1)/(2 per_side)) / 2^kg is X / d2 with X = 2 per_side m + 2u + 1
        rng, pick = random.Random(99), random.Random(7)
        box = Box.of(-1, -2, 1, 2)
        per_side = 6
        u = 2 * np.arange(per_side) + 1
        for _ in range(12):
            k = rng.randrange(1, 4)
            t = DyadicTube(k, rng.randrange(-(1 << k), 1 << k), rng.randrange(-3, 3))
            kg = k + rng.randrange(0, 2)
            raster = rasterize_tube(t, DyadicScale(kg), box)
            c0, c1, r0, r1 = box.grid_range(kg)
            d2 = 2 * per_side << kg
            X = (2 * per_side * np.arange(c0, c1))[:, None, None, None] + u[:, None, None]
            Y = (2 * per_side * np.arange(r0, r1))[:, None] + u
            # in units of 1/(d2 2^k): slope*x = iX, offset = j d2, delta = d2
            lo = np.minimum(t.i * X, (t.i + 1) * X) + t.j * d2
            up = np.maximum(t.i * X, (t.i + 1) * X) + (t.j + 1) * d2
            y = Y << k
            inside = ((y > lo) | ((y == lo) & (X >= 0))) & (y < up)  # (col, u, row, v)
            for _ in range(200):
                m, a, j, b = (pick.randrange(n) for n in inside.shape)
                x_pt, y_pt = F(int(X[m, a, 0, 0]), d2), F(int(Y[j, b]), d2)
                assert bool(inside[m, a, j, b]) == t.contains(x_pt, y_pt)
            cols, rows = np.nonzero(inside.any(axis=(1, 3)))
            hits = set(zip((cols + c0).tolist(), (rows + r0).tolist()))
            missing = hits - {tuple(c) for c in raster.idx.tolist()}
            assert not missing

    def test_raster_cells_touch_tube_hull(self):
        # every raster cell's closed column span must meet the section hull
        t = DyadicTube(2, 1, -1)
        raster = rasterize_tube(t, DyadicScale(3), Box.of(-1, -2, 1, 2))
        dg = F(1, 8)
        for m, j in raster.idx:
            lo_l, up_l = t.section(m * dg)
            lo_r, up_r = t.section((m + 1) * dg)
            lo, up = min(lo_l, lo_r), max(up_l, up_r)
            assert lo <= (j + 1) * dg and j * dg <= up

    def test_grid_must_refine_tube_scale(self):
        with pytest.raises(ValueError):
            rasterize_tube(DyadicTube(3, 0, 0), DyadicScale(2))

    def test_only_dyadic_tubes(self):
        with pytest.raises(TypeError):
            rasterize_tube(object(), DyadicScale(2))


class TestTubeRowKernel:
    """_slope_hull and tube_count_grid against the scalar rule and per-tube rasters."""

    @staticmethod
    def _random_tubes(rng, k):
        # slopes over all of [-2^k, 2^k) with both ends, offsets far outside
        # the unit square, and a few repeated tubes
        n = 1 << k
        slopes = [-n, n - 1] + [rng.randrange(-n, n) for _ in range(rng.randrange(1, 24))]
        tubes = [(t, rng.randrange(-4 * n, 4 * n)) for t in slopes]
        return tubes + rng.choices(tubes, k=rng.randrange(1, 5))

    def test_rows_match_scalar_rule(self):
        rng = random.Random(2024)
        for _ in range(40):
            k = rng.randrange(1, 9)
            n = 1 << k
            tubes = self._random_tubes(rng, k)
            cols = [rng.randrange(-3 * n, 3 * n) for _ in range(12)]
            lo, hi = _tube_rows([t for t, _ in tubes], [b for _, b in tubes], k, cols)
            assert lo.shape == hi.shape == (len(tubes), len(cols))
            for q, (t, b) in enumerate(tubes):
                for c, m in enumerate(cols):
                    assert (lo[q, c], hi[q, c]) == _tube_column_rows(DyadicTube(k, t, b), k, m)

    # one column block, uneven blocks, one block per column
    @pytest.mark.parametrize("chunk", [1 << 18, 1 << 9, 7])
    def test_count_grid_matches_rasters(self, chunk, monkeypatch):
        monkeypatch.setattr(core, "_COUNT_CHUNK", chunk)
        rng = random.Random(chunk)
        for _ in range(8):
            k = rng.randrange(1, 9)
            n = 1 << k
            tubes = self._random_tubes(rng, k)
            t, b = [t for t, _ in tubes], [b for _, b in tubes]
            lo, hi = _tube_rows(t, b, k, range(n))
            for rows in ((0, n), None):
                r0, r1 = rows or (int(lo.min()), int(hi.max()))
                want = np.zeros((n, r1 - r0), dtype=np.int64)
                box = Box.of(0, F(r0, n), 1, F(r1, n))
                for q in range(len(tubes)):
                    idx = rasterize_tube(DyadicTube(k, t[q], b[q]), DyadicScale(k), box).idx
                    want[idx[:, 0], idx[:, 1] - r0] += 1
                grid = tube_count_grid(t, b, k, rows)
                assert grid.dtype == np.int64 and np.array_equal(grid, want)

    def test_count_grid_without_tubes(self):
        assert not tube_count_grid([], [], 3, (0, 8)).any()
        assert tube_count_grid([], [], 3, (0, 8)).shape == (8, 8)


@st.composite
def _count_cases(draw):
    """(k, t, b, weights, rows): tubes over every slope index, both ends
    included, offsets reaching past the unit square, repeated tubes, integer
    weights or none, and row windows that are the unit square, the default,
    or any window, cutting tubes or missing them all."""
    k = draw(st.integers(0, 7))
    n = 1 << k
    tube = st.tuples(st.integers(-n, n - 1), st.integers(-3 * n, 3 * n))
    tubes = draw(st.lists(tube, min_size=1, max_size=30))
    tubes += draw(st.lists(st.sampled_from(tubes), max_size=6))
    t, b = (np.array(v, dtype=np.int64) for v in zip(*tubes))
    weights = draw(st.none() | st.lists(st.integers(1, 5), min_size=len(t), max_size=len(t)))
    r0 = draw(st.integers(-4 * n, 4 * n))
    rows = draw(st.sampled_from([(0, n), None, (r0, r0 + draw(st.integers(0, 4 * n)))]))
    return k, t, b, weights, rows


def _reference_block(t, b, k, weights, m0, ncols, j0, w):
    """The count block of columns [m0, m0 + ncols) on the rows [j0, j0 + w):
    every tube's row range clipped to the rows, both event arrays built at
    once and bincounted, their difference prefix-summed along the rows."""
    cols = np.arange(m0, m0 + ncols)
    lo, hi = _tube_rows(t, b, k, cols)
    base = (cols - m0) * w - j0
    lo, hi = (np.clip(e, j0, j0 + w - 1) + base for e in (lo, hi))
    reps = None if weights is None else np.repeat(np.asarray(weights, dtype=np.float64), ncols)
    diff = np.bincount(lo.ravel(), reps, ncols * w) - np.bincount(hi.ravel(), reps, ncols * w)
    return diff.reshape(ncols, w).cumsum(axis=1, dtype=np.int64)


class TestCountBlocks:
    """tube_count_blocks against the rule of building both event arrays at
    once, and against per-tube rasters."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_count_cases(), st.sampled_from([7, 300, 1 << 19]))
    def test_blocks_match_reference_and_rasters(self, case, chunk):
        k, t, b, weights, rows = case
        n = 1 << k
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_COUNT_CHUNK", chunk)
            (r0, r1), blocks = tube_count_blocks(t, b, k, rows, weights)
            grid = np.zeros((n, max(r1 - r0, 0)), dtype=np.int64)
            m_next = 0
            for m0, j0, block in blocks:  # each block is checked before the next overwrites it
                ncols, w = block.shape
                assert m0 >= m_next and 0 <= j0 and j0 + w - 1 <= r1 - r0  # column order, band in the window
                m_next = m0 + ncols
                want = _reference_block(t, b, k, weights, m0, ncols, j0 + r0, w)
                assert block.dtype == np.int64 and block.tobytes() == want.tobytes()
                assert not block[:, -1].any()  # the spare row, which rich_points reads as 0 < r
                grid[m0 : m0 + ncols, j0 : j0 + w - 1] = block[:, :-1]
        # every cell outside the bands is 0: the whole window, one block
        assert grid.tobytes() == _reference_block(t, b, k, weights, 0, n, r0, r1 - r0 + 1)[:, :-1].tobytes()
        if k <= 6 and rows == (0, n):
            reps = np.ones(len(t), dtype=np.int64) if weights is None else np.array(weights)
            fam = TubeFamily(DyadicScale(k), np.repeat(t, reps), np.repeat(b, reps))
            want = np.zeros((n, n), dtype=np.int64)
            for (m, j), c in brute_cell_counts(fam).items():
                want[m, j] = c
            assert np.array_equal(grid, want)


class TestCellSet:
    def test_dedup_and_membership(self):
        cs = CellSet(3, [(0, 1), (2, -1), (0, 1)])
        assert len(cs) == 2
        assert sorted(map(tuple, cs.idx.tolist())) == [(0, 1), (2, -1)]
        assert CellSet(3, []).idx.shape == (0, 2)

    def test_index_is_row_of_sorted_cells(self):
        # idx holds each cell once, sorted by column and then row
        cs = CellSet(3, [(2, -1), (0, 5), (0, 1), (-1, 7), (0, 5), (2, -1)])
        assert len(cs) == 4
        assert cs.idx.tolist() == [[-1, 7], [0, 1], [0, 5], [2, -1]]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=30),
        st.sampled_from(["sorted", "shuffled", "sorted with repeats", "shuffled with repeats"]),
        st.sampled_from([list, np.int64, np.int32]),
        st.randoms(use_true_random=False),
    )
    def test_matches_lexsort_dedup(self, cells, order, kind, rnd):
        # cells already in order are kept as they are and any others sorted
        # and deduplicated: both give the lexsort-and-dedup reference, in an
        # array of the set's own that later writes to the input do not reach
        cells = sorted(set(cells))
        if "repeats" in order and cells:
            cells += rnd.choices(cells, k=rnd.randrange(1, 5))
        if order.startswith("sorted"):
            cells.sort()
        else:
            rnd.shuffle(cells)
        ref = np.array(cells, dtype=np.int64).reshape(-1, 2)
        if len(ref):
            ref = ref[np.lexsort((ref[:, 1], ref[:, 0]))]
            ref = ref[np.r_[True, (ref[1:] != ref[:-1]).any(axis=1)]]
        given_idx = cells if kind is list else np.array(cells, dtype=kind).reshape(-1, 2)
        cs = CellSet(3, given_idx)
        assert cs.idx.dtype == np.int64 and cs.idx.shape == ref.shape
        assert cs.idx.tobytes() == ref.tobytes()
        if kind is not list:
            given_idx += 1
        assert cs.idx.tobytes() == ref.tobytes()


def test_box_grid_range_handles_negatives():
    assert Box.of(-1, -1, 1, 1).grid_range(1) == (-2, 2, -2, 2)
    assert Box.of(F(-3, 4), 0, F(3, 4), F(1, 2)).grid_range(1) == (-2, 2, 0, 1)
