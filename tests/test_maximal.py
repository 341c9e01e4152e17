"""Maximal-operator, bush, and dual-norm tests.

Oracles: naive per-cell tube averaging, brute-force raster accumulation,
and exact closed-form identities on degenerate inputs.
"""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubelab import maximal
from tubelab.core import (
    BOX_DEFAULT,
    BOX_UNIT,
    Box,
    DyadicScale,
    DyadicTube,
    rasterize_tube,
    tube_count_grid,
)
from tubelab.incidence import TubeFamily, cantor_slope_indices, tube_count_histogram
from tubelab.maximal import (
    Assignment,
    BushCore,
    DirectionSet,
    GridFunction,
    aim_at_origin_assignment,
    bush_construction,
    dual_sum_norm,
    exponent_fit,
    kakeya_apply,
    kakeya_norm,
    nikodym_apply,
    norm_ratio,
    tube_sum_norm,
    _vertical_4sums,
)
from tubelab.oracles import brute_aim_assignment, digital_tube_cells, naive_tube_average

S_LOG23 = math.log(2) / math.log(3)


def random_function(scale, rng, box=BOX_DEFAULT):
    c0, c1, r0, r1 = box.grid_range(scale.k)
    return GridFunction(scale, box, rng.random((c1 - c0, r1 - r0)))


def reference_table(theta):
    """The aim-at-origin rule as two (2^k, 2^k) arrays t, b, by the
    vectorized nearest-slope search: the reference for the rule-held Assignment."""
    n = 1 << theta.scale.k
    idx = np.asarray(theta.indices, dtype=np.int64)
    u = 2 * np.arange(n, dtype=np.int64)[:, None] + 1
    v = n * (2 * np.arange(n, dtype=np.int64)[None, :] + 1)
    # theta[pos - 1] <= floor(v/u) < theta[pos]: the nearest is one of the two
    pos = np.searchsorted(idx, v // u, side="right")
    below = idx[np.maximum(pos - 1, 0)]
    above = idx[np.minimum(pos, len(idx) - 1)]
    # below * u <= v < above * u unless clamped (then above == below)
    t = np.where((above + below) * u < 2 * v, above, below)
    return t, (v - t * u) // (2 * n)


def lp_from_counts(counts, pprime, d):
    """L^p' norm of a multiplicity grid from its bincount, cell area d^2."""
    vals = np.arange(len(counts), dtype=np.float64)
    return (float((counts[1:] * vals[1:] ** pprime).sum()) * d * d) ** (1 / pprime)


def sample_cells(k, count, seed, edges=True):
    """The corners of the 2^k grid, its other edge cells when edges is set,
    and count seeded random cells."""
    n = 1 << k
    rim = {c for a in (range(n) if edges else (0, n - 1)) for b in (0, n - 1) for c in ((a, b), (b, a))}
    rng = np.random.default_rng(seed)
    return sorted(rim | {(int(i), int(j)) for i, j in rng.integers(0, n, (count, 2))})


def padded(f, box):
    """f zero-padded onto box, which must contain f's box, in f's dtype."""
    k = f.scale.k
    c0, c1, r0, r1 = box.grid_range(k)
    fc0, fc1, fr0, fr1 = f.box.grid_range(k)
    vals = np.zeros((c1 - c0, r1 - r0), dtype=f.values.dtype)
    vals[fc0 - c0 : fc1 - c0, fr0 - r0 : fr1 - r0] = f.values
    return GridFunction(f.scale, box, vals)


class TestDirectionSet:
    def test_slope_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\)"):
            DirectionSet(DyadicScale(4), (16,))
        with pytest.raises(ValueError, match="sorted"):
            DirectionSet(DyadicScale(4), (3, 1))

    def test_cantor_count(self):
        for k in (6, 9, 11):
            th = DirectionSet.cantor(S_LOG23, DyadicScale(k))
            assert len(th) == 1 << math.floor(k * S_LOG23)
            assert th.tag == "cantor" and th.s == S_LOG23

    @pytest.mark.parametrize("indices", [(0.5,), (1.0, 2.0), (True,), np.array([0.0]), [np.float64(3)], ("1",)])
    def test_non_integer_indices_refused(self, indices):
        # a fractional index once reached dual_sum_norm, which read (0.5,) as t = 0
        with pytest.raises(ValueError, match="must be integers"):
            DirectionSet(DyadicScale(4), indices)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(0, 62), st.data())
    def test_accepts_exactly_sorted_distinct_in_range_integers(self, k, data):
        n = 1 << k
        near = st.integers(-n - 2, n + 1) | st.sampled_from([-n, n - 1])
        vals = data.draw(st.lists(near | st.integers(-(1 << 70), 1 << 70), max_size=8)
                         | st.lists(near, max_size=8).map(sorted)
                         | st.lists(near, max_size=8, unique=True).map(sorted))
        forms = [tuple, list, lambda v: tuple(np.int64(x) for x in v), lambda v: np.array(v, dtype=np.int64)]
        if all(-n <= x < n for x in vals):
            forms.append(lambda v: np.array(v, dtype=np.int64 if k > 30 else np.int32))
        form = data.draw(st.sampled_from(forms if all(-(1 << 63) <= x < 1 << 63 for x in vals) else forms[:2]))
        given_ = form(vals)
        ok = all(-n <= x < n for x in vals) and all(a < b for a, b in zip(vals, vals[1:]))
        if not ok:
            with pytest.raises(ValueError):
                DirectionSet(DyadicScale(k), given_)
            return
        th = DirectionSet(DyadicScale(k), given_)
        assert th.indices.dtype == np.int64 and th.indices.ndim == 1
        assert not th.indices.flags.writeable
        assert th.indices.tolist() == vals and len(th) == len(vals)
        if isinstance(given_, np.ndarray):  # copied, so the caller's array stays writeable
            assert given_.flags.writeable and not np.shares_memory(given_, th.indices)

    @pytest.mark.parametrize("k", [63, 64, 80])
    def test_scale_past_int64_refused(self, k):
        # a few Cantor slopes at s = 0.1 would pass the count guard, but not
        # fit int64 at k = 80
        for make in (lambda: DirectionSet(DyadicScale(k), (0,)), lambda: DirectionSet.cantor(0.1, DyadicScale(k))):
            with pytest.raises(ValueError, match=f"^delta 1/{1 << k}: slope indices fit int64 only up to k = 62$"):
                make()

    def test_two_dimensional_indices_refused(self):
        with pytest.raises(ValueError, match="must be integers"):
            DirectionSet(DyadicScale(4), np.array([[0, 1]]))

    def test_cantor_indices_double_over_free_bits(self):
        for s, k in ((S_LOG23, 9), (0.5, 12), (1.0, 8), (0.3, 1)):
            free = [i for i in range(1, k + 1) if math.floor(i * s) > math.floor((i - 1) * s)]
            want = sorted(sum(c) for c in itertools.product(*[(0, 1 << (k - i)) for i in free]))
            idx = cantor_slope_indices(s, k)
            assert idx.dtype == np.int64 and idx.tolist() == want

    def test_cantor_count_guard(self, monkeypatch):
        # refused before any index is made, with the cap read at call time:
        # at 2^8, k = 8 builds 2^8 slopes and k = 9 would build 2^9
        monkeypatch.setattr(maximal, "_MAX_GRID_CELLS", 1 << 8)
        assert len(DirectionSet.cantor(1.0, DyadicScale(8))) == 256
        with pytest.raises(ValueError, match=r"^delta 1/512: 512 Cantor slopes would exceed 256$"):
            cantor_slope_indices(1.0, 9)

    def test_window(self):
        sc = DyadicScale(4)
        th = DirectionSet(sc, tuple(range(-16, 16)))
        w = th.window(F(1, 2), F(1, 8))
        assert w.indices.tolist() == [6, 7, 8, 9, 10]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_window_matches_fraction_filter(self, k, data):
        # omega - rho and omega + rho drawn on the slope lattice, often at a
        # slope of the set, hit its ties; a third of delta off the lattice
        # either way, and rho < 0 (an empty window), are drawn too
        n = 1 << k
        d = F(1, n)
        idx = data.draw(st.lists(st.integers(-n, n - 1), max_size=40, unique=True))
        th = DirectionSet(DyadicScale(k), tuple(sorted(idx)), "cantor", 0.5)
        lattice = st.integers(-n - 2, n + 2) | (st.sampled_from(idx) if idx else st.nothing())
        ends = st.builds(lambda a, e: (a + e) * d, lattice, st.sampled_from([0, F(1, 3), F(-1, 3)]))
        lo, hi = data.draw(ends), data.draw(ends)
        omega, rho = (lo + hi) / 2, (hi - lo) / 2
        w = th.window(omega, rho)
        assert w.indices.tolist() == [t for t in th.indices.tolist() if abs(t * d - omega) <= rho]
        assert (w.scale, w.tag, w.s) == (th.scale, th.tag, th.s)


class TestGridFunction:
    def test_shape_validation(self):
        sc = DyadicScale(3)
        with pytest.raises(ValueError, match="shape"):
            GridFunction(sc, BOX_DEFAULT, np.zeros((3, 3)))

    def test_negative_rejected(self):
        sc = DyadicScale(3)
        vals = np.zeros((32, 32))
        vals[0, 0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            GridFunction(sc, BOX_DEFAULT, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_nonfinite_or_negative_value_rejected(self, bad):
        vals = np.ones((32, 32))
        vals[5, 7] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GridFunction(DyadicScale(3), BOX_DEFAULT, vals)

    def test_negative_integer_rejected(self):
        vals = np.zeros((32, 32), dtype=np.int8)
        vals[31, 31] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            GridFunction(DyadicScale(3), BOX_DEFAULT, vals)

    def test_negative_zero_int8_and_empty_box_accepted(self):
        sc = DyadicScale(3)
        vals = np.full((32, 32), -0.0)
        assert GridFunction(sc, BOX_DEFAULT, vals).values is vals
        ind = np.ones((32, 32), dtype=np.int8)
        assert GridFunction(sc, BOX_DEFAULT, ind).values.dtype == np.int8
        # a zero-width box, built without Box.of's check, holds no cells
        flat = Box(F(0), F(0), F(0), F(1))
        assert GridFunction(sc, flat, np.zeros((0, 8))).values.shape == (0, 8)
        assert GridFunction(sc, flat, np.zeros((0, 8), dtype=np.int8)).values.size == 0

    def test_lp_norm_of_constant(self):
        f = GridFunction.constant(1.0, DyadicScale(5))
        # area of [-2,2]^2 is 16
        assert f.lp_norm(1) == pytest.approx(16.0, rel=1e-12)
        assert f.lp_norm(2) == pytest.approx(4.0, rel=1e-12)

    def test_lp_norm_sums_in_blocks(self):
        # a (2048, 2048) f: values**p is never held whole, an indicator sums
        # exactly, and random values agree with a correctly rounded sum
        sc = DyadicScale(9)
        rng = np.random.default_rng(3)
        ind = GridFunction(sc, BOX_DEFAULT, (rng.random((2048, 2048)) < 0.3).astype(np.float64))
        tracemalloc.start()
        try:
            ind.lp_norm(1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ind.values.nbytes / 4
        ones = int(ind.values.sum())
        for p in (1.0, 1.5, 2.0):
            assert ind.lp_norm(p) == (ones * 2.0**-18) ** (1 / p)
        f = GridFunction(sc, BOX_DEFAULT, rng.random((2048, 2048)))
        for p in (1.0, 1.5, 2.0):
            exact = (math.fsum((f.values**p).ravel()) * 2.0**-18) ** (1 / p)
            assert f.lp_norm(p) == pytest.approx(exact, rel=1e-14)

    def test_ball_indicator_at_origin(self):
        # the cells whose center lies in the closed delta-ball at the origin,
        # by the exact rule over every cell the ball can reach, on their
        # bounding box, as int8
        for k in range(1, 13):
            sc = DyadicScale(k)
            d = sc.delta
            want = [
                (i, j) for i in range(-3, 3) for j in range(-3, 3)
                if (F(2 * i + 1) * d / 2) ** 2 + (F(2 * j + 1) * d / 2) ** 2 <= d * d
            ]
            f = GridFunction.ball_indicator(sc)
            c0, _, r0, _ = f.box.grid_range(k)
            assert f.values.dtype == np.int8 and f.values.all()
            assert sorted((c0 + i, r0 + j) for i, j in np.argwhere(f.values).tolist()) == want


class TestNikodymApply:
    def test_constant_one_maps_to_one(self):
        sc = DyadicScale(6)
        th = DirectionSet.cantor(0.5, sc)
        out = nikodym_apply(GridFunction.constant(1.0, sc), th)
        assert (out.values == 1.0).all()

    def test_zero_maps_to_zero(self):
        sc = DyadicScale(5)
        th = DirectionSet(sc, tuple(range(16)))
        out = nikodym_apply(GridFunction.constant(0.0, sc), th)
        assert (out.values == 0.0).all()

    def test_scale_mismatch_rejected(self):
        f = GridFunction.constant(1.0, DyadicScale(5))
        th = DirectionSet.cantor(0.5, DyadicScale(6))
        with pytest.raises(ValueError, match="scale mismatch"):
            nikodym_apply(f, th)

    # the pass reads columns [-1/2, 3/2) and rows [-3/2 - 2 delta, 5/2 + delta)
    @pytest.mark.parametrize(
        "box",
        [Box.of(F(1, 4), F(1, 8), F(3, 4), F(5, 8)), Box.of(-2, -2, 1, F(3, 2)), Box.of(-2, -2, F(-3, 4), 2)],
        ids=["small", "partly-outside-read-window", "disjoint-from-read-window"],
    )
    def test_own_box_matches_padded_copy(self, box):
        sc = DyadicScale(5)
        f = random_function(sc, np.random.default_rng(8), box)
        g = padded(f, BOX_DEFAULT)
        th = DirectionSet(sc, (-32, -9, 0, 14, 31), "explicit")
        out = nikodym_apply(f, th).values
        assert out.tobytes() == nikodym_apply(g, th).values.tobytes()
        assert kakeya_apply(f, th).tobytes() == kakeya_apply(g, th).tobytes()
        assert out.any() == (box.x1 > F(-1, 2))

    def test_matches_naive_oracle(self):
        sc = DyadicScale(6)
        rng = np.random.default_rng(7)
        for trial in range(20):
            f = random_function(sc, rng)
            t = int(rng.integers(-64, 64))
            fast = nikodym_apply(f, DirectionSet(sc, (t,))).values
            for _ in range(5):
                m, n = int(rng.integers(0, 64)), int(rng.integers(0, 64))
                want = naive_tube_average(f, t, m, n)
                assert fast[m, n] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_extreme_slopes_exact_on_indicators(self, k):
        # t = -2^k and 2^k - 1 shear the farthest; on a 0/1 function every
        # sum is an integer, so the strip pass must equal the per-cell sum
        sc = DyadicScale(k)
        n = 1 << k
        rng = np.random.default_rng(k)
        c0, c1, r0, r1 = BOX_DEFAULT.grid_range(k)
        f = GridFunction(sc, BOX_DEFAULT, rng.integers(0, 2, (c1 - c0, r1 - r0)))
        cells = [(m, j) for m in range(n) for j in range(n)]
        if k == 6:  # the per-cell oracle is slow: corners shear farthest, plus a sample
            cells = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)] + [
                tuple(map(int, rng.integers(0, n, 2))) for _ in range(40)
            ]
        for t in (-n, n - 1):
            fast = nikodym_apply(f, DirectionSet(sc, (t,))).values
            for m, j in cells:
                assert fast[m, j] == naive_tube_average(f, t, m, j)

    def test_slope_outside_range_rejected(self):
        # a one-direction pass takes its slope through a DirectionSet
        for t in (-17, 16):
            with pytest.raises(ValueError, match=r"\[-1, 1\)"):
                DirectionSet(DyadicScale(4), (t,))

    def test_linf_contraction(self):
        sc = DyadicScale(6)
        rng = np.random.default_rng(3)
        f = random_function(sc, rng)
        th = DirectionSet.cantor(0.7, sc)
        out = nikodym_apply(f, th)
        assert out.max_value() <= f.max_value() * (1 + 1e-12)

    def test_sublinear_and_homogeneous(self):
        sc = DyadicScale(5)
        rng = np.random.default_rng(4)
        f, g = random_function(sc, rng), random_function(sc, rng)
        th = DirectionSet.cantor(0.5, sc)
        fg, f4 = GridFunction(sc, f.box, f.values + g.values), GridFunction(sc, f.box, 4.0 * f.values)
        of, og, ofg = nikodym_apply(f, th), nikodym_apply(g, th), nikodym_apply(fg, th)
        assert (ofg.values <= of.values + og.values + 1e-12).all()
        # exact for a power-of-two scalar: identical summation order
        assert (nikodym_apply(f4, th).values == 4.0 * of.values).all()

    def test_monotone_in_directions(self):
        sc = DyadicScale(5)
        rng = np.random.default_rng(5)
        f = random_function(sc, rng)
        big = DirectionSet(sc, tuple(range(32)))
        small = DirectionSet(sc, big.indices[::4], "explicit")
        assert (nikodym_apply(f, small).values <= nikodym_apply(f, big).values).all()

    def test_union_bound(self):
        sc = DyadicScale(5)
        rng = np.random.default_rng(6)
        f = random_function(sc, rng)
        th = DirectionSet.cantor(0.6, sc)
        total = sum(nikodym_apply(f, DirectionSet(sc, (t,))).values for t in th.indices)
        assert (nikodym_apply(f, th).values <= total + 1e-12).all()


@st.composite
def _boxed_functions(draw):
    """(f, t): f random on a random grid-aligned box at k = 1..4, floats or
    small int8 integers, and t random or at either extreme. A box is any
    size up to 3 * 2^k square, or wide and flat: up to 4 * 2^k columns, the
    whole read window's width, by 1 to 3 rows."""
    k = draw(st.integers(1, 4))
    n = 1 << k
    c0, r0 = draw(st.integers(-3 * n, 2 * n)), draw(st.integers(-3 * n, 3 * n))
    if draw(st.booleans()):
        w, h = draw(st.integers(1, 3 * n)), draw(st.integers(1, 3 * n))
    else:
        w, h = draw(st.integers(1, 4 * n)), draw(st.integers(1, 3))
    d = F(1, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.random((w, h)) if draw(st.booleans()) else rng.integers(0, 4, (w, h), dtype=np.int8)
    f = GridFunction(DyadicScale(k), Box.of(c0 * d, r0 * d, (c0 + w) * d, (r0 + h) * d), vals)
    return f, draw(st.sampled_from([-n, n - 1]) | st.integers(-n, n - 1))


class TestRunningRowPass:
    """The shear pass, one running row of prefix sums added column by
    column, against the per-cell oracle and against f zero-padded to the
    whole read window, and its memory on the whole window."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_boxed_functions())
    def test_matches_naive_oracle(self, case):
        f, t = case
        k = f.scale.k
        n = 1 << k
        fast = nikodym_apply(f, DirectionSet(f.scale, (t,))).values
        b = f.box
        hull = Box.of(min(b.x0, -2), min(b.y0, -2), max(b.x1, 2), max(b.y1, 2))
        g = padded(f, hull)
        exact = (f.values == np.floor(f.values)).all()
        for m in range(n):
            for j in range(n):
                want = naive_tube_average(g, t, m, j)
                assert fast[m, j] == (want if exact else pytest.approx(want, rel=1e-12))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_boxed_functions(), st.data())
    def test_narrowed_pass_matches_whole_window(self, case, data):
        # the pass folds only the columns f's box fills and writes only the
        # band of centers they reach; f zero-padded over the whole read
        # window (columns [-1/2, 3/2), rows within [-5/2, 3)) takes every
        # column and row, and both give the same bytes
        f, t = case
        n = 1 << f.scale.k
        ts = data.draw(st.lists(st.integers(-n, n - 1), max_size=3))
        th = DirectionSet(f.scale, tuple(sorted({-n, n - 1, t, *ts})))
        b = f.box
        g = padded(f, Box.of(min(b.x0, -1), min(b.y0, -3), max(b.x1, 2), max(b.y1, 3)))
        want = nikodym_apply(g, th).values.tobytes(), kakeya_apply(g, th).tobytes()
        got = nikodym_apply(f, th).values.tobytes(), kakeya_apply(f, th).tobytes()
        assert got == want

    def test_whole_window_pass_memory(self):
        # a float f on the whole read window: the pass holds v4, the
        # windows' buffer and one running row, and Nikodym adds its running
        # max, divided in place into its output, each (2^k)^2 float64 cells;
        # no per-column temporaries
        k = 8
        n = 1 << k
        sc = DyadicScale(k)
        rng = np.random.default_rng(11)
        f = GridFunction(sc, BOX_DEFAULT, rng.random((4 * n, 4 * n)))
        th = DirectionSet(sc, np.sort(rng.choice(np.arange(-n, n), 16, replace=False)))
        v4 = _vertical_4sums(f).v4.nbytes
        tracemalloc.start()
        try:
            out = nikodym_apply(f, th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.max() > 0
        assert peak <= v4 + 2 * (n * n * 8) + (256 << 10)


class TestBlockedPass:
    """The per-direction pass: int32 sums against float64 sums, the one
    pass both operators reduce, its memory on a bush core, and the grid
    guard."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        st.integers(1, 6),
        st.sampled_from(["0/1", "small", "int32 limit"]),
        st.integers(0, 2**32 - 1),
    )
    def test_int_pass_matches_float_pass(self, k, kind, seed):
        # an integer-typed f takes the int32 pass and its float copy the
        # float64 pass, up to the largest value the int32 pass takes
        n = 1 << k
        top = np.iinfo(np.int32).max // (8 << k)
        lo, hi = {"0/1": (0, 1), "small": (0, 9), "int32 limit": (top - 1, top)}[kind]
        rng = np.random.default_rng(seed)
        f = GridFunction(DyadicScale(k), BOX_DEFAULT, rng.integers(lo, hi + 1, (4 * n, 4 * n)))
        g = GridFunction(f.scale, f.box, f.values.astype(np.float64))
        assert (_vertical_4sums(f).v4.dtype, _vertical_4sums(g).v4.dtype) == (np.int32, np.float64)
        ts = sorted({-n, n - 1, *map(int, rng.integers(-n, n, 4))})
        th = DirectionSet(f.scale, tuple(ts), "explicit")

        def outputs(h):
            return (nikodym_apply(h, th).values.tobytes(), kakeya_apply(h, th).tobytes(),
                    [nikodym_apply(h, DirectionSet(h.scale, (t,))).values.tobytes() for t in ts])

        assert outputs(f) == outputs(g)

    def test_pass_dtype_follows_values(self):
        # an integer dtype up to top sums in int32; above top, or any float
        # dtype, in float64
        sc = DyadicScale(4)
        top = np.iinfo(np.int32).max // (8 << 4)
        shape = (64, 64)  # BOX_DEFAULT at k = 4
        for values, dtype in (
            (np.ones(shape, np.int8), np.int32),
            (np.full(shape, top, np.int64), np.int32),
            (np.full(shape, top, np.uint32), np.int32),
            (np.full(shape, top + 1, np.int64), np.float64),
            (np.ones(shape, np.float64), np.float64),
            (np.ones(shape, np.float32), np.float64),
        ):
            f = GridFunction(sc, BOX_DEFAULT, values)
            assert _vertical_4sums(f).v4.dtype == dtype, values.dtype
        # only the part of f the pass reads counts: top + 1 outside it keeps int32
        vals = np.ones(shape, np.int64)
        vals[0, 0] = top + 1
        assert _vertical_4sums(GridFunction(sc, BOX_DEFAULT, vals)).v4.dtype == np.int32
        far = GridFunction(sc, Box.of(-2, -2, F(-3, 4), 2), np.full((20, 64), top + 1))
        assert _vertical_4sums(far).v4.dtype == np.int32  # reads none of f

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_both_operators_reduce_one_pass(self, k, data):
        # Kakeya at direction q is the max of the one-direction Nikodym output,
        # for an int8 and a float f, and an int8 f equals its float copy
        n = 1 << k
        sc = DyadicScale(k)
        ts = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=6, unique=True))
        th = DirectionSet(sc, tuple(sorted(ts)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        ind = GridFunction(sc, BOX_DEFAULT, (rng.random((4 * n, 4 * n)) < 0.3).astype(np.int8))
        for f in (ind, random_function(sc, rng)):
            kak = kakeya_apply(f, th)
            assert kak.dtype == np.float64 and kak.shape == (len(th),)
            for q, t in enumerate(th.indices):
                assert kak[q] == nikodym_apply(f, DirectionSet(sc, (t,))).values.max()
        copy = GridFunction(sc, BOX_DEFAULT, ind.values.astype(np.float64))
        assert nikodym_apply(ind, th).values.tobytes() == nikodym_apply(copy, th).values.tobytes()
        assert kakeya_apply(ind, th).tobytes() == kakeya_apply(copy, th).tobytes()

    def test_bush_pass_memory_at_k10(self):
        # the pass holds the core's 4 columns and one band of centers, so
        # Kakeya stays under 1 MiB and Nikodym adds only its (2^10)^2
        # float64 running max and output (8 MiB); a V4 on the whole read
        # window would take 32 MiB alone
        sc = DyadicScale(10)
        th = DirectionSet.cantor(S_LOG23, sc)
        f = bush_construction(th, F(1, 2), F(1, 2)).core.indicator(sc)
        for op, cap in ((nikodym_apply, 16 << 20), (kakeya_apply, 1 << 20)):
            tracemalloc.start()
            try:
                out = op(f, th)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.max(getattr(out, "values", out)) > 0
            assert peak <= cap, op.__name__

    def test_nikodym_holds_one_grid_at_k11(self):
        # the int32 sums' running max is taken into the float64 output grid
        # and divided in place: 32 MiB at k = 11, where an int32 max beside
        # its float64 quotient took 48 MiB
        sc = DyadicScale(11)
        th = DirectionSet.cantor(S_LOG23, sc)
        f = bush_construction(th, F(1, 2), F(1, 2)).core.indicator(sc)
        tracemalloc.start()
        try:
            out = nikodym_apply(f, th)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.dtype == np.float64 and out.values.max() > 0
        assert peak <= (8 << 22) + (1 << 20)

    def test_grid_cap_refuses_before_allocating(self, monkeypatch):
        passes = (nikodym_apply, kakeya_apply)

        def inputs(k):
            sc = DyadicScale(k)
            return GridFunction.ball_indicator(sc), DirectionSet(sc, (0, 5))

        # 2^-13 is past the cap: refused with no (2^13)^2 array made
        for call in passes:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="^delta 1/8192: a 8192x8192 grid would exceed 16777216 cells$"):
                    call(*inputs(13))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        # the cap is read at call time: at 2^8 cells, k = 4 runs and k = 5 does not
        monkeypatch.setattr(maximal, "_MAX_GRID_CELLS", 1 << 8)
        for call in passes:
            call(*inputs(4))
            with pytest.raises(ValueError, match="^delta 1/32: a 32x32 grid would exceed 256 cells$"):
                call(*inputs(5))


class TestKakeyaApply:
    def test_empty_direction_set_refused_by_both_operators(self):
        # the shared pass refuses an empty theta, so Kakeya's norm never
        # divides by |theta| = 0
        sc = DyadicScale(4)
        f, empty = GridFunction.constant(1.0, sc), DirectionSet(sc, [])
        for call in (nikodym_apply, kakeya_apply):
            with pytest.raises(ValueError, match="^empty direction set$"):
                call(f, empty)
        for op in ("nikodym", "kakeya"):
            with pytest.raises(ValueError, match="^empty direction set$"):
                norm_ratio(f, empty, 2.0, op)

    def test_constant_one(self):
        sc = DyadicScale(5)
        th = DirectionSet.cantor(0.5, sc)
        vals = kakeya_apply(GridFunction.constant(1.0, sc), th)
        assert vals.dtype == np.float64 and vals.shape == (len(th),)
        assert (vals == 1.0).all()

    def test_ball_lower_bound_every_direction(self):
        sc = DyadicScale(6)
        d = float(sc.delta)
        th = DirectionSet(sc, tuple(range(-64, 64)))
        f = GridFunction.ball_indicator(sc)
        vals = kakeya_apply(f, th)
        assert vals.min() >= d / 8
        assert vals.min() >= d  # measured: the 4 ball cells always fit

    def test_digital_tube_self_recovery(self):
        sc = DyadicScale(6)
        for t in (0, 23, -40):
            cells = digital_tube_cells(sc, (32, 32), t)
            assert len(cells) == 4 * 64
            f = GridFunction.indicator_cells(sc, cells)
            vals = kakeya_apply(f, DirectionSet(sc, (t,), "explicit"))
            assert vals.tolist() == [1.0]  # >= 1/2 required; exact recovery holds

    def test_dyadic_raster_self_recovery(self):
        sc = DyadicScale(6)
        for t, j in ((7, 10), (40, 3), (-25, 50)):
            tube = DyadicTube(6, t, j)
            f = GridFunction.indicator_cells(sc, rasterize_tube(tube, sc, BOX_DEFAULT))
            vals = kakeya_apply(f, DirectionSet(sc, (t,), "explicit"))
            assert vals.shape == (1,) and vals[0] >= 0.5

    def test_single_direction_consistency_with_nikodym(self):
        sc = DyadicScale(5)
        rng = np.random.default_rng(9)
        f = random_function(sc, rng)
        for t in (-17, 0, 30):
            th = DirectionSet(sc, (t,), "explicit")
            assert [nikodym_apply(f, th).max_value()] == kakeya_apply(f, th).tolist()


def _window_tubes(b):
    """The bush's tubes: one through the origin per window slope."""
    return [DyadicTube(b.window.scale.k, t, 0) for t in b.window.indices]


def _window_union(b, sc, box):
    """The cells of box in the union of the window tubes' rasters."""
    seen = set()
    for t in _window_tubes(b):
        seen.update(map(tuple, rasterize_tube(t, sc, box).idx.tolist()))
    return seen


def _central_cells(b, sc):
    """Cells of [0,1)^2 in the window tubes' union with |2i + 1| <= 2^k / 2:
    from each, a unit-length tube in any window direction covers every
    column of the core."""
    n = 1 << sc.k
    cen = sorted(c for c in _window_union(b, sc, BOX_UNIT) if abs(2 * c[0] + 1) <= n // 2)
    return np.array(cen, dtype=np.int64).reshape(-1, 2)


@st.composite
def _bush_windows(draw):
    """(theta, omega, rho): a random slope index set at k = 3..8, and a
    window centred on one of its slopes with radius delta .. 1."""
    k = draw(st.integers(3, 8))
    n = 1 << k
    indices = tuple(sorted(draw(st.sets(st.integers(-n, n - 1), min_size=1, max_size=24))))
    sc = DyadicScale(k)
    omega = F(draw(st.sampled_from(indices)), n)
    rho = F(draw(st.integers(1, n)), n)
    return DirectionSet(sc, indices, "explicit"), omega, rho


class TestBushConstruction:
    def test_preconditions(self):
        sc = DyadicScale(6)
        th = DirectionSet(sc, tuple(range(64)))
        with pytest.raises(ValueError, match="rho"):
            bush_construction(th, F(1, 2), F(1, 128))
        with pytest.raises(ValueError, match="empty"):
            bush_construction(th, -F(1, 2), F(1, 16))

    @pytest.mark.parametrize(
        "omega,rho",
        [(F(1, 4), F(1, 16)), (F(1, 2), F(1, 2)), (F(0), F(1)), (F(3, 4), F(1, 64)), (F(1, 8), F(1, 8))],
    )
    def test_core_inside_every_tube_and_certified(self, omega, rho):
        sc = DyadicScale(6)
        th = DirectionSet(sc, tuple(range(64)))
        b = bush_construction(th, omega, rho)
        core = b.core
        for fx in (-1, -F(1, 2), 0, F(1, 2), 1):
            for fy in (-1, 0, 1):
                x = fx * core.x_half
                y = core.slope * x + core.y_center + fy * core.y_half
                assert all(t.contains(x, y) for t in _window_tubes(b))
        assert b.meta["rect_certified"]
        assert b.meta["c0_core"] >= 1 / 8

    @pytest.mark.parametrize(
        "theta,omega,rho",
        [
            pytest.param(("cantor", 0.7, 5), F(1, 4), F(1, 4), id="cantor-k5"),
            pytest.param(("cantor", S_LOG23, 7), F(1, 2), F(1, 2), id="cantor-k7"),
            pytest.param(("cantor", 0.5, 8), F(1, 4), F(1, 8), id="cantor-k8"),
            pytest.param(("arc", -64, 64, 6), F(0), F(1), id="arc-k6-full"),
            pytest.param(("arc", -64, 96, 7), -F(1, 4), F(1, 8), id="arc-k7"),
            pytest.param(("arc", -16, 16, 4), F(-1), F(1, 16), id="arc-k4-steepest"),
        ],
    )
    def test_union_is_raster_union(self, theta, omega, rho):
        # the window tubes' union over x in [0, 1), |y| < 2, as the support of
        # their tube_count_grid, against the rasterize_tube union that the
        # central-cell tests read
        if theta[0] == "cantor":
            sc = DyadicScale(theta[2])
            th = DirectionSet.cantor(theta[1], sc)
        else:
            sc = DyadicScale(theta[3])
            th = DirectionSet(sc, tuple(range(theta[1], theta[2])))
        b = bush_construction(th, omega, rho)
        n = 1 << sc.k
        grid = tube_count_grid(b.window.indices, [0] * len(b.window), sc.k, (-2 * n, 2 * n))
        support = {(i, j - 2 * n) for i, j in np.argwhere(grid > 0).tolist()}
        assert support == _window_union(b, sc, Box.of(0, -2, 1, 2))
        assert grid.max() == len(b.window)  # every window tube meets cell (0, 0)

    @pytest.mark.parametrize(
        "theta,omega,rho",
        [
            pytest.param(("cantor", S_LOG23, 7), F(1, 2), F(1, 2), id="cantor-k7"),
            pytest.param(("cantor", 0.5, 8), F(1, 4), F(1, 8), id="cantor-k8"),
            pytest.param(("arc", -64, 96, 7), -F(1, 4), F(1, 8), id="arc-k7"),
            pytest.param(("arc", -64, 64, 6), F(0), F(1), id="arc-k6-full"),
            pytest.param(("arc", 0, 512, 9), F(1, 2), F(1, 2), id="arc-k9-512-slopes"),
            pytest.param(("arc", -32, -20, 5), -F(53, 64), F(11, 64), id="arc-k5-narrowed"),
        ],
    )
    def test_end_tubes_certify_like_all_tubes(self, theta, omega, rho):
        if theta[0] == "cantor":
            sc = DyadicScale(theta[2])
            th = DirectionSet.cantor(theta[1], sc)
        else:
            sc = DyadicScale(theta[3])
            th = DirectionSet(sc, tuple(range(theta[1], theta[2])))
        b = bush_construction(th, omega, rho)
        # the candidate cores and the choice rule, each candidate certified
        # against every window tube
        d, tubes = sc.delta, _window_tubes(b)
        a_min, a_max = tubes[0].slope, tubes[-1].slope
        spread, mid = a_max - a_min, (a_min + a_max + d) / 2
        s_up, r_inv = 1 + mid * mid / 2, 1 - mid * mid / 2 + 3 * mid**4 / 8
        w_half, l_half = d / 8, d / (8 * rho)
        picked = []
        for num in range(6, 0, -1):
            x_half = min(F(num, 8) * d / (spread + d), F(1, 4))
            y_half = (d + (d - spread) * x_half) / 2 if spread < d else (d - (spread - d) * x_half) / 2
            y_half = min(y_half * F(7, 8), 3 * d / 8)
            if y_half <= 0:
                continue
            cand = BushCore(mid, d / 2, x_half, y_half)
            if all(t.contains(x, y) for x, y in cand.vertices() for t in tubes):
                rect_ok = w_half * s_up <= y_half and (l_half + w_half * abs(mid)) * r_inv <= x_half
                picked.append((cand, rect_ok))
                if rect_ok:
                    break
        core, rect_ok = picked[-1] if picked[-1][1] else picked[0]
        assert (b.core, b.meta["rect_certified"]) == (core, rect_ok)

    def test_core_narrowed_when_widest_rectangle_fails(self):
        # slopes -1 .. -21/32 at the least rho that holds them: the widest
        # core (x_half = 6/8 delta / (spread + delta)) is certified but its
        # inscribed rectangle is not, so the next candidate, 5/8, is kept
        sc = DyadicScale(5)
        th = DirectionSet(sc, tuple(range(-32, -20)))
        b = bush_construction(th, -F(53, 64), F(11, 64))
        assert len(b.window) == 12 and b.meta["rect_certified"]
        assert b.core == BushCore(-F(13, 16), F(1, 64), F(5, 96), F(161, 24576))

    @pytest.mark.parametrize("indices", [range(-16, 16), range(-3, 9), (-16, -5, 0, 2, 3, 15), (4,)])
    def test_end_tubes_bind_every_tube_between(self, indices):
        # membership in the first and the last offset-0 tube decides
        # membership in every tube between them, boundary points included
        k, d = 4, F(1, 16)
        tubes = [DyadicTube(k, i, 0) for i in indices]
        ys = set()
        for x in (F(i, 16) for i in range(-16, 17)):
            for t in tubes:
                for y in t.section(x):
                    ys.update((x, y + e) for e in (-d / 16, 0, d / 16))
        for x, y in ys:
            inside = all(t.contains(x, y) for t in tubes)
            assert inside == (tubes[0].contains(x, y) and tubes[-1].contains(x, y)), (x, y)

    def test_single_slope_window(self):
        sc = DyadicScale(6)
        th = DirectionSet(sc, (5,))
        b = bush_construction(th, F(5, 64), sc.delta)
        assert b.window.indices.tolist() == [5]
        (tube,) = _window_tubes(b)
        assert all(tube.contains(x, y) for x, y in b.core.vertices())

    def test_window_slopes_within_rho(self):
        sc = DyadicScale(6)
        th = DirectionSet.cantor(S_LOG23, sc)
        b = bush_construction(th, F(1, 2), F(1, 4))
        assert b.window.indices.tolist() == [t for t in th.indices.tolist() if abs(t * sc.delta - F(1, 2)) <= F(1, 4)]

    @pytest.mark.parametrize("omega,rho", [(F(1, 4), F(1, 16)), (F(5, 8), F(1, 8))])
    def test_core_average_on_central_cells(self, omega, rho):
        """Output >= |R| / |T'| on every central union cell, |T'| = 4 delta."""
        sc = DyadicScale(7)
        th = DirectionSet(sc, tuple(range(128)))
        b = bush_construction(th, omega, rho)
        out = nikodym_apply(b.core.indicator(sc), th)
        thr = float(b.core.area()) / (4 * float(sc.delta))
        cen = _central_cells(b, sc)
        assert len(cen) > 50
        assert (out.values[cen[:, 0], cen[:, 1]] >= thr).all()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_bush_windows())
    def test_core_average_on_central_cells_generated(self, case):
        th, omega, rho = case
        sc = th.scale
        b = bush_construction(th, omega, rho)
        out = nikodym_apply(b.core.indicator(sc), th)
        thr = float(b.core.area()) / (4 * float(sc.delta))
        cen = _central_cells(b, sc)
        assert (out.values[cen[:, 0], cen[:, 1]] >= thr).all()


class TestNormRatio:
    def test_constant_one_nikodym_is_one(self):
        sc = DyadicScale(5)
        th = DirectionSet.cantor(0.5, sc)
        f = GridFunction.constant(1.0, sc)
        for p in (1.0, 1.5, 2.0):
            assert norm_ratio(f, th, p, "nikodym") == pytest.approx(
                f.lp_norm(p) ** 0 * nikodym_apply(f, th).lp_norm(p) / f.lp_norm(p), rel=1e-12
            )
            # output is 1 on [0,1)^2, so the ratio is (1/16)^(1/p)
            assert norm_ratio(f, th, p, "nikodym") == pytest.approx((1 / 16) ** (1 / p), rel=1e-12)

    def test_zero_function_rejected(self):
        sc = DyadicScale(5)
        th = DirectionSet.cantor(0.5, sc)
        with pytest.raises(ValueError, match="zero"):
            norm_ratio(GridFunction.constant(0.0, sc), th, 2.0, "nikodym")

    def test_unknown_operator(self):
        sc = DyadicScale(5)
        th = DirectionSet.cantor(0.5, sc)
        with pytest.raises(ValueError, match="operator"):
            norm_ratio(GridFunction.constant(1.0, sc), th, 2.0, "radon")

    def test_kakeya_default_weights_match_explicit(self):
        sc = DyadicScale(6)
        th = DirectionSet.cantor(S_LOG23, sc)
        f = GridFunction.ball_indicator(sc)
        w = float(sc.delta) ** S_LOG23
        p = 1 + S_LOG23
        # the L^p(mu) norm with mu = delta^s on every direction, written out
        explicit = sum(v**p * w for v in kakeya_apply(f, th).tolist()) ** (1 / p)
        assert norm_ratio(f, th, p, "kakeya") == explicit / f.lp_norm(p)

    def test_kakeya_untagged_uses_counting_measure(self):
        sc = DyadicScale(5)
        th = DirectionSet(sc, (0, 16))
        f = GridFunction.constant(1.0, sc)
        # K == 1 per direction, mu total 1 -> numerator 1
        assert norm_ratio(f, th, 2.0, "kakeya") == pytest.approx(1 / f.lp_norm(2), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, -1.0, 0.5])
    def test_kakeya_norm_refuses_p_below_one(self, p):
        # as lp_norm does; at p = 0 the root 1/p divided by zero
        sc = DyadicScale(4)
        th = DirectionSet.cantor(0.5, sc)
        with pytest.raises(ValueError, match="^p must be >= 1$"):
            kakeya_norm(kakeya_apply(GridFunction.ball_indicator(sc), th), th, p)


@st.composite
def _index_sets(draw, top_k=6):
    """(k, indices): k = 2..top_k and a sorted, distinct, nonempty slope
    index set in [-2^k, 2^k), negative-only in about half the draws."""
    k = draw(st.integers(2, top_k))
    n = 1 << k
    top = draw(st.sampled_from([n, 0]))
    return k, tuple(sorted(draw(st.sets(st.integers(-n, top - 1), min_size=1, max_size=min(2 * n, 128)))))


class TestDualSumNorm:
    def test_single_tube_everywhere_identity(self):
        # one tube held by every cell: the weighted count puts n^2 on its raster
        sc = DyadicScale(5)
        n, d = 32, float(F(1, 32))
        hist = tube_count_histogram([13], [-7], 5, weights=[n * n])
        count = len(rasterize_tube(DyadicTube(5, 13, -7), sc, Box.of(0, -4, 1, 4)))
        assert len(hist) == n * n + 1 and hist[-1] == count
        v = maximal._hist_lp(hist, 2.0, d)
        assert v == pytest.approx(n * n * (count * d * d) ** 0.5, rel=1e-12)

    def test_row_tiling_multiplicity(self):
        # raster hulls make horizontal tubes two rows wide, so the tiling
        # multiplicity is 2/delta rather than the idealized 1/delta
        for k in (4, 5):
            n, d = 1 << k, float(F(1, 1 << k))
            # the horizontal tube at each row, held by that row's n cells
            hist = tube_count_histogram(np.zeros(n, dtype=np.int64), np.arange(n), k, weights=[n] * n)
            assert 2 == (len(hist) - 1) * d
            assert 1.0 <= maximal._hist_lp(hist, 2.0, d) * d <= 2.0

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_index_sets(9), st.integers(0, 2**32 - 1))
    @example((2, (-4,)), 0)
    def test_distance_report_matches_sections(self, case, seed):
        # every center lies in its tube's exact section, so A is 0; past
        # k = 4 on the corners and a seeded sample
        k, indices = case
        asg = aim_at_origin_assignment(DirectionSet(DyadicScale(k), indices))
        d = F(1, 1 << k)
        for i, j in list(asg) if k <= 4 else sample_cells(k, 64, seed, edges=False):
            lo, up = asg[(i, j)].section((2 * i + 1) * d / 2)
            assert lo <= (2 * j + 1) * d / 2 <= up
        assert dual_sum_norm(asg, 2.0).details["A"] == 0.0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_index_sets(9), st.sampled_from([1.0, 1.5, 2.0, 1 + 1 / S_LOG23]))
    @example((3, (-8, -3)), 2.0)
    def test_matches_reference_table(self, case, pprime):
        # the one-pass norm over distinct weighted tubes against the table
        # of every cell's tube: value, top multiplicity and A, bit for bit
        k, indices = case
        n = 1 << k
        th = DirectionSet(DyadicScale(k), indices)
        t, b = reference_table(th)
        hist = tube_count_histogram(t, b, k)
        u = 2 * np.arange(n, dtype=np.int64)[:, None] + 1
        e = t * u + b * (2 * n) - u.T * n  # section's low end less the center's y, in delta^2/2
        a_max = max(0, int(e.max()), int((-e - u).max()) - 2 * n)
        v = dual_sum_norm(aim_at_origin_assignment(th), pprime)
        assert float(v) == lp_from_counts(hist, pprime, float(F(1, n)))
        assert v.details == {"A": a_max / (2 * n), "max_multiplicity": len(hist) - 1, "pprime": pprime}

    def test_matches_raster_accumulation(self):
        # aim assignments against rasterizing every cell's tube and counting
        from collections import Counter

        rng = np.random.default_rng(11)
        for k in (4, 5):
            sc, n = DyadicScale(k), 1 << k
            rand = DirectionSet(sc, tuple(sorted({int(x) for x in rng.integers(-n, n, 9)})))
            for th in (DirectionSet.cantor(S_LOG23, sc), rand):
                asg = aim_at_origin_assignment(th)
                v = dual_sum_norm(asg, 3.0)
                grid = Counter()
                for tube, cells in Counter(asg.values()).items():
                    for c in map(tuple, rasterize_tube(tube, sc, Box.of(0, -8, 1, 8)).idx):
                        grid[c] += cells
                want = (sum(m**3 for m in grid.values()) * float(sc.delta) ** 2) ** (1 / 3)
                assert float(v) == pytest.approx(want, rel=1e-12)
                assert v.details["max_multiplicity"] == max(grid.values())

    def test_aim_at_origin_zero_distance(self):
        sc = DyadicScale(5)
        th = DirectionSet.cantor(S_LOG23, sc)
        asg = aim_at_origin_assignment(th)
        assert set(asg) == {(i, j) for i in range(32) for j in range(32)}
        v = dual_sum_norm(asg, 1 + 1 / S_LOG23)
        assert v.details["A"] == 0.0
        allowed = set(th.indices)
        assert all(t.i in allowed for t in asg.values())

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_streamed_norms_match_dense_grid(self, k):
        # dual_sum_norm and tube_sum_norm reduce tube_count_blocks without
        # holding the grid; the dense grid's reduction is the reference
        sc = DyadicScale(k)
        th = DirectionSet.cantor(S_LOG23, sc)
        pprime, d = 1 + 1 / S_LOG23, float(sc.delta)
        v, grid = dual_sum_norm(aim_at_origin_assignment(th), pprime), tube_count_grid(*reference_table(th), k)
        assert float(v) == lp_from_counts(np.bincount(grid.ravel()), pprime, d)
        assert v.details["max_multiplicity"] == grid.max()
        fam = TubeFamily(sc, th.indices, [0] * len(th))
        r, grid = tube_sum_norm(fam, pprime), tube_count_grid(list(th.indices), [0] * len(th), k)
        assert float(r) == lp_from_counts(np.bincount(grid.ravel()), pprime, d)
        assert r.details["ratio"] == float(r) / r.details["bound"]

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_index_sets(9), st.integers(4, 1 << 12))
    def test_histogram_guard(self, case, cap):
        # with the cap lowered, a returned norm's top multiplicity stays under
        # it, and a refusal names delta before any histogram is built
        k, indices = case
        asg = aim_at_origin_assignment(DirectionSet(DyadicScale(k), indices))
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return tube_count_histogram(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maximal, "_MAX_GRID_CELLS", cap)
            mp.setattr(maximal, "tube_count_histogram", spy)
            try:
                v = dual_sum_norm(asg, 2.0)
            except ValueError as err:
                # from 4n >= 3 cap the refusal comes before the column walk,
                # with its lower bound 4 ceil(n/3) + 1
                n = 1 << k
                size = f"at least {4 * -(-n // 3) + 1}" if 4 * n >= 3 * cap else "up to "
                assert str(err).startswith(f"delta 1/{n}: a multiplicity histogram of {size}")
                assert str(err).endswith(f" entries would exceed {cap}") and calls == []
            else:
                assert v.details["max_multiplicity"] < cap and calls == [1]

    @pytest.mark.parametrize("k", [24, 30])
    def test_refuses_before_column_walk(self, k, monkeypatch):
        # 4 and 8 Cantor slopes at s = 0.1: each of the n^2 cells adds 1 to
        # one of its slope's 3n offsets, so the top multiplicity is at least
        # 4n/3, over the cap from k = 24 on, and no column is walked
        asg = aim_at_origin_assignment(DirectionSet.cantor(0.1, DyadicScale(k)))
        monkeypatch.setattr(type(asg), "_runs", None)  # a walk would call it
        n = 1 << k
        t0 = time.perf_counter()
        with pytest.raises(ValueError) as err:
            dual_sum_norm(asg, 2.0)
        assert time.perf_counter() - t0 < 1.0
        assert str(err.value) == (
            f"delta 1/{n}: a multiplicity histogram of at least {4 * -(-n // 3) + 1} "
            f"entries would exceed {maximal._MAX_GRID_CELLS}"
        )

    def test_fine_refusal_keeps_message(self):
        # at 2^-15 the bound 4n/3 is under the cap: the guard after the
        # column walk refuses it, as before
        asg = aim_at_origin_assignment(DirectionSet.cantor(S_LOG23, DyadicScale(15)))
        with pytest.raises(ValueError) as err:
            dual_sum_norm(asg, 1 + 1 / S_LOG23)
        assert str(err.value) == (
            "delta 1/32768: a multiplicity histogram of up to 49687765 entries would exceed 16777216"
        )

    def test_memory_at_k12(self):
        # the pass holds the distinct tubes, one column block and the
        # histogram (35 MiB here): no (2^12)^2 array of 4- or 8-byte cells,
        # where the two assignment tables alone took 256 MiB
        th = DirectionSet.cantor(S_LOG23, DyadicScale(12))
        tracemalloc.start()
        try:
            v = dual_sum_norm(aim_at_origin_assignment(th), 1 + 1 / S_LOG23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.details["A"] == 0.0 and v.details["max_multiplicity"] == 568343
        assert peak <= 48 << 20


class TestAimAtOrigin:
    @staticmethod
    def _direction_sets(k):
        sc = DyadicScale(k)
        n = 1 << k
        rng = np.random.default_rng(k)
        return {
            "cantor": DirectionSet.cantor(S_LOG23, sc),
            "arc": DirectionSet(sc, tuple(range(-n // 4, 3 * n // 4))),
            "single": DirectionSet(sc, (n // 3,), "explicit"),
            "random": DirectionSet(
                sc, tuple(sorted({int(x) for x in rng.integers(-n, n, 12)})), "explicit"
            ),
            "negative": DirectionSet(
                sc, tuple(sorted({int(x) for x in rng.integers(-n, 0, 5)})), "explicit"
            ),
        }

    # the Fraction oracle and a lookup of the rule-held assignment each cost
    # tens of us a cell, so k = 7, 8 compare the edge cells and 256 seeded
    # random cells, and k = 8 runs on Cantor only
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_matches_fraction_oracle(self, k):
        for name, th in self._direction_sets(k).items():
            if k == 8 and name != "cantor":
                continue
            asg = aim_at_origin_assignment(th)
            if k <= 6:
                assert dict(asg) == brute_aim_assignment(th), name
            else:
                cells = sample_cells(k, 256, k)
                assert {c: asg[c] for c in cells} == brute_aim_assignment(th, cells), name

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_index_sets())
    @example((2, (1,)))
    @example((3, (-8, -3)))
    def test_generated_sets_match_fraction_oracle(self, case):
        k, indices = case
        th = DirectionSet(DyadicScale(k), indices, "explicit")
        assert dict(aim_at_origin_assignment(th)) == brute_aim_assignment(th)

    def test_mapping_interface(self):
        th = DirectionSet.cantor(S_LOG23, DyadicScale(4))
        asg = aim_at_origin_assignment(th)
        assert len(asg) == 256 and next(iter(asg)) == (0, 0)
        assert next(iter(asg.values())).k == 4
        t, b = reference_table(th)
        assert asg[(3, 5)] == DyadicTube(4, int(t[3, 5]), int(b[3, 5]))
        assert (3, 5) in asg and (16, 0) not in asg and (0, -1) not in asg and (0, 16) not in asg
        for cell in ((-1, 0), (0, 16), (16, 16)):
            with pytest.raises(KeyError):
                asg[cell]

    def test_empty_direction_set_rejected(self):
        for make in (aim_at_origin_assignment, Assignment):
            with pytest.raises(ValueError, match="empty"):
                make(DirectionSet(DyadicScale(3), (), "explicit"))


class TestTubeSumNorm:
    def test_single_tube(self):
        fam = TubeFamily(DyadicScale(6), [40], [3])
        r = tube_sum_norm(fam, 2.0)
        count = len(rasterize_tube(DyadicTube(6, 40, 3), DyadicScale(6), Box.of(0, -4, 1, 4)))
        assert float(r) == pytest.approx((count / 4096) ** 0.5, rel=1e-12)
        assert r.details["ratio"] <= 2

    def test_duplicate_direction_rejected(self):
        fam = TubeFamily(DyadicScale(5), [3, 3], [0, 7])
        with pytest.raises(ValueError, match="duplicate"):
            tube_sum_norm(fam, 2.0)

    def test_full_bush_logarithmic_ratio(self):
        k = 6
        fam = TubeFamily(DyadicScale(k), range(-64, 64), [0] * 128)
        r = tube_sum_norm(fam, 2.0)
        assert r.details["ratio"] <= 2 * math.sqrt(k * math.log(2))

    def test_cantor_bush_polylog_ratio(self):
        k = 8
        sc = DyadicScale(k)
        th = DirectionSet.cantor(S_LOG23, sc)
        fam = TubeFamily(sc, th.indices, [0] * len(th))
        r = tube_sum_norm(fam, 1 + 1 / S_LOG23)
        assert r.details["ratio"] <= (k * math.log(2)) ** 3


class TestExponentFit:
    def test_exact_power_law(self):
        samples = [(F(1, 1 << k), 2.0 ** (k / 2)) for k in (4, 6, 8, 10)]
        fit = exponent_fit(samples)
        assert fit.beta == pytest.approx(0.5, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_is_zero(self):
        fit = exponent_fit([(F(1, 16), 3.0), (F(1, 64), 3.0), (F(1, 256), 3.0)])
        assert fit.beta == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="3 samples"):
            exponent_fit([(F(1, 4), 1.0), (F(1, 8), 2.0)])
        with pytest.raises(ValueError, match="distinct"):
            exponent_fit([(F(1, 4), 1.0), (F(1, 4), 2.0), (F(1, 4), 3.0)])
        with pytest.raises(ValueError, match="positive"):
            exponent_fit([(F(1, 4), 1.0), (F(1, 8), 0.0), (F(1, 16), 2.0)])


class TestMeasuredBounds:
    """Small-scale versions of the scaling measurements."""

    def test_adversarial_dual_sum_exponent(self):
        samples = []
        for k in (5, 6, 7):
            sc = DyadicScale(k)
            th = DirectionSet.cantor(S_LOG23, sc)
            v = dual_sum_norm(aim_at_origin_assignment(th), 1 + 1 / S_LOG23)
            samples.append((sc.delta, float(v)))
        assert exponent_fit(samples).beta <= 1.15

    def test_bush_ratio_growth_at_p1(self):
        samples = []
        for k in (5, 6, 7):
            sc = DyadicScale(k)
            th = DirectionSet.cantor(S_LOG23, sc)
            b = bush_construction(th, F(1, 2), F(1, 2))
            samples.append((sc.delta, norm_ratio(b.core.indicator(sc), th, 1.0, "nikodym")))
        assert exponent_fit(samples).beta >= 0.3  # full-range fit gives ~0.6

    def test_kakeya_ball_weighted_ratio(self):
        k = 7
        sc = DyadicScale(k)
        d = float(sc.delta)
        th = DirectionSet.cantor(S_LOG23, sc)
        p = 1 + S_LOG23
        f = GridFunction.ball_indicator(sc)
        assert norm_ratio(f, th, p, "kakeya") >= (1 / 8) * d ** (1 - 2 / p)
