"""Rich-point counting, incidence ratios, and the saturating construction."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import core, incidence
from tubelab.core import (
    BOX_UNIT,
    Box,
    CellSet,
    DyadicScale,
    DyadicTube,
    Measurement,
    _slope_hull,
    rasterize_tube,
    tube_count_grid,
)
from tubelab.incidence import (
    RichPointSet,
    TubeFamily,
    _offset_range,
    cantor_slope_family,
    incidence_profile,
    rich_points,
    sharp_example,
    tube_count_histogram,
    verify_incidence_bound,
)
from tubelab.oracles import brute_cell_counts
from tubelab.setgen import regularity_constant

LOG2_3 = math.log(2) / math.log(3)


def _random_family(rng, k, n_tubes):
    seen = set()
    while len(seen) < n_tubes:
        i = rng.randrange(-(1 << k), 1 << k)
        j = rng.randrange(-(1 << k) - 2, (1 << k) + 2)
        seen.add((i, j))
    return _family(k, sorted(seen))


def _family(k, tubes):
    """The family of the (slope index, offset index) pairs at scale 2^-k."""
    return TubeFamily(DyadicScale(k), [t for t, _ in tubes], [b for _, b in tubes])


class TestTubeFamily:
    def test_holds_int64_index_arrays(self):
        fam = TubeFamily(DyadicScale(4), [1, -3], (0, 2))
        assert fam.scale == DyadicScale(4)
        assert len(fam) == 2
        assert fam.t.dtype == fam.b.dtype == np.int64
        assert fam.t.tolist() == [1, -3] and fam.b.tolist() == [0, 2]

    def test_slope_multiset_keeps_repeats(self):
        fam = _family(3, [(2, 0), (2, 5), (-1, 0)])
        assert sorted(fam.t.tolist()) == [-1, 2, 2]
        assert np.unique(fam.t).tolist() == [-1, 2]

    def test_non_tube_rejected(self):
        with pytest.raises(TypeError):
            TubeFamily(DyadicScale(4), [object()], [0])

    @pytest.mark.parametrize("t", [[-17], [16], [0, 3, 16], [-100, 0]])
    def test_out_of_range_slopes_rejected(self, t):
        # -2^k <= t < 2^k, as for every DyadicTube
        with pytest.raises(ValueError, match=r"outside \[-2\^k, 2\^k\) at k=4"):
            TubeFamily(DyadicScale(4), t, [0] * len(t))
        TubeFamily(DyadicScale(4), [-16, 15], [0, 0])  # both ends are slopes

    @pytest.mark.parametrize("t,b", [([0, 1], [0]), ([], [0]), ([[0, 1]], [[0, 1]]), (0, 0)])
    def test_unequal_or_ill_shaped_arrays_rejected(self, t, b):
        with pytest.raises(ValueError, match="one length"):
            TubeFamily(DyadicScale(4), t, b)


class TestRichPoints:
    def test_single_tube_threshold_one_is_its_raster(self):
        rng = random.Random(7)
        for _ in range(10):
            k = rng.choice([3, 4, 5])
            t = DyadicTube(k, rng.randrange(-(1 << k), 1 << k), rng.randrange(-3, 1 << k))
            rp = rich_points(_family(k, [(t.i, t.j)]), 1)
            assert np.array_equal(rp.cells.idx, rasterize_tube(t, DyadicScale(k), BOX_UNIT).idx)
            assert (rp.counts == 1).all()

    def test_disjoint_parallel_pair_has_no_double_points(self):
        fam = _family(4, [(3, 0), (3, 8)])
        assert len(rich_points(fam, 2).cells) == 0
        assert len(rich_points(fam, 1).cells) > 0

    def test_bush_through_origin(self):
        k = 4
        fam = _family(k, [(i, 0) for i in range(-(1 << k), 1 << k)])
        rp = rich_points(fam, len(fam))
        assert len(rp.cells) >= 1
        assert rp.counts[(rp.cells.idx == (0, 0)).all(axis=1)].tolist() == [len(fam)]

    def test_threshold_must_be_positive(self):
        fam = _family(3, [(0, 0)])
        with pytest.raises(ValueError, match="r must be"):
            rich_points(fam, 0)

    def test_monotone_in_threshold(self):
        fam = _random_family(random.Random(3), 5, 30)
        prev = None
        for r in range(1, 8):
            cells = {tuple(c) for c in rich_points(fam, r).cells.idx}
            if prev is not None:
                assert cells <= prev
            prev = cells

    def test_multiplicity_conservation_is_exact(self):
        for seed in range(5):
            fam = _random_family(random.Random(seed), 6, 40)
            total = int(rich_points(fam, 1).counts.sum())
            by_tube = sum(
                len(rasterize_tube(DyadicTube(6, t, b), fam.scale, BOX_UNIT))
                for t, b in zip(fam.t.tolist(), fam.b.tolist())
            )
            assert total == by_tube

    def test_multiplicity_lookup_matches_oracle(self):
        fam = _random_family(random.Random(11), 5, 25)
        oracle = brute_cell_counts(fam)
        rp = rich_points(fam, 1)
        got = dict(zip(map(tuple, rp.cells.idx.tolist()), rp.counts.tolist()))
        assert got == dict(oracle)  # the oracle counts cells of [0,1)^2 only

    def test_brute_force_equivalence_fifty_trials(self):
        for seed in range(50):
            rng = random.Random(1000 + seed)
            fam = _random_family(rng, 6, rng.randrange(1, 65))
            oracle = brute_cell_counts(fam)
            rp = rich_points(fam, 1)
            got = {
                (int(i), int(j)): int(c)
                for (i, j), c in zip(rp.cells.idx, rp.counts)
            }
            assert got == dict(oracle)

    def test_misaligned_counts_rejected(self):
        cs = CellSet(3, [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="misaligned"):
            RichPointSet(1, cs, np.array([1]))


class TestOffsetRange:
    def test_characterizes_nonempty_rasters_exactly(self):
        # on grid-aligned boxes: the unit square (cantor_slope_family) and
        # slabs [0, 1/r] x [0, 2^-sep / 4] like sharp_example's
        k = 4
        scale = DyadicScale(k)
        for x1, y1 in [(1, 1), (F(1, 4), F(1, 8)), (F(1, 2), F(3, 16))]:
            box = Box.of(0, 0, x1, y1)
            for i in range(-(1 << k), 1 << k):
                offsets = _offset_range(i, k, x1, y1)
                assert len(offsets) >= 1
                for j in range(offsets.start - 2, offsets.stop + 2):
                    nonempty = len(rasterize_tube(DyadicTube(k, i, j), scale, box)) > 0
                    assert nonempty == (j in offsets), (x1, y1, i, j)


class TestVerifyIncidenceBound:
    def test_parameter_validation(self):
        fam = _family(4, [(0, 0)])
        with pytest.raises(ValueError, match="s must"):
            verify_incidence_bound(fam, 0.3, 1)
        with pytest.raises(ValueError, match="s must"):
            verify_incidence_bound(fam, 1.2, 1)
        with pytest.raises(ValueError, match="r must"):
            verify_incidence_bound(fam, 1.0, 0)

    def test_threshold_beyond_family_size_gives_zero(self):
        fam = _family(4, [(0, 0), (1, 0)])
        assert float(verify_incidence_bound(fam, 1.0, 3)) == 0.0

    def test_universal_bound_at_threshold_one(self):
        # every tube occupies at most 3/delta cells of the unit square and
        # both constants are at least 1, so rho(1) <= 3 for any family
        for seed in range(8):
            rng = random.Random(seed)
            fam = _random_family(rng, 5, rng.randrange(1, 30))
            v = verify_incidence_bound(fam, rng.choice([0.5, 0.7, 1.0]), 1)
            assert float(v) <= 3.0
            assert v.details["c_kt"] >= 1.0
            assert v.details["c_reg"] >= 1.0

    def test_dense_families_stay_below_one_at_threshold_one(self):
        for seed in range(3):
            fam = cantor_slope_family(0.5, DyadicScale(8), seed=seed)
            assert float(verify_incidence_bound(fam, 0.5, 1)) <= 1.0

    def test_details_payload(self):
        fam = _family(4, [(1, 2), (1, 3)])
        v = verify_incidence_bound(fam, 0.5, 1)
        assert isinstance(v, Measurement)
        assert v.details["tubes"] == 2
        assert v.details["r"] == 1
        assert v.details["s"] == 0.5
        assert v.details["rich_cells"] == len(rich_points(fam, 1).cells)

    def test_profile_matches_single_verifications(self):
        fam = cantor_slope_family(0.5, DyadicScale(6), seed=2)
        prof = incidence_profile(fam, 0.5)
        assert [v.details["r"] for v in prof] == [1, 2, 4, 8][: len(prof)]
        for v in prof:
            single = verify_incidence_bound(fam, 0.5, v.details["r"])
            assert float(v) == float(single)
            assert v.details == single.details

    def test_profile_default_thresholds_cover_max_multiplicity(self):
        fam = _family(4, [(i, 0) for i in range(-8, 8)])
        prof = incidence_profile(fam, 1.0)
        rs = [v.details["r"] for v in prof]
        top = int(rich_points(fam, 1).counts.max())
        assert rs == [2**t for t in range(len(rs))]
        assert rs[-1] <= top < 2 * rs[-1]

    def test_profile_custom_thresholds(self):
        # the profile sweeps powers of two; any other threshold is one
        # verify_incidence_bound, which refuses r = 0
        fam = _family(4, [(0, 0)])
        assert [v.details["r"] for v in incidence_profile(fam, 1.0)] == [1]
        assert [verify_incidence_bound(fam, 1.0, r).details["r"] for r in (1, 3)] == [1, 3]
        with pytest.raises(ValueError, match="r must be"):
            verify_incidence_bound(fam, 1.0, 0)

    def test_arguments_checked_before_any_counting(self, monkeypatch):
        # s and every r are refused before the constants or the histogram run
        fam = cantor_slope_family(0.5, DyadicScale(6), seed=0)

        def no_counting(*args, **kwargs):
            raise AssertionError("counted before the arguments were checked")

        for name in ("katz_tao_constant", "regularity_constant", "tube_count_histogram"):
            monkeypatch.setattr(incidence, name, no_counting)
        for call in (
            lambda: verify_incidence_bound(fam, 0.3, 4),
            lambda: verify_incidence_bound(fam, 0.5, 0),
            lambda: incidence_profile(fam, 1.2),
        ):
            with pytest.raises(ValueError, match="s must|r must"):
                call()

    def test_non_integer_thresholds_rejected_before_any_counting(self, monkeypatch):
        # a float r would reach hist[r:] after all the counting, and
        # int(2.5) would silently read r = 2
        fam = cantor_slope_family(0.5, DyadicScale(6), seed=0)

        def no_counting(*args, **kwargs):
            raise AssertionError("counted before the thresholds were checked")

        monkeypatch.setattr(incidence, "katz_tao_constant", no_counting)
        with pytest.raises(ValueError, match="r must be an integer"):
            verify_incidence_bound(fam, 0.5, 2.0)
        with pytest.raises(ValueError, match="r must be an integer"):
            verify_incidence_bound(fam, 0.5, 2.5)

    def test_numpy_integer_thresholds_accepted(self):
        fam = cantor_slope_family(0.5, DyadicScale(6), seed=0)
        got = [verify_incidence_bound(fam, 0.5, r) for r in np.array([1, 4])]
        want = [verify_incidence_bound(fam, 0.5, r) for r in (1, 4)]
        assert [(float(v), v.details) for v in got] == [(float(v), v.details) for v in want]
        assert [type(v.details["r"]) for v in got] == [int, int]


@st.composite
def _families_with_repeats(draw):
    """Random dyadic families at k = 1..6, offsets reaching past the unit
    square, with repeated tubes so that merged tube counts exceed one."""
    k = draw(st.integers(1, 6))
    n = 1 << k
    size = draw(st.integers(1, 40))
    t = draw(st.lists(st.integers(-n, n - 1), min_size=size, max_size=size))
    b = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=size, max_size=size))
    repeats = draw(st.lists(st.integers(0, size - 1), max_size=8))
    return TubeFamily(DyadicScale(k), t + [t[q] for q in repeats], b + [b[q] for q in repeats])


class TestMultiplicityHistogram:
    """Thresholds read off the streamed histogram against the dense grid."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_families_with_repeats(), st.sampled_from([7, 300, 1 << 19]))
    def test_thresholds_match_dense_grid(self, fam, chunk):
        k, t, b = fam.scale.k, fam.t, fam.b
        grid = tube_count_grid(t, b, k, (0, 1 << k))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_COUNT_CHUNK", chunk)  # column-block boundaries
            hist = tube_count_histogram(t, b, k, (0, 1 << k))
        assert len(hist) - 1 == grid.max()
        for r in range(1, int(grid.max()) + 2):
            assert hist[r:].sum() == (grid >= r).sum()
        # the ratios read the same counts: at the profile's powers of two,
        # and past the top multiplicity
        prof = incidence_profile(fam, 1.0) + [verify_incidence_bound(fam, 1.0, int(grid.max()) + 1)]
        assert [v.details["rich_cells"] for v in prof] == [int((grid >= v.details["r"]).sum()) for v in prof]

    def test_count_scratch_is_bounded(self):
        # the count blocks reuse one scratch array of about _COUNT_CHUNK int64
        # cells (1 MiB), and the histogram adds only small per-block counts
        fam = cantor_slope_family(LOG2_3, DyadicScale(12), seed=4)
        tracemalloc.start()
        try:
            hist = tube_count_histogram(fam.t, fam.b, 12, (0, 1 << 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.sum() == 1 << 24 and len(hist) > 2
        assert peak < 1.5 * 2**20

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_families_with_repeats(), st.sampled_from([7, 300, 1 << 19]), st.integers(1, 6))
    def test_rich_points_stream_matches_dense_mask(self, fam, chunk, r):
        # rich_points reads tube_count_blocks one block at a time: its cells
        # and counts, in order, are the dense grid's mask and masked counts
        k = fam.scale.k
        grid = tube_count_grid(fam.t, fam.b, k, (0, 1 << k))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_COUNT_CHUNK", chunk)  # column-block boundaries
            rp = rich_points(fam, r)
        mask = grid >= r
        assert np.array_equal(rp.cells.idx, np.argwhere(mask))
        assert rp.counts.dtype == np.int64 and np.array_equal(rp.counts, grid[mask])


@st.composite
def _banded_counts(draw):
    """(t, b, k, rows): tubes at k = 1..7, with slopes anywhere or within
    two indices of 0 (narrow bands), offsets reaching past the unit square,
    repeats included, and no row window, the unit square's, or one that
    cuts the tubes or misses them all."""
    k = draw(st.integers(1, 7))
    n = 1 << k
    slope = st.integers(-2, 2) if draw(st.booleans()) else st.integers(-n, n - 1)
    tubes = draw(st.lists(st.tuples(slope, st.integers(-2 * n, 2 * n)), min_size=1, max_size=40))
    tubes += draw(st.lists(st.sampled_from(tubes), max_size=8))
    rows = draw(
        st.none()
        | st.just((0, n))
        | st.tuples(st.integers(-4 * n, 4 * n), st.integers(1, 2 * n)).map(lambda r: (r[0], r[0] + r[1]))
    )
    return [t for t, _ in tubes], [b for _, b in tubes], k, rows


class TestBandedCounts:
    """Column blocks built on their row band only, against dense counts."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_banded_counts(), st.sampled_from([7, 300, 1 << 19]))
    def test_histogram_is_grid_bincount(self, case, chunk):
        t, b, k, rows = case
        lo, hi = _slope_hull(np.array(t)[:, None], np.arange(1 << k)[None, :], k)
        lo, hi = lo + np.array(b)[:, None], hi + np.array(b)[:, None]
        r0, r1 = rows or (int(lo.min()), int(hi.max()))
        j = np.arange(r0, r1)
        want = ((lo[:, :, None] <= j) & (j < hi[:, :, None])).sum(axis=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_COUNT_CHUNK", chunk)  # column-block boundaries
            grid = tube_count_grid(t, b, k, rows)
            hist = tube_count_histogram(t, b, k, rows)
        assert grid.dtype == hist.dtype == np.int64
        assert np.array_equal(grid, want)
        assert np.array_equal(hist, np.bincount(grid.ravel()))  # hist[0] included

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_banded_counts(), st.sampled_from([7, 300, 1 << 19]), st.data())
    def test_weighted_histogram_is_repeated_tubes(self, case, chunk, data):
        # weights[q] counts tube q that many times, as np.repeat would
        t, b, k, rows = case
        w = data.draw(st.lists(st.integers(1, 5), min_size=len(t), max_size=len(t)))
        want = tube_count_histogram(np.repeat(t, w), np.repeat(b, w), k, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_COUNT_CHUNK", chunk)  # column-block boundaries
            got = tube_count_histogram(t, b, k, rows, weights=w)
        assert got.dtype == np.int64 and np.array_equal(got, want)


class TestSharpExample:
    DELTA = DyadicScale(10)

    @pytest.mark.parametrize("r", [4, 16, 64])
    def test_tube_count_within_factor_four(self, r):
        ex = sharp_example(0.5, self.DELTA, r)
        target = r * 2.0**5  # r * delta^(s-1)
        assert target / 4 <= len(ex.family) <= target * 4
        assert ex.meta["predicted_tubes"] == pytest.approx(target)

    @pytest.mark.parametrize("r", [4, 16, 64])
    def test_every_slab_cell_is_rich(self, r):
        ex = sharp_example(0.5, self.DELTA, r)
        rp = rich_points(ex.family, r)
        n = 1 << self.DELTA.k
        cols, rows = int(ex.rect.x1 * n), int(ex.rect.y1 * n)
        assert cols >= 1 and rows >= 1
        rich = set(map(tuple, rp.cells.idx.tolist()))
        assert {(i, j) for i in range(cols) for j in range(rows)} <= rich
        assert (rp.counts >= r).all()

    @pytest.mark.parametrize("r", [4, 16, 64])
    def test_rich_cell_count_lower_bound(self, r):
        ex = sharp_example(0.5, self.DELTA, r)
        rich = len(rich_points(ex.family, r).cells)
        assert rich >= (1 / 64) * 2.0 ** (10 * 1.5) / r

    @pytest.mark.parametrize("r", [4, 16, 64])
    def test_ratio_stays_above_one_sixtyfourth(self, r):
        ex = sharp_example(0.5, self.DELTA, r)
        assert float(verify_incidence_bound(ex.family, 0.5, r)) >= 1 / 64

    def test_slope_set_is_centered_arithmetic_progression(self):
        r = 16
        ex = sharp_example(0.5, self.DELTA, r)
        sep = ex.meta["theta_separation"]
        assert sep == F(1, 32)  # 2^-floor(s*k), here delta^s exactly
        assert np.unique(ex.family.t).tolist() == [(t - r // 2) * sep / self.DELTA.delta for t in range(r)]
        assert ex.meta["arc_length"] == r * sep

    @pytest.mark.parametrize("r", [4, 16, 64])
    def test_slope_regularity_bound(self, r):
        ex = sharp_example(0.5, self.DELTA, r)
        c = regularity_constant([F(t, 1024) for t in np.unique(ex.family.t)], 0.5, self.DELTA)
        assert float(c) <= 8 * r**0.5

    def test_precondition_flags(self):
        assert sharp_example(0.5, self.DELTA, 16).meta["strict_r_precondition"]
        assert sharp_example(0.5, self.DELTA, 16).meta["thinness_condition"]
        wide = sharp_example(0.5, self.DELTA, 64)
        assert not wide.meta["strict_r_precondition"]
        assert not wide.meta["thinness_condition"]
        assert wide.meta["slab_height_factor"] == F(1, 4)

    def test_small_scale_against_brute_force(self):
        ex = sharp_example(0.5, DyadicScale(6), 4)
        oracle = brute_cell_counts(ex.family)
        n = 1 << 6
        for i in range(int(ex.rect.x1 * n)):
            for j in range(int(ex.rect.y1 * n)):
                assert oracle[(i, j)] >= 4

    def test_parameter_errors_name_the_inequality(self):
        with pytest.raises(ValueError, match="s must"):
            sharp_example(0.3, self.DELTA, 4)
        with pytest.raises(ValueError, match="s must"):
            sharp_example(1.0, self.DELTA, 4)
        with pytest.raises(ValueError, match="r >= 1"):
            sharp_example(0.5, self.DELTA, 0)
        with pytest.raises(ValueError, match="exceeds"):
            sharp_example(0.5, self.DELTA, 65)
        with pytest.raises(ValueError, match="do not fit"):
            sharp_example(0.55, self.DELTA, 80)


class TestCantorSlopeFamily:
    def test_slope_count_follows_dimension(self):
        for k, s in [(6, 0.5), (8, 0.5), (8, LOG2_3), (6, 1.0)]:
            fam = cantor_slope_family(s, DyadicScale(k))
            assert len(np.unique(fam.t)) == 2 ** math.floor(k * s)

    def test_slopes_use_only_allowed_binary_digits(self):
        k, s = 8, 0.5
        fam = cantor_slope_family(s, DyadicScale(k), seed=5)
        mask = sum(
            1 << (k - i)
            for i in range(1, k + 1)
            if math.floor(i * s) > math.floor((i - 1) * s)
        )
        assert (fam.t >= 0).all()
        assert (fam.t & ~mask == 0).all()

    def test_per_slope_count_is_exact(self):
        # round(2^(k (1 - s))) offsets a slope: 8 at k = 6, s = 1/2; 1 at s = 1
        for s, want in ((0.5, 8), (LOG2_3, 5), (1.0, 1)):
            per = Counter(cantor_slope_family(s, DyadicScale(6), seed=1).t.tolist())
            assert set(per.values()) == {want}

    def test_deterministic_under_seed(self):
        a = cantor_slope_family(0.7, DyadicScale(7), seed=9)
        b = cantor_slope_family(0.7, DyadicScale(7), seed=9)
        c = cantor_slope_family(0.7, DyadicScale(7), seed=10)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.b, b.b)
        assert not (np.array_equal(a.t, c.t) and np.array_equal(a.b, c.b))

    def test_all_tubes_meet_unit_square(self):
        fam = cantor_slope_family(0.5, DyadicScale(6), seed=3)
        for t, b in zip(fam.t.tolist(), fam.b.tolist()):
            assert len(rasterize_tube(DyadicTube(6, t, b), fam.scale, BOX_UNIT)) > 0

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError, match="s must"):
            cantor_slope_family(0.0, DyadicScale(6))
        with pytest.raises(ValueError, match="s must"):
            cantor_slope_family(1.2, DyadicScale(6))


class TestIncidenceSweep:
    def test_random_cantor_families_stay_polylog(self):
        # the headline upper bound, spot-checked at one scale per dimension
        k = 8
        bound = 2.0 ** (k * 0.2)
        for s in (LOG2_3, 0.5, 0.7):
            fam = cantor_slope_family(s, DyadicScale(k), seed=0)
            prof = incidence_profile(fam, s)
            assert max(float(v) for v in prof) <= bound
