"""Moran constructions, dimension estimators, interval-family search."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubelab import setgen
from tubelab.core import DyadicScale
from tubelab.domains import cap_cover, gcs_domain
from tubelab.incidence import cantor_slope_family, incidence_profile
from tubelab.oracles import (
    brute_frostman,
    brute_katz_tao,
    brute_planar_ball_counts,
    brute_regularity,
    brute_sum_multiplicity,
    brute_window_counts,
)
from tubelab.setgen import (
    IntervalFamily,
    MoranSpec,
    MultiplicityOverflow,
    box_dim_ratio,
    build_moran,
    cached_family,
    check_gcs,
    family_offsets,
    frostman_constant,
    katz_tao_constant,
    moran_spec_from_config,
    moran_sum_multiplicity_bound,
    parse_keyvals,
    qa_profile,
    regularity_constant,
    search_interval_family,
    sum_multiplicity,
    _repair_slots,
    _slot_move_bounds,
    _slot_sum_multiplicity,
    _STEPS,
)

F = Fraction
LOG2_3 = math.log(2) / math.log(3)


def _preset(name: str, K: int):
    return build_moran(moran_spec_from_config(setgen.PRESETS[name]), K)


def _listed_spec(ns: list, cs: list, offs: list) -> MoranSpec:
    """The spec whose level k reads entry k - 1 of each list."""
    return MoranSpec(n=lambda k: ns[k - 1], c=lambda k: cs[k - 1], offsets=lambda k: offs[k - 1],
                     levels=len(cs))


def _random_valid_spec(rng: random.Random, levels: int = 4) -> MoranSpec:
    """Random per-level layouts kept valid by slot construction."""
    ns, cs, offs = [], [], []
    for _ in range(levels):
        n = rng.choice([2, 3])
        d = rng.randrange(2 * n + 1, 4 * n + 2)  # c = 1/d, slots of width 1/d
        c = F(1, d)
        # choose n slot positions with gaps >= 2 slots, endpoints flush
        positions = [0]
        remaining = list(range(2, d - 1))
        while len(positions) < n - 1:
            p = rng.choice(remaining)
            if all(abs(p - q) >= 2 for q in positions) and p <= d - 3:
                positions.append(p)
            remaining.remove(p)
            if not remaining:
                break
        if len(positions) < n - 1:
            positions = list(range(0, 2 * (n - 1), 2))
        positions = sorted(positions)[: n - 1] + [d - 1]
        ns.append(n)
        cs.append(c)
        offs.append([F(p, d) for p in sorted(set(positions))[:n]])
        if len(offs[-1]) != n:
            offs[-1] = [F(2 * i, d) for i in range(n - 1)] + [F(d - 1, d)]
    return _listed_spec(ns, cs, offs)


class TestBuildMoran:
    def test_middle_thirds_first_generation(self):
        ms = _preset("middle-thirds", 1)
        assert ms.endpoints(1) == [F(-1, 2), F(-1, 6), F(1, 6), F(1, 2)]

    def test_constant_branch_first_generation(self):
        ms = build_moran(moran_spec_from_config("n = 3\nc = 3^-3\noffsets = searched\n"), 1)
        assert ms.interval_count(1) == 3
        assert ms.length(1) == F(1, 27)

    def test_doubling_counts_telescope(self):
        ms = _preset("doubling", 4)
        assert [ms.interval_count(k) for k in range(5)] == [1, 2, 8, 64, 1024]
        assert ms.length(4) == F(1, 1 << 30)

    def test_generation_lengths_and_nesting(self):
        rng = random.Random(31415)
        for _ in range(10):
            spec = _random_valid_spec(rng)
            ms = build_moran(spec, 4)
            expected = F(1)
            for k in range(1, 5):
                expected *= spec.c(k)
                assert ms.length(k) == expected
                ln_par = ms.length(k - 1)
                parents = ms.lefts(k - 1)
                for a in ms.lefts(k):
                    assert any(pa <= a and a + expected <= pa + ln_par for pa in parents)

    def test_removed_gaps_partition_parent(self):
        ms = _preset("middle-thirds", 3)
        for k in range(1, 4):
            removed = ms.removed_intervals(k)
            kept = ms.interval_count(k) * ms.length(k)
            gaps = sum((b - a) for a, b in removed)
            assert kept + gaps == ms.interval_count(k - 1) * ms.length(k - 1)

    def test_midpoints_exact_and_on_generation_endpoints(self):
        ms = _preset("middle-thirds", 6)
        mids = []
        for k in range(1, 7):
            eps = set(ms.endpoints(k))
            for a, b in ms.removed_intervals(k):
                assert a in eps and b in eps
                mids.append((a + b) / 2)
        assert ms.all_midpoints() == sorted(mids)

    def test_endpoint_condition_persists_gap_endpoints(self):
        ms = _preset("middle-thirds", 6)
        deep = set(ms.endpoints(6))
        for a, b in ms.removed_intervals(2):
            assert a in deep and b in deep

    def test_overlapping_offsets_error_names_level(self):
        spec = moran_spec_from_config("n = 2\nc = 1/3\noffsets = 0, 1/4\n")
        with pytest.raises(ValueError, match="level 1"):
            build_moran(spec, 1)

    def test_expansion_ratio_must_leave_room(self):
        spec = moran_spec_from_config("n = 3\nc = 1/3\noffsets = 0, 1/3, 2/3\n")
        with pytest.raises(ValueError, match="n_k \\* c_k"):
            build_moran(spec, 1)

    def test_child_count_checked_before_layout(self):
        # the 'even' layout divides by n_k - 1, so n_k must be checked first
        spec = moran_spec_from_config("n = 1\nc = 1/3\n")
        with pytest.raises(ValueError, match="^level 1: need n_k >= 2, got 1$"):
            build_moran(spec, 1)

    def test_interval_cap_guard(self, monkeypatch):
        monkeypatch.setattr(setgen, "_MAX_INTERVALS", 100)
        with pytest.raises(ValueError, match="^generation 7 would exceed 100 intervals$"):
            _preset("middle-thirds", 8)


def _reference_moran(spec: MoranSpec, K: int) -> list[dict]:
    """Per-level intervals, gaps and midpoints built child by child in Fractions."""
    lefts, length = [F(-1, 2)], F(1)
    levels = [{"length": length, "lefts": lefts, "removed": [], "midpoints": []}]
    for k in range(1, K + 1):
        n_k, c_k, lay = spec.level(k)
        child_len = length * c_k
        new_lefts, gaps = [], []
        for p in lefts:
            child_lefts = [p + o * length for o in lay]
            new_lefts.extend(child_lefts)
            if lay[0] > 0:
                gaps.append((p, child_lefts[0]))
            for a, b in zip(child_lefts, child_lefts[1:]):
                gaps.append((a + child_len, b))
            if child_lefts[-1] + child_len < p + length:
                gaps.append((child_lefts[-1] + child_len, p + length))
        lefts, length = new_lefts, child_len
        mids = [(a + b) / 2 for a, b in gaps]
        levels.append({"length": length, "lefts": lefts, "removed": gaps, "midpoints": mids})
    return levels


def _assert_matches_reference(spec: MoranSpec, K: int):
    ms = build_moran(spec, K)
    ref = _reference_moran(spec, K)
    for k, lev in enumerate(ref):
        ln = lev["length"]
        assert ms.length(k) == ln
        assert ms.interval_count(k) == len(lev["lefts"])
        assert ms.lefts(k) == lev["lefts"]
        assert ms.endpoints(k) == sorted({x for a in lev["lefts"] for x in (a, a + ln)})
        assert ms.removed_intervals(k) == lev["removed"]
    assert ms.all_midpoints() == sorted(x for lev in ref for x in lev["midpoints"])
    return ms


@st.composite
def _moran_specs(draw):
    """(spec, K): K = 1..4 levels, each with 2..4 children of length a/d
    (a = 1, 2) at slot positions p/d at least a + 1 slots apart, flush to
    both ends or placed anywhere; d of 2^20 to 3^26 puts the denominator of
    deeper levels past 2^62."""
    K = draw(st.integers(1, 4))
    ns, cs, offs = [], [], []
    for _ in range(K):
        n, a = draw(st.integers(2, 4)), draw(st.integers(1, 2))
        if draw(st.booleans()):
            d = draw(st.sampled_from([1 << 20, 3**13, 1 << 40, 3**26]))
        else:
            d = draw(st.integers((a + 1) * (n - 1) + a, 64))
        top = d - a  # the last slot a child fits
        steps = draw(st.lists(st.integers(a + 1, top // (n - 1)), min_size=n - 1, max_size=n - 1))
        if draw(st.booleans()):  # flush: first child at 0, last at top
            start, steps[-1] = 0, top - sum(steps[:-1])
        else:
            start = draw(st.integers(0, top - sum(steps)))
        ns.append(n)
        cs.append(F(a, d))
        offs.append([F(p, d) for p in itertools.accumulate([start, *steps])])
    return _listed_spec(ns, cs, offs), K


class TestIntegerLattice:
    """The integer-numerator Moran set against a Fraction-by-Fraction build."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(_moran_specs())
    def test_random_specs(self, case):
        _assert_matches_reference(*case)

    def test_non_flush_layout(self):
        spec = moran_spec_from_config("n = 3\nc = 1/9\noffsets = 1/18, 4/9, 7/9\n")
        _assert_matches_reference(spec, 4)

    def test_denominator_past_int64(self):
        spec = moran_spec_from_config("n = 2\nc = 2^-20\noffsets = 0, 1048575/1048576\n")
        ms = _assert_matches_reference(spec, 4)
        assert ms.length(4).denominator > 1 << 63

    def test_endpoint_values_round_each_endpoint_once(self):
        # denominators 2*3^(12k): below 2^53 at k <= 2, int64 at k = 3, Python ints at k = 4
        c = F(1, 3 ** 12)
        ms = build_moran(moran_spec_from_config(f"n = 2\nc = {c}\noffsets = 0, {1 - c}\n"), 4)
        for k in range(5):
            vals = ms.endpoint_values(k)
            assert vals.dtype == np.float64
            assert vals.tolist() == [float(x) for x in ms.endpoints(k)]
        mt = _preset("middle-thirds", 10)
        assert mt.endpoint_values(10).tolist() == [float(x) for x in mt.endpoints(10)]


class TestCheckGcs:
    def test_middle_thirds_ratios(self):
        rep = check_gcs(_preset("middle-thirds", 5))
        assert rep["endpoint_ok"] is True
        for k, r in enumerate(rep["hrww_ratio"], 1):
            assert abs(r - 1 / k) < 1e-12

    def test_doubling_ratios(self):
        rep = check_gcs(_preset("doubling", 5))
        assert rep["endpoint_ok"] is True
        for k, r in enumerate(rep["hrww_ratio"], 1):
            assert abs(r - 2 / (k + 1)) < 1e-12

    def test_non_flush_right_child(self):
        spec = moran_spec_from_config("n = 2\nc = 1/3\noffsets = 0, 1/2\n")
        rep = check_gcs(build_moran(spec, 2))
        assert rep["endpoint_ok"] is False


class TestBoxDimRatio:
    def test_middle_thirds(self):
        ms = _preset("middle-thirds", 6)
        assert abs(box_dim_ratio(ms, 1, 6) - LOG2_3) < 1e-12
        assert abs(box_dim_ratio(ms, 3, 5) - LOG2_3) < 1e-12

    def test_doubling_is_one_third(self):
        ms = _preset("doubling", 5)
        for k_lo in (1, 2, 3):
            assert abs(box_dim_ratio(ms, k_lo, 5) - 1 / 3) < 1e-12

    def test_half_dimension(self):
        spec = moran_spec_from_config("n = 2\nc = 1/4\noffsets = 0, 3/4\n")
        ms = build_moran(spec, 4)
        assert abs(box_dim_ratio(ms, 1, 4) - 0.5) < 1e-12

    def test_depth_errors(self):
        ms = _preset("middle-thirds", 3)
        with pytest.raises(ValueError):
            box_dim_ratio(ms, 1, 4)
        with pytest.raises(ValueError):
            box_dim_ratio(ms, 0, 3)


def _brute_floor_exponent(delta) -> int:
    d = delta.delta if isinstance(delta, DyadicScale) else F(delta)
    a = 0
    while F(1, 1 << (a + 1)) >= d:
        a += 1
    return a


class TestScaleFloorExponent:
    """The bit-length rule against a while loop in Fractions, at the boundaries."""

    def test_boundary_inputs(self):
        rng = random.Random(12)
        inputs = [DyadicScale(k) for k in range(64)]
        inputs += [math.ulp(0.0), 2.0**-1022, 1.0, F(1)]
        for k in range(64):
            p = 2.0**-k
            inputs += [p, math.nextafter(p, 0.0), F(1, 1 << k), F(1, 1 << k) - F(1, 1 << 100)]
            if k:
                inputs += [math.nextafter(p, 1.0), F(1, 1 << k) + F(1, 1 << 100)]
        for k in range(40):
            inputs += [F(1, 3**k), 3.0**-k]
        inputs += [rng.random() ** rng.randrange(1, 40) for _ in range(500)]
        inputs += [F(rng.randrange(1, 10**6), rng.randrange(10**6, 10**12)) for _ in range(500)]
        for delta in inputs:
            assert setgen._scale_floor_exponent(delta) == _brute_floor_exponent(delta), delta

    def test_outside_unit_interval_rejected(self):
        for bad in (0, 0.0, -0.25, F(-1, 8), 1.5, F(9, 8)):
            with pytest.raises(ValueError, match="delta must be in"):
                setgen._scale_floor_exponent(bad)


class TestQaProfile:
    def test_singleton_is_zero(self):
        assert qa_profile([F(1, 2)], 0.5, DyadicScale(8)) == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            qa_profile([], 0.5, DyadicScale(8))

    def test_scale_range_empty(self):
        with pytest.raises(ValueError, match="scale range empty"):
            qa_profile([0, F(1, 2)], 0.5, F(1))

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            qa_profile([0], 0.0, DyadicScale(4))

    def test_monotone_in_gamma(self):
        ms = _preset("middle-thirds", 8)
        e = ms.endpoints(8)
        delta = F(3) ** -8
        vals = [qa_profile(e, g, delta) for g in (0.2, 0.4, 0.6, 0.8)]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-12

    def test_full_grid_value(self):
        # value pinned from the exact greedy-ball convention: balls of radius
        # 2^-a on the 2^-16 grid cover 2^(17-a)+1 points each
        grid = [F(i, 1 << 16) for i in range((1 << 16) + 1)]
        v = qa_profile(grid, 0.5, DyadicScale(16))
        assert abs(v - 0.91644) < 2e-3

    def test_middle_thirds_profile_near_box_dimension(self):
        ms = _preset("middle-thirds", 10)
        v = qa_profile(ms.endpoints(10), 0.25, F(3) ** -10)
        assert abs(v - LOG2_3) < 0.08
        assert qa_profile(ms.endpoint_values(10), 0.25, F(3) ** -10) == v

    def test_matches_brute_force_small(self):
        rng = random.Random(11)
        for _ in range(8):
            xs = sorted({F(rng.randrange(0, 256), 256) for _ in range(rng.randrange(2, 40))})
            fast = qa_profile(xs, 0.5, DyadicScale(6))
            floats = [float(x) for x in xs]
            best = 0.0
            for a in range(1, 7):
                for b in range(0, min(a - 1, math.floor(0.5 * a)) + 1):
                    w = 2.0 ** -b
                    cells = sorted({math.floor(x / w) for x in floats})
                    windows = [(c * w, (c + 1) * w) for c in cells]
                    for cnt in brute_window_counts(floats, 2.0 ** -a, windows):
                        if cnt >= 2:
                            best = max(best, math.log2(cnt) / (a - b))
            assert fast == pytest.approx(best, abs=0)


class TestRegularityConstant:
    def test_single_point(self):
        assert regularity_constant([0], 0.5, DyadicScale(8)) == 1.0

    def test_full_grid_at_most_two(self):
        grid = [F(i, 1 << 10) for i in range(1 << 10)]
        assert regularity_constant(grid, 1.0, DyadicScale(10)) <= 2.0

    def test_middle_thirds_constant_depth_independent(self):
        vals = []
        for K in (6, 8):
            ms = _preset("middle-thirds", K)
            d = DyadicScale(math.ceil(K * math.log2(3)))
            vals.append(float(regularity_constant(ms.endpoints(K), LOG2_3, d)))
        assert vals[0] == pytest.approx(vals[1], abs=1e-9)
        assert vals[0] == pytest.approx(1.1602, abs=5e-4)


class TestOracleAgreement:
    """The three constants against an independent brute-force maximization."""

    def test_fifty_random_sets(self):
        rng = random.Random(271828)
        for trial in range(50):
            n = rng.randrange(2, 61)
            xs = sorted({F(rng.randrange(0, 512), 512) for _ in range(n)})
            floats = [float(x) for x in xs]
            amax = 5
            delta = DyadicScale(5)
            dv = float(delta.delta)
            s = rng.choice([0.4, 0.7, 1.0])
            t = rng.choice([0.5, 1.0])
            assert regularity_constant(xs, s, delta) == pytest.approx(
                brute_regularity(floats, s, amax), abs=0
            )
            assert frostman_constant(xs, s, delta) == pytest.approx(
                brute_frostman(floats, s, amax, dv), abs=0
            )
            assert katz_tao_constant(xs, t, delta) == pytest.approx(
                brute_katz_tao(floats, t, amax, dv), abs=0
            )


class TestKatzTaoFrostman:
    def test_singletons(self):
        assert katz_tao_constant([F(1, 2)], 1.0, DyadicScale(8)) == 1.0
        assert frostman_constant([F(1, 2)], 0.5, DyadicScale(8)) == pytest.approx(16.0)

    def test_grid_segment_on_axis_planar(self):
        pts = [(F(i, 64), F(0)) for i in range(65)]
        assert katz_tao_constant(pts, 1.0, DyadicScale(6)) <= 3.0

    def test_planar_net_order_one(self):
        net = [(F(i, 32), F(j, 32)) for i in range(33) for j in range(33)]
        c = katz_tao_constant(net, 2.0, DyadicScale(5))
        assert c == pytest.approx(5.0, abs=1e-9)

    def test_planar_matches_1d_on_separated_axis_points(self):
        # with pairwise gaps > 2*delta, ball counts and cell counts coincide,
        # so the planar path and the 1-d path agree on axis-aligned sets
        xs = [F(i, 16) for i in (0, 3, 6, 10, 15)]
        flat = katz_tao_constant(xs, 1.0, DyadicScale(4))
        planar = katz_tao_constant([(x, F(0)) for x in xs], 1.0, DyadicScale(4))
        assert flat == pytest.approx(planar)


@st.composite
def _planar_sets(draw):
    """(k, points): points of the delta-lattice 2^-k Z^2 in a box of
    half-width 1, 2 or 4, or of one or three delta-steps, negative
    coordinates and repeated points included."""
    k = draw(st.integers(0, 6))
    span = draw(st.sampled_from([1, 3, 1 << k, 2 << k, 4 << k]))
    coord = st.integers(-span, span).map(lambda v: F(v, 1 << k))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    return k, pts + draw(st.lists(st.sampled_from(pts), max_size=4))


def _planar_counts(k, pts):
    """_planar_ball_counter's count(a) at every radius a = 0..k, and tot."""
    count, _, tot = setgen._planar_ball_counter(*setgen._planar_lattice(pts, DyadicScale(k)))
    return [count(a) for a in range(k + 1)], tot


def _spy_visits(monkeypatch, name):
    """Replace setgen's ball counter `name` by one that records in the
    returned list each radius whose balls it counts."""
    counter, visited = getattr(setgen, name), []

    def spy(*args):
        count, bound, tot = counter(*args)
        return (lambda a: visited.append(a) or count(a)), bound, tot

    monkeypatch.setattr(setgen, name, spy)
    return visited


class TestPlanarLattice:
    """The integer-lattice planar ball counts against the per-center oracle."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_planar_sets(), st.sampled_from([1, 3, 64, 1 << 19]))
    def test_counts_match_oracle_at_every_radius(self, case, chunk):
        k, pts = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(setgen, "_PAIR_CHUNK", chunk)  # block boundaries
            got = _planar_counts(k, pts)
        assert got == brute_planar_ball_counts(pts, k)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_planar_sets(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_constants_match_oracle(self, case, t):
        k, pts = case
        counts, tot = brute_planar_ball_counts(pts, k)
        dv = 2.0**-k
        kt = max(c * (dv / 2.0**-a) ** t for a, c in enumerate(counts))
        fr = max(c / ((2.0**-a) ** (t / 2) * tot) for a, c in enumerate(counts))
        for delta in (DyadicScale(k), F(1, 1 << k), dv):
            assert float(katz_tao_constant(pts, t, delta)) == kt
            assert float(frostman_constant(pts, t / 2, delta)) == fr

    def test_isqrt_exact_near_squares(self):
        rng = random.Random(60)
        roots = [0, 1, 2, 3, (1 << 30) - 1, 1 << 30] + [rng.randrange(1 << 30) for _ in range(2000)]
        v = np.array([m * m + d for m in roots for d in (-1, 0, 1) if 0 <= m * m + d <= 1 << 60])
        assert setgen._isqrt(v).tolist() == [math.isqrt(int(x)) for x in v]

    def test_single_point(self):
        for k in range(4):
            assert _planar_counts(k, [(F(-3, 1 << k), F(5, 1 << k))]) == ([1] * (k + 1), 1)

    def test_non_dyadic_input_rejected(self):
        pts = [(F(1, 4), F(0)), (F(1, 2), F(1, 2))]
        for bad_pts, delta in (
            (pts + [(F(1, 3), F(0))], DyadicScale(3)),
            (pts, F(1, 3)),
            (pts, 0.3),
        ):
            with pytest.raises(ValueError, match="dyadic"):
                katz_tao_constant(bad_pts, 1.0, delta)
            with pytest.raises(ValueError, match="dyadic"):
                frostman_constant(bad_pts, 0.5, delta)
        with pytest.raises(ValueError, match="lattice"):
            katz_tao_constant(pts + [(F(1, 1 << 31), F(0))], 1.0, DyadicScale(3))

    @pytest.mark.parametrize("delta", [DyadicScale(3), F(1, 8), 0.125])
    def test_points_finer_than_delta_refused(self, delta):
        # a planar point off the delta-lattice would share its delta-cell
        pts = [(F(1, 4), F(0)), (F(-1, 8), F(3, 2))]
        assert katz_tao_constant(pts, 1.0, delta) == 1.0
        for bad in ((F(1, 16), F(0)), (F(0), F(3, 16))):
            with pytest.raises(ValueError, match="lattice"):
                katz_tao_constant(pts + [bad], 1.0, delta)
            with pytest.raises(ValueError, match="lattice"):
                frostman_constant(pts + [bad], 0.5, delta)


@st.composite
def _clustered_sets(draw):
    """(k, points): dyadic points over 2^-k at k = 0..8, a few clusters of
    one to 2^k cells each, so fine radii already reach the top ratios."""
    k = draw(st.integers(0, 8))
    n = 1 << k
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        cx, cy, w = draw(st.integers(-n, n)), draw(st.integers(-n, n)), draw(st.integers(0, n))
        near = st.tuples(st.integers(cx - w, cx + w), st.integers(cy - w, cy + w))
        pts += draw(st.lists(near, min_size=1, max_size=30))
    return k, [(F(x, n), F(y, n)) for x, y in pts]


@st.composite
def _line_sets(draw):
    """(k, points): dyadic points on the line over 2^-K, K >= k, in a span
    of one delta or of 1 or 4, repeated points included; K > k puts several
    points within one delta."""
    k = draw(st.integers(0, 6))
    K = k + draw(st.integers(0, 3))
    span = draw(st.sampled_from([1 << (K - k), 1 << K, 4 << K]))
    pts = draw(st.lists(st.integers(-span, span).map(lambda v: F(v, 1 << K)), min_size=1, max_size=40))
    return k, pts + draw(st.lists(st.sampled_from(pts), max_size=4))


class TestPrunedConstants:
    """The line and planar constants skip radii whose strip or window count
    cannot beat the best ratio."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_planar_sets() | _clustered_sets(), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    # two points one radius apart along an axis: the ball and both strips are closed
    @example((2, [(F(0), F(0)), (F(1, 4), F(0))]), 1.0)
    @example((2, [(F(0), F(0)), (F(0), F(-1, 4))]), 1.0)
    def test_pruned_max_equals_max_over_every_radius(self, case, t):
        k, pts = case
        count, bound, tot = setgen._planar_ball_counter(*setgen._planar_lattice(pts, DyadicScale(k)))
        counts = [count(a) for a in range(k + 1)]
        if k <= 4:
            assert (counts, tot) == brute_planar_ball_counts(pts, k)
        assert all(counts[a] <= bound(a) <= tot for a in range(k + 1))
        dv = 2.0**-k
        kt = max(c * (dv / 2.0**-a) ** t for a, c in enumerate(counts))
        fr = max(c / ((2.0**-a) ** min(t, 1.0) * tot) for a, c in enumerate(counts))
        assert katz_tao_constant(pts, t, DyadicScale(k)) == kt
        assert frostman_constant(pts, min(t, 1.0), DyadicScale(k)) == fr

    def test_coarse_radii_skipped(self, monkeypatch):
        # the dual points of a k = 8 Cantor-slope family: once the fine radii
        # reach the max, the strip counts of radii 2^-3 and coarser cannot
        # beat it, and Katz-Tao still finds the same max
        fam = cantor_slope_family(math.log(2) / math.log(3), DyadicScale(8), seed=1)
        pts = [(F(t, 256), F(b, 256)) for t, b in zip(fam.t.tolist(), fam.b.tolist())]
        visited = _spy_visits(monkeypatch, "_planar_ball_counter")
        got = katz_tao_constant(pts, 1.0, DyadicScale(8))
        assert visited == [8, 7, 6, 5, 4]
        monkeypatch.undo()
        counts, _ = _planar_counts(8, pts)
        assert got == max(c * 2.0 ** (a - 8) for a, c in enumerate(counts))

    def test_cantor_dual_points_count_few_radii(self, monkeypatch):
        # 2^-10: the strip counts leave at most 6 of the 11 radii to count
        fam = cantor_slope_family(math.log(2) / math.log(3), DyadicScale(10), seed=16)
        pts = list(zip((fam.t / 1024).tolist(), (fam.b / 1024).tolist()))
        visited = _spy_visits(monkeypatch, "_planar_ball_counter")
        got = katz_tao_constant(pts, 1.0, DyadicScale(10))
        assert len(visited) <= 6
        monkeypatch.undo()
        counts, _ = _planar_counts(10, pts)
        assert got == max(c * 2.0 ** (a - 10) for a, c in enumerate(counts))

    def test_incidence_profile_memory_at_k12(self):
        # the coarse radii's pair blocks and a block's second event array
        # are never held: the parent peaked at 19.2 MiB here
        s = math.log(2) / math.log(3)
        fam = cantor_slope_family(s, DyadicScale(12), seed=16)
        tracemalloc.start()
        try:
            incidence_profile(fam, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 << 20

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_line_sets(), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    @example((2, [F(0), F(1, 4)]), 1.0)  # the window is closed at both ends
    def test_line_pruned_max_equals_every_radius_and_oracle(self, case, t):
        k, pts = case
        xs, dv, s = sorted(float(x) for x in pts), 2.0**-k, min(t, 1.0)
        count, bound, tot = setgen._line_ball_counter(np.array(xs), dv)
        counts = [count(a) for a in range(k + 1)]
        assert all(counts[a] <= bound(a) <= tot for a in range(k + 1))
        kt = max(c * (dv / 2.0**-a) ** t for a, c in enumerate(counts))
        fr = max(c / ((2.0**-a) ** s * tot) for a, c in enumerate(counts))
        assert katz_tao_constant(pts, t, DyadicScale(k)) == kt == brute_katz_tao(xs, t, k, dv)
        assert frostman_constant(pts, s, DyadicScale(k)) == fr == brute_frostman(xs, s, k, dv)

    def test_line_coarse_radii_skipped(self, monkeypatch):
        # 16 points a delta apart, k = 8: Katz-Tao's bound at a coarse radius,
        # at most 16 points times 2^(a-8), falls below the ratio the fine
        # radii already found
        pts = [F(i, 256) for i in range(16)]
        visited = _spy_visits(monkeypatch, "_line_ball_counter")
        got = katz_tao_constant(pts, 1.0, DyadicScale(8))
        assert visited == [8, 7, 6]
        monkeypatch.undo()
        count, _, _ = setgen._line_ball_counter(np.array([float(x) for x in pts]), 2.0**-8)
        assert got == max(count(a) * 2.0 ** (a - 8) for a in range(9)) == 1.0


class TestSumMultiplicity:
    def test_single_interval(self):
        assert sum_multiplicity([(0, 1)], 2) == 1

    def test_two_far_intervals(self):
        assert sum_multiplicity([(0, 1), (10, 11)], 2) == 2

    def test_arithmetic_progression_of_short_intervals(self):
        eps = F(1, 100)
        fam = [(F(0), eps), (F(1), 1 + eps), (F(2), 2 + eps)]
        assert sum_multiplicity(fam, 2) == 3

    def test_cap_error_mentions_product_bound(self, monkeypatch):
        monkeypatch.setattr(setgen, "_FOLD_CAP", 1000)
        fam = [(F(i), F(i) + F(1, 2)) for i in range(40)]
        with pytest.raises(ValueError, match="product bound"):
            sum_multiplicity(fam, 4)

    def test_disjoint_m1_is_one(self):
        fam = [(0, 1), (3, 4), (6, 7)]
        assert sum_multiplicity(fam, 1) == 1

    def test_int64_weight_overflow_raises(self):
        # 2^67 ordered tuples; the deepest sum alone holds C(67, 33) > 2^63 of them
        with pytest.raises(MultiplicityOverflow, match="int64"):
            sum_multiplicity([(0, 1), (1000, 1001)], 67)
        assert sum_multiplicity([(0, 1), (1000, 1001)], 62) == math.comb(62, 31)


@st.composite
def _interval_lists(draw):
    """(intervals, m): rational intervals on one lattice, touching, nested,
    repeated and degenerate ones included, with at most 216 m-tuples."""
    m = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2, 3, 6, 64]))
    pairs = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 8)),
                          min_size=1, max_size=(6, 6, 6, 3)[m - 1]))
    return [(F(a, den), F(a + w, den)) for a, w in pairs], m


class TestSumMultiplicityOracle:
    """The integer fold and the slot kernel against the Fraction tuple enumerator."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_interval_lists(), st.booleans())
    def test_fold_matches_enumeration(self, case, closed):
        ivs, m = case
        want = brute_sum_multiplicity(ivs, m, closed)
        assert sum_multiplicity(ivs, m, closed=closed) == want
        if closed:
            assert sum_multiplicity(IntervalFamily(ivs), m) == want

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_interval_lists(), st.booleans(), st.integers(1, 300))
    def test_fold_cap_refuses_exactly_past_the_cap(self, case, closed, cap):
        # fold 1 reads the family itself and each later fold no fewer rows
        # than the one before, so some fold passes the cap exactly when the
        # family or the distinct (m-1)-fold sums, times the family, do; the
        # refusal may come early, but only then, and a returned value is exact
        ivs, m = case
        sums = itertools.product(ivs, repeat=m - 1)
        rows = len({(sum(a for a, _ in t), sum(b for _, b in t)) for t in sums})
        over = m > 1 and max(len(ivs), rows) * len(ivs) > cap
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(setgen, "_FOLD_CAP", cap)
            try:
                got = sum_multiplicity(ivs, m, closed=closed)
            except MultiplicityOverflow:
                assert over
            else:
                assert not over and got == brute_sum_multiplicity(ivs, m, closed)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.sets(st.integers(0, 30), min_size=1, max_size=6), st.integers(1, 4))
    def test_slot_kernel_matches_enumeration(self, slots, m):
        slots = sorted(slots)[: 4 if m == 4 else 6]
        ivs = [(t, t + 1) for t in slots]
        want = brute_sum_multiplicity(ivs, m, closed=True)
        assert _slot_sum_multiplicity(slots, m) == want
        assert sum_multiplicity(ivs, m) == want


@st.composite
def _shared_end_lists(draw):
    """(intervals, m): intervals whose ends come from a few lattice points,
    so sums share coordinates; equal ends give zero-length intervals."""
    m = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 3, 8]))
    points = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    ends = st.tuples(st.sampled_from(points), st.sampled_from(points)).map(sorted)
    pairs = draw(st.lists(ends, min_size=1, max_size=(6, 6, 5, 3)[m - 1]))
    return [(F(a, den), F(b, den)) for a, b in pairs], m


class TestWindowedSweep:
    """The last fold, swept in windows of a few ends, against the Fraction
    tuple enumerator."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(_interval_lists(), _shared_end_lists()), st.booleans(), st.integers(1, 3))
    def test_tiny_windows_match_enumeration(self, case, closed, chunk):
        ivs, m = case
        want = brute_sum_multiplicity(ivs, m, closed)
        with mock.patch.object(setgen, "_SWEEP_CHUNK", chunk):
            assert sum_multiplicity(ivs, m, closed=closed) == want

    def test_energy_class_at_2_pow_40_stays_small(self):
        # check 04's tangent class at 2^-40: 256 abutting caps, 3 873 024 sums
        dom = gcs_domain(_preset("doubling", 4))
        ivs = [(c.t_lo, c.t_hi) for c in cap_cover(dom, F(1, 1 << 40)).classes[0]]
        assert len(ivs) == 256
        tracemalloc.start()
        try:
            got = sum_multiplicity(ivs, 3, closed=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 5670
        assert peak <= 32 << 20


class TestSlotKernel:
    """The multiset slot kernel against the integer fold of sum_multiplicity."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_slot_patterns(self, m):
        rng = random.Random(100 + m)
        for _ in range(40):
            n = rng.randrange(1, 9 if m == 4 else 13)
            slots = sorted(rng.sample(range(3 * n + 5), n))
            want = sum_multiplicity([(t, t + 1) for t in slots], m)
            assert _slot_sum_multiplicity(slots, m) == want

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_repeated_sums(self, m):
        # progressions and symmetric patterns make many tuples share a sum
        for slots in ([0, 2, 4, 6, 8], [0, 3, 6, 9], [0, 1, 5, 9, 10], [0, 4, 5, 6, 10], [0, 7]):
            want = sum_multiplicity([(t, t + 1) for t in slots], m)
            assert _slot_sum_multiplicity(slots, m) == want


class TestFamilySearch:
    def test_two_intervals_forced_to_ends(self):
        fam = search_interval_family(2, 3)
        assert fam.intervals == ((F(-1, 2), F(-3, 8)), (F(3, 8), F(1, 2)))
        assert fam.meta["g"] == 3

    def test_four_intervals_reach_factorial_floor(self):
        fam = search_interval_family(4, 3)
        assert fam.meta["g"] == 6  # m! is a hard floor for distinct intervals

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_family_geometry(self, n):
        m = 3
        fam = search_interval_family(n, m, budget=800, seed=1)
        u = F(1, n ** m)
        assert len(fam) == n
        assert all(b - a == u for a, b in fam.intervals)
        assert fam.intervals[0][0] == F(-1, 2) and fam.intervals[-1][1] == F(1, 2)
        assert fam.separated_by(F(m, 2) * u)

    def test_certificate_matches_exact_evaluation(self):
        for n in (2, 4):
            fam = search_interval_family(n, 3, budget=500, seed=2)
            assert sum_multiplicity(fam, 3) == fam.meta["g"]

    def test_more_budget_never_worse(self):
        small = search_interval_family(8, 3, budget=60, seed=3)
        big = search_interval_family(8, 3, budget=1500, seed=3)
        assert big.meta["g"] <= small.meta["g"]

    def test_ordered_tuples_floor(self):
        # any m distinct intervals give m! ordered tuples with equal sums
        fam = search_interval_family(8, 3, budget=400, seed=0)
        assert fam.meta["g"] >= 6

    def test_cached_family_is_positional_only(self):
        # a keyword spelling would be a second lru_cache key and a second search
        with pytest.raises(TypeError):
            cached_family(8, 3, budget=4000, seed=0)
        assert cached_family(8, 3, 4000, 0) is cached_family(8, 3, 4000, 0)

    def test_cached_family_shares_seed_blind_searches(self):
        # n = 2 and the exhaustive small-n branch never draw from the seed,
        # so every seed is served the seed-0 search; n = 8 samples, so its
        # seed stays in the key
        assert cached_family(4, 3, 4000, 5) is cached_family(4, 3, 4000, 0)
        assert cached_family(2, 3, 4000, 7) is cached_family(2, 3, 4000, 0)
        assert cached_family(8, 3, 300, 5) is not cached_family(8, 3, 300, 0)
        for n, seed in ((4, 5), (2, 7)):
            fam = search_interval_family(n, 3, 4000, seed)
            assert fam.intervals == cached_family(n, 3, 4000, 0).intervals

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            search_interval_family(1, 3)
        with pytest.raises(ValueError):
            search_interval_family(4, 1)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 40), st.data())
    def test_repair_slots_gives_valid_pattern(self, n, gap, slack, data):
        # any n slots, inside [0, last] or not, repair to a valid pattern when
        # (n - 1) * gap <= last, as search_interval_family requires; a valid
        # pattern is kept as it is
        last = (n - 1) * gap + slack
        ts = sorted(data.draw(st.lists(st.integers(-10, last + 10), min_size=n, max_size=n)))
        out = _repair_slots(ts, n, gap, last)
        assert len(out) == n and out[0] == 0 and out[-1] == last
        assert all(b - a >= gap for a, b in zip(out, out[1:]))
        if ts[0] == 0 and ts[-1] == last and all(b - a >= gap for a, b in zip(ts, ts[1:])):
            assert out == tuple(ts)


# (n, m, budget, seed) -> (meta["g"], meta["slots"]) of the walk that evaluates
# every trial exactly; skipping trials must not move any of them
_GOLDEN_WALKS = {
    (2, 3, 4000, 0): (3, [0, 7]),
    (4, 3, 4000, 0): (6, [0, 23, 50, 63]),
    (8, 3, 4000, 0): (9, [0, 32, 52, 88, 171, 219, 418, 511]),
    (16, 3, 4000, 0): (18, [0, 274, 550, 828, 1108, 1390, 1674, 1960, 2248, 2538, 2830, 3124, 3420,
                            3718, 4018, 4095]),
    (32, 3, 4000, 0): (24, [0, 1059, 2122, 3189, 4260, 5335, 6414, 7497, 8584, 9675, 10770, 11869,
                            12972, 14079, 15190, 16305, 17424, 18547, 19674, 20805, 21940, 23079,
                            24222, 25369, 26520, 27675, 28834, 29997, 31164, 32335, 32764, 32767]),
    (8, 3, 60, 0): (12, [0, 74, 150, 228, 308, 390, 474, 511]),
    (8, 3, 300, 0): (12, [0, 74, 150, 228, 308, 390, 474, 511]),
    (8, 3, 1500, 0): (9, [0, 32, 52, 88, 171, 219, 418, 511]),
    (8, 3, 4000, 1): (9, [0, 55, 118, 303, 370, 411, 484, 511]),
    (16, 3, 4000, 5): (15, [0, 119, 1047, 1469, 2170, 2552, 2671, 2829, 3031, 3040, 3258, 3443, 3447,
                            3778, 3861, 4095]),
    (16, 2, 4000, 0): (6, [0, 11, 67, 99, 104, 108, 123, 131, 195, 201, 213, 217, 228, 236, 248, 255]),
    (8, 4, 4000, 0): (24, [0, 405, 603, 1271, 2466, 3319, 3696, 4095]),
}


def _reference_search(n: int, m: int, budget: int, seed: int) -> tuple[int, list[int]]:
    """The family search with every trial evaluated exactly: (g, slots)."""
    slots = n ** m
    gap = 1 + (m + 1) // 2
    last = slots - 1
    rng = random.Random(seed)
    evals = 0
    best: list = [None, None]

    def valid(ts):
        return ts[0] == 0 and ts[-1] == last and len(set(ts)) == n and all(
            b - a >= gap for a, b in zip(ts, ts[1:])
        )

    def evaluate(ts):
        nonlocal evals
        evals += 1
        g = _slot_sum_multiplicity(ts, m)
        if best[0] is None or g < best[0]:
            best[:] = [g, tuple(ts)]
        return g

    base = [round(i * last / (n - 1)) for i in range(n)]
    for c in (0, 1, 2, 3):
        cand = _repair_slots([base[i] + c * i * i for i in range(n)], n, gap, last)
        if valid(cand) and evals < budget:
            evaluate(cand)
    if n == 2:
        pass
    elif (last - 1) <= 64 and math.comb(last - 1, n - 2) <= max(budget, 1):
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
            improved = True
            while improved and evals < budget:
                improved = False
                for idx in range(1, n - 1):
                    for step in (-2, -1, 1, 2):
                        trial = list(cur)
                        trial[idx] += step
                        tt = tuple(trial)
                        if not valid(tt):
                            continue
                        g = evaluate(tt)
                        if g < cur_g:
                            cur, cur_g = tt, g
                            improved = True
                        if evals >= budget:
                            break
                    if evals >= budget:
                        break
    if best[1] is None:
        best[1] = _repair_slots(base, n, gap, last)
        best[0] = _slot_sum_multiplicity(best[1], m)
    return best[0], list(best[1])


@st.composite
def _slot_patterns(draw):
    """A sorted slot pattern with the search's gaps, kept tight so that many
    multiset sums share windows."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(3, 12))
    gap = 1 + (m + 1) // 2
    steps = draw(st.lists(st.integers(gap, gap + 4), min_size=n - 1, max_size=n - 1))
    return list(itertools.accumulate([0, *steps])), m, gap


class TestSkippedEvaluations:
    """The search skips the exact kernel only where an exact bound rejects the move."""

    @pytest.mark.parametrize("case", sorted(_GOLDEN_WALKS))
    def test_walk_is_pinned(self, case):
        n, m, budget, seed = case
        fam = search_interval_family(n, m, budget=budget, seed=seed)
        assert (fam.meta["g"], fam.meta["slots"]) == _GOLDEN_WALKS[case]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_slot_patterns())
    def test_bound_never_exceeds_moved_multiplicity(self, case):
        ts, m, gap = case
        bounds = _slot_move_bounds(ts, m)
        assert bounds.shape == (len(ts), len(_STEPS))
        for idx in range(1, len(ts) - 1):
            for j, step in enumerate(_STEPS):
                t = ts[idx] + step
                if ts[idx - 1] + gap <= t <= ts[idx + 1] - gap:
                    moved = [*ts[:idx], t, *ts[idx + 1:]]
                    assert bounds[idx, j] <= _slot_sum_multiplicity(moved, m)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 12), st.integers(1, 300), st.integers(0, 50))
    @example(m=2, n=4, budget=37, seed=0)  # accepts a move whose bound is cur_g - 1
    @example(m=2, n=9, budget=300, seed=0)  # moves slots onto the minimum gap from both sides
    def test_search_matches_exhaustive_walk(self, m, n, budget, seed):
        if m == 4:
            n = min(n, 8)
        fam = search_interval_family(n, m, budget=budget, seed=seed)
        assert (fam.meta["g"], fam.meta["slots"]) == _reference_search(n, m, budget, seed)

    def test_most_trials_skip_the_kernel(self, monkeypatch):
        calls = []
        kernel = setgen._slot_sum_multiplicity
        monkeypatch.setattr(setgen, "_slot_sum_multiplicity", lambda ts, m: calls.append(1) or kernel(ts, m))
        search_interval_family(32, 3, budget=4000, seed=0)
        assert len(calls) <= 4000 // 20


class TestMoranSumBound:
    def test_middle_thirds_product(self):
        ms = _preset("middle-thirds", 3)
        assert moran_sum_multiplicity_bound(ms, 2, 3) == 27

    def test_bound_dominates_exact_value(self):
        ms = _preset("middle-thirds", 3)
        exact = sum_multiplicity([(a, a + ms.length(3)) for a in ms.lefts(3)], 2)
        assert exact <= moran_sum_multiplicity_bound(ms, 2, 3)

    def test_m1_is_one(self):
        ms = _preset("middle-thirds", 4)
        assert moran_sum_multiplicity_bound(ms, 1, 4) == 1


class TestConfig:
    def test_middle_thirds_from_text(self):
        spec = moran_spec_from_config("n = 2\nc = 1/3\noffsets = 0, 2/3\n")
        ms = build_moran(spec, 2)
        assert ms.endpoints(1) == [F(-1, 2), F(-1, 6), F(1, 6), F(1, 2)]

    def test_power_rules(self):
        spec = moran_spec_from_config("n = 2^k\nc = 2^-3k\noffsets = even\n")
        assert spec.n(3) == 8
        assert spec.c(3) == F(1, 1 << 9)
        ms = build_moran(spec, 3)
        assert ms.interval_count(3) == 64

    def test_constant_power_rule(self):
        spec = moran_spec_from_config("n = 8\nc = 8^-3\noffsets = searched\n")
        assert spec.c(1) == F(1, 512)
        assert len(spec.offsets(2)) == 8

    @pytest.mark.parametrize("name, n, c, depth", [
        ("doubling", lambda k: 1 << k, lambda k: F(1, 1 << (3 * k)), 5),
        ("constant-branch-8", lambda k: 8, lambda k: F(1, 512), 3),
    ])
    def test_searched_preset_levels(self, name, n, c, depth):
        # n_k children of contraction c_k, laid out by the family the search
        # finds for n_k at m = 3, budget 4000 and seed 0
        spec = moran_spec_from_config(setgen.PRESETS[name])
        assert spec.levels is None
        for k in range(1, depth + 1):
            want = tuple(family_offsets(cached_family(n(k), 3, 4000, 0)))
            assert spec.level(k) == (n(k), c(k), want)

    def test_middle_thirds_preset_levels(self):
        spec = moran_spec_from_config(setgen.PRESETS["middle-thirds"])
        assert spec.levels is None
        assert [spec.level(k) for k in (1, 2, 9)] == [(2, F(1, 3), (F(0), F(2, 3)))] * 3

    def test_listed_contractions_set_levels(self):
        spec = moran_spec_from_config("n = 2, 2\nc = 1/4, 1/4\noffsets = 0, 3/4\n")
        assert spec.levels == 2
        assert spec.level(2) == (2, F(1, 4), (F(0), F(3, 4)))
        with pytest.raises(ValueError, match="^spec defines 2 levels, asked for 3$"):
            spec.level(3)

    def test_comment_and_blank_lines(self):
        kv = parse_keyvals("# comment\n\nn = 2 # trailing\nc = 1/3\n")
        assert kv == {"n": "2", "c": "1/3"}

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            moran_spec_from_config("n = 2\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_keyvals("just some words\n")

    def test_repeated_key(self):
        # also through moran_spec_from_config, which reads the same parser
        with pytest.raises(ValueError, match="^line 4: repeated key 'n'$"):
            parse_keyvals("n = 2\nc = 1/3\n\nn=3\n")
        with pytest.raises(ValueError, match="repeated key 'c'"):
            moran_spec_from_config("n = 2\nc = 1/3\nc = 1/4\n")


def test_family_offsets_normalize_to_unit_parent():
    fam = search_interval_family(2, 3)
    assert family_offsets(fam) == [F(0), F(7, 8)]


def test_ball_count_matches_core_greedy():
    # BallCounter1D's binary-lifted jumps against the plain greedy sweep in
    # exact arithmetic: open a ball at the leftmost uncovered point x, skip
    # everything in [x, x + 2r]
    def greedy(xs, r):
        count, reach = 0, None
        for x in xs:
            if reach is None or x > reach:
                count, reach = count + 1, x + 2 * r
        return count

    rng = random.Random(4)
    for _ in range(20):
        xs = sorted(F(rng.randrange(0, 200), 64) for _ in range(rng.randrange(1, 30)))
        r = F(rng.randrange(1, 20), 64)
        floats = np.array([float(x) for x in xs])
        counter = setgen.BallCounter1D(floats, float(r))
        got = int(counter.runs(np.zeros(1, dtype=np.intp), len(floats))[0])
        assert got == greedy(xs, r)


@st.composite
def _ball_cases(draw):
    """(sorted xs, r, windows) for BallCounter1D: grid points (so repeats)
    or floats that x + 2r rounds, or 2^j points 3r apart, each maybe
    repeated, whose whole-set cover is exactly 2^j balls; window ends in,
    at or outside the points."""
    r = draw(st.sampled_from([2.0 ** -a for a in range(1, 8)]) | st.floats(1e-3, 0.5))
    if draw(st.booleans()):
        reps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=32))
        reps = reps[: 1 << (len(reps).bit_length() - 1)]
        xs = [i * 3 * r for i, m in enumerate(reps) for _ in range(m)]
    else:
        point = st.integers(-8, 72).map(lambda i: i / 64) | st.floats(-0.25, 1.25)
        xs = sorted(draw(st.lists(point, min_size=1, max_size=40)))
    end = st.sampled_from(xs) | st.floats(-0.5, xs[-1] + 0.5)
    windows = draw(st.lists(st.tuples(end, end).map(sorted), min_size=1, max_size=8))
    return xs, r, windows


def _window_runs(xs, windows, closed_right):
    """The index runs [pos, end) of the sorted xs in the windows [lo, hi)
    (or [lo, hi] when closed_right)."""
    lo, hi = zip(*windows)
    return np.searchsorted(xs, lo, side="left"), np.searchsorted(xs, hi, side="right" if closed_right else "left")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ball_cases(), st.booleans())
@example(([0.5], 0.25, [(0.5, 0.5), (0.0, 0.5), (0.6, 1.0)]), True)
@example(([0.1, 0.3, 0.1 + 2 * 0.1, 0.5000000000000001], 0.1, [(0.0, 0.5000000000000001)]), False)
def test_ball_counter_matches_brute_windows(case, closed_right):
    xs, r, windows = case
    counter = setgen.BallCounter1D(np.array(xs), r)
    runs = counter.runs(*_window_runs(xs, windows, closed_right))
    assert runs.tolist() == brute_window_counts(xs, r, windows, closed_right)
    # a table b is kept while its jumps from the first point stop short of
    # the end and b <= h
    tot = brute_window_counts(xs, r, [(xs[0], xs[-1])], closed_right=True)[0]
    h = (len(xs).bit_length() + 1) // 2
    assert len(counter.tables) == min((tot - 1).bit_length(), h + 1)
    assert counter.stride == (tot > 1 << (h + 1))
    assert all(t.dtype == np.int32 and len(t) == len(xs) + 1 for t in counter.tables)


@st.composite
def _stride_cases(draw):
    """(sorted xs, r, windows) whose whole-set cover outgrows 2^(h + 1)
    balls, h = ceil(bit_length(n) / 2): 2^(h + 1) steps of 3r, each of which
    opens a ball, shuffled among steps of 0 (repeats), exactly 2r (covered
    by the ball before) and more than 2r. Windows take the whole set, empty
    runs, and ends at, between or outside the points."""
    r = draw(st.sampled_from([2.0 ** -a for a in range(2, 9)]) | st.floats(1e-4, 0.5))
    n = draw(st.integers(17, 300))  # 16 points cover in at most 2^(h + 1) = 16 balls
    h = (n.bit_length() + 1) // 2
    free = n - 1 - (1 << (h + 1))
    steps = draw(st.lists(st.sampled_from([0.0, 2 * r, 3 * r, 5 * r]), min_size=free, max_size=free))
    steps = draw(st.permutations(steps + [3 * r] * (1 << (h + 1))))
    xs = np.cumsum([draw(st.floats(-1, 1))] + steps).tolist()
    end = st.sampled_from(xs) | st.floats(xs[0] - 1, xs[-1] + 1)
    windows = draw(st.lists(st.tuples(end, end).map(sorted), min_size=1, max_size=8))
    gap = xs[0] - 1
    windows += [(xs[0], xs[-1]), (gap, xs[-1] + 1), (gap, gap), (xs[-1] + 1, xs[-1] + 2)]
    return xs, r, windows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_stride_cases(), st.booleans())
def test_ball_counter_stride_matches_brute_windows(case, closed_right):
    xs, r, windows = case
    counter = setgen.BallCounter1D(np.array(xs), r)
    runs = counter.runs(*_window_runs(xs, windows, closed_right))
    assert runs.tolist() == brute_window_counts(xs, r, windows, closed_right)
    # the stride ran: h + 1 tables kept, the whole cover above 2^(h + 1)
    tot = brute_window_counts(xs, r, [(xs[0], xs[-1])], closed_right=True)[0]
    h = (len(xs).bit_length() + 1) // 2
    assert tot > 1 << (h + 1)
    assert counter.stride and len(counter.tables) == h + 1


def test_ball_counter_refuses_int32_overflow():
    class Huge:
        def __len__(self):
            return 1 << 31

    with pytest.raises(ValueError, match="fewer than 2\\^31"):
        setgen.BallCounter1D(Huge(), 0.5)


def test_qa_profile_holds_one_table_set():
    # check 02's input, the depth-16 middle-thirds endpoints, n = 2^17, at
    # delta = 3^-16: radii 2^-a for a <= 25, windows of width 2^-b for
    # b <= floor(0.75 a) <= 18. A counter keeps at most h + 1 int32 tables
    # of n + 1 entries, h = ceil(bit_length(n) / 2) = 9, and builds no more;
    # the window runs are two int64 arrays per width; the sorted input is
    # read in place, and the first table is filled from chunks of 2^15
    # points, each with its x + 2r and int64 search result. The parent's
    # (n - 1).bit_length() + 1 = 18 tables of one counter exceed it, and so
    # would two n-long transients of 8 bytes.
    xs = _preset("middle-thirds", 16).endpoint_values(16)
    n, delta = len(xs), F(3) ** -16
    h = (n.bit_length() + 1) // 2
    qa_profile(xs[:64], 0.25, delta)  # first-call allocations outside the trace
    windows = sum(len(np.unique(np.floor(xs * 2.0 ** b))) for b in range(19))
    bound = (h + 1) * (n + 1) * 4 + windows * 2 * 8 + 2 * 8 * (1 << 15)
    tracemalloc.start()
    try:
        qa_profile(xs, 0.25, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ((n - 1).bit_length() + 1) * (n + 1) * 4 > bound
    assert (h + 1) * (n + 1) * 4 + windows * 2 * 8 + 2 * 8 * n > bound
    assert peak <= bound
