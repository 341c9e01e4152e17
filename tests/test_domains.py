"""Convex-domain boundary, cap-cover, and additive-energy tests.

Oracles: independent piecewise boundary evaluation (tree descent per
point), closed-form chord/tangent identities, setgen's multiset slot
kernel, and frozen exact counts from deterministic constructions.
"""

import functools
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab.domains import (
    Cap,
    CapCover,
    GcsDomain,
    additive_energy_estimate,
    affine_dim_estimate,
    cap_cover,
    cap_count,
    direction_set,
    gcs_domain,
    k_delta,
    slope_set,
)
from tubelab.domains import _class_product_bound, _max_tangent_splits
from tubelab import setgen
from tubelab.core import DyadicScale
from tubelab.setgen import (
    MoranSpec,
    MultiplicityOverflow,
    build_moran,
    moran_spec_from_config,
    qa_profile,
    sum_multiplicity,
    _slot_sum_multiplicity,
)

S_LOG23 = math.log(2) / math.log(3)


def preset_domain(name, K):
    return gcs_domain(build_moran(moran_spec_from_config(setgen.PRESETS[name]), K))


def mt_domain(K):
    return preset_domain("middle-thirds", K)


def boundary_oracle(moran, t):
    """Independent gamma: parabola on surviving intervals, chord on gaps."""
    t = F(t)
    for k in range(1, moran.K + 1):
        for a, b in moran.removed_intervals(k):
            if a < t < b:
                return a * a - F(1, 8) + (a + b) * (t - a)
    return t * t - F(1, 8)


class TestBoundary:
    def test_middle_thirds_center_height(self):
        assert mt_domain(4).gamma(0) == F(-7, 72)

    def test_meets_ceiling_exactly(self):
        d = mt_domain(3)
        assert d.gamma(F(1, 2)) == F(1, 8)
        assert d.gamma(F(-1, 2)) == F(1, 8)

    def test_parabola_on_surviving_points(self):
        d = mt_domain(3)
        for t in d.moran.endpoints(3):
            assert d.gamma(t) == t * t - F(1, 8)

    def test_matches_oracle_on_dense_sample(self):
        d = mt_domain(4)
        for i in range(-40, 41):
            t = F(i, 80)
            assert d.gamma(t) == boundary_oracle(d.moran, t)

    def test_chord_slope_is_endpoint_sum(self):
        # over a removed gap (a, b) the boundary is the chord of t^2 - c, whose
        # slope is a + b, and it is affine there
        d = preset_domain("doubling", 3)
        for k in (1, 2, 3):
            for a, b in d.moran.removed_intervals(k):
                mid = (a + b) / 2
                assert (d.gamma(b) - d.gamma(a)) / (b - a) == a + b
                assert (d.gamma(mid) - d.gamma(a)) / (mid - a) == a + b
                assert (d.gamma(b) - d.gamma(mid)) / (b - mid) == a + b

    def test_convexity_of_right_slopes(self):
        d = mt_domain(5)
        ts = d.moran.endpoints(5)
        slopes = [(d.gamma(v) - d.gamma(u)) / (v - u) for u, v in zip(ts, ts[1:])]
        assert all(a <= b for a, b in zip(slopes, slopes[1:]))

    def test_out_of_range_rejected(self):
        d = mt_domain(2)
        with pytest.raises(ValueError, match=r"\[-1/2, 1/2\]"):
            d.gamma(F(3, 4))

    def test_endpoint_condition_required(self):
        spec = moran_spec_from_config("n = 2\nc = 1/4\noffsets = 1/8, 5/8\n")
        with pytest.raises(ValueError, match="end-point condition"):
            gcs_domain(build_moran(spec, 2))
        # a domain built directly is held to the same condition
        with pytest.raises(ValueError, match="end-point condition"):
            GcsDomain(build_moran(spec, 2))

    def test_piece_lookup(self):
        # piece j runs over [e_j, e_{j+1}]: arcs at even j, chords at odd j
        d = mt_domain(1)
        assert d.piece(F(-1, 2)) == (F(-1, 2), F(-1, 6), False)
        assert d.piece(F(-1, 6)) == (F(-1, 6), F(1, 6), True)
        assert d.piece(0) == (F(-1, 6), F(1, 6), True)
        assert d.piece(F(1, 6)) == d.piece(F(1, 2)) == (F(1, 6), F(1, 2), False)


@st.composite
def _flush_specs(draw):
    """Flush Moran specs of depth 1-4: random n_k, c_k and interior offsets."""
    depth = draw(st.integers(1, 4))
    ns, cs, layouts = [], [], []
    for _ in range(depth):
        n = draw(st.integers(2, 3))
        den = draw(st.integers(n + 1, 12))
        c = F(draw(st.integers(1, (den - 1) // n)), den)
        # the n - 1 sibling gaps share the free length 1 - n c by positive weights
        w = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
        off = [F(0)]
        for wi in w:
            off.append(off[-1] + c + (1 - n * c) * wi / sum(w))
        ns.append(n)
        cs.append(c)
        layouts.append(off)
    spec = MoranSpec(n=lambda k: ns[k - 1], c=lambda k: cs[k - 1], offsets=lambda k: layouts[k - 1],
                     levels=depth)
    return spec, depth


class TestLatticeBoundary:
    """The boundary read off the endpoint lattice, on generated flush specs."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_flush_specs(), st.lists(st.fractions(F(-1, 2), F(1, 2), max_denominator=1 << 12), max_size=20))
    def test_gamma_matches_oracle(self, case, ts):
        spec, depth = case
        d = gcs_domain(build_moran(spec, depth))
        ends = d.moran.endpoints(depth)
        for t in [*ends, *d.moran.all_midpoints(), *ts]:
            assert d.gamma(t) == boundary_oracle(d.moran, t)
        assert d.gamma(F(-1, 2)) == d.gamma(F(1, 2)) == F(1, 8)
        slopes = [(d.gamma(v) - d.gamma(u)) / (v - u) for u, v in zip(ends, ends[1:])]
        assert all(a <= b for a, b in zip(slopes, slopes[1:]))
        want = {2 * e for e in ends} | {2 * x for x in d.moran.all_midpoints()} | {F(0)}
        assert set(slope_set(d)) == want


class TestSlopeSet:
    def test_middle_thirds_depth_one(self):
        assert slope_set(mt_domain(1)) == (F(-1), F(-1, 3), F(0), F(1, 3), F(1))

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_identity_with_endpoints_and_midpoints(self, K):
        d = mt_domain(K)
        want = (
            {2 * e for e in d.moran.endpoints(K)}
            | {2 * x for x in d.moran.all_midpoints()}
            | {F(0)}
        )
        assert set(slope_set(d)) == want

    def test_extremes_and_zero_for_every_construction(self):
        for d in (mt_domain(2), preset_domain("doubling", 2)):
            s = slope_set(d)
            assert F(-1) == s[0] and F(1) == s[-1] and F(0) in s

    def test_direction_set_snapping(self):
        d = mt_domain(2)
        ds = direction_set(d, DyadicScale(6))
        assert ds.indices[-1] == 63  # slope 1 clips into the grid range
        assert ds.indices[0] == -64
        assert len(ds.indices) == len(set(ds.indices))


@functools.lru_cache(maxsize=None)
def _rounding_domain(kind: str, depth: int, layout: tuple = ()) -> GcsDomain:
    if kind == "middle-thirds":
        return mt_domain(depth)
    if kind == "doubling":
        return preset_domain("doubling", depth)
    (n1, c1), (n2, c2) = layout
    return gcs_domain(build_moran(moran_spec_from_config(
        f"n = {n1}, {n2}\nc = {c1}, {c2}\noffsets = even\n"), 2))


@st.composite
def _rounding_domains(draw):
    """Flush domains: middle-thirds (den 2 * 3^K), the doubling preset (a
    dyadic den, so v 2^k / den meets exact half-way ties) and random
    two-level [moran] specs with evenly spaced children, whose lattice
    outgrows int64 (an object array) when both levels draw den 2^40."""
    kind = draw(st.sampled_from(["middle-thirds", "doubling", "two-level"]))
    if kind != "two-level":
        return _rounding_domain(kind, draw(st.integers(1, 4 if kind == "doubling" else 8)))
    layout = []
    for _ in range(2):
        n = draw(st.integers(2, 4))
        den = draw(st.sampled_from([d for d in (4, 5, 6, 8, 9, 16, 32, 1 << 40) if d > n]))
        layout.append((n, F(draw(st.integers(1, (den - 1) // n)), den)))
    return _rounding_domain(kind, 2, tuple(layout))


class TestDirectionSetRounding:
    """direction_set against the Fraction rule it replaced, kept here."""

    @staticmethod
    def reference(d, k):
        n = 1 << k
        return sorted({min(round(a * n), n - 1) for a in slope_set(d)})

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_rounding_domains(), st.data())
    def test_matches_fraction_round(self, d, data):
        # k up to log2(den) puts v 2^k / den on half-way points
        bits = d._lattice[1].bit_length()
        k = data.draw(st.integers(1, min(62, bits)) | st.integers(1, 62))
        got = direction_set(d, DyadicScale(k))
        assert got.indices.tolist() == self.reference(d, k)
        assert got.tag == "explicit"

    def test_half_way_ties_are_met(self):
        # the doubling preset's dyadic den gives exact ties, which round to even
        d = _rounding_domain("doubling", 2)
        ties = sorted({k for k in range(1, 63) for a in slope_set(d) if (a * (1 << k)).denominator == 2})
        assert ties
        for k in ties:
            assert direction_set(d, DyadicScale(k)).indices.tolist() == self.reference(d, k)

    @pytest.mark.parametrize("k", [63, 64])
    def test_scale_past_int64_refused(self, k):
        with pytest.raises(ValueError, match="fit int64 only up to k = 62"):
            direction_set(mt_domain(2), DyadicScale(k))


class TestCapCover:
    def test_k_delta_middle_thirds(self):
        d = mt_domain(10)
        assert k_delta(d, F(1, 3**8)) == 4
        assert k_delta(d, F(1, 3**8) + F(1, 3**20)) == 3  # strictly above 3^-8
        assert k_delta(d, F(1, 9)) == 1  # equality: (c1)^2 == delta

    def test_k_delta_stops_at_listed_levels(self):
        # c is listed for two levels only: K(delta) never reads a third
        spec = MoranSpec(n=lambda k: 2, c=lambda k: F(1, 4), offsets=lambda k: [0, F(3, 4)], levels=2)
        dom = gcs_domain(build_moran(spec, 2))
        assert [k_delta(dom, F(1, 1 << j)) for j in (3, 4, 7, 8, 9, 30)] == [0, 1, 1, 2, 2, 2]
        cfg = moran_spec_from_config("n = 2, 2\nc = 1/4, 1/4\noffsets = 0, 3/4\n")
        assert k_delta(gcs_domain(build_moran(cfg, 2)), F(1, 256)) == 2
        assert len(cap_cover(dom, F(1, 256))) == 8

    def test_depth_insufficient(self):
        with pytest.raises(ValueError, match="insufficient"):
            cap_cover(mt_domain(2), F(1, 1 << 20))

    @pytest.mark.parametrize(
    "domain_fn,j",
        [(lambda: mt_domain(8), 12), (lambda: mt_domain(8), 17),
         (lambda: preset_domain("doubling", 4), 20),
         (lambda: preset_domain("constant-branch-8", 3), 10)],
    )
    def test_cover_valid_and_tiling(self, domain_fn, j):
        dom = domain_fn()
        cover = cap_cover(dom, F(1, 1 << j))
        assert cover.parameter_cover_ok()
        for cap in cover.all_caps():
            assert cap.is_valid_cap(dom)
        for k in range(1, cover.k_delta + 1):
            assert len(cover.classes[k]) == len(dom.moran.removed_intervals(k))
            assert all(c.boundary_gap(dom) == 0 for c in cover.classes[k])

    def test_chord_caps_valid_for_tiny_delta(self):
        dom = mt_domain(6)
        cover = cap_cover(dom, F(1, 3**12))
        for cap in cover.classes[1]:
            assert cap.is_valid_cap(dom)

    def test_split_count_bound(self):
        # |class 0| <= 4 * delta^{-eta} * |surviving intervals|
        dom = mt_domain(10)
        for j in (12, 16, 20, 24):
            cover = cap_cover(dom, F(1, 1 << j))
            lo = dom.moran.interval_count(cover.k_delta)
            assert len(cover.classes[0]) <= 4 * lo * 2.0 ** (j * 0.05)

    def test_sandwich_ratio(self):
        # upper/lower <= 8 * K(delta) * delta^{-eta} whenever K(delta) >= 1;
        # the constant is frozen from the measured worst case (ratio 6 at
        # K(delta) = 1 on the doubling-branch construction)
        for dom in (mt_domain(10), preset_domain("doubling", 4)):
            for j in (10, 16, 24):
                cc = cap_count(dom, F(1, 1 << j))
                assert cc.lower <= cc.upper
                if cc.k_delta >= 1:
                    assert cc.upper / cc.lower <= 8 * cc.k_delta * 2.0 ** (j * 0.05)

    def test_tangent_step_is_strict_at_equality(self):
        # from u = 0 the end of its level-1 interval [0, 1/5] sits (1/5)^2 =
        # delta above the tangent, so a cap to it is invalid: the step stops
        # at the last generation-3 endpoint before it
        spec = moran_spec_from_config("n = 3\nc = 1/5\noffsets = 0, 1/2, 4/5\n")
        dom = gcs_domain(build_moran(spec, 3))
        cover = cap_cover(dom, F(1, 25))
        assert cover.k_delta == 1
        assert all(c.is_valid_cap(dom) for c in cover.all_caps())
        assert [c.t_hi for c in cover.classes[0] if c.t_lo == 0] == [F(24, 125)]
        assert not Cap(F(0), F(-1, 8), F(0), F(1, 5), F(1, 25), 0).is_valid_cap(dom)

    def test_gap_wider_than_tangent_step_gets_chord_cap(self):
        # large delta on the Theorem A construction: K(delta) = 0 and the
        # level-1 gaps dwarf sqrt(delta), so class 0 mixes in chord caps
        dom = preset_domain("constant-branch-8", 3)
        cover = cap_cover(dom, F(1, 1 << 8))
        assert cover.k_delta == 0
        kinds = {cap.slope == 2 * cap.t_lo for cap in cover.classes[0]}
        assert kinds == {True, False}
        assert cover.parameter_cover_ok()
        assert all(c.is_valid_cap(dom) for c in cover.classes[0])


class TestLatticeCapCover:
    """The integer tangent sweep against the Fraction cap oracle, on
    generated flush specs at a delta with K(delta) below the built depth."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_flush_specs(), st.data())
    def test_cover_valid_tiling_and_greedy(self, case, data):
        spec, depth = case
        dom = gcs_domain(build_moran(spec, depth))
        kd = data.draw(st.integers(0, depth - 1))
        lo, hi = dom.moran.length(kd + 1) ** 2, dom.moran.length(kd) ** 2
        t = data.draw(st.fractions(F(0), F(1), max_denominator=64).filter(lambda x: 0 < x < 1))
        delta = lo + (hi - lo) * t  # (c_1 ... c_kd)^2 > delta > (c_1 ... c_{kd+1})^2
        cover = cap_cover(dom, delta)
        assert cover.k_delta == kd
        assert cover.parameter_cover_ok()
        assert all(cap.is_valid_cap(dom) for cap in cover.all_caps())
        for k in range(1, kd + 1):
            assert [(c.t_lo, c.t_hi) for c in cover.classes[k]] == dom.moran.removed_intervals(k)
        ends = dom.moran.endpoints(min(depth, kd + 2))
        block_ends = {a + dom.moran.length(kd) for a in dom.moran.lefts(kd)}
        for cap in cover.classes[0]:
            u, v = cap.t_lo, cap.t_hi
            if cap.slope == 2 * u:  # a tangent cap: the next endpoint in its block breaks it
                if v in block_ends:
                    continue
                v = ends[ends.index(v) + 1]
            else:  # a chord cap over a gap: no tangent step from u reaches the gap's end
                assert v == ends[ends.index(u) + 1]
            assert not Cap(2 * u, -u * u - F(1, 8), u, v, delta, 0).is_valid_cap(dom)


class TestCapCount:
    def test_middle_thirds_lower_is_power_of_two(self):
        dom = mt_domain(10)
        for j in (10, 14, 20):
            cc = cap_count(dom, F(1, 1 << j))
            assert cc.lower == 2 ** cc.k_delta

    def test_lower_monotone_in_delta(self):
        dom = mt_domain(10)
        lowers = [cap_count(dom, F(1, 1 << j)).lower for j in range(8, 25, 2)]
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))

    def test_affine_fit_brackets_dimension_half(self):
        dom = mt_domain(10)
        fit = affine_dim_estimate(dom, [F(1, 1 << j) for j in range(8, 25, 2)])
        assert abs(fit.beta - 0.5 * S_LOG23) <= 0.03


class TestProjectionMultiplicity:
    """setgen.sum_multiplicity on the energy classes' interval forms: closed
    (chord caps) and half-open (abutting tangent caps)."""

    def test_touching_intervals_closed_vs_halfopen(self):
        ivs = [(0, 1), (1, 2)]
        assert sum_multiplicity(ivs, 1, closed=True) == 2
        assert sum_multiplicity(ivs, 1, closed=False) == 1

    def test_two_fold_cross_check(self):
        ivs = [(F(0), F(1)), (F(2), F(3))]
        assert sum_multiplicity(ivs, 2, closed=True) == sum_multiplicity(ivs, 2) == 3
        assert sum_multiplicity(ivs, 2, closed=False) == 2

    def test_matches_setgen_on_random_separated_families(self):
        # slot-aligned intervals [a, a + 1] / 64: the fold against the
        # multiset slot kernel of the family search
        import random

        rng = random.Random(5)
        for _ in range(10):
            pts = sorted(rng.sample(range(60), 8))
            ivs = [(F(a, 64), F(a + 1, 64)) for a in pts[::2]]
            for m in (1, 2, 3):
                assert sum_multiplicity(ivs, m, closed=True) == _slot_sum_multiplicity(pts[::2], m)

    def test_overflow_raises(self, monkeypatch):
        monkeypatch.setattr(setgen, "_FOLD_CAP", 2)
        with pytest.raises(MultiplicityOverflow, match="product bound"):
            sum_multiplicity([(0, 1), (2, 3)], 3, closed=True)
        assert issubclass(MultiplicityOverflow, ValueError)

    def test_validation(self):
        with pytest.raises(ValueError, match="m must be"):
            sum_multiplicity([(0, 1)], 0, closed=True)
        with pytest.raises(ValueError, match="empty"):
            sum_multiplicity([], 2, closed=True)


class TestAdditiveEnergy:
    def test_single_caps_per_class_trivial(self):
        dom = preset_domain("doubling", 4)
        rec = additive_energy_estimate(dom, F(1, 1 << 20), 1)
        assert rec["M1"] == 1
        assert rec["Xi_bound"] == rec["M0"] ** 2

    def test_theorem_b_sequence_frozen(self):
        dom = preset_domain("doubling", 4)
        got = {}
        for j in (12, 20, 28, 40):
            rec = additive_energy_estimate(dom, F(1, 1 << j), 3)
            assert rec["Xi_bound"] == rec["M0"] ** 6 * rec["M1"]
            assert rec["product_bound_classes"] == []
            got[j] = rec
        assert got[12]["Xi_bound"] == 18624
        assert got[20]["Xi_bound"] == 170586
        assert got[28]["Xi_bound"] == 6626610
        assert got[40]["Xi_bound"] == 23224320
        exps = [got[j]["energy_exponent"] for j in (12, 20, 28, 40)]
        assert all(a > b for a, b in zip(exps, exps[1:]))

    def test_last_fold_overflow_refused_before_first_fold(self):
        # at 2^-52 the tangent class's last fold must pass the fold cap, so it
        # falls back to the product bound before its 1984^2-sum first fold is
        # built (that fold took ~212 MiB of traced memory)
        dom = preset_domain("doubling", 4)
        tracemalloc.start()
        try:
            rec = additive_energy_estimate(dom, F(1, 1 << 52), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec["product_bound_classes"] == [0] and rec["M1"] == 4826142
        assert rec["class_multiplicities"] == {0: 4826142, 1: 1, 2: 57, 3: 2070}
        assert peak <= 32 << 20

    def test_chord_class_matches_direct_sum_sweep(self):
        dom = preset_domain("doubling", 4)
        rec = additive_energy_estimate(dom, F(1, 1 << 20), 3)
        gaps = dom.moran.removed_intervals(2)
        assert rec["class_multiplicities"][2] == sum_multiplicity(gaps, 3)

    def test_product_bound_dominates_exact(self):
        dom = preset_domain("doubling", 4)
        rec = additive_energy_estimate(dom, F(1, 1 << 20), 3)
        for level in (1, 2):
            bound = _class_product_bound(dom, level, 3, rec["K_delta"], 0)
            assert bound >= rec["class_multiplicities"][level]

    def test_theorem_a_exponent_decreasing(self):
        dom = preset_domain("constant-branch-8", 3)
        e24 = additive_energy_estimate(dom, F(1, 1 << 24), 3)["energy_exponent"]
        e36 = additive_energy_estimate(dom, F(1, 1 << 36), 3)["energy_exponent"]
        assert e24 > e36

    def test_tangent_split_count_matches_linear_scan(self):
        dom = preset_domain("doubling", 4)
        for j in (12, 20, 28, 40):
            cover = cap_cover(dom, F(1, 1 << j))
            # per tangent cap, the largest level-K(delta) left end at or below it
            starts = {a: 0 for a in dom.moran.lefts(cover.k_delta)}
            per_interval = {}
            for c in cover.classes[0]:
                key = max(a for a in starts if a <= c.t_lo)
                per_interval[key] = per_interval.get(key, 0) + 1
            assert _max_tangent_splits(dom, cover) == max(per_interval.values())

    def test_m_validation(self):
        dom = mt_domain(4)
        with pytest.raises(ValueError, match="m must be"):
            additive_energy_estimate(dom, F(1, 256), 0)


class TestCorollaryConsistency:
    def test_profile_of_slopes_tracks_profile_of_set(self):
        # the asymptotic statement is equality of quasi-Assouad dimensions;
        # at desk scale the middle-thirds estimator gap is 0.050, while the
        # searched layouts plateau at 2/3 - log2(5)/4 = 0.0862 (midpoints
        # sit in near-arithmetic position with endpoints, enriching one
        # window by a point) -- tested at the honest measured bounds
        cases = [
            (mt_domain(10), 0.08),
            (preset_domain("doubling", 4), 0.09),
            (preset_domain("constant-branch-8", 3), 0.09),
        ]
        for dom, tol in cases:
            sl = [float(x) for x in slope_set(dom)]
            cp = [float(x) for x in dom.moran.endpoints(dom.depth)]
            qs = qa_profile(sl, 0.25, 2.0**-16)
            qc = qa_profile(cp, 0.25, 2.0**-16)
            assert abs(qs - qc) <= tol

