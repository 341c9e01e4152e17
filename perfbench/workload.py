"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --mode MODE --spawn-ns T

MODE is ``setup`` (imports and input generation only), ``plain`` (the whole
workload), ``traced`` (the whole workload with every layer probe of
spans.py installed) or ``seeded`` (only the seeded steps; used to record
references). T is the CLOCK_MONOTONIC time in nanoseconds at which the
parent spawned this process, so set-up and wall times include interpreter
start. The last line of standard output is one JSON object with the
times, the resource usage read here with getrusage, and every step's
canonical output for the parent to compare against its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
S_LOG23 = math.log(2) / math.log(3)
SEED_CLASSES = 16  # references exist for every seed modulo this


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def layout_seed(seed: int) -> int:
    """Seed handed to the library: never 0, so check 02's cached seed-0
    layout searches never serve the seeded part."""
    return 1 + seed % SEED_CLASSES


def canon(x):
    """JSON-ready form that keeps ints and rationals exact."""
    if isinstance(x, (bool, str)) or x is None:
        return x
    if isinstance(x, Fraction):
        return f"frac:{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if hasattr(x, "dtype"):  # numpy scalar or array
        return canon(x.tolist())
    if isinstance(x, int):
        return int(x)
    if isinstance(x, float):
        return float(x)
    raise TypeError(f"no canonical form for {type(x).__name__}")


# -------------------------------------------------------------- workloads
#
# A step is (op name, seeded?, function(inputs) -> canonical output). The
# steps of a workload run in this fixed order: check 02 fills the library's
# layout cache that checks 03 and 04 then reuse, so per-check times compare
# only within this order.


def _check(name):
    def run(tl, inp):
        res = tl.acceptance.run_criterion(name, cache=False)
        return {"passed": bool(res.passed), "extras": canon(res.extras)}

    return (f"check:{name}", False, run)


def _cli_run(kind, seeded):
    def run(tl, inp):
        cfg = tl.cli.parse_config(inp["configs"][kind])
        out = WORK / f"run-{kind}-{os.getpid()}"
        try:
            art = tl.cli.run(cfg, out)
        except ValueError as e:  # what `tubelab run` reports as a FAIL row
            raise RuntimeError(f"FAIL,{kind},{e}") from e
        try:
            return {"csv": art.csv_path.read_text(encoding="utf-8")}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return (f"run:{kind}", seeded, run)


_MORAN_BLOCK = "[moran]\nn = 2^k\nc = 2^-3k\noffsets = searched\nm = 3\nseed = {seed}\n"
_EXACT_CONFIGS = {
    "dims": "kind = dims\ndelta_exps = 8\ndepth = 4\ngamma = 0.25\n",
    "domain": "kind = domain\ndelta_min_exp = 8\ndelta_max_exp = 24\ndelta_step = 2\n"
    "depth = 4\neta = 0.05\n",
    # no 2^-40 here: at 2^-40 the layout seed decides between exact
    # enumeration (~250 MB) and the product-bound fallback (~50 MB), so peak
    # memory would depend on the seed; check 04 runs 2^-40 on a fixed layout
    "energy": "kind = energy\ndelta_exps = 12, 20, 28\ndepth = 4\nm = 3\n",
}
_INCIDENCE_CONFIG = "[experiment]\nkind = incidence\ndelta_min_exp = 10\ndelta_max_exp = 12\nr = 4, 16, 64\ns = 0.5\n"


def _exact_inputs(tl, seed):
    block = _MORAN_BLOCK.format(seed=layout_seed(seed))
    return {"configs": {k: f"[experiment]\n{v}\n{block}" for k, v in _EXACT_CONFIGS.items()}}


def _maximal_inputs(tl, seed):
    import numpy as np

    rng = np.random.default_rng(layout_seed(seed))
    sc = tl.core.DyadicScale(9)
    idx = sorted(int(i) for i in rng.choice(1 << sc.k, size=32, replace=False))
    theta = tl.maximal.DirectionSet(sc, tuple(idx), "explicit")
    box = tl.core.Box.of(-2, -2, 2, 2)
    f = tl.maximal.GridFunction(sc, box, rng.random((4 << sc.k, 4 << sc.k)))
    return {"theta": theta, "f": f}


def _dual_sum(tl, inp):
    m = tl.maximal
    v = m.dual_sum_norm(m.aim_at_origin_assignment(inp["theta"]), 1 + 1 / S_LOG23)
    return {"value": float(v), "details": canon(v.details)}


def _nikodym_ratio(tl, inp):
    return {"value": float(tl.maximal.norm_ratio(inp["f"], inp["theta"], 2.0, "nikodym"))}


def _incidence_inputs(tl, seed):
    return {
        "family_seeds": [4 * layout_seed(seed) + i for i in range(4)],
        "configs": {"incidence": _INCIDENCE_CONFIG},
    }


def _family(i):
    def run(tl, inp):
        fam = tl.incidence.cantor_slope_family(
            S_LOG23, tl.core.DyadicScale(12), seed=inp["family_seeds"][i]
        )
        prof = tl.incidence.incidence_profile(fam, S_LOG23)
        return {"tubes": len(fam), "profile": [[float(x), canon(x.details)] for x in prof]}

    return (f"seeded:family-{i}", True, run)


WORKLOADS = {
    "exact-moran": (
        _exact_inputs,
        [_check(n) for n in ("01-slope-identity", "02-dimension-formulas", "03-affine-dimension",
                             "04-additive-energy", "10-family-search")]
        + [_cli_run(k, True) for k in ("dims", "domain", "energy")],
    ),
    "maximal-grid": (
        _maximal_inputs,
        [_check("07-averaging-exponents"), _check("08-weighted-maximal"),
         ("seeded:dual_sum_norm", True, _dual_sum), ("seeded:norm_ratio", True, _nikodym_ratio)],
    ),
    "incidence-rich": (
        _incidence_inputs,
        [_check(n) for n in ("05-sharp-family", "06-rich-point-upper", "09-oracle-equivalence")]
        + [_family(i) for i in range(4)]
        + [_cli_run("incidence", False)],
    ),
}


# ------------------------------------------------------------------- main


def _usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": me.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced", "seeded"))
    ap.add_argument("--spawn-ns", type=int, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # import cost belongs to set-up

    import tubelab.acceptance
    import tubelab.cli
    import tubelab.core
    import tubelab.incidence
    import tubelab.maximal

    tl = tubelab
    make_inputs, steps = WORKLOADS[args.workload]
    inputs = make_inputs(tl, args.seed)
    t_setup = now_ns()
    out = {"setup_s": (t_setup - args.spawn_ns) / 1e9, "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        import spans as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    WORK.mkdir(exist_ok=True)
    results = []
    for op, seeded, fn in steps:
        if args.mode == "seeded" and not seeded:
            continue
        t0 = time.perf_counter()
        try:
            rec = {"op": op, "seeded": seeded, "output": fn(tl, inputs)}
        except Exception as e:  # a failed operation is counted, not fatal
            rec = {"op": op, "seeded": seeded, "error": f"{type(e).__name__}: {e}"}
            traceback.print_exc(file=sys.stderr)
        rec["s"] = time.perf_counter() - t0
        results.append(rec)
    t_last = now_ns()
    out.update(_usage())
    out["wall_s"] = (t_last - args.spawn_ns) / 1e9
    out["steps"] = results
    if tracer is not None:
        out["trace"] = {
            "self_s": tracer.self_times(),
            "incl_s": tracer.inclusive_times(),
            "counts": tracer.counts,
            "covered_s": tracer.root_time(),
            "spans": tracer.spans,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
