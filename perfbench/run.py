"""tubelab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every pass of a workload runs in a fresh
interpreter (perfbench/workload.py), one at a time, with one thread of
work, so no library cache and no earlier pass can serve it.

--trace 0 measures the end-to-end metrics with tracing off: a warm-up
spawn, SETUP_SPAWNS set-up-only spawns, whole passes for as long as the
next pass is predicted to end within S seconds (at least one), and
SETUP_SPAWNS more set-up-only spawns. Times are medians over the passes;
set-up time is the median over every spawn but the warm-up.

--trace 1 runs the chosen workload once untraced and then every workload
once traced, and reports the per-layer metrics summed over the three
traced passes; trace.overhead_s compares the chosen workload's traced
and untraced passes.

Every step's output is compared with perfbench/refs: CSV text, integers
and rationals exactly, floats within 1e-12 relative. A mismatch, an
exception or a FAIL row counts as a failed operation and makes the run
exit 1. The last line of standard output is the JSON result; the spans of
a traced run go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORDER = ("exact-moran", "maximal-grid", "incidence-rich")
SETUP_SPAWNS = 4  # on each side of the passes
TIME_LIMIT_S = 170.0  # a run must end within 180 s
FLOAT_RTOL = 1e-12  # the relative tolerance check 09 uses


class SpawnFailed(RuntimeError):
    """A workload process did not produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = wl.now_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--spawn-ns", str(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SpawnFailed(f"{workload} ({mode}) overran the {TIME_LIMIT_S:.0f} s limit")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SpawnFailed(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


# ------------------------------------------------------------ correctness


def mismatches(want, got, path: str = "") -> list[str]:
    """Differences between a reference and an output, as readable paths."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(want) and math.isnan(got):
            return []
        if abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(want[k], got[k], f"{path}/{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(want, got)) for m in mismatches(a, b, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {str(got)[:80]!r} != {str(want)[:80]!r}"]


def load_refs(workload: str) -> dict:
    return json.loads((HERE / "refs" / f"{workload}.json").read_text(encoding="utf-8"))


def check_pass(refs: dict, seed: int, result: dict) -> list[str]:
    """One line per failed operation of a pass."""
    seeded_refs = refs["seeded"][str(seed % wl.SEED_CLASSES)]
    failures = []
    for step in result["steps"]:
        op = step["op"]
        if "error" in step:
            failures.append(f"{op}: raised {step['error']}")
            continue
        want = (seeded_refs if step["seeded"] else refs["fixed"]).get(op)
        if want is None:
            failures.append(f"{op}: no reference recorded")
            continue
        diffs = mismatches(want, step["output"], op)
        if diffs:
            failures.append(f"{op}: output differs from reference: {'; '.join(diffs[:3])}")
    return failures


# ------------------------------------------------------------ provenance


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def provenance(workload: str, seed: int, numpy_version: str) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "workload": workload,
        "seed": seed,
        "layout_seed": wl.layout_seed(seed),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_lines": src_lines,
    }


# --------------------------------------------------------------- metrics


def summary(name: str, values: list[float], unit: str) -> str:
    return (f"{name} = {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})")


def end_to_end(setups: list[float], passes: list[dict], attempted: int, failed: int) -> dict:
    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "ops_ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


CHECKS = [op[6:] for _, steps in wl.WORKLOADS.values() for op, _, _ in steps
          if op.startswith("check:")]

SELF_TIMES = [
    "setgen.build_moran", "setgen.search_interval_family", "setgen.endpoints",
    "setgen.qa_profile", "setgen.katz_tao_constant", "setgen.regularity_constant",
    "domains.gcs_domain", "domains.cap_cover", "domains.additive_energy_estimate",
    "maximal.nikodym_apply", "maximal.kakeya_apply", "maximal.aim_at_origin_assignment",
    "maximal.dual_sum_norm", "maximal.tube_sum_norm", "maximal.bush_construction",
    "incidence.incidence_profile", "incidence.verify_incidence_bound", "incidence.rich_points",
    "incidence.sharp_example", "core.rasterize_tube", "svg.svg_loglog", "cli.run",
]
COUNTS = [
    ("setgen.search_calls", "count"), ("setgen.intervals", "count"),
    ("setgen.estimator_points", "count"), ("domains.caps", "count"),
    ("maximal.direction_passes", "count"), ("maximal.cells_swept", "count"),
    ("maximal.norm_ratio.calls", "count"), ("maximal.assignment_cells", "count"),
    ("incidence.tubes", "count"), ("core.raster_cells", "count"), ("cli.bytes_written", "bytes"),
]


def per_layer(traced: dict, overhead_s: float) -> dict:
    """Per-layer metrics summed over the traced passes of every workload."""
    own, incl, counts = {}, {}, {}
    for res in traced.values():
        for acc, part in ((own, "self_s"), (incl, "incl_s"), (counts, "counts")):
            for k, v in res["trace"][part].items():
                acc[k] = acc.get(k, 0) + v
    out = {f"{n}.self_s": (own.get(n, 0.0), "s") for n in SELF_TIMES}
    out.update({n: (counts.get(n, 0), unit) for n, unit in COUNTS})
    sweep_s = own.get("maximal.nikodym_apply", 0.0) + own.get("maximal.kakeya_apply", 0.0)
    out["maximal.sweep_rate"] = (counts.get("maximal.cells_swept", 0) / sweep_s, "1/s")
    out["domains.fallback_share"] = (
        counts.get("domains.fallback_classes", 0) / counts["domains.classes"], "ratio")
    checks = {f"acceptance.{c}.s": (incl[f"acceptance.{c}"], "s") for c in CHECKS}
    out.update(checks)
    out["acceptance.paper_checks_s"] = (sum(v for v, _ in checks.values()), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.attributed_share"] = (
        min(r["trace"]["covered_s"] / r["wall_s"] for r in traced.values()), "ratio")
    return out


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=ORDER)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "tubelab").is_dir():
        print(f"error: no tubelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    W, seed = args.workload, args.seed
    refs = {w: load_refs(w) for w in ORDER}
    attempted, failures = 0, []

    def measured(workload, mode):
        nonlocal attempted
        res = spawn(workload, seed, mode, deadline)
        attempted += len(res["steps"])
        failures.extend(f"{workload}: {f}" for f in check_pass(refs[workload], seed, res))
        print(f"# {workload} {mode} pass: wall {res['wall_s']:.3f} s; steps "
              + ", ".join(f"{s['op']} {s['s']:.3f}" for s in res["steps"]))
        return res

    try:
        spawn(W, seed, "setup", deadline)  # warm the file cache and bytecode cache
        if args.trace == 0:
            # set-up spawns before and after the passes, so that they sample
            # the machine at two moments rather than one
            setups = [spawn(W, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SPAWNS)]
            passes, start = [], time.monotonic()
            while True:
                passes.append(measured(W, "plain"))
                if time.monotonic() - start + passes[-1]["wall_s"] > args.seconds:
                    break
            setups += [spawn(W, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SPAWNS)]
            setups += [p["setup_s"] for p in passes]
            metrics = end_to_end(setups, passes, attempted, len(failures))
            for name, vals, unit in (("wall_s", [p["wall_s"] for p in passes], "s"),
                                     ("setup_s", setups, "s"),
                                     ("cpu_s", [p["cpu_s"] for p in passes], "s")):
                print("# " + summary(name, vals, unit))
        else:
            plain = measured(W, "plain")
            traced = {w: measured(w, "traced") for w in (W, *[o for o in ORDER if o != W])}
            passes = [plain]
            metrics = per_layer(traced, traced[W]["wall_s"] - plain["wall_s"])
            wl.WORK.mkdir(exist_ok=True)
            (wl.WORK / f"trace-{W}-{seed}.json").write_text(json.dumps({
                "provenance": provenance(W, seed, plain["numpy"]),
                "fields": ["name", "start_s", "end_s", "parent", "scale"],
                "spans": {w: r["trace"]["spans"] for w, r in traced.items()},
                "wall_s": {w: r["wall_s"] for w, r in traced.items()},
            }), encoding="utf-8")
    except SpawnFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print("# provenance " + json.dumps(provenance(W, seed, passes[0]["numpy"])))
    for f in failures:
        print(f"# FAILED {f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
