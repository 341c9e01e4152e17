"""Span tracing of tubelab's layers, installed from outside the library.

Nothing in ``src/`` knows about tracing. ``install`` rebinds each probed
function in every ``tubelab`` module namespace that holds it (each
``from tubelab.x import f`` makes one more binding, and calls through any
of them must be seen) and replaces probed methods on their class. Calls
between library functions go through module globals, so nested layer
calls such as ``build_moran -> cached_family -> search_interval_family``
are caught as well.

A span records its name, start, end, parent span and, where the call takes
one, its scale as log2(1/delta) or the level k. Self time is a span's
duration minus the durations of its direct children; spans of one
process never overlap except by nesting, since the workloads run on one
thread.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, scale]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, scale=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, scale])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, count=None, scale=None):
        """Wrap fn so each call is a span; name may be a function of the call's args.

        count(tracer, result, *args, **kwargs) adds counters after the call;
        scale(*args, **kwargs) gives the span's scale tag.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            idx = self.open(span_name, scale(*args, **kwargs) if scale else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return traced

    def durations(self) -> list[float]:
        return [s[2] - s[1] for s in self.spans]

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time of direct child spans."""
        dur = self.durations()
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.durations()):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def root_time(self) -> float:
        """Time covered by top-level spans."""
        return sum(t for s, t in zip(self.spans, self.durations()) if s[3] < 0)


# ---------------------------------------------------------------- scales


def log2_inv(delta) -> float | None:
    """log2(1/delta) for a DyadicScale, a Fraction or a float."""
    if hasattr(delta, "k"):
        return int(delta.k)
    try:
        return round(-math.log2(float(delta)), 3)
    except (TypeError, ValueError):
        return None


def _arg(i, conv):
    def get(*args, **kwargs):
        return conv(args[i]) if len(args) > i else None

    return get


_DELTA2 = _arg(2, log2_inv)  # f(x, s|t|gamma|m, delta)
_DELTA1 = _arg(1, log2_inv)  # f(x, delta, ...)
_THETA_K = _arg(0, lambda th: th.scale.k)
_OP_THETA_K = _arg(1, lambda th: th.scale.k)  # op(f, theta, ...)
_FAMILY_K = _arg(0, lambda fam: fam.scale.k)


# --------------------------------------------------------------- counters


def _counter(key, fn):
    def count(tr, result, *args, **kwargs):
        tr.add(key, fn(result, *args, **kwargs))

    return count


def _both(*counters):
    def count(tr, result, *args, **kwargs):
        for c in counters:
            c(tr, result, *args, **kwargs)

    return count


def _energy_classes(tr, result, *args, **kwargs):
    tr.add("domains.fallback_classes", len(result["product_bound_classes"]))
    tr.add("domains.classes", result["K_delta"] + 1)


def _bytes_written(art, *args, **kwargs):
    paths = [art.csv_path, art.manifest_path, *art.svg_paths]
    return sum(p.stat().st_size for p in paths)


_SWEEP = _both(
    _counter("maximal.direction_passes", lambda r, f, th, *a, **k: len(th)),
    _counter("maximal.cells_swept", lambda r, f, th, *a, **k: len(th) * f.values.size),
)
_TUBES = _counter("incidence.tubes", lambda r, fam, *a, **k: len(fam))
_POINTS = _counter("setgen.estimator_points", lambda r, pts, *a, **k: len(pts))


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str  # function name, or Class.method
    name: str | Callable  # span name, or a function of the call's args
    count: Callable | None = None
    scale: Callable | None = None


PROBES = [
    Probe("tubelab.setgen", "build_moran", "setgen.build_moran",
          _counter("setgen.intervals", lambda ms, *a, **k: ms.interval_count(ms.K)),
          _arg(1, int)),
    Probe("tubelab.setgen", "search_interval_family", "setgen.search_interval_family",
          _counter("setgen.search_calls", lambda *a, **k: 1)),
    Probe("tubelab.setgen", "MoranSet.endpoints", "setgen.endpoints", None, _arg(1, int)),
    Probe("tubelab.setgen", "qa_profile", "setgen.qa_profile", None, _DELTA2),
    Probe("tubelab.setgen", "katz_tao_constant", "setgen.katz_tao_constant", _POINTS, _DELTA2),
    Probe("tubelab.setgen", "regularity_constant", "setgen.regularity_constant", _POINTS, _DELTA2),
    Probe("tubelab.domains", "gcs_domain", "domains.gcs_domain", None, _arg(0, lambda m: m.K)),
    Probe("tubelab.domains", "cap_cover", "domains.cap_cover",
          _counter("domains.caps", lambda cover, *a, **k: len(cover)), _DELTA1),
    Probe("tubelab.domains", "additive_energy_estimate", "domains.additive_energy_estimate",
          _energy_classes, _DELTA1),
    Probe("tubelab.maximal", "nikodym_apply", "maximal.nikodym_apply", _SWEEP, _OP_THETA_K),
    Probe("tubelab.maximal", "kakeya_apply", "maximal.kakeya_apply", _SWEEP, _OP_THETA_K),
    Probe("tubelab.maximal", "norm_ratio", "maximal.norm_ratio",
          _counter("maximal.norm_ratio.calls", lambda *a, **k: 1), _OP_THETA_K),
    Probe("tubelab.maximal", "aim_at_origin_assignment", "maximal.aim_at_origin_assignment",
          _counter("maximal.assignment_cells", lambda res, *a, **k: len(res)), _THETA_K),
    Probe("tubelab.maximal", "dual_sum_norm", "maximal.dual_sum_norm", None,
          _arg(0, lambda asg: next(iter(asg.values())).k)),
    Probe("tubelab.maximal", "tube_sum_norm", "maximal.tube_sum_norm", None, _FAMILY_K),
    Probe("tubelab.maximal", "bush_construction", "maximal.bush_construction", None, _THETA_K),
    Probe("tubelab.incidence", "incidence_profile", "incidence.incidence_profile", _TUBES, _FAMILY_K),
    Probe("tubelab.incidence", "verify_incidence_bound", "incidence.verify_incidence_bound",
          _TUBES, _FAMILY_K),
    Probe("tubelab.incidence", "rich_points", "incidence.rich_points", _TUBES, _FAMILY_K),
    Probe("tubelab.incidence", "sharp_example", "incidence.sharp_example", None, _DELTA1),
    Probe("tubelab.incidence", "cantor_slope_family", "incidence.cantor_slope_family", None, _DELTA1),
    Probe("tubelab.core", "rasterize_tube", "core.rasterize_tube",
          _counter("core.raster_cells", lambda cells, *a, **k: len(cells)), _DELTA1),
    Probe("tubelab.svg", "svg_loglog", "svg.svg_loglog"),
    Probe("tubelab.cli", "run", "cli.run", _counter("cli.bytes_written", _bytes_written)),
    Probe("tubelab.acceptance", "run_criterion", lambda name, *a, **k: f"acceptance.{name}"),
]


def install(tracer: Tracer, probes=PROBES, package: str = "tubelab") -> int:
    """Rebind every probed function in all loaded modules of package; returns bindings replaced."""
    mods = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    replaced = 0
    for pr in probes:
        home = sys.modules[pr.module]
        if "." in pr.attr:
            cls_name, meth = pr.attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], pr.name, pr.count, pr.scale))
            replaced += 1
            continue
        orig = getattr(home, pr.attr)
        wrapped = tracer.wrap(orig, pr.name, pr.count, pr.scale)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    replaced += 1
    return replaced
