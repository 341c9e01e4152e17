"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py            # all, ~1 minute
    python3 -m pytest perfbench/selftest.py -k "not workloads"   # fast ones

The file name keeps these out of the library's own test collection.
"""

from __future__ import annotations

import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workload as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def toy():
    """A two-module package whose functions call each other through module
    globals, with a second binding as ``from toypkg.a import mid`` makes."""
    clock = FakeClock()
    a = types.ModuleType("toypkg.a")
    a.tick = clock.advance
    exec(
        "def leaf(n):\n"
        "    tick(n)\n"
        "    return [0] * n\n"
        "def mid(n):\n"
        "    tick(1)\n"
        "    leaf(n)\n"
        "    leaf(n + 1)\n"
        "    tick(1)\n"
        "def boom():\n"
        "    tick(1)\n"
        "    raise ValueError('boom')\n"
        "class Cell:\n"
        "    def grow(self, k):\n"
        "        tick(k)\n",
        a.__dict__,
    )
    b = types.ModuleType("toypkg.b")
    b.mid = a.mid
    pkg = types.ModuleType("toypkg")
    mods = {"toypkg": pkg, "toypkg.a": a, "toypkg.b": b}
    sys.modules.update(mods)
    tracer = spans.Tracer(clock)
    probes = [
        spans.Probe("toypkg.a", "mid", "toy.mid"),
        spans.Probe("toypkg.a", "leaf", "toy.leaf",
                    spans._counter("toy.cells", lambda r, *a, **k: len(r)), spans._arg(0, int)),
        spans.Probe("toypkg.a", "boom", "toy.boom"),
        spans.Probe("toypkg.a", "Cell.grow", lambda self, k: f"toy.grow{k}", None, spans._arg(1, int)),
    ]
    replaced = spans.install(tracer, probes, package="toypkg")
    yield tracer, a, b, replaced
    for name in mods:
        del sys.modules[name]


def test_span_nesting_and_self_time(toy):
    tracer, a, b, replaced = toy
    assert replaced == 5  # mid twice, leaf, boom, one method
    b.mid(2)  # through the second binding; leaf is reached through a's globals
    names = [s[0] for s in tracer.spans]
    assert names == ["toy.mid", "toy.leaf", "toy.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert [s[4] for s in tracer.spans] == [None, 2, 3]
    assert tracer.self_times() == {"toy.mid": 2.0, "toy.leaf": 5.0}
    assert tracer.inclusive_times() == {"toy.mid": 7.0, "toy.leaf": 5.0}
    assert tracer.root_time() == 7.0
    assert tracer.counts == {"toy.cells": 5}


def test_span_closes_on_exception_and_methods_are_wrapped(toy):
    tracer, a, b, _ = toy
    with pytest.raises(ValueError):
        a.boom()
    a.Cell().grow(3)
    assert [(s[0], s[2] - s[1], s[3], s[4]) for s in tracer.spans] == [
        ("toy.boom", 1.0, -1, None),
        ("toy.grow3", 3.0, -1, 3),
    ]


def test_mismatch_rules():
    ref = {"csv": "a,b\n1,2\n", "n": 3, "q": "frac:1/3", "x": 1.0, "ok": False}
    assert run.mismatches(ref, dict(ref)) == []
    assert run.mismatches(ref, dict(ref, x=1.0 + 1e-13)) == []
    assert run.mismatches(ref, dict(ref, x=1.0 + 1e-9))
    assert run.mismatches(ref, dict(ref, n=4))
    assert run.mismatches(ref, dict(ref, ok=True))
    assert run.mismatches(ref, dict(ref, csv="a,b\n1,3\n"))
    assert wl.canon({3: wl.Fraction(1, 3), "t": (1, 2.5)}) == {"3": "frac:1/3", "t": [1, 2.5]}


def _benchmark() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units():
    bench = _benchmark()
    entries = bench["end_to_end"] + bench["per_layer"] + bench["workloads"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert NAME.fullmatch(e["name"]), e["name"]
        if "unit" in e:
            assert UNIT.fullmatch(e["unit"]), e["unit"]
    assert [w["name"] for w in bench["workloads"]] == list(run.ORDER) == list(wl.WORKLOADS)


def test_reported_metrics_match_declaration():
    """per_layer and end_to_end report exactly the declared names and units."""
    bench = _benchmark()
    trace = {"self_s": {}, "incl_s": {f"acceptance.{c}": 1.0 for c in run.CHECKS},
             "counts": {"domains.classes": 4, "maximal.cells_swept": 8}, "covered_s": 1.0}
    traced = {w: {"trace": trace, "wall_s": 2.0} for w in run.ORDER}
    traced["maximal-grid"]["trace"] = dict(trace, self_s={"maximal.nikodym_apply": 1.0})
    layer = run.per_layer(traced, 0.5)
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}
    e2e = run.end_to_end([0.2], [{"wall_s": 3.0, "cpu_s": 2.0, "peak_rss_mb": 9.0}], 4, 0)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    # the three workloads run each of the ten paper checks exactly once
    assert sorted(c[:2] for c in run.CHECKS) == [f"{i:02d}" for i in range(1, 11)]


@pytest.mark.parametrize("name", run.ORDER)
def test_workloads_have_no_failed_operations(name):
    refs = run.load_refs(name)
    res = run.spawn(name, 0, "plain", time.monotonic() + 170)
    assert len(res["steps"]) == len(wl.WORKLOADS[name][1])
    assert run.check_pass(refs, 0, res) == []


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
