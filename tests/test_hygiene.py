"""Source hygiene: every name a module of src/tubelab imports is used in it,
every private module-level function or class is used by the library, every
defaulted parameter is set by some library or benchmark call, no module
imports a private name from another tubelab module, every layer probe
of the benchmark's tracer finds what it reads in the library, and the
README's module and kind tables name what the code defines."""

import ast
import importlib
import math
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tubelab.cli import KINDS

SRC = Path(__file__).resolve().parent.parent / "src" / "tubelab"
PERFBENCH = SRC.parent.parent / "perfbench"
README = SRC.parent.parent / "README.md"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations name their types inside a string
    notes = [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    notes += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    for note in notes:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
        "from typing import Callable, Sequence\n"
        "def f(x: 'Callable[[int], int]') -> int:\n    return os.path.sep\n"
    )
    assert _unused_imports(source) == ["line 4: Sequence", "line 2: np"]


def _referenced_names(tree: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    kinds = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return Counter(getattr(n, kinds[type(n)]) for n in ast.walk(tree) if type(n) in kinds)


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level _-prefixed functions and classes of the sources that no
    source names outside their own definition (by name, attribute or import)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and total[node.name] == _referenced_names(node)[node.name]
    ]


def test_every_private_definition_is_used_by_the_library():
    # the oracles are read by the verifier and the tests, not by the library
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "oracles.py"]
    sources = {p.name: p.read_text(encoding="utf-8") for p in paths}
    assert _unreferenced_private(sources) == []


def test_checker_finds_test_only_helpers():
    sources = {
        "a.py": "def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
                "class _Only:\n    pass\n",
        "b.py": "from a import _used\nimport a\n\ndef f():\n    return _used() + a._Only.x\n\n"
                "def _planted_for_tests():\n    return 2\n",
    }
    assert _unreferenced_private(sources) == ["a.py: _recursive", "b.py: _planted_for_tests"]


def _defaulted_parameters(tree: ast.AST):
    """(called name, position or None, parameter) for each defaulted
    parameter of the functions in tree: the position counts from the first
    parameter after self or cls (None for keyword-only ones), and an
    __init__ is called by its class's name."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owner.get(id(node)) if node.name == "__init__" else node.name
        args = node.args
        pos = args.posonlyargs + args.args
        skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
        for i in range(len(pos) - len(args.defaults), len(pos)):
            yield name, i - skip, pos[i].arg
        yield from ((name, None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _unset_defaults(defining: dict[str, str], calling: dict[str, str]) -> list[str]:
    """Defaulted parameters of the defining sources that no call of the
    calling sources passes, by position or keyword. Calls are matched by the
    called name, and a *args or **kwargs call passes every parameter."""
    calls = {}
    for text in calling.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                star = any(isinstance(a, ast.Starred) for a in node.args)
                passed = math.inf if star else len(node.args), {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(passed)
    return sorted(
        f"{module}: {name}({param})"
        for module, text in defining.items()
        for name, at, param in _defaulted_parameters(ast.parse(text))
        if not any(param in kw or None in kw or (at is not None and n > at) for n, kw in calls.get(name, []))
    )


def _library_and_benchmark() -> tuple[dict[str, str], dict[str, str]]:
    """The sources whose defaults are checked, and every caller's source.
    The oracles' own defaults serve the tests, but their calls count."""
    library = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    bench = {f"perfbench/{p.name}": p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))}
    return {name: text for name, text in library.items() if name != "oracles.py"}, {**library, **bench}


def test_every_default_is_set_by_the_library():
    # a default that only the tests set is a knob no check, run or benchmark turns
    assert _unset_defaults(*_library_and_benchmark()) == []


def test_checker_finds_unset_defaults():
    defining = {
        "a.py": "def f(x, y=1, *, z=2):\n    return x\n\n"
                "class C:\n    def __init__(self, a, b=0):\n        self.a = a\n\n"
                "    def m(self, p, q=None, r=3):\n        return p\n\n"
                "def g(u=0, v=0):\n    return u\n\ndef h(w=0):\n    return w\n",
    }
    calling = {
        **defining,
        "b.py": "from a import C, f, g, h\nf(1, z=3)\nC(1, 2).m(1, r=4)\ng(*[1])\nh(**{})\n",
    }
    assert _unset_defaults(defining, calling) == ["a.py: f(y)", "a.py: m(q)"]
    # a call outside the calling sources, such as a test's, sets nothing
    assert _unset_defaults(defining, defining) == [
        "a.py: C(b)", "a.py: f(y)", "a.py: f(z)", "a.py: g(u)",
        "a.py: g(v)", "a.py: h(w)", "a.py: m(q)", "a.py: m(r)",
    ]
    # one default planted in the library, set by no call, is the one found
    library, callers = _library_and_benchmark()
    planted = library["maximal.py"] + "\n\ndef planted_knob(x, scale=2):\n    return x * scale\n"
    assert _unset_defaults({**library, "maximal.py": planted}, {**callers, "maximal.py": planted}) == [
        "maximal.py: planted_knob(scale)"
    ]


def _private_imports(sources: dict[str, str]) -> list[str]:
    """_-prefixed names (dunders aside) the sources import from tubelab modules."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "tubelab"):
                found += [
                    f"{name}: {a.name}" for a in node.names if a.name.startswith("_") and not a.name.endswith("__")
                ]
    return found


def test_no_private_name_crosses_a_module():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _private_imports(sources) == []


def test_checker_finds_private_imports():
    sources = {
        "a.py": "from tubelab import __version__, oracles\nfrom tubelab.setgen import _delta_value, build_moran\n",
        "b.py": "from .core import _shear_pad\nfrom numpy import _private\nimport tubelab.core\n",
    }
    assert _private_imports(sources) == ["a.py: _delta_value", "b.py: _shear_pad"]


# Imports the modules perfbench/workload.py imports, installs every layer probe
# of perfbench/spans.py, then calls each probed function once on small inputs,
# so each probe's span name, scale and counter functions run against the
# library. Prints the recorded span names, one a line.
_PROBE_SCRIPT = """
import sys, tempfile
from fractions import Fraction as F
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tubelab.acceptance, tubelab.cli, tubelab.core, tubelab.incidence, tubelab.maximal
from tubelab import acceptance, cli, core, domains, incidence, maximal, setgen
import spans

tracer = spans.Tracer()
spans.install(tracer)
sc = core.DyadicScale(5)
ms = setgen.build_moran(setgen.moran_spec_from_config(setgen.PRESETS["middle-thirds"]), 8)
ms.endpoints(3)
setgen.search_interval_family(4, 3, budget=20, seed=1)
setgen.qa_profile(ms.endpoint_values(3), 0.25, F(1, 27))
dom = domains.gcs_domain(ms)
domains.cap_cover(dom, F(1, 256))
domains.additive_energy_estimate(dom, F(1, 4096), 3)
th = maximal.DirectionSet.cantor(0.5, sc)
f = maximal.bush_construction(th, F(1, 2), F(1, 2)).core.indicator(sc)
maximal.nikodym_apply(f, th)
maximal.kakeya_apply(f, th)
maximal.norm_ratio(f, th, 2.0, "nikodym")
maximal.dual_sum_norm(maximal.aim_at_origin_assignment(th), 2.0)
maximal.tube_sum_norm(incidence.TubeFamily(sc, th.indices, [0] * len(th)), 2.0)
fam = incidence.cantor_slope_family(0.5, sc, seed=1)
incidence.incidence_profile(fam, 0.5)
incidence.verify_incidence_bound(fam, 0.5, 2)
incidence.rich_points(fam, 2)
incidence.sharp_example(0.5, sc, 4)
core.rasterize_tube(core.DyadicTube(5, 3, 0), sc)
with tempfile.TemporaryDirectory() as out:
    cli.run(cli.parse_config("kind = domain\\ndeltas = 1/256, 1/1024\\ndepth = 8\\n"), out)
acceptance.run_criterion("inv-box-ratio-window", cache=False)
print("\\n".join(sorted({s[0] for s in tracer.spans})))
"""


def test_every_benchmark_probe_resolves():
    # the probes find their targets by name (core.rasterize_tube,
    # TubeFamily.scale, an Assignment's first value, ...), so a rename in
    # src/ would leave traced benchmark runs failing or blind
    root = SRC.parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE_SCRIPT, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(root / "perfbench"))
    want = {p.name for p in spans.PROBES if isinstance(p.name, str)}
    want.add("acceptance.inv-box-ratio-window")
    assert want - set(proc.stdout.split()) == set()


_MA_SCRIPT = """
import sys
from fractions import Fraction as F
sys.path.insert(0, sys.argv[1])
from tubelab import core, incidence, maximal, setgen
sc = core.DyadicScale(5)
th = maximal.DirectionSet.cantor(0.5, sc)
maximal.tube_sum_norm(incidence.TubeFamily(sc, th.indices, [0] * len(th)), 2.0)
incidence.incidence_profile(incidence.cantor_slope_family(0.5, sc, seed=1), 0.5)
ms = setgen.build_moran(setgen.moran_spec_from_config(setgen.PRESETS["middle-thirds"]), 8)
setgen.qa_profile(ms.endpoint_values(3), 0.25, F(1, 27))
setgen.sum_multiplicity([(0, F(1, 3)), (F(2, 3), 1)], 3)
print("numpy.ma" in sys.modules)
"""


def test_library_does_not_import_numpy_ma():
    # a bare np.unique imports numpy.ma on first use (14-18 ms a process)
    root = SRC.parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _MA_SCRIPT, str(root / "src")], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# ------------------------------------------------------ README contract

_MODULE_ROW = re.compile(r"^\|\s*`(tubelab\.\w+)`\s*\|(.*)\|\s*$")
# a backticked name: an identifier or dotted path, perhaps with a call's arguments
_NAME = re.compile(r"^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?$")
_TIMING = re.compile(r"\d+(?:\.\d+)?\s*(?:µs|ms|s|KiB|KB|MiB|MB|GB)\b|\bPR\s*#?\d+")


def _module_rows(text: str) -> dict[str, str]:
    """The module table of the README: each row's module, and its other cells."""
    return {m.group(1): m.group(2) for m in map(_MODULE_ROW.match, text.splitlines()) if m}


def _row_names(row: str) -> list[str]:
    """The backticked names of a row, call arguments dropped; code that is
    not a name (`2^24`, `[moran]`, `offsets = searched`) is skipped."""
    return [m.group(1) for m in map(_NAME.match, re.findall(r"`([^`]+)`", row)) if m]


def _has_path(obj, parts: list[str]) -> bool:
    """Whether obj.a.b... exists; a last part may be a dataclass or annotated
    field, which is no class attribute."""
    for i, part in enumerate(parts):
        if not hasattr(obj, part):
            return i == len(parts) - 1 and part in getattr(obj, "__annotations__", {})
        obj = getattr(obj, part)
    return True


def _resolves(module: str, name: str) -> bool:
    """name as an attribute path on module, or a tubelab.x.y path, by import."""
    parts = (name if name.startswith("tubelab.") else f"{module}.{name}").split(".")
    for i in range(len(parts), 0, -1):  # the longest prefix that imports
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        return _has_path(owner, parts[i:])
    return False


def _unresolved_names(text: str) -> list[str]:
    return [f"{module}: {name}" for module, row in _module_rows(text).items()
            for name in _row_names(row) if not _resolves(module, name)]


def _public_definitions(source: str) -> list[str]:
    return [n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]


def _unlisted_names(text: str, sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes of the sources (by module
    path) that their module's row does not name."""
    rows = _module_rows(text)
    found = []
    for module, source in sources.items():
        listed = {name.split(".")[0] for name in _row_names(rows.get(module, ""))}
        found += [f"{module}: {name}" for name in _public_definitions(source) if name not in listed]
    return found


def _kind_table(text: str) -> dict[str, set[str]]:
    """The README's kind table: each kind's backticked keys ([moran] is no key)."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if re.match(r"^\|\s*kind\s*\|", line)), len(lines))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        kinds, keys = line.strip("|").split("|")
        for kind in re.findall(r"`(\w+)`", kinds):
            table[kind] = set(re.findall(r"`(\w+)`", keys))
    return table


def _kind_mismatches(text: str, kinds: dict[str, set[str]]) -> list[str]:
    table = _kind_table(text)
    return [f"{kind}: README {sorted(table.get(kind, ()))}, code {sorted(kinds.get(kind, ()))}"
            for kind in sorted(table.keys() | kinds.keys()) if table.get(kind) != kinds.get(kind)]


def _timings(text: str) -> list[str]:
    """Timings, sizes and PR references in the module table's rows."""
    return [f"{module}: {hit}" for module, row in _module_rows(text).items() for hit in _TIMING.findall(row)]


def _readme() -> str:
    return README.read_text(encoding="utf-8")


def test_readme_names_resolve():
    assert _unresolved_names(_readme()) == []


def test_checker_finds_unresolved_names():
    text = (
        "| module | contract |\n| --- | --- |\n"
        "| `tubelab.core` | `sorted_distinct(x)` sorts; `sorted_distinkt(x)`; `DyadicScale.delta`; "
        "`DyadicScale.delt`; `CellSet.idx`; `Measurement.details`; `tubelab.maximal._MAX_GRID_CELLS` "
        "= `2^24`; `tubelab.maximal._MAX_GRID_CELL`; `tubelab.nowhere.x`; `[moran]`; `n = 2` |\n"
        "| `tubelab.nowhere` | `x` |\n"
    )
    assert _unresolved_names(text) == [
        "tubelab.core: sorted_distinkt", "tubelab.core: DyadicScale.delt",
        "tubelab.core: tubelab.maximal._MAX_GRID_CELL", "tubelab.core: tubelab.nowhere.x",
        "tubelab.nowhere: x",
    ]


def test_readme_lists_every_public_definition():
    sources = {f"tubelab.{p.stem}": p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unlisted_names(_readme(), sources) == []


def test_checker_finds_unlisted_names():
    text = "| `tubelab.a` | `f(x)` does; `C.method` acts |\n"
    sources = {
        "tubelab.a": "def f(x):\n    pass\n\ndef _g():\n    pass\n\nclass C:\n    pass\n\n"
                     "class D:\n    pass\n\nX = 1\n",
        "tubelab.b": "def h():\n    pass\n",
    }
    assert _unlisted_names(text, sources) == ["tubelab.a: D", "tubelab.b: h"]


def test_readme_kind_table_matches_kinds():
    assert _kind_mismatches(_readme(), {kind: set(k.keys) for kind, k in KINDS.items()}) == []


def test_checker_finds_kind_key_mismatches():
    text = (
        "intro\n\n| kind | keys |\n|---|---|\n| `incidence` | `s`, `r` (list) |\n"
        "| `nikodym`, `kakeya` | `s`, `q` |\n| `dims` | `depth`, or a `[moran]` block |\n\nafter `z`\n"
    )
    kinds = {"incidence": {"s", "r"}, "nikodym": {"s", "p"}, "kakeya": {"s", "q"},
             "dims": {"depth"}, "energy": {"m"}}
    assert _kind_mismatches(text, kinds) == [
        "energy: README [], code ['m']", "nikodym: README ['q', 's'], code ['p', 's']",
    ]


def test_readme_module_table_holds_no_timing():
    assert _timings(_readme()) == []


def test_checker_finds_timings():
    text = (
        "| `tubelab.core` | `f(x)` takes 0.5 s and 212 MB; `g` 30 µs, since PR 27 |\n"
        "| `tubelab.maximal` | `h(x)` refuses (2^k)² > 2^24 cells, k ≤ 12, 4 sums; 1 s-regular |\n"
        "outside a row: 3 s\n"
    )
    assert _timings(text) == [
        "tubelab.core: 0.5 s", "tubelab.core: 212 MB", "tubelab.core: 30 µs",
        "tubelab.core: PR 27", "tubelab.maximal: 1 s",
    ]


def test_readme_stays_an_index():
    # the long form of each contract lives in its module's docstrings
    assert len(README.read_bytes()) <= 12 * 1024
