"""Source hygiene: every name a module of src/tubelab imports is used in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tubelab"


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
