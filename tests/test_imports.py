"""Every name a module in src/ugjohnson, scripts or tests imports is used in that module,
and every function, method and class defined in src/ugjohnson is referenced
somewhere in src, scripts, bench or tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "ugjohnson").glob("*.py"))
FILES = sorted([*LIBRARY, *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")])
SCANNED = sorted(p for d in ("src", "scripts", "bench", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    src = "import os\nimport numpy as np\nfrom typing import Optional, Sequence\nnp.zeros(1)\nx: Sequence\n"
    assert unused_imports(src) == ["Optional (line 3)", "os (line 1)"]


def definitions(source: str) -> list[tuple[str, int]]:
    """Functions, methods and classes a module defines; dunder methods are
    called by Python itself, so they are left out."""
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source: str) -> set[str]:
    """Names, attribute names and string constants (names looked up by string,
    as bench/tracing.py's SPANNED does) used in a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


@pytest.fixture(scope="module")
def referenced() -> set[str]:
    return set().union(*(references(p.read_text()) for p in SCANNED))


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_every_definition_is_referenced(path, referenced):
    assert [f"{name} (line {line})" for name, line in definitions(path.read_text())
            if name not in referenced] == []


def test_scan_finds_an_unreferenced_definition():
    src = ("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
           "def f(): pass\ndef g(): pass\nA().m()\nNAMES = ('g',)\n")
    assert [name for name, _ in definitions(src) if name not in references(src)] == ["f"]
