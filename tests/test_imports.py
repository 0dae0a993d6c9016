"""Every name a module in src/ugjohnson, scripts or tests imports is used in that module,
every function, method and class defined in src/ugjohnson is referenced
somewhere in src, scripts, bench or tests, and every public top-level function
and class of src/ugjohnson has a caller in src, scripts or bench unless
TEST_ONLY names it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "ugjohnson").glob("*.py"))
FILES = sorted([*LIBRARY, *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")])
SCANNED = sorted(p for d in ("src", "scripts", "bench", "tests") for p in (ROOT / d).rglob("*.py"))
CALLERS = sorted(p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))

# Public library code that only tests call, as module.name.  Each entry is the
# reference or identity a test reads: the acceptance tests' information
# inequalities and distributions, and the Johnson/Cayley identities and
# polynomial helpers that tests check the library against.
TEST_ONLY = {
    "potentials.pinsker_check", "potentials.data_processing_check",
    "sos.DistributionPE", "sos.from_assignment", "sos.mixture",
    "johnson.expansion", "johnson.vertex_boundary_fraction",
    "johnson.subcube_expansion_bound", "johnson.small_restriction_expansion_check",
    "cayley.restricted_second_moment_check", "cayley.four_product_mean",
    "monomials.poly_add", "monomials.poly_scale",
}


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


def public_definitions(path: Path) -> dict[str, ast.stmt]:
    """The public top-level functions and classes of a library module, by
    module.name."""
    return {f"{path.stem}.{node.name}": node for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def library_callers(paths, test_only) -> dict[str, set[str]]:
    """For each name, the top-level statements of paths that reference it, as
    module.name (module.<line> for a statement that defines nothing).  A
    statement defining a test_only name calls nothing: code only tests reach
    is no caller."""
    out: dict[str, set[str]] = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(node, 'name', f'<{node.lineno}>')}"
            if owner in test_only:
                continue
            for name in references(ast.unparse(node)):
                out.setdefault(name, set()).add(owner)
    return out


def uncalled(library, callers) -> list[str]:
    """module.name of every public definition in library that no statement
    but its own definition references."""
    return sorted(qual for path in library for qual in public_definitions(path)
                  if not callers.get(qual.split(".", 1)[1], set()) - {qual})


def test_every_public_definition_has_a_library_caller():
    callers = library_callers(CALLERS, TEST_ONLY)
    assert sorted(set(uncalled(LIBRARY, callers)) - TEST_ONLY) == []


def test_test_only_names_exist_and_have_no_library_caller():
    defined = set().union(*(public_definitions(p) for p in LIBRARY))
    assert sorted(TEST_ONLY - defined) == []
    callers = library_callers(CALLERS, TEST_ONLY)
    assert sorted(TEST_ONLY - set(uncalled(LIBRARY, callers))) == []


def test_caller_scan_skips_self_and_test_only_references(tmp_path):
    lib = tmp_path / "m.py"
    lib.write_text("def f(n): return f(n - 1)\ndef g(): return h()\ndef h(): pass\n"
                   "def k(): pass\nX = k\n")
    assert uncalled([lib], library_callers([lib], set())) == ["m.f", "m.g"]
    assert uncalled([lib], library_callers([lib], {"m.g"})) == ["m.f", "m.g", "m.h"]
