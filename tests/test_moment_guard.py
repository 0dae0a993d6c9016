"""The library reads every value from the label arrays: no code in src/ugjohnson
reads a pseudoexpectation's scalar `moment` outside a method named `moment`
(the uncached reference definition, which may call its base's)."""

import ast
from pathlib import Path

import pytest

LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "ugjohnson").glob("*.py"))


def moment_reads(source: str) -> list[str]:
    """Each `.moment` attribute read outside a function named moment, as
    "<enclosing function> (line n)"."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "moment" and owner != "moment":
                out.append(f"{owner} (line {child.lineno})")
            visit(child, owner)

    visit(ast.parse(source), None)
    return out


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_no_scalar_moment_read_outside_moment(path):
    assert moment_reads(path.read_text()) == []


def test_scan_finds_a_scalar_moment_read():
    src = ("class A:\n    def moment(self, m):\n        return self.base.moment(m)\n"
           "    def pE(self, p):\n        return sum(map(self.moment, p))\n"
           "def f(pe, m):\n    return pe.moment(m)\n")
    assert moment_reads(src) == ["pE (line 5)", "f (line 7)"]
