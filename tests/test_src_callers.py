"""Every function and class in src/ has a caller outside the tests.

A helper that only tests call belongs in tests/references.py, not in the
package. The census walks the syntax trees of src/locclone and bench/: a
top-level def or class counts as used when an ast.Name or ast.Attribute node
names it outside its own body, in a src/ module other than __init__ (which
holds only the version) or in a bench/ script. Imports and docstrings are not such
nodes, so a re-export or a mention in prose does not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "locclone"
CALLERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS += sorted((ROOT / "bench").glob("*.py"))


def _names_in(node: ast.AST) -> set[str]:
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def definitions() -> list[tuple[str, str]]:
    """(module, name) of every top-level def and class in the package."""
    return [
        (path.stem, node.name)
        for path in CALLERS if path.parent == PACKAGE
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def referenced_names() -> set[str]:
    """Names each top-level statement refers to, leaving out a def's or class's own name.

    Recursion alone therefore does not make a function used.
    """
    names = set()
    for path in CALLERS:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            names |= _names_in(node) - {own}
    return names


def test_every_src_definition_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = [f"{module}.{name}" for module, name in definitions() if name not in used]
    assert unused == []


def test_the_census_sees_calls_across_modules_and_from_bench():
    used, defined = referenced_names(), definitions()
    assert {"cut_columns", "_cut_gram", "partial_trace"} <= used  # exact, w_audit, bench
    assert {("exact", "cut_columns"), ("w_audit", "_cut_gram"),
            ("registers", "partial_trace")} <= set(defined)
