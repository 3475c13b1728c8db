"""Every function, class, constant and table in src/ has a caller outside the tests.

A helper that only tests call belongs in tests/references.py, not in the
package. The census walks the syntax trees of src/locclone and bench/: a
top-level def, class or assigned name counts as used when an ast.Name or
ast.Attribute node names it outside its own statement, in a src/ module other
than __init__ (which holds only the version) or in a bench/ script. Imports and
docstrings are not such nodes, so a re-export or a mention in prose does not
count, and neither does the assignment that defines the name.
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


def _defined_by(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a def's or class's, or an assignment's."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    names = set()
    while targets:  # unpack a, (b, *c) = ...; an attribute or item target defines no name
        target = targets.pop()
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
    return names


def definitions() -> list[tuple[str, str]]:
    """(module, name) of every top-level def, class and assigned name in the package."""
    return [
        (path.stem, name)
        for path in CALLERS if path.parent == PACKAGE
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for name in sorted(_defined_by(node))
    ]


def referenced_names() -> set[str]:
    """Names each top-level statement refers to, leaving out the names it defines.

    Recursion alone therefore does not make a function used, nor its own assignment a table.
    """
    names = set()
    for path in CALLERS:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names |= _names_in(node) - _defined_by(node)
    return names


def test_every_src_definition_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = [f"{module}.{name}" for module, name in definitions() if name not in used]
    assert unused == []


def test_the_census_sees_calls_across_modules_and_from_bench():
    used, defined = referenced_names(), definitions()
    assert {"cut_columns", "_cut_gram", "partial_trace"} <= used  # exact, w_taxonomy, bench
    assert {("exact", "cut_columns"), ("w_taxonomy", "_cut_gram"),
            ("registers", "partial_trace")} <= set(defined)
    # tables and constants too: states.SQRT_THIRD is read in w_audit, _W_TERMS only by the
    # table built from it, and _PARITY by the table and by a function
    assert {"SQRT_THIRD", "_W_TERMS", "_PARITY"} <= used
    assert {("states", "SQRT_THIRD"), ("exact", "_W_TERMS"), ("w_audit", "_PARITY"),
            ("exact", "_W_SIGNS")} <= set(defined)


def test_a_table_read_only_by_its_own_assignment_is_unused():
    tree = ast.parse("_CUTS = {k: k - 1 for k in (1, 2, 3)}\n_CUTS[4] = 3\n"
                     "A, (B, *C) = 1, (2, 3)\n")
    assert [_defined_by(node) for node in tree.body] == [{"_CUTS"}, set(), {"A", "B", "C"}]
    assert "_CUTS" not in _names_in(tree.body[0]) - _defined_by(tree.body[0])
