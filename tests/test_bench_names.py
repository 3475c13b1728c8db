"""The benchmark harness names only locclone attributes that exist.

bench/ drives locclone through module attributes (w_audit.atype_structure,
registers.partial_trace, ...). A rename or deletion in src/ that one of them
still names would only show when the benchmark runs, so it is caught here.
The tracer names its targets and probes as strings, and skips a missing one
without a word, so a rename would blank its per-layer rows: those strings
are resolved too, read from the syntax tree of bench/tracer.py.
"""
from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def named_attributes(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for every "module.attribute" a bench file names.

    The modules are the ones its "from locclone import ..." line imports.
    """
    text = path.read_text(encoding="utf-8")
    imported = re.search(r"^from locclone import ([\w, ]+)", text, re.MULTILINE)
    assert imported is not None, f"{path.name} imports nothing from locclone"
    modules = "|".join(name.strip() for name in imported.group(1).split(","))
    return set(re.findall(rf"(?<![\w.])({modules})\.(\w+)", text))


@pytest.mark.parametrize("name", ["workloads.py", "selftest.py"])
def test_bench_names_only_existing_locclone_attributes(name):
    names = named_attributes(BENCH / name)
    missing = [
        f"{module}.{attr}" for module, attr in sorted(names)
        if not hasattr(importlib.import_module(f"locclone.{module}"), attr)
    ]
    assert missing == []


def test_the_scan_sees_the_workload_calls():
    names = named_attributes(BENCH / "workloads.py")
    for expected in [("w_audit", "atype_structure"), ("w_audit", "negativity_audit"),
                     ("registers", "partial_trace"), ("cli", "run_command")]:
        assert expected in names


def tracer_names() -> list[tuple[str, str]]:
    """(module, function) of every Target(...) in TARGETS and every name in PROBES."""
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    values = {
        node.target.id if isinstance(node, ast.AnnAssign) else node.targets[0].id: node.value
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
    }
    targets = [
        (call.args[0].value, call.args[1].value) for call in ast.walk(values["TARGETS"])
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Target"
    ]
    probes = [tuple(name.split(".")) for name in ast.literal_eval(values["PROBES"])]
    return targets + probes


def test_tracer_targets_and_probes_name_existing_locclone_functions():
    names = tracer_names()
    assert {("w_audit", "negativity_audit"), ("registers", "partial_trace")} <= set(names)
    missing = [
        f"{module}.{attr}" for module, attr in names
        if not callable(getattr(importlib.import_module(f"locclone.{module}"), attr, None))
    ]
    assert missing == []
