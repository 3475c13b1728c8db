"""The benchmark harness names only locclone attributes that exist.

bench/ drives locclone through module attributes (w_audit.atype_structure,
registers.partial_trace, ...). A rename or deletion in src/ that one of them
still names would only show when the benchmark runs, so it is caught here.
"""
from __future__ import annotations

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
