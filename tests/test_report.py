"""Report assembly, serialization formats, and reference comparisons."""
from __future__ import annotations

import json

import pytest

from locclone import __version__, cli, ghz_cloning, report, w_taxonomy
from locclone.ghz_cloning import synthesize_cloner
from locclone.registers import Bipartition, SingleQubitGate, TransversalCnot
from locclone.report import (
    MATCH_TOL,
    REFERENCE_NEGATIVITIES,
    build_report,
    circuit_lines,
    csv_text,
    emit_report,
    format_cut,
    gate_line,
    json_text,
    reference_mismatches,
    scan_document,
    table_text,
)
from locclone.states import GhzLabel
from locclone.w_audit import AuditRecord, lemma_scan


def empty_document() -> dict:
    """A report document with no rows, around the four-point scan at step 1/4."""
    return {
        "version": __version__,
        "config": {"match_tol": MATCH_TOL, "step": 0.25, "exclusion_radius": 0.05},
        "ghz_pairs": [],
        "ghz_triples": [],
        "w_classifications": [],
        "pairs": [],
        "scan": scan_document(lemma_scan(0.25, 0.05)),
        "notes": [],
    }


def test_runconfig_defaults():
    """The scan knobs' one set of defaults is the parser's, for both commands that read them."""
    for argv in (["report"], ["w", "lemma"]):
        args = cli.build_parser().parse_args(argv)
        assert (args.step, args.radius) == (0.02, 0.05)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": 0.34},  # above 1/3
        {"exclusion_radius": -0.01},
        {"exclusion_radius": float("nan")},
        {"exclusion_radius": float("inf")},
        {"exclusion_radius": 2.0},  # no grid point lies outside the ball
        {"step": 0.001},
        {"step": float("nan")},
    ],
)
def test_runconfig_rejections(monkeypatch, kwargs):
    """build_report refuses bad scan knobs before it runs any analysis."""
    def no_analysis(*args):
        raise AssertionError("an analysis ran before the knobs were checked")

    monkeypatch.setattr(ghz_cloning, "synthesize_cloner", no_analysis)
    with pytest.raises(ValueError):
        build_report(**{"step": 0.02, "exclusion_radius": 0.05, **kwargs})


def test_format_cut():
    assert format_cut(Bipartition(3, frozenset({2}))) == "12|3"
    assert format_cut(Bipartition(3, frozenset({0}))) == "23|1"
    assert format_cut(Bipartition(6, frozenset({2, 5}))) == "1245|36"


def test_gate_line_shapes():
    assert gate_line(TransversalCnot("forward")) == "CNOT orig->clone"
    assert gate_line(TransversalCnot("reverse")) == "CNOT clone->orig"
    assert gate_line(SingleQubitGate(0, "X")) == "GATE X orig:1"
    assert gate_line(SingleQubitGate(5, "X")) == "GATE X clone:3"


def test_empty_bundle_emits_in_every_format():
    document = empty_document()
    for output_format in ("table", "json", "csv"):
        text = emit_report(document, output_format)
        assert text
        assert text.endswith("\n")
    payload = json.loads(emit_report(document, "json"))
    assert payload["ghz_pairs"] == []
    assert payload["scan"]["points_tested"] == 4
    assert payload["notes"] == []


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(empty_document(), "xml")


def test_bundle_document_key_order():
    document = build_report(0.25, 0.05)
    assert list(json.loads(emit_report(document, "json"))) == [
        "version",
        "config",
        "ghz_pairs",
        "ghz_triples",
        "w_classifications",
        "pairs",
        "scan",
        "notes",
    ]


def test_text_helpers_are_deterministic():
    rows = [{"x": 1.5, "y": None, "ok": True}, {"x": 0.25, "y": "s", "ok": False}]
    columns = ("x", "y", "ok")
    assert csv_text(rows, columns) == csv_text(rows, columns)
    assert table_text(rows, columns) == table_text(rows, columns)
    assert json_text(rows) == json_text(rows)
    assert csv_text(rows, columns) == "x,y,ok\n1.5,,true\n0.25,s,false\n"
    table = table_text(rows, columns)
    assert "x" in table.splitlines()[0]
    assert "-" in table  # None renders as a dash
    assert "yes" in table and "no" in table


def test_reference_mismatch_flags_drift():
    ref_in, ref_out = REFERENCE_NEGATIVITIES["I"]
    good = AuditRecord(1, 6, "B", 3, "I", ref_in, ref_out, 1)
    drifted = AuditRecord(2, 3, "B", 1, "I", ref_in + 0.01, ref_out, 1)
    notes = reference_mismatches([good, drifted])
    assert len(notes) == 1
    assert "(2,3)" in notes[0] or "2" in notes[0]
    assert reference_mismatches([good]) == []


def test_reference_mismatch_compares_a_pairs_and_every_blank():
    """A pairs have a closed form too, and every W-basis blank gives the same input
    factor, so a stray record of either kind is flagged."""
    ref_in, ref_out = REFERENCE_NEGATIVITIES["C"]
    off_blank = AuditRecord(1, 3, "C", 1, None, ref_in + 1.0, ref_out, 2)
    a_in, a_out = REFERENCE_NEGATIVITIES["A"]
    atype = AuditRecord(1, 2, "A", 2, None, a_in, a_out, 1)
    assert reference_mismatches([atype]) == []
    drifted = atype._replace(negativity_out=a_out + 1e-6)
    notes = reference_mismatches([off_blank, atype, drifted])
    assert [note.split(":")[0] for note in notes] == ["audit (1,3) C", "audit (1,2) A"]


def test_build_report_sections():
    document = build_report(0.05, 0.05)
    assert len(document["ghz_pairs"]) == 28
    assert len(document["ghz_triples"]) == 56
    assert len(document["w_classifications"]) == 28
    assert len(document["pairs"]) == 28
    assert document["scan"]["points_tested"] == 1140
    assert document["notes"] == []


def test_build_report_classifies_each_pair_once(monkeypatch):
    calls = []
    real = w_taxonomy.classify_pair

    def counting(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(w_taxonomy, "classify_pair", counting)
    document = build_report(0.1, 0.05)
    assert len(calls) == len(set(calls)) == 28
    keys = ("m", "n", "category", "witness_k")
    assert [[r[key] for key in keys] for r in document["pairs"]] == [
        [c[key] for key in keys] for c in document["w_classifications"]
    ]


def test_build_report_json_round_trip():
    payload = json.loads(emit_report(build_report(0.05, 0.05), "json"))
    assert payload["version"] == "0.1.0"
    assert len(payload["pairs"]) == 28
    assert payload["config"]["step"] == 0.05
    clonable = [row for row in payload["ghz_triples"] if row["clonable"]]
    assert len(clonable) == 32
    assert payload["scan"]["violation_count"] == 0
    assert payload["scan"]["violations"] == []


def test_emit_report_identical_for_same_bundle():
    document = build_report(0.05, 0.05)
    for output_format in ("table", "json", "csv"):
        assert emit_report(document, output_format) == emit_report(document, output_format)


def test_circuit_lines_match_gate_order():
    circuit = synthesize_cloner([GhzLabel(0, 0, 0), GhzLabel(1, 0, 1), GhzLabel(0, 1, 0)])
    lines = circuit_lines(circuit)
    assert lines[0] == "CNOT orig->clone"
    assert "GATE S clone:1" in lines
    assert "GATE Sdg clone:3" in lines


def test_scan_section_carries_the_grid_margin():
    document = build_report(0.02, 0.05)
    margin = document["scan"]["grid_max_entropy_bits"]
    scan = json.loads(emit_report(document, "json"))["scan"]
    assert list(scan) == [
        "step", "exclusion_radius", "points_tested", "violation_count",
        "grid_max_entropy_bits", "violations",
    ]
    assert scan["grid_max_entropy_bits"] == margin
    assert scan["grid_max_entropy_bits"] == pytest.approx(0.9043814577, abs=1e-10)
    csv_lines = emit_report(document, "csv").split("[scan]\n", 1)[1].splitlines()
    assert csv_lines[0].endswith(",violation_count,grid_max_entropy_bits")
    assert csv_lines[1].endswith(f",0,{margin!r}")
    table = emit_report(document, "table").split("== scan ==\n", 1)[1].splitlines()
    assert table[0].endswith("violation_count  grid_max_entropy_bits")
    assert table[1].endswith("0                0.904381")
