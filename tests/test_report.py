"""Report assembly, serialization formats, and reference comparisons."""
from __future__ import annotations

import json

import pytest

from locclone.ghz_cloning import synthesize_cloner
from locclone.registers import Bipartition, GATE_X, SingleQubitGate, TransversalCnot
from locclone.report import (
    REFERENCE_NEGATIVITIES,
    ReportBundle,
    RunConfig,
    build_report,
    bundle_document,
    circuit_lines,
    csv_text,
    emit_report,
    format_cut,
    gate_line,
    json_text,
    reference_mismatches,
    table_text,
)
from locclone.states import GhzLabel
from locclone.w_audit import AuditRecord, all_pair_classifications


def test_runconfig_defaults():
    config = RunConfig()
    assert config.rank_tol == 1e-10
    assert config.match_tol == 1e-3
    assert config.step == 0.02
    assert config.exclusion_radius == 0.05
    assert config.output_format == "table"
    assert config.out_path is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": 0.11},
        {"rank_tol": -1e-10},
        {"match_tol": -1.0},
        {"exclusion_radius": -0.01},
        {"exclusion_radius": float("nan")},
        {"exclusion_radius": float("inf")},
        {"output_format": "yaml"},
        {"exclusion_radius": 2.0},  # no grid point lies outside the ball
        {"step": 0.001},
        {"step": float("nan")},
        {"rank_tol": float("inf")},
        {"match_tol": float("nan")},
        {"match_tol": float("inf")},
    ],
)
def test_runconfig_rejections(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_format_cut():
    assert format_cut(Bipartition(3, frozenset({2}))) == "12|3"
    assert format_cut(Bipartition(3, frozenset({0}))) == "23|1"
    assert format_cut(Bipartition(6, frozenset({2, 5}))) == "1245|36"


def test_gate_line_shapes():
    assert gate_line(TransversalCnot("forward")) == "CNOT orig->clone"
    assert gate_line(TransversalCnot("reverse")) == "CNOT clone->orig"
    assert gate_line(SingleQubitGate(0, GATE_X, "X")) == "GATE X orig:1"
    assert gate_line(SingleQubitGate(5, GATE_X, "X")) == "GATE X clone:3"


def test_empty_bundle_emits_in_every_format():
    bundle = ReportBundle(version="0.1.0", config=RunConfig())
    for output_format in ("table", "json", "csv"):
        text = emit_report(bundle, output_format)
        assert text
        assert text.endswith("\n")
    payload = json.loads(emit_report(bundle, "json"))
    assert payload["ghz_pairs"] == []
    assert payload["notes"] == []


def test_emit_report_rejects_unknown_format():
    bundle = ReportBundle(version="0.1.0", config=RunConfig())
    with pytest.raises(ValueError):
        emit_report(bundle, "xml")


def test_bundle_document_key_order():
    bundle = ReportBundle(version="0.1.0", config=RunConfig())
    assert list(bundle_document(bundle)) == [
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
    notes = reference_mismatches([good, drifted], match_tol=1e-3)
    assert len(notes) == 1
    assert "(2,3)" in notes[0] or "2" in notes[0]
    assert reference_mismatches([good], match_tol=1e-3) == []


def test_reference_mismatch_skips_nonstandard_records():
    ref_in, ref_out = REFERENCE_NEGATIVITIES["C"]
    off_blank = AuditRecord(1, 3, "C", 1, None, ref_in + 1.0, ref_out, 2)
    atype = AuditRecord(1, 2, "A", 2, None, 0.1, 0.2, 1)
    assert reference_mismatches([off_blank, atype], match_tol=1e-3) == []


def test_build_report_sections():
    config = RunConfig(step=0.05, output_format="json")
    bundle = build_report(config)
    assert len(bundle.ghz_pairs) == 28
    assert len(bundle.ghz_triples) == 56
    assert len(bundle.w_classifications) == 28
    assert len(bundle.pairs) == 28
    assert bundle.scan is not None
    assert bundle.scan.points_tested == 1140
    assert bundle.notes == ()


def test_rank_tol_reaches_the_audits():
    # 0.2 moves most pairs off their default taxonomy; the audits must follow
    bundle = build_report(RunConfig(rank_tol=0.2, step=0.1))
    taxonomy = {(c.m, c.n): (c.category, c.witness_k) for c in bundle.w_classifications}
    assert taxonomy != {
        (c.m, c.n): (c.category, c.witness_k) for c in all_pair_classifications()
    }
    assert len(bundle.pairs) == 28
    for record in bundle.pairs:
        assert (record.category, record.witness_k) == taxonomy[(record.m, record.n)]


def test_build_report_json_round_trip():
    config = RunConfig(step=0.05, output_format="json")
    bundle = build_report(config)
    payload = json.loads(emit_report(bundle, "json"))
    assert payload["version"] == "0.1.0"
    assert len(payload["pairs"]) == 28
    assert payload["config"]["step"] == 0.05
    clonable = [row for row in payload["ghz_triples"] if row["clonable"]]
    assert len(clonable) == 32
    assert payload["scan"]["violation_count"] == 0
    assert payload["scan"]["violations"] == []


def test_emit_report_identical_for_same_bundle():
    config = RunConfig(step=0.05)
    bundle = build_report(config)
    for output_format in ("table", "json", "csv"):
        assert emit_report(bundle, output_format) == emit_report(bundle, output_format)


def test_circuit_lines_match_gate_order():
    circuit = synthesize_cloner([GhzLabel(0, 0, 0), GhzLabel(1, 0, 1), GhzLabel(0, 1, 0)])
    lines = circuit_lines(circuit)
    assert lines[0] == "CNOT orig->clone"
    assert "GATE S clone:1" in lines
    assert "GATE Sdg clone:3" in lines
