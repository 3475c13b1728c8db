"""Assemble every analysis into one deterministic report.

build_report runs the GHZ pair/triple survey, the W pair taxonomy with
negativity audits, and the parameter-simplex scan under a single RunConfig.
emit_report renders the bundle as an aligned text table, a JSON document, or
sectioned CSV. Rendering the same bundle twice gives identical bytes; json
and csv keep full float precision while tables round to 6 significant
digits.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import __version__
from .ghz_cloning import (
    FIDELITY_TOL,
    CloningCircuit,
    NoCircuitFound,
    TripleVerdict,
    all_pairs,
    all_triples,
    synthesize_cloner,
    triple_clonability,
    verify_cloner,
)
from .registers import DEFAULT_RANK_TOL, Bipartition, SingleQubitGate, TransversalCnot
from .states import GhzLabel
from .w_audit import (
    CATEGORY_B,
    SCAN_MIN_STEP,
    AuditRecord,
    PairClassification,
    ScanReport,
    all_audit_records,
    all_pair_classifications,
    check_scan_inputs,
    lemma_scan,
)

OUTPUT_FORMATS = ("table", "json", "csv")

# Benchmark (N_in, N_out) per audited pair family (B form I, B form II, C),
# with the first basis state as blank. A full report flags any record that
# strays beyond match_tol from its family's benchmark.
REFERENCE_NEGATIVITIES: dict[str, tuple[float, float]] = {
    "I": (1.89097, 2.14597),
    "II": (2.23802, 2.49298),
    "C": (2.23802, 2.55185),
}


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the batch analyses; defaults give the reference run."""

    rank_tol: float = DEFAULT_RANK_TOL
    match_tol: float = 1e-3
    step: float = 0.02
    exclusion_radius: float = 0.05
    output_format: str = "table"
    out_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("rank_tol", "match_tol"):
            value = getattr(self, name)
            if not 0.0 < value < float("inf"):  # false for nan too
                raise ValueError(f"{name} {value!r} must be finite and positive")
        if not SCAN_MIN_STEP <= self.step <= 0.1:
            raise ValueError(f"grid step {self.step!r} must lie in [{SCAN_MIN_STEP}, 0.1]")
        check_scan_inputs(self.step, self.exclusion_radius)
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")


@dataclass(frozen=True)
class GhzPairResult:
    members: tuple[GhzLabel, GhzLabel]
    fidelity: float  # worse of the two clone fidelities


@dataclass(frozen=True)
class ReportBundle:
    version: str
    config: RunConfig
    ghz_pairs: tuple[GhzPairResult, ...] = ()
    ghz_triples: tuple[tuple[tuple[GhzLabel, ...], TripleVerdict], ...] = ()
    w_classifications: tuple[PairClassification, ...] = ()
    pairs: tuple[AuditRecord, ...] = ()
    scan: ScanReport | None = None
    notes: tuple[str, ...] = ()


def format_cut(cut: Bipartition) -> str:
    """Render a bipartition as 1-based digit groups, e.g. "12|3"."""
    side_a = "".join(str(q + 1) for q in sorted(cut.side_a))
    side_b = "".join(str(q + 1) for q in sorted(cut.side_b))
    return f"{side_a}|{side_b}"


def gate_line(gate: SingleQubitGate | TransversalCnot) -> str:
    if isinstance(gate, TransversalCnot):
        return "CNOT orig->clone" if gate.direction == "forward" else "CNOT clone->orig"
    half = 3  # circuits act on an original+clone register of 3 qubits each
    if gate.target < half:
        return f"GATE {gate.name} orig:{gate.target + 1}"
    return f"GATE {gate.name} clone:{gate.target - half + 1}"


def circuit_lines(circuit: CloningCircuit) -> list[str]:
    return [gate_line(gate) for gate in circuit.layers]


def ghz_pair_row(result: GhzPairResult) -> dict:
    return {
        "member_1": str(result.members[0]),
        "member_2": str(result.members[1]),
        "fidelity": float(result.fidelity),
    }


def triple_row(members: Sequence[GhzLabel], verdict: TripleVerdict) -> dict:
    return {
        "member_1": str(members[0]),
        "member_2": str(members[1]),
        "member_3": str(members[2]),
        "clonable": verdict.clonable,
        "witness_cut": format_cut(verdict.witness_cut) if verdict.witness_cut else None,
        "circuit": circuit_lines(verdict.circuit) if verdict.circuit else None,
    }


def classification_row(item: PairClassification) -> dict:
    return {
        "m": item.m,
        "n": item.n,
        "category": item.category,
        "witness_k": item.witness_k,
        "span_dim": item.span_dim,
    }


def audit_row(record: AuditRecord) -> dict:
    return {
        "m": record.m,
        "n": record.n,
        "category": record.category,
        "witness_k": record.witness_k,
        "form": record.form,
        "negativity_in": float(record.negativity_in),
        "negativity_out": float(record.negativity_out),
        "blank": record.blank,
    }


def scan_rows(scan: ScanReport) -> tuple[dict, list[dict]]:
    summary = {
        "step": float(scan.step),
        "exclusion_radius": float(scan.exclusion_radius),
        "points_tested": scan.points_tested,
        "violation_count": len(scan.violations),
    }
    details = [
        {
            "a": float(params.a),
            "b": float(params.b),
            "c": float(params.c),
            "d": float(params.d),
            "entropy_bits": float(entropy),
        }
        for params, entropy in scan.violations
    ]
    return summary, details


def reference_mismatches(records: Sequence[AuditRecord], match_tol: float) -> list[str]:
    """Notes for audited records straying from their family benchmark.

    Only records with the first basis state as blank are compared; the
    benchmarks presuppose that choice.
    """
    notes = []
    for record in records:
        if record.blank != 1:
            continue
        key = record.form if record.category == CATEGORY_B else record.category
        reference = REFERENCE_NEGATIVITIES.get(key or "")
        if reference is None:
            continue
        drift = max(
            abs(record.negativity_in - reference[0]),
            abs(record.negativity_out - reference[1]),
        )
        if drift > match_tol:
            notes.append(
                f"audit ({record.m},{record.n}) {key}: negativities "
                f"({record.negativity_in!r}, {record.negativity_out!r}) stray "
                f"{drift:.3e} from benchmark {reference}, beyond {match_tol:g}"
            )
    return notes


def build_report(config: RunConfig) -> ReportBundle:
    notes: list[str] = []

    pair_results = []
    for pair in all_pairs():
        try:
            circuit = synthesize_cloner(pair)
        except NoCircuitFound as exc:
            notes.append(f"ghz pair {pair[0]} {pair[1]}: {exc}")
            continue
        worst = float(min(verify_cloner(circuit, pair).values()))
        pair_results.append(GhzPairResult(pair, worst))

    triples = tuple((triple, triple_clonability(triple)) for triple in all_triples())
    classifications = all_pair_classifications(config.rank_tol)
    records = all_audit_records(rank_tol=config.rank_tol)
    notes.extend(reference_mismatches(records, config.match_tol))

    scan = lemma_scan(config.step, config.exclusion_radius)
    if scan.violations:
        notes.append(f"simplex scan recorded {len(scan.violations)} violation(s)")

    return ReportBundle(
        version=__version__,
        config=config,
        ghz_pairs=tuple(pair_results),
        ghz_triples=triples,
        w_classifications=classifications,
        pairs=records,
        scan=scan,
        notes=tuple(notes),
    )


def config_row(config: RunConfig) -> dict:
    return {
        "rank_tol": config.rank_tol,
        "fidelity_tol": FIDELITY_TOL,
        "match_tol": config.match_tol,
        "step": config.step,
        "exclusion_radius": config.exclusion_radius,
        "output_format": config.output_format,
        "out_path": config.out_path,
    }


def bundle_document(bundle: ReportBundle) -> dict:
    """JSON-ready view of a bundle with stable key order."""
    scan_summary, scan_violations = (
        scan_rows(bundle.scan) if bundle.scan is not None else (None, [])
    )
    if scan_summary is not None:
        scan_summary = dict(scan_summary, violations=scan_violations)
    return {
        "version": bundle.version,
        "config": config_row(bundle.config),
        "ghz_pairs": [ghz_pair_row(r) for r in bundle.ghz_pairs],
        "ghz_triples": [triple_row(members, v) for members, v in bundle.ghz_triples],
        "w_classifications": [classification_row(c) for c in bundle.w_classifications],
        "pairs": [audit_row(r) for r in bundle.pairs],
        "scan": scan_summary,
        "notes": list(bundle.notes),
    }


def json_text(payload: object) -> str:
    """Serialize with full float round-trip precision and stable key order."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "; ".join(str(item) for item in value)
    return str(value)


def csv_text(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buffer.getvalue()


def _table_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, list):
        return "; ".join(str(item) for item in value)
    return str(value)


def table_text(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    cells = [[_table_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(name), *(len(line[i]) for line in cells)) if cells else len(name)
        for i, name in enumerate(columns)
    ]
    lines = ["  ".join(name.ljust(w) for name, w in zip(columns, widths)).rstrip()]
    for line in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


SECTION_COLUMNS = {
    "ghz_pairs": ("member_1", "member_2", "fidelity"),
    "ghz_triples": ("member_1", "member_2", "member_3", "clonable", "witness_cut", "circuit"),
    "w_classifications": ("m", "n", "category", "witness_k", "span_dim"),
    "pairs": ("m", "n", "category", "witness_k", "form", "negativity_in", "negativity_out", "blank"),
    "scan": ("step", "exclusion_radius", "points_tested", "violation_count"),
    "scan_violations": ("a", "b", "c", "d", "entropy_bits"),
}


def _bundle_sections(bundle: ReportBundle) -> list[tuple[str, list[dict]]]:
    scan_summary, scan_violations = (
        scan_rows(bundle.scan) if bundle.scan is not None else (None, [])
    )
    return [
        ("ghz_pairs", [ghz_pair_row(r) for r in bundle.ghz_pairs]),
        ("ghz_triples", [triple_row(members, v) for members, v in bundle.ghz_triples]),
        ("w_classifications", [classification_row(c) for c in bundle.w_classifications]),
        ("pairs", [audit_row(r) for r in bundle.pairs]),
        ("scan", [scan_summary] if scan_summary is not None else []),
        ("scan_violations", scan_violations),
    ]


def emit_report(bundle: ReportBundle, output_format: str) -> str:
    if output_format not in OUTPUT_FORMATS:
        raise ValueError(f"unknown output format {output_format!r}")
    if output_format == "json":
        return json_text(bundle_document(bundle))

    sections = _bundle_sections(bundle)
    if output_format == "csv":
        blocks = [f"version,{bundle.version}\n"]
        config = config_row(bundle.config)
        blocks.append(csv_text([config], list(config)))
        for name, rows in sections:
            blocks.append(f"[{name}]\n" + csv_text(rows, SECTION_COLUMNS[name]))
        return "\n".join(blocks)

    parts = [f"tool version {bundle.version}"]
    config = config_row(bundle.config)
    parts.append(
        "config "
        + " ".join(f"{key}={_table_cell(value)}" for key, value in config.items())
    )
    for name, rows in sections:
        parts.append("")
        parts.append(f"== {name} ==")
        if rows:
            parts.append(table_text(rows, SECTION_COLUMNS[name]).rstrip("\n"))
        else:
            parts.append("(none)")
    parts.append("")
    parts.append("== notes ==")
    if bundle.notes:
        parts.extend(bundle.notes)
    else:
        parts.append("(none)")
    return "\n".join(parts) + "\n"
