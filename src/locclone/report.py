"""Assemble every analysis into one deterministic report document.

build_report runs the GHZ pair/triple survey, the W pair taxonomy with
negativity audits, and the parameter-simplex scan into the report's json
document. render is the one output path of every command: a json document,
or named sections of rows as aligned text tables or csv, whose columns are
the rows' keys and whose cells cell_text spells. emit_report reads its
sections from the document. Rendering the same document twice gives
identical bytes; json and csv keep full float precision while tables round
to 6 significant digits. build_report alone imports the analyses, when
called, so a command that only renders loads neither ghz_cloning nor w_audit.
"""

from __future__ import annotations

import csv
import io
import json
from math import sqrt
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__
from .exact import Bipartition, SingleQubitGate, TransversalCnot, VerificationError

if TYPE_CHECKING:
    from .exact import GhzLabel
    from .ghz_cloning import CloningCircuit, TripleVerdict
    from .w_audit import AuditRecord, ScanReport
    from .w_taxonomy import PairClassification

OUTPUT_FORMATS = ("table", "json", "csv")

# Closed-form (N_in, N_out) per pair family, from the integer spectra of
# 6 rho_pair^T_B and 18 rho_out^T_B. Each W-basis blank gives the input factor
# 1 + 2 sqrt(2)/3: every W-basis state splits 2/3, 1/3 at every cut (w_taxonomy._cut_gram).
# w audit and the full report flag any record further than MATCH_TOL from its
# family's value; eigensolver error is near 64 eps ||Y|| ~ 1e-13.
REFERENCE_NEGATIVITIES: dict[str, tuple[float, float]] = {
    "A": (2 * sqrt(2) / 3, 4 * sqrt(5) / 9),
    "I": ((1 + 2 * sqrt(3)) * (3 + 2 * sqrt(2)) / 9 - 1, 8 * (1 + sqrt(2)) / 9),
    "II": (5 * (3 + 2 * sqrt(2)) / 9 - 1, (7 + 8 * sqrt(2) + sqrt(17)) / 9),
    "C": (5 * (3 + 2 * sqrt(2)) / 9 - 1, 4 * (2 + sqrt(14)) / 9),
}
MATCH_TOL = 1e-12

# The paper's split of the 28 W pairs by category. A full report flags any
# other split as a regression guard on the taxonomy.
REFERENCE_TAXONOMY: dict[str, int] = {"A": 6, "B": 10, "C": 12}


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


def triple_row(members: Sequence[GhzLabel], verdict: TripleVerdict) -> dict:
    return {
        "member_1": str(members[0]),
        "member_2": str(members[1]),
        "member_3": str(members[2]),
        "clonable": verdict.clonable,
        "witness_cut": format_cut(verdict.witness_cut) if verdict.witness_cut else None,
        "circuit": circuit_lines(verdict.circuit) if verdict.circuit else None,
    }


def scan_document(scan: ScanReport) -> dict:
    """The scan's json value: its summary fields with the violation rows inside."""
    return {
        "step": float(scan.step),
        "exclusion_radius": float(scan.exclusion_radius),
        "points_tested": scan.points_tested,
        "violation_count": len(scan.violations),
        "grid_max_entropy_bits": float(scan.grid_max_entropy_bits),
        "violations": [
            {**{key: float(getattr(params, key)) for key in "abcd"}, "entropy_bits": float(entropy)}
            for params, entropy in scan.violations
        ],
    }


def scan_sections(document: Mapping[str, object]) -> list[tuple[str, list[dict]]]:
    """A scan document as its summary row and violation rows, as the report lays them out."""
    summary = {key: value for key, value in document.items() if key != "violations"}
    return [("scan", [summary]), ("scan_violations", document["violations"])]


def reference_mismatches(records: Sequence[AuditRecord]) -> list[str]:
    """Notes for audited records straying from their family's closed form, whatever their blank."""
    notes = []
    for record in records:
        key = record.form or record.category  # B records carry their form, A and C none
        reference = REFERENCE_NEGATIVITIES[key]
        drift = max(
            abs(record.negativity_in - reference[0]),
            abs(record.negativity_out - reference[1]),
        )
        if drift > MATCH_TOL:
            notes.append(
                f"audit ({record.m},{record.n}) {key}: negativities "
                f"({record.negativity_in!r}, {record.negativity_out!r}) stray "
                f"{drift:.3e} from benchmark {reference}, beyond {MATCH_TOL:g}"
            )
    return notes


def taxonomy_notes(classifications: Sequence[PairClassification]) -> list[str]:
    """A note naming the W pair split if it is not the paper's REFERENCE_TAXONOMY, else none."""
    split = {key: sum(c.category == key for c in classifications) for key in REFERENCE_TAXONOMY}
    if split == REFERENCE_TAXONOMY:
        return []
    ours, paper = (" / ".join(f"{n} {key}" for key, n in counts.items())
                   for counts in (split, REFERENCE_TAXONOMY))
    return [f"w pair taxonomy {ours} differs from the paper's {paper}"]


def build_report(step: float, exclusion_radius: float) -> dict:
    """Run every analysis into the report's json document. Bad scan knobs raise
    ValueError before any analysis; a failed check raises VerificationError; a
    verdict unlike the paper's (taxonomy split, audit drift, scan) becomes a note,
    and an audit that fails under a split unlike the paper's names the split."""
    from .ghz_cloning import all_pairs, all_triples, synthesize_cloner, triple_clonability
    from .w_audit import audit_classified, lemma_scan
    from .w_taxonomy import all_pair_classifications

    scan = lemma_scan(step, exclusion_radius)  # first, as it checks the knobs
    ghz_pairs = []
    for a, b in all_pairs():  # each row carries the pair's worse clone fidelity
        fidelity = float(min(f for _, f in synthesize_cloner((a, b)).fidelities))
        ghz_pairs.append({"member_1": str(a), "member_2": str(b), "fidelity": fidelity})
    triples = [triple_row(triple, triple_clonability(triple)) for triple in all_triples()]
    classifications = all_pair_classifications()
    notes = taxonomy_notes(classifications)
    try:
        records = audit_classified(classifications)
    except VerificationError as exc:
        if notes:  # a mis-sorted pair failed its audit: name the split
            raise type(exc)(f"{notes[-1]}; {exc}") from None
        raise
    notes.extend(reference_mismatches(records))
    if scan.violations:
        notes.append(f"simplex scan recorded {len(scan.violations)} violation(s)")

    return {
        "version": __version__,
        "config": {"match_tol": MATCH_TOL, "step": step, "exclusion_radius": exclusion_radius},
        "ghz_pairs": ghz_pairs,
        "ghz_triples": triples,
        "w_classifications": [c._asdict() for c in classifications],
        "pairs": [r._asdict() for r in records],
        "scan": scan_document(scan),
        "notes": notes,
    }


def json_text(payload: object) -> str:
    """Serialize with full float round-trip precision and stable key order."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# How table and csv spell None, False and True, and a float; both join a list with "; ".
_CELL_STYLES = {
    "table": ("-", ("no", "yes"), lambda value: format(value, ".6g")),
    "csv": ("", ("false", "true"), repr),
}

# The csv header of the two sections a healthy run leaves empty. Every other
# section takes its columns from its first row, in the row's key order.
FIXED_CSV_HEADERS = {
    "scan_violations": ("a", "b", "c", "d", "entropy_bits"),
    "notes": ("note",),
}


def cell_text(value: object, output_format: str) -> str:
    """One json value as a table or csv cell; tables round floats to 6 significant digits."""
    none, bools, number = _CELL_STYLES[output_format]
    if value is None:
        return none
    if isinstance(value, bool):
        return bools[value]
    if isinstance(value, float):
        return number(value)
    if isinstance(value, list):
        return "; ".join(str(item) for item in value)
    return str(value)


def csv_text(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell_text(row.get(col), "csv") for col in columns])
    return buffer.getvalue()


def table_text(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    cells = [[cell_text(row.get(col), "table") for col in columns] for row in rows]
    widths = [
        max(len(name), *(len(line[i]) for line in cells)) if cells else len(name)
        for i, name in enumerate(columns)
    ]
    lines = ["  ".join(name.ljust(w) for name, w in zip(columns, widths)).rstrip()]
    for line in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render(
    document: object,
    sections: Sequence[tuple[str, Sequence[Mapping[str, object]]]],
    output_format: str,
) -> str:
    """One command's output: its json document, or its sections as table or csv.

    Table and csv put each section under its name, except a lone section,
    which prints bare; sections are separated by one blank line. A section's
    columns are its first row's keys; an empty section prints "(none)" in the
    table and, in csv, its FIXED_CSV_HEADERS header or nothing below its title.
    """
    if output_format not in OUTPUT_FORMATS:
        raise ValueError(f"unknown output format {output_format!r}")
    if output_format == "json":
        return json_text(document)
    blocks = []
    for name, rows in sections:
        columns = list(rows[0]) if rows else FIXED_CSV_HEADERS.get(name)
        if output_format == "csv":
            title, body = f"[{name}]\n", csv_text(rows, columns) if columns else ""
        else:
            title, body = f"== {name} ==\n", table_text(rows, columns) if rows else "(none)\n"
        blocks.append(body if len(sections) == 1 else title + body)
    return "\n".join(blocks)


def emit_report(document: Mapping[str, object], output_format: str) -> str:
    """The document as json, or as its version and config head, then its row
    lists, its scan's two sections and its notes as table or csv."""
    row_lists = ("ghz_pairs", "ghz_triples", "w_classifications", "pairs")
    sections = [(name, document[name]) for name in row_lists]
    sections += scan_sections(document["scan"])
    sections.append(("notes", [{"note": note} for note in document["notes"]]))
    body = render(document, sections, output_format)
    if output_format == "json":
        return body
    version, config = document["version"], document["config"]
    if output_format == "csv":
        head = [f"version,{version}\n", csv_text([config], list(config))]
    else:
        settings = " ".join(f"{key}={cell_text(value, 'table')}" for key, value in config.items())
        head = [f"tool version {version}\nconfig {settings}\n"]
    return "\n".join([*head, body])
