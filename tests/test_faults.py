"""Fault injection: every verdict the CLI reports can fail, and then it exits 1.

Each fault breaks one part of the analysis in process and runs the commands
that report on it. A failed check on a computed value aborts: exit 1, one
"error:" line naming the verdict, and nothing on stdout. A verdict unlike the
paper's is a note: exit 1, the whole document on stdout, and the note on
stderr. Exit 0 would hide the fault and exit 2 would blame the input, so
neither may happen.
"""
from __future__ import annotations

import numpy as np
import pytest

from locclone import cli, ghz_cloning, report, w_audit, w_taxonomy, wclass
from locclone.exact import TransversalCnot


def wrong_phase_correction(patch):
    patch.setattr(ghz_cloning, "_phase_corrections", lambda members: (1, 0, 0))


def stripped_phase_gates(patch):
    # the forward route without its corrections: a triple verdict reuses these layers,
    # so its verification must still catch them
    real = ghz_cloning._cloning_layers

    def stripped(members):
        layers = real(members)
        return layers[:1] if layers and layers[0] == TransversalCnot("forward") else layers

    patch.setattr(ghz_cloning, "_cloning_layers", stripped)


def hidden_bell_witness(patch):
    patch.setattr(ghz_cloning, "_bell_triple_cut", lambda members: None)


def audit_drift(patch):
    reference_in, reference_out = report.REFERENCE_NEGATIVITIES["C"]
    patch.setitem(report.REFERENCE_NEGATIVITIES, "C", (reference_in, reference_out + 1e-2))


def c_pairs_classified_as_b(patch):
    classify = w_taxonomy.classify_pair

    def as_b(m, n):
        cls = classify(m, n)
        if cls.category != w_taxonomy.CATEGORY_C:
            return cls
        return cls._replace(category=w_taxonomy.CATEGORY_B, witness_k=1, span_dim=3)

    patch.setattr(w_taxonomy, "classify_pair", as_b)


def swapped_schur_weights(patch):
    # D_m's diagonal holds 1s and 2s, so passing 2 / D_m swaps the weights 2 / D_m[i, i];
    # the split becomes 0 A / 24 B / 4 C, and the A pair (1,2) fails its B structure check
    span = w_taxonomy._span
    patch.setattr(
        w_taxonomy, "_span", lambda d_m, d_n, gram: span(tuple(2 // d for d in d_m), d_n, gram)
    )


def commuting_span_4_reductions(patch):
    # G = 0 wherever the span is 4, so every cut of a C pair spans 4 with commuting
    # reductions, which the taxonomy must refuse rather than leave uncategorised
    cut_gram = w_taxonomy._cut_gram

    def zeroed(m, n, k):
        h_m, h_n, gram, span = cut_gram(m, n, k)
        return h_m, h_n, ((0, 0), (0, 0)) if span == 4 else gram, span

    patch.setattr(w_taxonomy, "_cut_gram", zeroed)


def non_hermitian_output_transpose(patch):
    blocks_of = w_audit._parity_blocks

    def skewed(rows, cuts, names):  # blocks [row, s, p, a, c], one 4x4 per state and parity
        return blocks_of(rows, cuts, names) + 1e-6j * np.eye(4)

    patch.setattr(w_audit, "_parity_blocks", skewed)


def non_hermitian_pair_1_6(patch):
    # only the row of pair (1,6), its members W1 and W6, is skewed: the audit must name
    # that row, not the batch's first
    blocks_of = w_audit._parity_blocks

    def skewed(rows, cuts, names):  # each row lists W indices, the pair's first
        row = np.array([tuple(r[:2]) == (1, 6) for r in rows])
        return blocks_of(rows, cuts, names) + 1e-6j * row[:, None, None, None, None] * np.eye(4)

    patch.setattr(w_audit, "_parity_blocks", skewed)


def shifted_audit_value(patch):
    # one input value 1e-6 off, far inside the 1e-3 a five-decimal benchmark table allowed
    audit = w_audit.audit_classified

    def shifted(pairs, blank=1):
        return tuple(
            record._replace(negativity_in=record.negativity_in + 1e-6)
            if (record.m, record.n) == (1, 6) else record
            for record in audit(pairs, blank)
        )

    patch.setattr(w_audit, "audit_classified", shifted)


def wrong_parity_table(patch):
    # the low and high halves of the register mix parities, so W states leave their blocks
    patch.setattr(w_audit, "_PARITY", np.array([[0, 1, 2, 3], [4, 5, 6, 7]]))


def lowered_scan_threshold(patch):
    patch.setattr(w_audit, "W_CUT_ENTROPY_BITS", 0.5)


def lowered_certificate_threshold(patch):
    patch.setattr(wclass, "W_CUT_ENTROPY_BITS", 0.5)


REPORT = ["report", "--step", "0.1"]
REPORT_HEAD = "tool version 0.1.0"
W_AUDIT_HEAD = "m  n  category  witness_k  form  negativity_in  negativity_out  blank"
W_CLASSIFY_HEAD = "m  n  category  witness_k  span_dim"

# (fault, argv, first stdout line or "" for an abort, text of one stderr line)
CASES = [
    (wrong_phase_correction, ["ghz", "clone", "--states", "0,0,0", "0,0,1"], "",
     "error: closed-form circuit for {(0,0,0), (0,0,1)} fails verification: "
     "worst fidelity 0.5, not 1"),
    (wrong_phase_correction, REPORT, "",
     "error: closed-form circuit for {(0,0,0), (0,0,1)} fails verification"),
    (stripped_phase_gates, ["ghz", "triples", "--all"], "",
     "error: closed-form circuit for {(0,0,0), (0,0,1), (1,1,0)} fails verification: "
     "worst fidelity 0.0, not 1"),
    (stripped_phase_gates, REPORT, "", "fails verification"),
    (hidden_bell_witness, ["ghz", "triples", "--states", "0,0,0", "0,0,1", "1,0,0"], "",
     "error: {(0,0,0), (0,0,1), (1,0,0)}: clonable=False in closed form, "
     "yet the Bell-triple witness cut is None"),
    (hidden_bell_witness, REPORT, "", "yet the Bell-triple witness cut is None"),
    (audit_drift, REPORT, REPORT_HEAD, "audit (1,3) C: negativities"),
    # every W-basis blank gives the benchmarks' input factor, so W4 is compared too
    (audit_drift, ["w", "audit", "--blank", "W4"], W_AUDIT_HEAD, "audit (1,3) C: negativities"),
    (c_pairs_classified_as_b, ["w", "audit", "--pair", "1,3"], "",
     "error: pair (1,3) spans 4 at k=1, not 3 as a B witness"),
    # the report's abort also names the taxonomy split the fault made
    (c_pairs_classified_as_b, REPORT, "",
     "error: w pair taxonomy 6 A / 22 B / 0 C differs from the paper's 6 A / 10 B / 12 C; "
     "pair (1,3) spans 4 at k=1, not 3"),
    # w classify over all pairs checks the split as the report does, and runs no audit
    (c_pairs_classified_as_b, ["w", "classify", "--all"], W_CLASSIFY_HEAD,
     "w pair taxonomy 6 A / 22 B / 0 C differs from the paper's 6 A / 10 B / 12 C"),
    (swapped_schur_weights, ["w", "classify", "--all"], W_CLASSIFY_HEAD,
     "w pair taxonomy 0 A / 24 B / 4 C differs from the paper's 6 A / 10 B / 12 C"),
    (swapped_schur_weights, ["w", "audit", "--pair", "1,2"], "",
     "error: pair (1,2) at k=3: the shared direction is no common marginal eigenvector"),
    (swapped_schur_weights, REPORT, "",
     "error: w pair taxonomy 0 A / 24 B / 4 C differs from the paper's 6 A / 10 B / 12 C; "
     "pair (1,2) at k=3: the shared direction is no common marginal eigenvector"),
    (shifted_audit_value, ["w", "audit"], W_AUDIT_HEAD, "audit (1,6) I: negativities"),
    (shifted_audit_value, REPORT, REPORT_HEAD, "audit (1,6) I: negativities"),
    (commuting_span_4_reductions, ["w", "classify", "--pair", "1,3"], "",
     "error: pair (1,3) spans 4 at every cut but all reductions commute"),
    (commuting_span_4_reductions, REPORT, "",
     "pair (1,3) spans 4 at every cut but all reductions commute"),
    # the skew enters every state's parity blocks, so the input solve, which runs first,
    # sees 1e-6j on the diagonal of each row's mean blocks and blank blocks, and names
    # the first row
    (non_hermitian_output_transpose, ["w", "audit", "--pair", "1,6"], "",
     "error: pair (1,6) at k=3: operator is not Hermitian: largest |A - A^H| entry 2e-06"),
    (non_hermitian_output_transpose, REPORT, "",
     "error: pair (1,2) at k=2: operator is not Hermitian: largest |A - A^H| entry 2e-06"),
    (non_hermitian_pair_1_6, REPORT, "",
     "error: pair (1,6) at k=3: operator is not Hermitian: largest |A - A^H| entry 2e-06"),
    (wrong_parity_table, ["w", "audit", "--pair", "1,6"], "",
     "lie outside the register parity sectors"),
    (wrong_parity_table, REPORT, "", "lie outside the register parity sectors"),
    (lowered_scan_threshold, ["w", "lemma", "--step", "0.1"], "== scan ==",
     "violation at (0.2,0.2,0.4): min cut entropy 0.5827831343002603"),
    (lowered_scan_threshold, REPORT, REPORT_HEAD, "simplex scan recorded 34 violation(s)"),
    (lowered_certificate_threshold, ["w", "blank-check", "--params", "0.5,0.2,0.2"], "",
     "error: no deficient cut at 0.5,0.2,0.2; min entropy 0.6538875642054612"),
]


@pytest.mark.parametrize(
    "fault, argv, head, verdict", CASES,
    ids=[f"{fault.__name__}-{argv[0] if argv == REPORT else '-'.join(argv[:2])}"
         for fault, argv, *_ in CASES],
)
def test_fault_exits_1_naming_its_verdict(capsys, monkeypatch, fault, argv, head, verdict):
    fault(monkeypatch)
    code = cli.run_command(argv)
    out, err = capsys.readouterr()
    assert code == 1
    lines = err.splitlines()
    assert any(verdict in line for line in lines)
    if not head:  # an aborted check
        assert (out, len(lines)) == ("", 1)
        assert lines[0].startswith("error: ")
        return
    assert out.splitlines()[0] == head
    assert not any(line.startswith("error: ") for line in lines)
    if argv == REPORT:  # the document's notes section carries every note
        assert out.endswith("".join(f"{line}\n" for line in lines))
