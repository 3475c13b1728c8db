"""Command-line front end.

Subcommands and the flags each one reads:

    ghz clone --states 0,0,0 0,1,1 [--blank p,i,j]   circuit listing + fidelities
    ghz triples --all | --states A B C               clonability verdicts
    w classify --all | --pair m,n                    pair taxonomy
    w audit [--pair m,n] [--blank W1]                negativity audits
    w lemma [--step S] [--radius R]                  parameter-simplex scan
    w blank-check --params a,b,c                     insufficient-cut certificate
    measure entropy --state LABEL --cut LIST         cut entropy in bits
    measure negativity --state LABEL --cut LIST      negativity across the cut
    report [--step S] [--radius R]                   every analysis in one document

Every subcommand also takes --format table|json|csv and --out PATH; any
other flag is an error on a subcommand that does not read it. Every format
goes through report.render, and each command prints the report's rows: a
one-section command prints its section bare, while w lemma prints the
report's scan and scan_violations sections under their names. ghz triples,
w classify and w audit select their items, one or all, then make the call
build_report makes, so their rows are its sections' by construction. report
adds its version and config head, and ends with a notes section in table and
csv alike. The table forms of ghz clone (a circuit listing) and measure (the
bare value to 7 digits) are their own; their csv has a header row and full
precision.

State labels, read by states.parse_state_label: GHZ as "p,i,j" bits, W basis
as "W1".."W8" and W-class as "a,b,c" ASCII decimals. Cut lists are 1-based
B-side qubit indices, e.g. "3" or "1,2".

Exit status: 0 on success and for --help. 2 on invalid input (ValueError,
OSError), usage errors such as an unknown flag or a missing subcommand
included, and a repeated GHZ label, which ghz_cloning refuses: one "error:"
line and no document. 1 when a check on a computed value fails
(VerificationError), as for the real GHZ no-go ghz clone --states 0,0,0
0,0,1 1,0,0: one "error:" line and no document. 1 also when the run computes
a verdict unlike the paper's (audit drift, scan violations, a taxonomy split,
which w classify --all and report both note through report.taxonomy_notes):
the document prints and its notes go to stderr. run_command alone maps notes
and exceptions to exit codes. Reports go to stdout or --out.

Each handler imports the analysis modules (ghz_cloning, w_taxonomy, w_audit,
measures, wclass) it runs when it runs, so a fresh process answering one query
pays to import only those. At import cli loads only exact and report, so the
ghz commands, w classify (w_taxonomy alone) and w blank-check (wclass alone)
run without numpy; w audit, w lemma, report and measure load it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING, NoReturn, Sequence

from .exact import Bipartition, VerificationError
from .exact import parse_decimal, parse_ghz_label, parse_w_index
from .report import (
    OUTPUT_FORMATS,
    build_report,
    cell_text,
    circuit_lines,
    emit_report,
    reference_mismatches,
    render,
    scan_document,
    scan_sections,
    taxonomy_notes,
    triple_row,
)

if TYPE_CHECKING:
    from .w_taxonomy import PairClassification


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(
    args: argparse.Namespace, document: object, sections: Sequence[tuple[str, list[dict]]]
) -> None:
    _write(render(document, sections, args.format), args.out)


def _ascii_number(token: str) -> int:
    """A number in ASCII digits; int() alone also reads other scripts' digits."""
    token = token.strip()
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not an ASCII number: {token!r}")
    return int(token)


def _scan_knob(text: str) -> float:
    """--step or --radius: an ASCII decimal, where nan and inf reach check_scan_inputs."""
    try:
        return parse_decimal(text)
    except ValueError:  # argparse words the message as it does for its own types
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"pair must be 'm,n', got {text!r}")
    try:
        m, n = (_ascii_number(piece) for piece in parts)
    except ValueError:
        raise ValueError(f"pair members must be integers 1..8, got {text!r}") from None
    return m, n


def _parse_cut(text: str, n_qubits: int) -> Bipartition:
    """A 1-based, comma-separated list of B-side qubits as a cut of n_qubits."""
    try:
        qubits = [_ascii_number(token) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"cut must be comma-separated qubit numbers, got {text!r}") from None
    for i, qubit in enumerate(qubits):
        if not 1 <= qubit <= n_qubits:
            raise ValueError(f"cut qubit {qubit} out of range 1..{n_qubits}")
        if qubit in qubits[:i]:
            raise ValueError(f"cut qubit {qubit} is repeated; give each qubit once")
    if len(qubits) == n_qubits:
        raise ValueError(f"cut {text!r} must leave at least one qubit on each side")
    return Bipartition(n_qubits, frozenset(qubit - 1 for qubit in qubits))


def _cmd_ghz_clone(args: argparse.Namespace) -> Sequence[str]:
    from .ghz_cloning import synthesize_cloner

    members = [parse_ghz_label(text) for text in args.states]
    blank = parse_ghz_label(args.blank)
    circuit = synthesize_cloner(members, blank)
    lines = circuit_lines(circuit)
    fidelities = [
        {"state": str(label), "fidelity": float(fidelity)}
        for label, fidelity in circuit.fidelities
    ]
    if args.format == "table":  # a circuit listing, not rows
        text_lines = [f"blank {blank}"] + lines
        for row in fidelities:
            text_lines.append(f"fidelity {row['state']} {cell_text(row['fidelity'], 'table')}")
        _write("\n".join(text_lines) + "\n", args.out)
        return ()
    rows = [dict(row, blank=str(blank), circuit=lines) for row in fidelities]
    document = {"blank": str(blank), "circuit": lines, "fidelities": fidelities}
    _emit(args, document, [("ghz_clone", rows)])
    return ()


def _cmd_ghz_triples(args: argparse.Namespace) -> Sequence[str]:
    from .ghz_cloning import all_triples, triple_clonability

    if args.all:
        triples = all_triples()
    else:
        triples = (tuple(sorted(parse_ghz_label(text) for text in args.states)),)
    rows = [triple_row(triple, triple_clonability(triple)) for triple in triples]
    _emit(args, rows, [("ghz_triples", rows)])
    return ()


def _pair_classifications(args: argparse.Namespace) -> Sequence[PairClassification]:
    """The pair --pair names, or all 28 pairs: the items of w classify and w audit."""
    from .w_taxonomy import all_pair_classifications, classify_pair

    if args.pair is not None:  # an empty --pair is an error, not all pairs
        return (classify_pair(*_parse_pair(args.pair)),)
    return all_pair_classifications()


def _cmd_w_classify(args: argparse.Namespace) -> Sequence[str]:
    items = _pair_classifications(args)
    rows = [item._asdict() for item in items]
    _emit(args, rows, [("w_classifications", rows)])
    return () if args.pair is not None else taxonomy_notes(items)  # one pair has no split


def _cmd_w_audit(args: argparse.Namespace) -> Sequence[str]:
    from .w_audit import audit_classified

    blank = parse_w_index(args.blank)
    records = audit_classified(_pair_classifications(args), blank)
    rows = [record._asdict() for record in records]
    _emit(args, rows, [("pairs", rows)])
    return reference_mismatches(records)


def _cmd_w_lemma(args: argparse.Namespace) -> Sequence[str]:
    from .w_audit import lemma_scan

    scan = lemma_scan(args.step, args.radius)
    document = scan_document(scan)
    _emit(args, document, scan_sections(document))
    return [f"violation at ({params}): min cut entropy {e!r}" for params, e in scan.violations]


def _cmd_w_blank_check(args: argparse.Namespace) -> Sequence[str]:
    from .wclass import W_CUT_ENTROPY_BITS, blank_insufficiency, parse_wclass_params

    params = parse_wclass_params(args.params)
    cut_index, entropy = blank_insufficiency(params)
    row = {
        **{key: float(getattr(params, key)) for key in "abcd"},
        "cut_index": cut_index,
        "blank_entropy_bits": entropy,
        "required_bits": W_CUT_ENTROPY_BITS,
    }
    _emit(args, [row], [("blank_check", [row])])
    return ()


def _cmd_measure(args: argparse.Namespace) -> Sequence[str]:
    from .measures import cut_entropy, negativity
    from .registers import density
    from .states import parse_state_label

    state = parse_state_label(args.state)
    cut = _parse_cut(args.cut, state.n_qubits)
    if args.quantity == "entropy":
        key, value = "entropy_bits", cut_entropy(state, cut).entropy_bits
    else:
        key, value = "negativity", negativity(density(state), cut)
    if args.format == "table":  # one value: the bare number, 7 significant digits
        _write(format(value, ".7g") + "\n", args.out)
    else:
        row = {key: float(value)}
        _emit(args, row, [(args.quantity, [row])])
    return ()


def _cmd_report(args: argparse.Namespace) -> Sequence[str]:
    document = build_report(args.step, args.radius)
    _write(emit_report(document, args.format), args.out)
    return document["notes"]


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so run_command words them."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=OUTPUT_FORMATS, default="table",
        help="output format (default table)",
    )
    common.add_argument("--out", metavar="PATH", help="write the report to PATH")
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument(
        "--step", type=_scan_knob, default=0.02, metavar="FLOAT",
        help="simplex grid step, 0.002 to 1/3 (default 0.02)",
    )
    scan.add_argument(
        "--radius", type=_scan_knob, default=0.05, metavar="FLOAT",
        help="L1 exclusion radius around the equal-weight point (default 0.05)",
    )

    parser = _Parser(
        prog="locclone",
        description="Local cloning analyses for three-qubit GHZ and W states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ghz = sub.add_parser("ghz", help="GHZ-basis cloning circuits")
    ghz_sub = ghz.add_subparsers(dest="ghz_command", required=True)
    clone = ghz_sub.add_parser(
        "clone", parents=[common], help="synthesize and verify a cloning circuit"
    )
    clone.add_argument(
        "--states", nargs="+", required=True, metavar="p,i,j",
        help="two or three GHZ labels to clone",
    )
    clone.add_argument(
        "--blank", default="0,0,0", metavar="p,i,j", help="blank copy label"
    )
    clone.set_defaults(handler=_cmd_ghz_clone)
    triples = ghz_sub.add_parser(
        "triples", parents=[common], help="clonability verdicts for GHZ triples"
    )
    pick = triples.add_mutually_exclusive_group(required=True)
    pick.add_argument("--all", action="store_true", help="survey all 56 triples")
    pick.add_argument("--states", nargs=3, metavar="p,i,j", help="one triple")
    triples.set_defaults(handler=_cmd_ghz_triples)

    w = sub.add_parser("w", help="W-basis taxonomy, audits, and the simplex scan")
    w_sub = w.add_subparsers(dest="w_command", required=True)
    classify = w_sub.add_parser(
        "classify", parents=[common], help="pair categories with witness cuts"
    )
    pick = classify.add_mutually_exclusive_group(required=True)
    pick.add_argument("--all", action="store_true", help="all 28 pairs")
    pick.add_argument("--pair", metavar="m,n", help="one pair, e.g. 1,6")
    classify.set_defaults(handler=_cmd_w_classify)
    audit = w_sub.add_parser(
        "audit", parents=[common], help="negativity before and after cloning"
    )
    audit.add_argument("--pair", metavar="m,n", help="audit one pair (default: all)")
    audit.add_argument("--blank", default="W1", metavar="Wn", help="blank copy (default W1)")
    audit.set_defaults(handler=_cmd_w_audit)
    lemma = w_sub.add_parser(
        "lemma", parents=[common, scan], help="scan the parameter simplex for threshold hits"
    )
    lemma.set_defaults(handler=_cmd_w_lemma)
    blank_check = w_sub.add_parser(
        "blank-check", parents=[common], help="certify a cut with entropy below threshold"
    )
    blank_check.add_argument(
        "--params", required=True, metavar="a,b,c", help="state parameters"
    )
    blank_check.set_defaults(handler=_cmd_w_blank_check)

    measure = sub.add_parser("measure", help="entropy and negativity of one state")
    measure_sub = measure.add_subparsers(dest="measure_command", required=True)
    for quantity, blurb in (
        ("entropy", "cut entropy in bits"),
        ("negativity", "negativity across the cut"),
    ):
        leaf = measure_sub.add_parser(quantity, parents=[common], help=blurb)
        leaf.add_argument("--state", required=True, metavar="LABEL", help="state label")
        leaf.add_argument(
            "--cut", required=True, metavar="LIST",
            help="1-based B-side qubit indices, e.g. 3 or 1,2",
        )
        leaf.set_defaults(handler=_cmd_measure, quantity=quantity)

    report = sub.add_parser(
        "report", parents=[common, scan],
        help="run every analysis and emit one document",
    )
    report.set_defaults(handler=_cmd_report)
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv, run one subcommand and print its notes, mapping the outcome to an exit code.

    The parser is built on the first call and reused for the rest of the
    process: parse_args returns a fresh Namespace and leaves the parser as
    it was, so one request cannot leak a value into the next.
    """
    try:
        args = build_parser().parse_args(list(argv))
        notes = args.handler(args)
    except SystemExit:  # --help printed its text; usage errors raise ValueError
        return 0
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(note, file=sys.stderr)
    return 1 if notes else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
