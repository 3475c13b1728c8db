"""Command-line front end.

Subcommands and the flags each one reads:

    ghz clone --states 0,0,0 0,1,1 [--blank p,i,j]   circuit listing + fidelities
    ghz triples --all | --states A B C               clonability verdicts
    w classify --all | --pair m,n [--tol T]          pair taxonomy
    w audit [--pair m,n] [--blank W1] [--tol T] [--match-tol M]
                                                     negativity audits
    w lemma [--step S] [--radius R]                  parameter-simplex scan
    w blank-check --params a,b,c                     insufficient-cut certificate
    measure entropy --state LABEL --cut LIST         cut entropy in bits
    measure negativity --state LABEL --cut LIST      negativity across the cut
    report [--tol T] [--match-tol M] [--step S] [--radius R]
                                                     full bundle in one document

Every subcommand also takes --format table|json|csv and --out PATH; any
other flag is an error on a subcommand that does not read it.

State labels: GHZ as "p,i,j" bits, W basis as "W1".."W8", W-class as "a,b,c"
decimals, or "@path.json" for an amplitude file. Cut lists are 1-based
B-side qubit indices, e.g. "3" or "1,2".

Exit status: 0 on success, 1 when a verification check fails (no circuit,
benchmark mismatch, scan violations), 2 on invalid input. Reports go to
stdout or --out; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .ghz_cloning import (
    CloningInconsistency,
    NoCircuitFound,
    all_triples,
    synthesize_cloner,
    triple_clonability,
    verify_cloner,
)
from .measures import cut_entropy, negativity
from .registers import DEFAULT_RANK_TOL, Bipartition, StateVector, density, load_state
from .report import (
    SECTION_COLUMNS,
    RunConfig,
    audit_row,
    build_report,
    circuit_lines,
    classification_row,
    csv_text,
    emit_report,
    json_text,
    reference_mismatches,
    scan_rows,
    table_text,
    triple_row,
)
from .states import (
    parse_ghz_label,
    parse_state_label,
    parse_w_index,
    parse_wclass_params,
)
from .w_audit import (
    StructureMismatchError,
    WStatePointError,
    all_audit_records,
    all_pair_classifications,
    blank_insufficiency,
    classify_pair,
    lemma_scan,
    negativity_audit,
)

_CERT_COLUMNS = ("a", "b", "c", "d", "cut_index", "blank_entropy_bits", "required_bits")
_CLONE_COLUMNS = ("state", "fidelity", "blank", "circuit")


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args: argparse.Namespace, rows: list[dict], columns: Sequence[str]) -> None:
    if args.format == "json":
        text = json_text(rows)
    elif args.format == "csv":
        text = csv_text(rows, columns)
    else:
        text = table_text(rows, columns)
    _write(text, args.out)


def _parse_pair(text: str) -> tuple[int, int]:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"pair must be 'm,n', got {text!r}")
    try:
        m, n = (int(piece) for piece in parts)
    except ValueError:
        raise ValueError(f"pair members must be integers 1..8, got {text!r}") from None
    return m, n


def _load_state(label: str) -> StateVector:
    if label.startswith("@"):
        return load_state(label[1:])
    return parse_state_label(label)


def _cmd_ghz_clone(args: argparse.Namespace) -> int:
    members = sorted({parse_ghz_label(text) for text in args.states})
    blank = parse_ghz_label(args.blank)
    circuit = synthesize_cloner(members, blank)
    fidelities = verify_cloner(circuit, members)
    lines = circuit_lines(circuit)
    rows = [
        {
            "state": str(label),
            "fidelity": float(fidelities[label]),
            "blank": str(blank),
            "circuit": lines,
        }
        for label in members
    ]
    if args.format == "table":
        text_lines = [f"blank {blank}"] + lines
        for row in rows:
            text_lines.append(f"fidelity {row['state']} {row['fidelity']:.6g}")
        _write("\n".join(text_lines) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "blank": str(blank),
            "circuit": lines,
            "fidelities": [
                {"state": row["state"], "fidelity": row["fidelity"]} for row in rows
            ],
        }
        _write(json_text(payload), args.out)
    else:
        _write(csv_text(rows, _CLONE_COLUMNS), args.out)
    return 0


def _cmd_ghz_triples(args: argparse.Namespace) -> int:
    if args.all:
        items = [(triple, triple_clonability(triple)) for triple in all_triples()]
    else:
        members = tuple(sorted({parse_ghz_label(text) for text in args.states}))
        items = [(members, triple_clonability(members))]
    rows = [triple_row(members, verdict) for members, verdict in items]
    _emit_rows(args, rows, SECTION_COLUMNS["ghz_triples"])
    return 0


def _cmd_w_classify(args: argparse.Namespace) -> int:
    config = RunConfig(rank_tol=args.tol)
    if args.all:
        items = all_pair_classifications(config.rank_tol)
    else:
        m, n = _parse_pair(args.pair)
        items = (classify_pair(m, n, config.rank_tol),)
    rows = [classification_row(item) for item in items]
    _emit_rows(args, rows, SECTION_COLUMNS["w_classifications"])
    return 0


def _cmd_w_audit(args: argparse.Namespace) -> int:
    config = RunConfig(rank_tol=args.tol, match_tol=args.match_tol)
    blank = parse_w_index(args.blank)
    if args.pair:
        m, n = _parse_pair(args.pair)
        records = [negativity_audit(m, n, blank, config.rank_tol)]
    else:
        records = list(all_audit_records(blank, config.rank_tol))
    rows = [audit_row(record) for record in records]
    _emit_rows(args, rows, SECTION_COLUMNS["pairs"])
    notes = reference_mismatches(records, config.match_tol)
    for note in notes:
        print(note, file=sys.stderr)
    return 1 if notes else 0


def _cmd_w_lemma(args: argparse.Namespace) -> int:
    config = RunConfig(step=args.step, exclusion_radius=args.radius)
    scan = lemma_scan(config.step, config.exclusion_radius)
    summary, violations = scan_rows(scan)
    if args.format == "json":
        _write(json_text(dict(summary, violations=violations)), args.out)
    elif args.format == "csv":
        text = csv_text([summary], SECTION_COLUMNS["scan"])
        if violations:
            text += "\n[scan_violations]\n" + csv_text(
                violations, SECTION_COLUMNS["scan_violations"]
            )
        _write(text, args.out)
    else:
        text = table_text([summary], SECTION_COLUMNS["scan"])
        if violations:
            text += "\n" + table_text(violations, SECTION_COLUMNS["scan_violations"])
        _write(text, args.out)
    for params, entropy in scan.violations:
        print(f"violation at ({params}): min cut entropy {entropy!r}", file=sys.stderr)
    return 1 if scan.violations else 0


def _cmd_w_blank_check(args: argparse.Namespace) -> int:
    params = parse_wclass_params(args.params)
    cert = blank_insufficiency(params)
    row = {
        "a": float(params.a),
        "b": float(params.b),
        "c": float(params.c),
        "d": float(params.d),
        "cut_index": cert.cut_index,
        "blank_entropy_bits": float(cert.blank_entropy_bits),
        "required_bits": float(cert.required_bits),
    }
    _emit_rows(args, [row], _CERT_COLUMNS)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    state = _load_state(args.state)
    side_b = frozenset(int(token) - 1 for token in args.cut.split(","))
    cut = Bipartition(state.n_qubits, side_b)
    if args.quantity == "entropy":
        key, value = "entropy_bits", cut_entropy(state, cut).entropy_bits
    else:
        key, value = "negativity", negativity(density(state), cut)
    if args.format == "json":
        _write(json_text({key: float(value)}), args.out)
    else:
        _write(format(value, ".7g") + "\n", args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = RunConfig(
        rank_tol=args.tol,
        match_tol=args.match_tol,
        step=args.step,
        exclusion_radius=args.radius,
        output_format=args.format,
        out_path=args.out,
    )
    bundle = build_report(config)
    _write(emit_report(bundle, config.output_format), args.out)
    for note in bundle.notes:
        print(note, file=sys.stderr)
    return 1 if bundle.notes else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default table)",
    )
    common.add_argument("--out", metavar="PATH", help="write the report to PATH")
    rank = argparse.ArgumentParser(add_help=False)
    rank.add_argument(
        "--tol", type=float, default=DEFAULT_RANK_TOL, metavar="FLOAT",
        help="rank tolerance for support-span classification (default 1e-10)",
    )
    match = argparse.ArgumentParser(add_help=False)
    match.add_argument(
        "--match-tol", type=float, default=1e-3, dest="match_tol", metavar="FLOAT",
        help="allowed drift from the benchmark negativities (default 1e-3)",
    )
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument(
        "--step", type=float, default=0.02, metavar="FLOAT",
        help="simplex grid step, 0.002 to 0.1 (default 0.02)",
    )
    scan.add_argument(
        "--radius", type=float, default=0.05, metavar="FLOAT",
        help="L1 exclusion radius around the equal-weight point (default 0.05)",
    )

    parser = argparse.ArgumentParser(
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
        "classify", parents=[common, rank], help="pair categories with witness cuts"
    )
    pick = classify.add_mutually_exclusive_group(required=True)
    pick.add_argument("--all", action="store_true", help="all 28 pairs")
    pick.add_argument("--pair", metavar="m,n", help="one pair, e.g. 1,6")
    classify.set_defaults(handler=_cmd_w_classify)
    audit = w_sub.add_parser(
        "audit", parents=[common, rank, match], help="negativity before and after cloning"
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
        "report", parents=[common, rank, match, scan],
        help="run every analysis and emit one document",
    )
    report.set_defaults(handler=_cmd_report)
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv and run one subcommand, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return int(args.handler(args))
    except (NoCircuitFound, CloningInconsistency, StructureMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WStatePointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
