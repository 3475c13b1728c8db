"""Exit codes and output of the command-line front end."""
from __future__ import annotations

import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from locclone import cli, ghz_cloning, registers, report, w_audit
from locclone.cli import run_command
from locclone.registers import VerificationError
from locclone.report import build_report
from locclone.w_audit import audit_classified
from locclone.w_taxonomy import all_pair_classifications


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clone_pair_table(capsys):
    code, out, err = run(capsys, "ghz", "clone", "--states", "0,0,0", "0,1,1")
    assert code == 0
    assert "blank 0,0,0" in out
    assert "CNOT orig->clone" in out
    assert "fidelity 0,0,0 1" in out
    assert "fidelity 0,1,1 1" in out
    assert err == ""


def test_clone_triple_json(capsys):
    code, out, _ = run(
        capsys,
        "ghz", "clone", "--states", "0,0,0", "1,0,1", "0,1,0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["circuit"][0] == "CNOT orig->clone"
    assert len(payload["fidelities"]) == 3
    assert all(row["fidelity"] == 1.0 for row in payload["fidelities"])


def test_clone_no_go_triple_fails(capsys):
    code, out, err = run(capsys, "ghz", "clone", "--states", "0,0,0", "0,0,1", "1,0,0")
    assert code == 1
    assert "no local circuit clones" in err
    assert out == ""


def test_clone_bad_label(capsys):
    code, _, err = run(capsys, "ghz", "clone", "--states", "0,0", "0,1,1")
    assert code == 2
    assert "error:" in err


def test_triples_all_json(capsys):
    code, out, _ = run(capsys, "ghz", "triples", "--all", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 56
    assert sum(1 for row in rows if row["clonable"]) == 32


def test_triples_single_witness(capsys):
    code, out, _ = run(capsys, "ghz", "triples", "--states", "0,0,0", "0,0,1", "1,0,0")
    assert code == 0
    assert "12|3" in out


def test_triples_requires_a_pick(capsys):
    code, _, _ = run(capsys, "ghz", "triples")
    assert code == 2


def test_classify_pair_json(capsys):
    code, out, _ = run(capsys, "w", "classify", "--pair", "1,6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["category"] == "B"
    assert rows[0]["witness_k"] == 3


def test_classify_all_csv(capsys):
    code, out, _ = run(capsys, "w", "classify", "--all", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 29  # header + 28 pairs


def test_audit_pair_matches_benchmark(capsys):
    code, out, err = run(capsys, "w", "audit", "--pair", "1,6")
    assert code == 0
    assert err == ""
    assert "1.89097" in out
    assert "2.14597" in out


def test_audit_all_pairs_json_is_every_record(capsys):
    code, out, err = run(capsys, "w", "audit", "--blank", "W4", "--format", "json")
    assert code == 0
    assert err == ""
    rows = json.loads(out)
    assert len(rows) == 28
    assert rows == [record._asdict() for record in audit_classified(all_pair_classifications(), 4)]


def test_audit_repeated_member(capsys):
    code, _, err = run(capsys, "w", "audit", "--pair", "1,1")
    assert code == 2
    assert "must differ" in err


@pytest.mark.parametrize("command", ["classify", "audit"])
def test_an_empty_pair_is_refused_not_read_as_all_pairs(capsys, command):
    code, out, err = run(capsys, "w", command, "--pair", "")
    assert (code, out, err) == (2, "", "error: pair must be 'm,n', got ''\n")


def test_audit_tiny_match_tol_reports_drift(capsys, monkeypatch):
    ref_in, ref_out = report.REFERENCE_NEGATIVITIES["I"]
    monkeypatch.setitem(report.REFERENCE_NEGATIVITIES, "I", (ref_in + 1e-2, ref_out))
    code, _, err = run(capsys, "w", "audit", "--pair", "1,6")
    assert code == 1
    assert "stray" in err


def test_lemma_scan_json(capsys):
    code, out, _ = run(capsys, "w", "lemma", "--step", "0.1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points_tested"] == 120
    assert payload["violation_count"] == 0
    assert payload["violations"] == []


def test_lemma_step_out_of_range(capsys):
    code, _, err = run(capsys, "w", "lemma", "--step", "0.5")
    assert code == 2
    assert "step" in err


def test_blank_check_certificate(capsys):
    code, out, _ = run(
        capsys, "w", "blank-check", "--params", "0.5,0.2,0.2", "--format", "csv"
    )
    assert code == 0
    assert "0.6538875642054612" in out
    assert "0.9182958340544896" in out


def test_blank_check_rejects_the_w_point(capsys):
    third = repr(1.0 / 3.0)
    code, _, err = run(capsys, "w", "blank-check", "--params", ",".join([third] * 3))
    assert code == 2
    assert "threshold" in err


def test_blank_check_malformed_params(capsys):
    code, _, _ = run(capsys, "w", "blank-check", "--params", "0.5,0.2")
    assert code == 2


def test_measure_entropy_ghz(capsys):
    code, out, _ = run(capsys, "measure", "entropy", "--state", "0,0,0", "--cut", "3")
    assert code == 0
    assert out.strip() == "1"


def test_measure_entropy_w_state(capsys):
    code, out, _ = run(capsys, "measure", "entropy", "--state", "W1", "--cut", "3")
    assert code == 0
    assert out.strip() == "0.9182958"


def test_measure_negativity_w_state_json(capsys):
    code, out, _ = run(
        capsys,
        "measure", "negativity", "--state", "W1", "--cut", "3", "--format", "json",
    )
    assert code == 0
    value = json.loads(out)["negativity"]
    assert abs(value - 2.0 * np.sqrt(2.0) / 3.0) < 1e-9


def test_measure_entropy_wclass_point(capsys):
    code, out, _ = run(capsys, "measure", "entropy", "--state", "0.4,0.3,0.3", "--cut", "1")
    assert code == 0
    assert out.strip() == "0.8812909"


def test_measure_missing_file(capsys, tmp_path):
    code, out, err = run(
        capsys, "measure", "entropy", "--state", f"@{tmp_path}/absent.json", "--cut", "1"
    )
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized state label '@{tmp_path}/absent.json'\n"


def test_measure_bad_w_index(capsys):
    code, _, _ = run(capsys, "measure", "entropy", "--state", "W9", "--cut", "1")
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag(capsys):
    code, _, _ = run(capsys, "report", "--verbose")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "ghz" in out


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    path = tmp_path / "verdicts.json"
    code, out, _ = run(
        capsys,
        "ghz", "triples", "--all", "--format", "json", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert len(json.loads(path.read_text())) == 56


def test_report_runs_are_byte_identical(capsys, tmp_path):
    path = tmp_path / "report.json"
    argv = ["report", "--format", "json", "--step", "0.1", "--out", str(path)]
    assert run_command(argv) == 0
    first = path.read_bytes()
    assert run_command(argv) == 0
    second = path.read_bytes()
    capsys.readouterr()
    assert first == second
    payload = json.loads(first)
    assert len(payload["pairs"]) == 28
    assert payload["notes"] == []


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


# each pair of neighbours would leak a value if parsing mutated the parser:
# the blank, measure's per-leaf quantity default, and the scan step
_REUSE_SEQUENCE = (
    ("ghz", "clone", "--states", "0,0,0", "0,1,1", "--blank", "0,1,1"),
    ("ghz", "clone", "--states", "0,0,0", "0,1,1"),
    ("measure", "negativity", "--state", "W1", "--cut", "3"),
    ("measure", "entropy", "--state", "W1", "--cut", "3"),
    ("report", "--format", "xml"),
    ("w", "lemma", "--step", "0.05"),
    ("w", "lemma"),
)


def test_reused_parser_answers_like_a_fresh_one(capsys):
    cli.build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in _REUSE_SEQUENCE]
    assert cli.build_parser.cache_info().misses == 1
    for argv, got in zip(_REUSE_SEQUENCE, reused):
        cli.build_parser.cache_clear()
        assert got == run(capsys, *argv), argv
    clone_blank, clone_default, neg, entropy, bad_format, lemma_fine, lemma = reused
    assert "blank 0,1,1" in clone_blank[1]
    assert "blank 0,0,0" in clone_default[1]
    assert (neg[1], entropy[1]) == ("0.942809\n", "0.9182958\n")
    assert _one_line_error(*bad_format)
    assert bad_format[2].startswith("error: argument --format: invalid choice: 'xml'")
    assert " 1140 " in lemma_fine[1] and " 19600 " in lemma[1]


def _one_line_error(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_lemma_rejects_nan_radius(capsys):
    assert _one_line_error(*run(capsys, "w", "lemma", "--radius", "nan"))


def test_lemma_rejects_inf_radius_csv(capsys):
    assert _one_line_error(*run(capsys, "w", "lemma", "--radius", "inf", "--format", "csv"))


def test_report_rejects_nan_radius(capsys):
    assert _one_line_error(*run(capsys, "report", "--radius", "nan", "--format", "csv"))


def test_lemma_rejects_radius_covering_the_grid(capsys):
    code, out, err = run(capsys, "w", "lemma", "--radius", "2")
    assert _one_line_error(code, out, err)
    assert "outside the ball" in err


def test_lemma_rejects_step_below_floor(capsys):
    code, out, err = run(capsys, "w", "lemma", "--step", "1e-9")
    assert _one_line_error(code, out, err)
    assert "step" in err


def test_seed_flag_is_gone(capsys):
    code, _, err = run(capsys, "report", "--seed", "1")
    assert code == 2
    assert "--seed" in err


_LEAF_ARGV = {
    "ghz clone": ["ghz", "clone", "--states", "0,0,0", "0,1,1"],
    "ghz triples": ["ghz", "triples", "--all"],
    "w classify": ["w", "classify", "--pair", "1,6"],
    "w audit": ["w", "audit", "--pair", "1,6"],
    "w lemma": ["w", "lemma", "--step", "0.1"],
    "w blank-check": ["w", "blank-check", "--params", "0.5,0.2,0.2"],
    "measure entropy": ["measure", "entropy", "--state", "W1", "--cut", "3"],
    "measure negativity": ["measure", "negativity", "--state", "W1", "--cut", "3"],
    "report": ["report", "--step", "0.1"],
}
_FLAG_READERS = {
    "--tol": set(),  # the rank and match tolerances are fixed constants
    "--match-tol": set(),
    "--step": {"w lemma", "report"},
    "--radius": {"w lemma", "report"},
}


@pytest.mark.parametrize(
    "leaf, flag",
    [
        (leaf, flag)
        for flag, readers in _FLAG_READERS.items()
        for leaf in _LEAF_ARGV
        if leaf not in readers
    ],
)
def test_flag_on_a_subcommand_that_ignores_it(capsys, leaf, flag):
    code, out, err = run(capsys, *_LEAF_ARGV[leaf], flag, "0.05")
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "content",
    [
        "[1,0]",
        '{"a":1}',
        "[[1,0,5],[0,0],[0,0],[0,0]]",
        "[[NaN,0],[1,0],[0,0],[0,0]]",
        "[[true,0],[0,0],[0,0],[0,0]]",
        '[["1",0],[0,0],[0,0],[0,0]]',
        "[[1" + "0" * 400 + ",0],[0,0],[0,0],[0,0]]",
        json.dumps([[2048 ** -0.5, 0.0]] * 2048),  # a normalized 11-qubit state
        "[" * 100000 + "]" * 100000,
    ],
    ids=["flat", "object", "triple", "nan", "bool", "string", "huge-int", "11-qubit", "deep"],
)
@pytest.mark.filterwarnings("error")  # a NaN must not get as far as a numpy warning
def test_measure_rejects_malformed_state_file(capsys, monkeypatch, tmp_path, content):
    """An @ label is refused as a label, before any file is read or matrix built."""
    def no_density(state):
        raise AssertionError(f"density of a {state.n_qubits}-qubit state was built")

    monkeypatch.setattr(registers, "density", no_density)
    path = tmp_path / "state.json"
    path.write_text(content)
    argv = ["measure", "negativity", "--state", f"@{path}", "--cut", "1"]
    assert run(capsys, *argv) == (2, "", f"error: unrecognized state label '@{path}'\n")


def _state_file(data, name="state.json"):
    """An argv entry that writes data to a file and names it as an @ label."""
    def make(tmp_path):
        path = tmp_path / name
        path.write_bytes(data)
        return f"@{path}"
    return make


_STATE_ARGV = ["measure", "entropy", "--cut", "1", "--state"]


_FAILURES = [
    (["ghz", "clone", "--states", "0,0,0"], 2, "need 2 or 3 distinct GHZ labels, got 1"),
    (["ghz", "clone", "--states", "0,0,0", "0,0,1", "0,1,0", "1,0,0"], 2,
     "need 2 or 3 distinct GHZ labels, got 4"),
    (["ghz", "clone", "--states", "0,0,0", "0,1,1", "--blank", "2,0,0"], 2,
     "GHZ label must be three bits 'p,i,j', got '2,0,0'"),
    (["ghz", "triples", "--states", "0,0,0", "0,0,0", "0,1,1"], 2,
     "GHZ label 0,0,0 is repeated"),
    (["w", "classify", "--pair", "1,2,3"], 2, "pair must be 'm,n', got '1,2,3'"),
    (["w", "audit", "--pair", "a,b"], 2, "pair members must be integers 1..8, got 'a,b'"),
    (["w", "audit", "--blank", "W9"], 2, "W basis label must be W1..W8, got 'W9'"),
    (["w", "blank-check", "--params", "0.5,0.5,0.5"], 2, "parameters must satisfy a+b+c <= 1"),
    (["measure", "entropy", "--state", "W1", "--cut", "0"], 2,
     "cut qubit 0 out of range 1..3"),
    (["measure", "negativity", "--state", "W1", "--cut", "1,2,3"], 2,
     "cut '1,2,3' must leave at least one qubit on each side"),
    (["measure", "entropy", "--state", "W1", "--cut", "x"], 2,
     "cut must be comma-separated qubit numbers, got 'x'"),
    # no @ label is read, whatever its path holds
    ([*_STATE_ARGV, lambda tmp: f"@{tmp}"], 2, lambda tmp: f"unrecognized state label '@{tmp}'"),
    ([*_STATE_ARGV, _state_file(b"\xff\xfe[")], 2,
     lambda tmp: f"unrecognized state label '@{tmp}/state.json'"),
    ([*_STATE_ARGV, _state_file(b"")], 2,
     lambda tmp: f"unrecognized state label '@{tmp}/state.json'"),
    (["w", "classify", "--all", "--out", lambda tmp: f"{tmp}/absent/out.txt"], 2,
     "No such file or directory"),
    (["ghz", "clone", "--states", "0,0,0", "0,0,1", "1,0,0"], 1,
     "no local circuit clones {(0,0,0), (0,0,1), (1,0,0)}"),  # a real no-go
    (["ghz", "clone", "--states", "0,0,0", "0,0,0", "0,1,1"], 2,
     "GHZ label 0,0,0 is repeated; give distinct labels"),
    ([*_STATE_ARGV, _state_file(b"[" * 100_000 + b"]" * 100_000, "deep.json")], 2,
     lambda tmp: f"unrecognized state label '@{tmp}/deep.json'"),
    ([*_STATE_ARGV, _state_file(b'{"a":1}', "obj.json")], 2,
     lambda tmp: f"unrecognized state label '@{tmp}/obj.json'"),
    (["w", "audit", "--blank", "W\u00b2"], 2, "W basis label must be W1..W8, got 'W\u00b2'"),
    # Arabic-Indic digits, which int() reads as 1 and 3
    (["w", "classify", "--pair", "\u0661,\u0663"], 2,
     "pair members must be integers 1..8, got '\u0661,\u0663'"),
    (["measure", "entropy", "--state", "W1", "--cut", "\u0661"], 2,
     "cut must be comma-separated qubit numbers, got '\u0661'"),
    # the equal-weight point is bad input, not a failed check
    (["w", "blank-check", "--params", "0.3333333333,0.3333333333,0.3333333334"], 2,
     "the equal-weight three-term point needs the full threshold"),
    # decimals too are ASCII only: float() reads these as 0.1, 0.2, 0.3 and 0.1
    (["w", "blank-check", "--params", "\u0660.\u0661,\u0660.\u0662,\u0660.\u0663"], 2,
     "not an ASCII decimal: '\u0660.\u0661'"),
    (["measure", "entropy", "--state", "\u0660.\u0661,\u0660.\u0662,\u0660.\u0663",
      "--cut", "1"], 2, "not an ASCII decimal: '\u0660.\u0661'"),
    (["w", "blank-check", "--params", "0.1_0,0.2,0.3"], 2, "not an ASCII decimal: '0.1_0'"),
    # usage errors: one error line, with no usage block before it
    (["w", "lemma", "--step", "abc"], 2, "argument --step: invalid float value: 'abc'"),
    (["w", "classify", "--all", "--bogus"], 2, "unrecognized arguments: --bogus"),
    ([], 2, "the following arguments are required: command"),
    (["report", "--format", "xml"], 2, "argument --format: invalid choice: 'xml'"),
    # a valid amplitude file too: the labels are the paper's GHZ, W and W-class states only
    ([*_STATE_ARGV, _state_file(b"[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]", "valid.json")],
     2, lambda tmp: f"error: unrecognized state label '@{tmp}/valid.json'"),
]


@pytest.mark.parametrize(
    "argv, code, message", _FAILURES,
    ids=[f"argv{i}-{code}" for i, (_, code, _) in enumerate(_FAILURES)],
)
def test_failure_exits_with_one_error_line(capsys, tmp_path, argv, code, message):
    argv = [arg(tmp_path) if callable(arg) else arg for arg in argv]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (message(tmp_path) if callable(message) else message) in err


@pytest.mark.parametrize("command", [["w", "lemma"], ["report"]])
@pytest.mark.parametrize("flag, value", [
    ("--step", "\u0660.\u0661"), ("--radius", "\u0660.\u0661"), ("--step", "0.0_5"),
])
def test_scan_knobs_take_ascii_decimals_only(capsys, command, flag, value):
    code, out, err = run(capsys, *command, flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: argument {flag}: invalid float value: {value!r}\n"


def test_report_table_matches_the_golden_file(capsys):
    """Tables round to 6 significant digits, so the last bits of LAPACK cannot move them."""
    code, out, err = run(capsys, "report", "--step", "0.1", "--format", "table")
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "golden" / "report_step_0.1.txt").read_text("utf-8")


def test_lemma_json_matches_the_golden_file(capsys):
    """The scan's json at its default step, every bit of grid_max_entropy_bits included."""
    code, out, err = run(capsys, "w", "lemma", "--format", "json")
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "golden" / "lemma_step_0.02.json").read_text("utf-8")


def _csv_cell(value):
    """A json value as csv spells it: floats by repr, lists joined by "; "."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "; ".join(value)
    return str(value)


def test_report_csv_is_a_view_of_its_json(capsys):
    """Each csv section holds the json document's rows cell by cell, in its key order."""
    document = json.loads(run(capsys, "report", "--step", "0.1", "--format", "json")[1])
    code, out, err = run(capsys, "report", "--step", "0.1", "--format", "csv")
    assert (code, err) == (0, "")
    scan = document["scan"]
    expected = {
        "config": [document["config"]],
        **{name: document[name] for name in ("ghz_pairs", "ghz_triples", "w_classifications",
                                             "pairs")},
        "scan": [{key: value for key, value in scan.items() if key != "violations"}],
        "scan_violations": scan["violations"],
        "notes": [{"note": note} for note in document["notes"]],
    }
    version, config, *sections = out.split("\n\n")
    assert version == f"version,{document['version']}"
    titles = [section.partition("\n")[0] for section in sections]
    assert titles == [f"[{name}]" for name in list(expected)[1:]]
    bodies = [config] + [section.partition("\n")[2] for section in sections]
    for (name, rows), body in zip(expected.items(), bodies):
        header, *cells = csv.reader(io.StringIO(body))
        assert all(list(row) == header for row in rows), name
        assert cells == [[_csv_cell(value) for value in row.values()] for row in rows], name
    assert len(expected["ghz_triples"]) == 56 and expected["scan"][0]["points_tested"] == 120


def test_fixed_csv_headers_match_the_rows_they_head(capsys, monkeypatch):
    """scan_violations and notes keep a fixed csv header for a healthy run, which
    leaves them empty; filled by faults, their rows' keys must give that header."""
    monkeypatch.setattr(w_audit, "W_CUT_ENTROPY_BITS", 0.5)
    monkeypatch.setitem(report.REFERENCE_TAXONOMY, "A", 7)
    code, out, err = run(capsys, "report", "--step", "0.1", "--format", "csv")
    assert code == 1 and err
    blocks = dict(block.partition("\n")[::2] for block in out.split("\n\n"))
    for name, header in report.FIXED_CSV_HEADERS.items():
        first, *rows = csv.reader(io.StringIO(blocks[f"[{name}]"]))
        assert first == list(header) and rows, name


def test_every_src_exception_is_a_verification_error():
    """run_command maps VerificationError to exit 1 and ValueError or OSError to 2.

    Any other exception type defined in src/ would escape both arms, so every
    one must derive from VerificationError.
    """
    package = Path(cli.__file__).parent
    modules = [importlib.import_module(f"locclone.{path.stem}")
               for path in sorted(package.glob("*.py")) if not path.stem.startswith("__")]
    defined = {
        name: obj for module in modules for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert {"VerificationError", "NoCircuitFound", "CloningInconsistency",
            "StructureMismatchError"} <= set(defined)
    assert [name for name, obj in defined.items() if not issubclass(obj, VerificationError)] == []


@pytest.mark.parametrize("states", [
    ["0,0,0", "0,0,0", "0,1,1"],
    ["0,1,1", "0,0,0", "0,0,0"],
    ["0,0,0", "0,1,1", "0,0,0"],
])
def test_triples_name_a_repeated_member(capsys, states):
    code, out, err = run(capsys, "ghz", "triples", "--states", *states)
    assert (code, out) == (2, "")
    assert err == "error: GHZ label 0,0,0 is repeated; give distinct labels\n"


@pytest.mark.parametrize("states", [
    ["0,0,0", "0,0,0", "0,1,1"],
    ["0,1,1", "0,0,0", "0,0,0"],
    ["0,0,0", "0,0,0"],
])
def test_clone_names_a_repeated_member(capsys, states):
    code, out, err = run(capsys, "ghz", "clone", "--states", *states)
    assert (code, out) == (2, "")
    assert err == "error: GHZ label 0,0,0 is repeated; give distinct labels\n"


@pytest.mark.parametrize("cut", ["1,1", "2,1,2", "1,2,3,3"])
def test_measure_names_a_repeated_cut_qubit(capsys, cut):
    repeated = cut.split(",")[-1]
    code, out, err = run(capsys, "measure", "entropy", "--state", "W1", "--cut", cut)
    assert (code, out) == (2, "")
    assert err == f"error: cut qubit {repeated} is repeated; give each qubit once\n"


def _csv_block(text, name):
    """The lines of one [name] block of a sectioned csv document, title included."""
    start = text.index(f"[{name}]\n")
    end = text.find("\n\n[", start)
    return text[start:] if end < 0 else text[start:end + 1]


def test_commands_share_the_report_sections(capsys):
    scan_argv = ["--step", "0.1", "--radius", "0.1"]
    report_csv = run(capsys, "report", *scan_argv, "--format", "csv")[1]
    lemma_csv = run(capsys, "w", "lemma", *scan_argv, "--format", "csv")[1]
    assert lemma_csv == _csv_block(report_csv, "scan") + "\n" + _csv_block(
        report_csv, "scan_violations"
    )
    report_json = json.loads(run(capsys, "report", *scan_argv, "--format", "json")[1])
    lemma_json = json.loads(run(capsys, "w", "lemma", *scan_argv, "--format", "json")[1])
    assert lemma_json == report_json["scan"]
    classify_csv = run(capsys, "w", "classify", "--all", "--format", "csv")[1]
    block = _csv_block(report_csv, "w_classifications")
    assert classify_csv == block.split("\n", 1)[1]


def test_lemma_table_has_the_report_scan_sections(capsys):
    code, out, _ = run(capsys, "w", "lemma", "--step", "0.1")
    assert code == 0
    assert out.startswith("== scan ==\nstep")
    assert out.endswith("\n\n== scan_violations ==\n(none)\n")


def test_measure_csv_has_a_header_and_full_precision(capsys):
    code, out, _ = run(
        capsys, "measure", "entropy", "--state", "W1", "--cut", "3", "--format", "csv"
    )
    assert code == 0
    assert out == "entropy_bits\n0.9182958340544893\n"


def test_report_flags_a_taxonomy_unlike_the_paper(capsys, monkeypatch):
    argv = ["report", "--step", "0.1"]
    with monkeypatch.context() as patch:
        patch.setattr(report, "REFERENCE_TAXONOMY", {"A": 7, "B": 9, "C": 12})
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 1
        notes = json.loads(out)["notes"]
        assert notes == ["w pair taxonomy 6 A / 10 B / 12 C differs from the paper's "
                         "7 A / 9 B / 12 C"]
        assert err == notes[0] + "\n"
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out.endswith(f"\n[notes]\nnote\n{notes[0]}\n")
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == 0
    assert json.loads(out)["notes"] == []


def test_report_out_writes_what_stdout_gets(capsys, tmp_path):
    path = tmp_path / "report.csv"
    argv = ["report", "--step", "0.1", "--format", "csv"]
    assert run_command([*argv, "--out", str(path)]) == 0
    assert path.read_text() == run(capsys, *argv)[1]


def test_each_clone_is_simulated_once(capsys, monkeypatch):
    calls = []
    original = ghz_cloning.apply_monomial

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ghz_cloning, "apply_monomial", counting)
    code, _, _ = run(capsys, "ghz", "clone", "--states", "0,0,0", "1,0,1", "0,1,0")
    assert code == 0
    assert len(calls) == 3
    calls.clear()
    build_report(0.1, 0.05)
    assert len(calls) == 2 * 28 + 3 * 32  # 28 pairs and 32 clonable triples


def test_section_commands_make_the_report_call(capsys, monkeypatch):
    """w audit and ghz triples run build_report's own call on the items they pick."""
    batches, triples = [], []
    audit, clonability = w_audit.audit_classified, ghz_cloning.triple_clonability

    def counting_audit(pairs, blank=1):
        batches.append(len(pairs))
        return audit(pairs, blank)

    def counting_clonability(triple):
        triples.append(triple)
        return clonability(triple)

    def no_wrapper(*args):
        raise AssertionError("a command audited through negativity_audit")

    monkeypatch.setattr(w_audit, "audit_classified", counting_audit)
    monkeypatch.setattr(w_audit, "negativity_audit", no_wrapper)
    monkeypatch.setattr(ghz_cloning, "triple_clonability", counting_clonability)
    for argv, want in (
        (["w", "audit", "--pair", "1,6"], [1]),
        (["w", "audit"], [28]),
        (["report", "--step", "0.1"], [28]),
    ):
        batches.clear()
        assert run(capsys, *argv)[0] == 0
        assert batches == want, argv
    triples.clear()
    assert run(capsys, "ghz", "triples", "--states", "0,0,0", "0,0,1", "1,0,0")[0] == 0
    assert len(triples) == 1


@pytest.mark.parametrize("blank", ["W1", "W4"])
def test_each_audit_pair_alone_prints_its_row_of_all_pairs(capsys, blank):
    code, out, _ = run(capsys, "w", "audit", "--blank", blank, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 28
    for row in rows:
        pair = f"{row['m']},{row['n']}"
        code, out, _ = run(capsys, "w", "audit", "--pair", pair, "--blank", blank,
                           "--format", "json")
        assert (code, out) == (0, report.json_text([row])), pair


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with this checkout's src first on its import path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=False)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["ghz", "clone", "--states", "0,0,0", "0,1,1", "--format", "json"]
    done = _fresh_python("-m", "locclone", *argv)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


def _cold_modules(script: str, *argv: str) -> set[str]:
    """The locclone submodules, numpy and dataclasses that a new interpreter holds after
    running script."""
    listing = ("\nimport sys\nprint(*(m for m in sys.modules"
               " if m.startswith('locclone.') or m in ('numpy', 'dataclasses')))")
    done = _fresh_python("-c", script + listing, *argv)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_locclone_loads_no_submodule():
    assert _cold_modules("import locclone") == set()


def test_the_w_taxonomy_loads_no_numpy():
    assert _cold_modules("import locclone.w_taxonomy") == {"locclone.w_taxonomy", "locclone.exact"}


@pytest.mark.parametrize("module", ["exact", "wclass", "ghz_cloning"])
def test_the_record_modules_load_no_dataclasses(module):
    """dataclasses loads inspect, which a cold query would pay for; the records are NamedTuples."""
    assert "dataclasses" not in _cold_modules(f"import locclone.{module}")


ABSENT_FROM_GHZ = {"locclone.w_audit", "locclone.measures", "numpy"}


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (["ghz", "clone", "--states", "0,0,0", "0,1,1"], {"locclone.ghz_cloning"}, ABSENT_FROM_GHZ),
        (["w", "audit", "--pair", "1,6"], {"locclone.w_audit", "locclone.measures", "numpy"},
         {"locclone.ghz_cloning"}),
        # the one-point certificate runs on plain floats
        (["w", "blank-check", "--params", "0.2,0.3,0.1"], {"locclone.wclass"},
         {"locclone.w_audit", "locclone.measures", "locclone.states", "locclone.registers",
          "numpy", "locclone.ghz_cloning"}),
        (["ghz", "triples", "--states", "0,0,0", "0,1,1", "1,0,1"], {"locclone.ghz_cloning"},
         ABSENT_FROM_GHZ),
        # the pair taxonomy runs on plain ints
        (["w", "classify", "--pair", "1,6"], {"locclone.w_taxonomy"},
         {"locclone.w_audit", "locclone.measures", "locclone.states", "locclone.registers",
          "numpy", "locclone.ghz_cloning"}),
    ],
)
def test_a_cold_command_imports_only_the_analyses_it_runs(tmp_path, argv, loaded, absent):
    """Each fresh process pays to import what it loads, so a query loads only its analysis.

    The GHZ commands and w classify run on plain ints and w blank-check on plain
    floats, so they load no numpy; w audit must load it, which keeps the numpy check
    able to fail. No command loads dataclasses, which brings inspect; numpy does not
    load it either, so w audit checks that too.
    """
    script = "import sys\nfrom locclone.cli import run_command\nassert run_command(sys.argv[1:]) == 0"
    modules = _cold_modules(script, *argv, "--out", str(tmp_path / "out"))
    assert loaded <= modules
    assert not modules & (absent | {"dataclasses"})
