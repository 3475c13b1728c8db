"""Exit codes and output of the command-line front end."""
from __future__ import annotations

import json

import numpy as np
import pytest

from locclone.cli import run_command
from locclone.registers import make_pure, save_state


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
    assert all(row["fidelity"] > 1 - 1e-9 for row in payload["fidelities"])


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


def test_audit_repeated_member(capsys):
    code, _, err = run(capsys, "w", "audit", "--pair", "1,1")
    assert code == 2
    assert "must differ" in err


def test_audit_tiny_match_tol_reports_drift(capsys):
    code, _, err = run(capsys, "w", "audit", "--pair", "1,6", "--match-tol", "1e-9")
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


def test_measure_state_from_file(capsys, tmp_path):
    path = tmp_path / "product.json"
    save_state(make_pure(np.array([1, 0, 0, 0], dtype=complex)), str(path))
    code, out, _ = run(
        capsys, "measure", "negativity", "--state", f"@{path}", "--cut", "1"
    )
    assert code == 0
    assert out.strip() == "0"


def test_measure_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "measure", "entropy", "--state", f"@{tmp_path}/absent.json", "--cut", "1"
    )
    assert code == 2
    assert "error:" in err


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


def test_classify_rejects_infinite_tol(capsys):
    code, out, err = run(capsys, "w", "classify", "--pair", "1,6", "--tol", "inf")
    assert _one_line_error(code, out, err)
    assert "rank_tol" in err


def test_audit_rejects_nan_match_tol(capsys):
    code, out, err = run(capsys, "w", "audit", "--pair", "1,6", "--match-tol", "nan")
    assert _one_line_error(code, out, err)
    assert "match_tol" in err


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
    "--tol": {"w classify", "w audit", "report"},
    "--match-tol": {"w audit", "report"},
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
    ],
    ids=["flat", "object", "triple", "nan", "bool", "string", "huge-int"],
)
@pytest.mark.filterwarnings("error")  # a NaN must not get as far as a numpy warning
def test_measure_rejects_malformed_state_file(capsys, tmp_path, content):
    path = tmp_path / "state.json"
    path.write_text(content)
    argv = ["measure", "entropy", "--state", f"@{path}", "--cut", "1"]
    assert _one_line_error(*run(capsys, *argv))


def test_audit_tol_reaches_the_classification(capsys):
    # (1,8) is B at k=3 by default and A at k=2 at rank tolerance 0.2
    argv = ["--pair", "1,8", "--tol", "0.2", "--format", "json"]
    code, out, _ = run(capsys, "w", "audit", *argv)
    assert code == 0
    audited = json.loads(out)[0]
    classified = json.loads(run(capsys, "w", "classify", *argv)[1])[0]
    assert (audited["category"], audited["witness_k"], audited["form"]) == ("A", 2, None)
    assert (classified["category"], classified["witness_k"]) == ("A", 2)


def test_tol_too_large_for_any_category(capsys):
    code, out, err = run(capsys, "w", "classify", "--pair", "1,6", "--tol", "0.4")
    assert _one_line_error(code, out, err)
    assert "no category" in err
