"""Records: every one is a NamedTuple but TripleVerdict, and those that validate
their fields do so in __new__.

A NamedTuple is immutable like a frozen dataclass and cheaper to create at
import, but it is a tuple: it unpacks, indexes and compares equal to any
tuple of the same values. Rows of the json documents are its _asdict(), so
no record, nor any tuple, reaches a renderer. The validating records
(Bipartition, TransversalCnot, GhzLabel, WClassParams) check their fields in
__new__, which their _make and _replace go through too. TripleVerdict is an
immutable class that is no tuple, with value equality and hashing.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locclone import cli
from locclone.cli import run_command
from locclone.ghz_cloning import synthesize_cloner, triple_clonability
from locclone.measures import cut_entropy
from locclone.registers import Bipartition, DensityMatrix, SingleQubitGate, StateVector
from locclone.registers import TransversalCnot
from locclone.report import build_report, scan_document
from locclone.states import GHZ_LABELS, GhzLabel, WClassParams, ghz
from locclone.w_audit import audit_classified, lemma_scan, negativity_audit
from locclone.w_taxonomy import (
    CATEGORY_A,
    CATEGORY_C,
    all_pair_classifications,
    atype_structure,
    btype_form,
    classify_pair,
    ctype_structure,
)


def plain_records() -> list:
    """One of each record type that has no validation of its own."""
    classes = all_pair_classifications()
    a_pair = next(c for c in classes if c.category == CATEGORY_A)
    c_pair = next(c for c in classes if c.category == CATEGORY_C)
    b_pair = classify_pair(1, 6)
    return [
        StateVector(1, np.array([1.0, 0.0])),
        DensityMatrix(1, np.eye(2) / 2),
        SingleQubitGate(0, "X"),
        synthesize_cloner(GHZ_LABELS[:2]),
        cut_entropy(ghz(GHZ_LABELS[0]), Bipartition(3, frozenset({2}))),
        b_pair,
        btype_form(b_pair.m, b_pair.n, b_pair.witness_k),
        atype_structure(a_pair.m, a_pair.n, a_pair.witness_k),
        ctype_structure(c_pair.m, c_pair.n),
        negativity_audit(1, 6),
        lemma_scan(0.25, 0.05),
    ]


# One instance of each record that validates its fields, a field, and a value for it
# that the record refuses with a message
VALIDATED = [
    (Bipartition(3, frozenset({0})), "side_b", frozenset({3}), "out of range for 3 qubits"),
    (TransversalCnot("forward"), "direction", "sideways", "unknown transversal direction"),
    (GhzLabel(0, 1, 1), "j", 1.0, "j=1.0 is not a bit"),
    (WClassParams(0.2, 0.3, 0.1), "c", 0.6, "must satisfy a+b+c <= 1"),
]


@pytest.mark.parametrize("record", plain_records() + [row[0] for row in VALIDATED],
                         ids=lambda record: type(record).__name__)
def test_plain_record_is_an_immutable_named_tuple(record):
    assert isinstance(record, tuple)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("record, field, bad, message", VALIDATED,
                         ids=[type(row[0]).__name__ for row in VALIDATED])
def test_make_and_replace_check_the_fields(record, field, bad, message):
    """namedtuple's own _make, which _replace calls, would build the tuple without __new__."""
    values = [bad if name == field else value for name, value in zip(record._fields, record)]
    with pytest.raises(ValueError, match=re.escape(message)):
        type(record)(*values)
    with pytest.raises(ValueError, match=re.escape(message)):
        record._replace(**{field: bad})
    with pytest.raises(ValueError, match=re.escape(message)):
        type(record)._make(values)
    assert not hasattr(record, "__dict__")
    assert record._replace() == record and type(record._make(record)) is type(record)


def _outcome(make):
    """The record make builds, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


def check_domain(cls, values, accepted: bool):
    """cls(*values) is a record exactly when accepted, and a valid record's _replace
    with the same fields gives an equal record or raises the constructor's message."""
    built = _outcome(lambda: cls(*values))
    assert isinstance(built, cls) == accepted, (values, built)
    base = next(row[0] for row in VALIDATED if type(row[0]) is cls)
    replaced = _outcome(lambda: base._replace(**dict(zip(cls._fields, values))))
    assert type(replaced) is type(built) and replaced == built
    if accepted:
        assert built._replace(**built._asdict()) == built
    return built


_BIT_LIKE = st.one_of(st.integers(-2, 3), st.booleans(), st.floats(-1.0, 2.0),
                      st.sampled_from([np.int64(0), np.int64(1), "1", "0", 1.0, None]))


@settings(max_examples=300, deadline=None)
@given(st.tuples(_BIT_LIKE, _BIT_LIKE, _BIT_LIKE))
def test_a_ghz_label_takes_exactly_the_int_bits(bits):
    accepted = all(type(bit) is int and bit in (0, 1) for bit in bits)
    label = check_domain(GhzLabel, bits, accepted)
    if accepted:
        assert label == bits and str(label) == ",".join(map(str, bits))


_WEIGHT = st.one_of(st.floats(0.0, 0.5), st.floats(),
                    st.sampled_from([0.0, -0.0, 5e-324, 1.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(st.tuples(_WEIGHT, _WEIGHT, _WEIGHT))
def test_w_class_params_take_exactly_the_open_simplex(abc):
    a, b, c = abc
    accepted = a > 0.0 and b > 0.0 and c > 0.0 and a + b + c <= 1.0 + 1e-12
    params = check_domain(WClassParams, abc, accepted)
    if accepted:
        assert all(map(math.isfinite, params)) and params.d >= 0.0
    if any(map(math.isnan, abc)) or any(map(math.isinf, abc)):
        assert not accepted


_QUBIT = st.one_of(st.integers(-2, 6), st.sampled_from([np.int64(1), True, 1.0, "1"]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(_QUBIT, max_size=6))
def test_a_bipartition_takes_exactly_the_nonempty_proper_subsets(n_qubits, side_b):
    indices = all(isinstance(q, (int, np.integer)) and not isinstance(q, bool) for q in side_b)
    accepted = indices and 0 < len(set(side_b)) < n_qubits and set(side_b) <= set(range(n_qubits))
    cut = check_domain(Bipartition, (n_qubits, side_b), accepted)
    if accepted:
        assert cut.side_b == frozenset(side_b) and {type(q) for q in cut.side_b} == {int}
        assert sorted(cut.side_a + tuple(cut.side_b)) == list(range(n_qubits))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(["forward", "reverse", "Forward", " forward", "", None]),
                 st.text(max_size=8)))
def test_a_transversal_cnot_takes_exactly_the_two_directions(direction):
    check_domain(TransversalCnot, (direction,), direction in ("forward", "reverse"))


def test_triple_verdict_is_not_a_tuple():
    """bench/workloads.py tells a verdict from a clone result, a (circuit,
    fidelities) tuple, by isinstance(output, tuple)."""
    clonable = GHZ_LABELS[:3]
    refused = (GHZ_LABELS[0], GHZ_LABELS[1], GHZ_LABELS[4])
    verdicts = [triple_clonability(clonable), triple_clonability(refused)]
    assert [verdict.clonable for verdict in verdicts] == [True, False]
    assert not any(isinstance(verdict, tuple) for verdict in verdicts)


def test_a_triple_verdict_is_immutable_and_equal_by_value():
    verdict, again = triple_clonability(GHZ_LABELS[:3]), triple_clonability(GHZ_LABELS[:3])
    with pytest.raises(AttributeError):
        verdict.clonable = False
    with pytest.raises(AttributeError):
        del verdict.circuit
    assert verdict == again and hash(verdict) == hash(again)
    assert verdict != triple_clonability((GHZ_LABELS[0], GHZ_LABELS[1], GHZ_LABELS[4]))
    assert repr(verdict).startswith("TripleVerdict(clonable=")
    assert not hasattr(verdict, "__dict__")


def assert_plain_json(value, where: str) -> None:
    """Every container a list or dict and every leaf a str, int, float, bool or None:
    json.dumps writes a record, a tuple, silently as a list, and cell_text through str."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{where}: key {key!r}"
            assert_plain_json(item, f"{where}[{key!r}]")
    elif type(value) is list:
        for i, item in enumerate(value):
            assert_plain_json(item, f"{where}[{i}]")
    else:
        assert value is None or type(value) in (str, int, float, bool), \
            f"{where}: {type(value).__name__} {value!r}"


def test_no_record_reaches_a_renderer(monkeypatch):
    assert_plain_json(build_report(0.1, 0.05), "build_report")
    scan = lemma_scan(0.1, 0.05)
    flagged = scan._replace(violations=((WClassParams(0.2, 0.3, 0.1), 0.9),))
    for name, value in (("scan", scan), ("flagged scan", flagged)):
        assert_plain_json(scan_document(value), name)
    rendered = []
    monkeypatch.setattr(cli, "render", lambda document, sections, _: rendered.append(
        (document, sections)) or "")
    for argv in (["w", "classify", "--all"], ["w", "audit"], ["ghz", "triples", "--all"],
                 ["ghz", "clone", "--states", "0,0,0", "0,1,1", "--format", "json"],
                 ["w", "blank-check", "--params", "0.2,0.3,0.1"]):
        rendered.clear()
        assert run_command(argv) == 0
        (document, sections), = rendered
        assert_plain_json(document, " ".join(argv))
        for name, rows in sections:
            assert_plain_json(rows, f"{' '.join(argv)} section {name}")


@pytest.mark.parametrize(
    "argv, records",
    [
        (["w", "classify", "--all"], all_pair_classifications),
        pytest.param(["w", "audit"], lambda: audit_classified(all_pair_classifications()),
                     id="argv1-audit_classified"),
    ],
)
def test_json_rows_are_records_in_field_order(capsys, argv, records):
    assert run_command([*argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    expected = [record._asdict() for record in records()]
    assert rows == expected
    assert [list(row) for row in rows] == [list(row) for row in expected]
