"""Records: the plain ones are NamedTuples, the ones that validate stay frozen dataclasses.

A NamedTuple is immutable like a frozen dataclass and cheaper to create at
import, but it is a tuple: it unpacks, indexes and compares equal to any
tuple of the same values. Rows of the json documents are its _asdict().
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from locclone.cli import run_command
from locclone.ghz_cloning import synthesize_cloner, triple_clonability
from locclone.measures import cut_entropy
from locclone.registers import Bipartition, DensityMatrix, SingleQubitGate, StateVector
from locclone.states import GHZ_LABELS, ghz
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


@pytest.mark.parametrize("record", plain_records(), ids=lambda record: type(record).__name__)
def test_plain_record_is_an_immutable_named_tuple(record):
    assert isinstance(record, tuple)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_triple_verdict_is_not_a_tuple():
    """bench/workloads.py tells a verdict from a clone result, a (circuit,
    fidelities) tuple, by isinstance(output, tuple)."""
    clonable = GHZ_LABELS[:3]
    refused = (GHZ_LABELS[0], GHZ_LABELS[1], GHZ_LABELS[4])
    verdicts = [triple_clonability(clonable), triple_clonability(refused)]
    assert [verdict.clonable for verdict in verdicts] == [True, False]
    assert not any(isinstance(verdict, tuple) for verdict in verdicts)


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
