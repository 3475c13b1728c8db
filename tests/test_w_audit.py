"""Pair taxonomy, structural reports, negativity audits, and the blank lemma."""
from __future__ import annotations

import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from locclone import ghz_cloning, w_audit, w_taxonomy
from locclone.exact import VerificationError, cut_columns, ghz_signs, w_signs
from locclone.measures import (
    W_CUT_ENTROPY_BITS,
    entropy_bits,
    negativity,
    wclass_cut_spectra,
    wclass_min_cut_entropy,
)
from locclone.registers import (
    Bipartition,
    DensityMatrix,
    StateVector,
    cut_matrix,
    density,
    partial_trace,
    partial_transpose,
    trace_norm,
)
from locclone.report import REFERENCE_NEGATIVITIES, json_text, reference_mismatches, scan_document
from locclone.states import GhzLabel, WClassParams, ghz, w_basis, w_class
from locclone.w_audit import (
    StructureMismatchError,
    audit_classified,
    blank_insufficiency,
    lemma_scan,
    negativity_audit,
)
from locclone.w_taxonomy import (
    PairClassification,
    all_pair_classifications,
    atype_structure,
    btype_form,
    classify_pair,
    ctype_structure,
)

import references
from references import cloner_io, integer_rank, mix

# Hand-checked catalog: category and witness cut for every W-basis pair.
GOLDEN = {
    (1, 2): ("A", 2), (1, 4): ("A", 1), (2, 7): ("A", 3),
    (3, 4): ("A", 3), (3, 6): ("A", 2), (6, 7): ("A", 1),
    (1, 6): ("B", 3), (1, 8): ("B", 3), (2, 3): ("B", 1),
    (2, 5): ("B", 1), (3, 8): ("B", 1), (4, 5): ("B", 2),
    (4, 7): ("B", 2), (5, 6): ("B", 3), (5, 8): ("B", 3),
    (7, 8): ("B", 2),
    (1, 3): ("C", 1), (1, 5): ("C", 1), (1, 7): ("C", 2),
    (2, 4): ("C", 1), (2, 6): ("C", 1), (2, 8): ("C", 2),
    (3, 5): ("C", 2), (3, 7): ("C", 1), (4, 6): ("C", 2),
    (4, 8): ("C", 1), (5, 7): ("C", 1), (6, 8): ("C", 1),
}

FORM_I_PAIRS = {(1, 6), (2, 3), (4, 7), (5, 8)}

SPAN_BY_CATEGORY = {"A": 2, "B": 3, "C": 4}


def test_catalog_covers_every_pair():
    assert set(GOLDEN) == set(itertools.combinations(range(1, 9), 2))


def test_classification_matches_catalog():
    for (m, n), (category, witness) in GOLDEN.items():
        cls = classify_pair(m, n)
        assert (cls.category, cls.witness_k) == (category, witness), (m, n)
        assert cls.span_dim == SPAN_BY_CATEGORY[category]


def test_category_counts():
    records = all_pair_classifications()
    assert len(records) == 28
    counts = {"A": 0, "B": 0, "C": 0}
    for cls in records:
        counts[cls.category] += 1
    assert counts == {"A": 6, "B": 10, "C": 12}


# what w_audit imports from w_taxonomy: its own calls, and the two checks the benchmark
# calls by their w_audit names
W_AUDIT_TAXONOMY_NAMES = ["CATEGORY_B", "PairClassification", "btype_form", "classify_pair",
                          "atype_structure", "ctype_structure"]


@pytest.mark.parametrize("name", W_AUDIT_TAXONOMY_NAMES)
def test_w_audit_reads_the_one_taxonomy(name):
    assert getattr(w_audit, name) is getattr(w_taxonomy, name)


def test_w_audit_holds_no_other_taxonomy_name():
    taxonomy = {name for name, value in vars(w_taxonomy).items()
                if getattr(value, "__module__", None) == w_taxonomy.__name__
                or name.startswith(("CATEGORY_", "FORM_"))}
    assert taxonomy & set(vars(w_audit)) == set(W_AUDIT_TAXONOMY_NAMES)


def test_classify_rejects_bad_indices():
    with pytest.raises(ValueError):
        classify_pair(0, 3)
    with pytest.raises(ValueError):
        classify_pair(1, 9)
    with pytest.raises(ValueError):
        classify_pair(4, 4)


def test_btype_forms():
    for (m, n), (category, k) in GOLDEN.items():
        if category != "B":
            continue
        result = btype_form(m, n, k)
        if (m, n) in FORM_I_PAIRS:
            assert result.form == "I"
            assert result.shared_direction_weight == 2.0 / 3.0
        else:
            assert result.form == "II"
            assert result.shared_direction_weight == 1.0 / 3.0


def test_btype_form_rejects_wrong_span():
    # (1,2) spans 2 at its witness, never 3
    with pytest.raises(StructureMismatchError, match="spans 2 at k=2, not 3"):
        btype_form(1, 2, 2)


def _fake_w_signs(monkeypatch, fakes):
    """Serve w_taxonomy integer amplitudes from fakes where given, the real ones elsewhere."""
    monkeypatch.setattr(w_taxonomy, "w_signs", lambda x: tuple(fakes[x]) if x in fakes else w_signs(x))


def _mutate_cut_matrix(monkeypatch, state, mutate):
    """Pass state's cut matrix columns through mutate, a column swap or sign flip.

    Neither changes a column space or which Gram matrices vanish, so classify_pair
    must not change.
    """
    real, target = w_taxonomy.cut_columns, w_signs(state)

    def patched(signs, k):
        columns = real(signs, k)
        return mutate(columns) if signs == target else columns

    monkeypatch.setattr(w_taxonomy, "cut_columns", patched)


def test_btype_form_rejects_a_shared_direction_that_is_no_eigenvector(monkeypatch):
    # at k=3 the cut matrix rows are amplitude pairs: M_m has columns (1,1,0,0), (0,0,1,0)
    # and M_n (0,1,1,0), (1,0,0,0); they span 3 and meet in (1,1,1,0), a column of neither
    _fake_w_signs(monkeypatch, {1: [1, 0, 1, 0, 0, 1, 0, 0], 2: [0, 1, 1, 0, 1, 0, 0, 0]})
    assert w_taxonomy._cut_gram(1, 2, 3)[2] == ((1, 1), (1, 0))
    with pytest.raises(StructureMismatchError, match="no common marginal eigenvector"):
        btype_form(1, 2, 3)


def test_btype_form_rejects_a_cut_matrix_off_the_one_two_split(monkeypatch):
    # M_m columns (1,1,0,0), (1,0,0,0) overlap, so M_m^T M_m = [[2, 1], [1, 1]]; still spans 3
    _fake_w_signs(monkeypatch, {1: [1, 1, 1, 0, 0, 0, 0, 0], 2: [0, 0, 1, 0, 0, 1, 0, 1]})
    with pytest.raises(StructureMismatchError, match="not diagonal"):
        btype_form(1, 2, 3)


def test_classify_pair_checks_the_one_two_split(monkeypatch):
    _fake_w_signs(monkeypatch, {1: [1, 1, 1, 0, 0, 0, 0, 0]})
    with pytest.raises(StructureMismatchError, match="not diagonal"):
        classify_pair(1, 2)


def test_btype_form_validates_the_cut():
    for k in (0, 4):
        with pytest.raises(ValueError, match="must be 1..3"):
            btype_form(1, 6, k)


def test_every_structure_check_refuses_a_pair_of_one_state():
    # the input error classify_pair raises, so the command exits 2 and not 1
    for check in (lambda: classify_pair(1, 1), lambda: btype_form(1, 1, 3),
                  lambda: atype_structure(2, 2, 2), lambda: ctype_structure(3, 3),
                  lambda: w_taxonomy._cut_gram(4, 4, 1)):
        with pytest.raises(ValueError, match="pair members must differ"):
            check()


# bad pair members, each with its exact message: _cut_gram compares the members before it
# reads a column, so equal members out of range are named as equal, not as out of range
PAIR_MEMBER_MESSAGES = [
    (classify_pair, (4, 4), "pair members must differ"),
    (classify_pair, (9, 9), "pair members must differ"),
    (classify_pair, (0, 3), "W basis index must be 1..8, got 0"),
    (classify_pair, (1, 9), "W basis index must be 1..8, got 9"),
    (classify_pair, (True, 6), "W basis index True is not an integer"),
    (btype_form, (9, 9, 1), "pair members must differ"),
    (btype_form, (True, 1, 3), "W basis index True is not an integer"),
]


@pytest.mark.parametrize("function, args, message", PAIR_MEMBER_MESSAGES,
                         ids=[f"{f.__name__}{args}" for f, args, _ in PAIR_MEMBER_MESSAGES])
def test_bad_pair_members_keep_their_messages(function, args, message):
    with pytest.raises(ValueError) as caught:
        function(*args)
    assert str(caught.value) == message


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cut_columns_are_the_single_qubit_cut(k):
    # amplitude i is i, so each column lists the indices it reads
    want = cut_matrix(StateVector(3, np.arange(8)), Bipartition(3, frozenset({k - 1})))
    assert cut_columns(tuple(range(8)), k) == tuple(map(tuple, want.T.tolist()))


def test_classify_pair_reads_each_cut_once(monkeypatch):
    calls = []
    real = w_taxonomy._cut_gram

    def counting(m, n, k):
        calls.append((m, n, k))
        return real(m, n, k)

    monkeypatch.setattr(w_taxonomy, "_cut_gram", counting)
    assert classify_pair(1, 3).category == "C"
    assert calls == [(1, 3, 1), (1, 3, 2), (1, 3, 3)]


# Every 4x2 integer matrix with M^T M diagonal with entries {1, 2}: entries 0 and +/-1,
# one column of two nonzeros and one of one nonzero in another row
_ONE_TWO_CUT_MATRICES = [
    mat for mat in (np.array(e).reshape(4, 2) for e in itertools.product((-1, 0, 1), repeat=8))
    if not (mat.T @ mat)[0, 1] and sorted(np.diag(mat.T @ mat).tolist()) == [1, 2]
]


def test_the_one_two_cut_matrices_are_all_there():
    # 4 rows for the light column, 3 row pairs for the heavy one among the other
    # three, 8 sign patterns and 2 column orders
    assert len(_ONE_TWO_CUT_MATRICES) == 4 * 3 * 8 * 2


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_ONE_TWO_CUT_MATRICES), st.sampled_from(_ONE_TWO_CUT_MATRICES))
def test_schur_span_is_the_rank_of_both_cut_matrices(m_mat, n_mat):
    gram = tuple(map(tuple, (m_mat.T @ n_mat).tolist()))
    diagonals = (tuple(np.diag(m_mat.T @ m_mat).tolist()), tuple(np.diag(n_mat.T @ n_mat).tolist()))
    assert w_taxonomy._span(*diagonals, gram) == integer_rank(np.hstack([m_mat, n_mat]))


def _small_integer_cut_matrices():
    return arrays(np.int64, (4, 2), elements=st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(_small_integer_cut_matrices(), _small_integer_cut_matrices(), st.booleans())
def test_reductions_commute_exactly_when_the_gram_matrix_vanishes(m_mat, n_mat, orthogonal):
    if orthogonal:
        # det(S) N - M adj(S) M^T N with S = M^T M: integer, and orthogonal to M's columns
        s = m_mat.T @ m_mat
        adj = np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]])
        n_mat = (s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]) * n_mat - m_mat @ adj @ m_mat.T @ n_mat
    assume(integer_rank(np.hstack([m_mat, n_mat])) == 4)
    r_m, r_n = m_mat @ m_mat.T, n_mat @ n_mat.T
    assert np.array_equal(r_m @ r_n, r_n @ r_m) == (not (m_mat.T @ n_mat).any())


def _float_taxonomy(m, n):
    """Spans and commutation of the float reductions Tr_k per cut, and the classification."""
    spans, commuting = {}, {}
    for k in (1, 2, 3):
        r_m, r_n = (partial_trace(density(w_basis(x)), {k - 1}).entries for x in (m, n))
        spans[k] = int(np.linalg.matrix_rank(np.hstack([r_m, r_n])))
        commuting[k] = bool(np.linalg.norm(r_m @ r_n - r_n @ r_m) <= 1e-12)
    span = min(spans.values())
    if span < 4:
        witness = max(k for k, dim in spans.items() if dim == span)
        return spans, commuting, ("A" if span == 2 else "B", witness, span)
    return spans, commuting, ("C", min(k for k, ok in commuting.items() if not ok), 4)


def test_taxonomy_matches_a_float_partial_trace_reference():
    for m, n in itertools.combinations(range(1, 9), 2):
        spans, commuting, expected = _float_taxonomy(m, n)
        for k in (1, 2, 3):
            _, _, g, span = w_taxonomy._cut_gram(m, n, k)
            assert span == spans[k], (m, n, k)
            if span == 4:
                assert (g == ((0, 0), (0, 0))) == commuting[k], (m, n, k)
        cls = classify_pair(m, n)
        assert (cls.category, cls.witness_k, cls.span_dim) == expected, (m, n)


def test_atype_structure_rejects_heavy_columns_on_one_partner(monkeypatch):
    _mutate_cut_matrix(monkeypatch, 2, lambda columns: columns[::-1])
    assert classify_pair(1, 2).witness_k == 2
    with pytest.raises(StructureMismatchError, match="not opposite"):
        atype_structure(1, 2, 2)


def test_atype_structure_rejects_a_pair_sharing_one_direction(monkeypatch):
    # span 2 alone forces both column pairs parallel, so pass a B pair off as A
    monkeypatch.setattr(w_taxonomy, "classify_pair", lambda m, n: PairClassification(m, n, "A", 3, 2))
    with pytest.raises(StructureMismatchError, match="A-side directions differ"):
        atype_structure(1, 6, 3)


def test_ctype_structure_rejects_a_flipped_column_sign(monkeypatch):
    _mutate_cut_matrix(monkeypatch, 3, lambda columns: (columns[0], tuple(-x for x in columns[1])))
    assert classify_pair(1, 3).category == "C"
    with pytest.raises(StructureMismatchError, match="canonical C structure"):
        ctype_structure(1, 3)


def test_atype_structure_all_six():
    for (m, n), (category, k) in GOLDEN.items():
        if category != "A":
            continue
        rep = atype_structure(m, n, k)
        assert rep.k == k
        assert rep.axis_overlap == 1.0
        assert rep.partner_overlap == 0.0
        for coeffs in (rep.schmidt_m, rep.schmidt_n):
            assert coeffs == (2.0 / 3.0, 1.0 / 3.0)


def test_atype_structure_rejects_other_categories():
    with pytest.raises(ValueError):
        atype_structure(1, 6, 3)
    with pytest.raises(ValueError):
        atype_structure(1, 2, 1)  # right pair, wrong cut


def test_ctype_structure_all_twelve():
    for (m, n), (category, k) in GOLDEN.items():
        if category != "C":
            continue
        rep = ctype_structure(m, n)
        assert rep.k == k
        assert rep.overlap_magnitude == 1.0 / np.sqrt(2.0)
        assert rep.sign_residual == rep.cross_overlap == rep.b_basis_residual == 0.0


def test_ctype_structure_rejects_other_categories():
    with pytest.raises(ValueError):
        ctype_structure(1, 2)


def test_cloner_io_shapes_and_cut():
    rho_in, rho_out, cut = cloner_io(1, 6, 3)
    assert rho_in.entries.shape == (64, 64)
    assert rho_out.entries.shape == (64, 64)
    assert np.trace(rho_in.entries).real == pytest.approx(1.0)
    assert np.trace(rho_out.entries).real == pytest.approx(1.0)
    assert set(cut.side_b) == {2, 5}
    assert cloner_io(1, 6, 1)[2].side_b == frozenset({0, 3})


def test_cloner_io_rejections():
    with pytest.raises(ValueError):
        cloner_io(1, 1, 3)
    with pytest.raises(ValueError):
        cloner_io(1, 6, 0)
    with pytest.raises(ValueError):
        cloner_io(1, 6, 3, blank=0)


REFERENCE = {
    "I": (1.89097, 2.14597),
    "II": (2.23802, 2.49298),
    "C": (2.23802, 2.55185),
}


@pytest.mark.parametrize(
    "m, n, key",
    [(1, 6, "I"), (5, 8, "I"), (1, 8, "II"), (4, 5, "II"), (1, 3, "C"), (6, 8, "C")],
)
def test_negativity_audit_reference_values(m, n, key):
    record = negativity_audit(m, n)
    ref_in, ref_out = REFERENCE[key]
    assert record.negativity_in == pytest.approx(ref_in, abs=1e-3)
    assert record.negativity_out == pytest.approx(ref_out, abs=1e-3)
    assert record.blank == 1


def test_negativity_audit_atype_has_no_form():
    record = negativity_audit(1, 2)
    assert record.category == "A"
    assert record.form is None
    assert 0.0 < record.negativity_in < record.negativity_out


def test_audit_is_blank_independent():
    base = negativity_audit(1, 6, blank=1)
    other = negativity_audit(1, 6, blank=4)
    assert other.negativity_in == pytest.approx(base.negativity_in, abs=1e-9)
    assert other.negativity_out == pytest.approx(base.negativity_out, abs=1e-9)


def test_all_pair_audit_count():
    records = audit_classified(all_pair_classifications())
    assert len(records) == 28
    assert all(r.blank == 1 for r in records)


def test_w_basis_amplitudes_are_real():
    # negativity_audit builds the output mixture from the real parts alone
    for index in range(1, 9):
        assert not np.any(w_basis(index).amplitudes.imag), index


def test_negativity_audit_matches_the_64x64_mixtures():
    pairs = list(itertools.combinations(range(1, 9), 2))
    for (m, n), blank in itertools.product(pairs, range(1, 9)):
        record = negativity_audit(m, n, blank)
        rho_in, rho_out, cut = cloner_io(m, n, record.witness_k, blank)
        assert abs(record.negativity_in - negativity(rho_in, cut)) <= 1e-12, (m, n, blank)
        assert abs(record.negativity_out - negativity(rho_out, cut)) <= 1e-12, (m, n, blank)


def test_every_audit_record_matches_its_closed_form():
    # all 28 pairs x 8 blanks, A pairs included; the blank factor 1 + 2 sqrt(2)/3 enters
    # every input value, so this pins it for each blank too
    classifications = all_pair_classifications()
    records = [r for blank in range(1, 9) for r in audit_classified(classifications, blank)]
    assert len(records) == 224 and reference_mismatches(records) == []
    worst = max(
        max(abs(r.negativity_in - ref[0]), abs(r.negativity_out - ref[1]))
        for r in records
        for ref in [REFERENCE_NEGATIVITIES[r.form or r.category]]
    )
    assert worst <= 1e-13  # near 64 eps ||Y||; measured 3.1e-15


@pytest.mark.parametrize("blank, k", itertools.product(range(1, 9), (1, 2, 3)))
def test_blank_trace_norm_is_one_plus_the_blank_negativity(blank, k):
    # the audit reads the blank's factor from its two 4x4 parity blocks
    value = trace_norm(w_audit._parity_blocks([[blank]], [k], ["blank"])[0, 0])
    cut = Bipartition(3, frozenset({k - 1}))
    assert abs(value - (1.0 + negativity(density(w_basis(blank)), cut))) <= 1e-15
    # every W-basis state splits 2/3, 1/3 at each cut: ||W^T_k||_1 = 1 + 2 sqrt(2/9)
    assert abs(value - (1.0 + 2.0 * math.sqrt(2.0) / 3.0)) <= 1e-15


def _dense_blocks(x, k):
    """X_s's two parity blocks from the dense 8x8 partial transpose of W_x at qubit k."""
    flipped = partial_transpose(density(w_basis(x)), Bipartition(3, frozenset({k - 1})))
    assert not flipped.imag.any()
    return flipped.real[w_audit._PARITY[:, :, None], w_audit._PARITY[:, None, :]]


def test_gathered_blocks_equal_the_dense_partial_transpose_bit_for_bit():
    # the gather scales sign products by fl(1/sqrt(3))^2, what a product of two w_basis
    # amplitudes rounds to; 1/3 would differ in the last bit
    for x, k in itertools.product(range(1, 9), (1, 2, 3)):
        blocks = w_audit._parity_blocks([[x]], [k], ["state"])
        assert blocks.dtype == np.float64
        assert np.array_equal(blocks[0, 0], _dense_blocks(x, k)), (x, k)
    pairs = all_pair_classifications()
    for blank in range(1, 9):
        rows = [(c.m, c.n, blank) for c in pairs]
        blocks = w_audit._parity_blocks(rows, [c.witness_k for c in pairs], ["pair"] * 28)
        dense = [[_dense_blocks(x, c.witness_k) for x in row] for c, row in zip(pairs, rows)]
        assert blocks.dtype == np.float64 and np.array_equal(blocks, np.array(dense)), blank


@pytest.mark.parametrize("k", [0, 4, True])
def test_parity_blocks_refuse_a_cut_outside_1_to_3(k):
    with pytest.raises(ValueError):
        w_audit._parity_blocks([(1, 6)], [k], ["pair"])


def test_negativity_audit_builds_no_six_qubit_input(monkeypatch):
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        solves.append((a.shape, a.dtype))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    real = np.dtype(np.float64)
    for m, n in ((1, 3), (1, 5)):  # two C pairs with witness k=1
        assert negativity_audit(m, n, blank=4).witness_k == 1
        # the pair's and the blank's 4x4 parity blocks in one stacked solve, then the
        # output's three distinct parity sectors: no 8x8, 64x64 or complex solve
        assert solves == [((1, 2, 2, 4, 4), real), ((3, 16, 16), real)]
        solves.clear()
    # all 28 pairs are one batch: two solves in all, over 84 16x16 sectors and not 112
    assert len(audit_classified(all_pair_classifications(), 4)) == 28
    assert solves == [((28, 2, 2, 4, 4), real), ((84, 16, 16), real)]


@pytest.mark.parametrize("index", range(1, 9))
def test_w_basis_states_have_a_definite_register_parity(index):
    parities = {bin(int(ket)).count("1") % 2 for ket in np.flatnonzero(w_signs(index))}
    assert parities == {index % 2}  # W1, W3, W5, W7 odd; W2, W4, W6, W8 even


def _parity_row_of_each_index():
    row = np.full(8, -1)
    for label, indices in enumerate(w_audit._PARITY):
        row[indices] = label
    return row


def _sector_of_each_index():
    """Joint index 8i + j of original (x) clone to sector 2 r(i) + r(j), r the _PARITY row."""
    row = _parity_row_of_each_index()
    return (2 * row[:, None] + row[None, :]).ravel()


def test_parity_sectors_partition_the_joint_indices_by_register_parity():
    assert sorted(w_audit._PARITY.ravel().tolist()) == list(range(8))
    for parity, indices in enumerate(w_audit._PARITY):
        assert {bin(int(i)).count("1") % 2 for i in indices} == {parity}
    sector = _sector_of_each_index()
    for label in range(4):
        parities = {(bin(i >> 3).count("1") % 2, bin(i & 7).count("1") % 2)
                    for i in np.flatnonzero(sector == label)}
        assert parities == {divmod(label, 2)}
    assert np.bincount(sector).tolist() == [16] * 4


def test_output_partial_transpose_lies_in_the_parity_sectors_at_every_cut():
    sector = _sector_of_each_index()
    outside = sector[:, None] != sector[None, :]
    pairs = itertools.combinations(range(1, 9), 2)
    for (m, n), k in itertools.product(pairs, (1, 2, 3)):
        _, rho_out, cut = cloner_io(m, n, k)
        assert not partial_transpose(rho_out, cut)[outside].any(), (m, n, k)
        blocks = w_audit._parity_blocks([(m, n)], [k], ["pair"])
        # all four sectors (p, q), the mean of X_s[p] (x) X_s[q], one Kronecker product each
        s00, s01, s10, s11 = (sum(np.kron(x[p], x[q]) for x in blocks[0]) / 2
                              for p, q in itertools.product((0, 1), repeat=2))
        # (1,0) is (0,1) with original and clone swapped, so the audit solves three
        assert np.array_equal(s01.reshape(4, 4, 4, 4),
                              s10.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2)), (m, n, k)
        sectors = w_audit._output_sectors(blocks)
        assert np.abs(sectors - np.stack([s00, s01, s11])).max() <= 1e-15, (m, n, k)
        s00_norm, s01_norm, s11_norm = (trace_norm(x) for x in sectors)
        three_sectors = s00_norm + 2.0 * s01_norm + s11_norm
        assert abs(three_sectors - 1.0 - negativity(rho_out, cut)) <= 1e-12, (m, n, k)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(all_pair_classifications()), min_size=1, max_size=28,
                unique=True), st.integers(1, 8))
def test_a_batch_record_is_the_single_pair_audit_exactly(classifications, blank):
    # any subset of the pairs, in any order: each record is bit for bit the one
    # negativity_audit gives alone, so a document row can be checked by ==
    records = w_audit.audit_classified(classifications, blank)
    assert records == tuple(negativity_audit(c.m, c.n, blank) for c in classifications)


def test_an_empty_batch_has_no_records_but_checks_its_blank():
    assert w_audit.audit_classified((), 4) == ()
    with pytest.raises(ValueError, match="W basis index must be 1..8"):
        w_audit.audit_classified((), 9)


def test_audit_refuses_an_output_outside_the_parity_sectors(monkeypatch):
    # a GHZ state mixes parities: |000> is even and |111> odd. classify_pair, btype_form
    # and cloner_io read w_signs too, so the C pair (1,3) is classified and its dense
    # reference built before the audit's w_signs is patched
    cls = classify_pair(1, 3)
    assert (cls.category, cls.witness_k) == ("C", 1)
    w_basis_of, w_signs_of = references.w_basis, w_audit.w_signs
    mutant = ghz(GhzLabel(0, 0, 0))
    monkeypatch.setattr(references, "w_basis", lambda x: mutant if x == 1 else w_basis_of(x))
    _, rho_out, cut = cloner_io(1, 3, 1)  # the mutant's output too, at the pair's witness cut
    sector = _sector_of_each_index()
    assert np.count_nonzero(partial_transpose(rho_out, cut)[sector[:, None] != sector[None, :]])
    # the audit checks the 8x8 partial transpose at qubit 1 of each member and of the
    # blank, here the mutant again, against the parity blocks
    row = _parity_row_of_each_index()
    flipped = [partial_transpose(density(s), Bipartition(3, frozenset({0})))
               for s in (mutant, w_basis_of(3), mutant)]
    dropped = sum(np.count_nonzero(x[row[:, None] != row[None, :]]) for x in flipped)
    assert dropped > 0
    message = f"{dropped} of {sum(map(np.count_nonzero, flipped))} nonzero entries"
    monkeypatch.setattr(w_audit, "w_signs",
                        lambda x: ghz_signs(GhzLabel(0, 0, 0)) if x == 1 else w_signs_of(x))
    with pytest.raises(StructureMismatchError, match=message):
        w_audit.audit_classified((cls,))


def test_audit_refuses_a_blank_outside_the_parity_sectors(monkeypatch):
    # only the blank is a GHZ state: its |000><111| coherence leaves the parity blocks
    cls = classify_pair(2, 4)
    w_signs_of = w_audit.w_signs
    monkeypatch.setattr(w_audit, "w_signs",
                        lambda x: ghz_signs(GhzLabel(0, 0, 0)) if x == 1 else w_signs_of(x))
    with pytest.raises(StructureMismatchError,
                       match="2 of 22 nonzero entries .* lie outside the register parity sectors"):
        w_audit.audit_classified((cls,), 1)


@pytest.mark.parametrize("m, n, blank", [
    (1, 6, 0), (1, 6, 9), (1, 6, -1), (0, 3, 1), (1, 9, 1), (4, 4, 1), (4, 4, 0),
])
def test_negativity_audit_rejects_bad_input(m, n, blank):
    with pytest.raises(ValueError):
        negativity_audit(m, n, blank)


INTEGER_RULE_CASES = [
    (classify_pair, (True, 6)),
    (classify_pair, (1.0, 6)),
    (negativity_audit, (1, 6, True)),
    (negativity_audit, (1, 6, 4.0)),
    (btype_form, (1, 6, 3.0)),
]


@pytest.mark.parametrize("function, args", INTEGER_RULE_CASES,
                         ids=[f"{f.__name__}{args}" for f, args in INTEGER_RULE_CASES])
def test_indices_refuse_bools_and_floats(function, args):
    with pytest.raises(ValueError, match="is not an integer"):
        function(*args)


def test_numpy_integer_indices_give_records_of_plain_ints():
    one, six, three, four = (np.int64(x) for x in (1, 6, 3, 4))
    assert btype_form(one, six, three) == btype_form(1, 6, 3)
    cls = classify_pair(one, six)
    record = negativity_audit(one, six, four)
    assert (cls, record) == (classify_pair(1, 6), negativity_audit(1, 6, 4))
    assert all(type(x) is int for x in (*cls[:2], *record[:2], record.blank))
    assert json.loads(json_text(record._asdict()))["blank"] == 4


@st.composite
def _mixed_states(draw):
    """A random three-qubit density matrix of random rank, complex entries."""
    rank = draw(st.integers(1, 8))
    parts = draw(arrays(np.float64, (2, 8, rank), elements=st.floats(-1.0, 1.0)))
    factor = parts[0] + 1j * parts[1]
    rho = factor @ factor.conj().T
    trace = float(np.trace(rho).real)
    assume(trace > 1e-3)
    return DensityMatrix(3, (rho + rho.conj().T) / (2.0 * trace))


@st.composite
def _pair_states(draw):
    m, n = draw(st.sampled_from(list(itertools.combinations(range(1, 9), 2))))
    return mix([0.5, 0.5], [density(w_basis(m)), density(w_basis(n))])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_pair_states(), _mixed_states()), _mixed_states(), st.sampled_from([1, 2, 3]))
def test_input_trace_norm_factors_at_the_lab_cut(pair, blank, k):
    joint = DensityMatrix(6, np.kron(pair.entries, blank.entries))
    lab_cut = Bipartition(6, frozenset({k - 1, k + 2}))
    joint_norm = trace_norm(partial_transpose(joint, lab_cut))
    cut = Bipartition(3, frozenset({k - 1}))
    pair_norm = trace_norm(partial_transpose(pair, cut))
    blank_norm = trace_norm(partial_transpose(blank, cut))
    assert joint_norm == pytest.approx(pair_norm * blank_norm, abs=1e-10)
    # one qubit on the blank's B side bounds its factor by 2, whatever the blank
    assert joint_norm <= 2.0 * pair_norm + 1e-10


def test_blank_insufficiency_certificate():
    cut_index, entropy = blank_insufficiency(WClassParams(0.5, 0.2, 0.2))
    assert cut_index == 1
    assert entropy == pytest.approx(0.6538875642054612, abs=1e-12)
    assert entropy < W_CUT_ENTROPY_BITS


def test_blank_insufficiency_rejects_the_w_point():
    with pytest.raises(ValueError):
        blank_insufficiency(WClassParams(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))


def test_blank_insufficiency_random_points():
    rng = np.random.default_rng(7)
    scale, floor = 1.0 - 4e-6, 1e-6
    for _ in range(50):
        a, b, c, _ = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
        params = WClassParams(a * scale + floor, b * scale + floor, c * scale + floor)
        cut_index, entropy = blank_insufficiency(params)
        assert (cut_index, entropy) == wclass_min_cut_entropy(params)
        assert entropy < W_CUT_ENTROPY_BITS


def test_lemma_scan_coarse_grid():
    report = lemma_scan(0.2, 0.05)
    assert report.points_tested == 10
    assert report.violations == ()
    assert report.step == 0.2
    assert report.exclusion_radius == 0.05


def _scalar_grid(step):
    """The scan grid in lexicographic order, built one point at a time."""
    top = round(1.0 / step)
    return [
        WClassParams(ia * step, ib * step, ic * step)
        for ia in range(1, top - 1)
        for ib in range(1, top - ia)
        for ic in range(1, top - ia - ib + 1)
    ]


@pytest.mark.parametrize("step", [0.3, 0.2, 0.1, 0.05, 0.025, 0.02, 0.01])
def test_lemma_scan_counts_every_grid_point(step):
    report = lemma_scan(step, 0.05)
    assert report.points_tested == math.comb(round(1.0 / step), 3)
    assert report.violations == ()


def test_lemma_scan_crosscheck_every_point(monkeypatch):
    # the closed form pushed 1e-9 off at any single point and cut must be caught
    step = 0.2
    grid = _scalar_grid(step)
    assert lemma_scan(step, 0.05).violations == ()
    real = w_audit.wclass_cut_spectra
    for target, params in enumerate(grid):
        seen = 0

        def shifted(a, b, c, d, out):
            nonlocal seen
            spectra = real(a, b, c, d, out)
            if seen <= target < seen + a.size:
                spectra[target - seen, target % 3] += 1e-9
            seen += a.size
            return spectra

        monkeypatch.setattr(w_audit, "wclass_cut_spectra", shifted)
        with pytest.raises(StructureMismatchError) as caught:
            lemma_scan(step, 0.05)
        assert f"at {params}, cut {target % 3 + 1}" in str(caught.value)


def test_lemma_scan_reports_threshold_hits_in_grid_order(monkeypatch):
    step, radius = 0.1, 0.5
    monkeypatch.setattr(
        w_audit,
        "entropy_bits",
        lambda spectra: np.full(spectra.shape[:-1], W_CUT_ENTROPY_BITS),
    )
    third = 1.0 / 3.0
    outside = [
        p for p in _scalar_grid(step)
        if abs(p.a - third) + abs(p.b - third) + abs(p.c - third) + p.d > radius
    ]
    # one chunk for the whole grid, then chunks of 7 that split rows and hits
    for chunk in (w_audit._SCAN_CHUNK, 7):
        monkeypatch.setattr(w_audit, "_SCAN_CHUNK", chunk)
        report = lemma_scan(step, radius)
        assert 0 < len(outside) < report.points_tested == 120
        assert [params for params, _ in report.violations] == outside
        assert [entropy for _, entropy in report.violations] == (
            [W_CUT_ENTROPY_BITS] * len(outside)
        )
        assert report.grid_max_point == outside[0]  # every hit ties: the first wins


@pytest.mark.parametrize("step", [0.05, 0.02])
def test_grid_chunks_are_full_and_in_grid_order(monkeypatch, step):
    # at the default size a chunk spans grid rows: some chunk holds two ia values
    assert any(np.unique(a).size > 1 for a, _, _ in w_audit._grid_chunks(step))
    grid = _scalar_grid(step)
    for chunk in (w_audit._SCAN_CHUNK, 300, 7, 1):
        monkeypatch.setattr(w_audit, "_SCAN_CHUNK", chunk)
        chunks = list(w_audit._grid_chunks(step))
        points = [
            WClassParams(float(a), float(b), float(c))
            for part in chunks for a, b, c in zip(*part)
        ]
        assert points == grid
        assert all(part[0].size == chunk for part in chunks[:-1])
        assert 0 < chunks[-1][0].size <= chunk


def test_grid_chunks_hold_only_the_row_table():
    # at the finest step ia = 1 alone covers 123,753 grid points; the generator holds
    # only the (ia, ib) row table, 124,251 rows, where whole ia rows peaked at 10.7 MB
    tracemalloc.start()
    try:
        for _ in itertools.islice(w_audit._grid_chunks(w_audit.SCAN_MIN_STEP), 200):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_lemma_scan_does_not_depend_on_the_chunk_size(monkeypatch):
    # 300 divides neither 1,140 nor 19,600 points: the short last chunk takes a
    # shorter slice of the scan's buffers
    expected = lemma_scan(0.05, 0.05)
    golden = (Path(__file__).parent / "golden" / "lemma_step_0.02.json").read_text("utf-8")
    for chunk in (1, 7, 300):
        monkeypatch.setattr(w_audit, "_SCAN_CHUNK", chunk)
        assert lemma_scan(0.05, 0.05) == expected
        if chunk > 1:
            assert json_text(scan_document(lemma_scan(0.02, 0.05))) == golden


def _own_pair_of_smallest_lambda_minus(spectra):
    """Each point's (lambda-, lambda+) at its cut of smallest lambda-, as [point, -/+]."""
    low = spectra[:, :, 0]
    return spectra[np.arange(len(spectra)), np.argmin(low, axis=1)]


@pytest.mark.parametrize("step", [0.05, 0.01])
def test_scan_takes_one_entropy_a_point_from_the_minimal_cut(monkeypatch, step):
    # the scan's entropy_bits input, chunk by chunk, against all three cut entropies
    chunks, inputs = [], []

    def recording_spectra(a, b, c, d, out):
        chunks.append(wclass_cut_spectra(a, b, c, d, np.empty_like(out)))
        return chunks[-1]

    def recording_entropy(probabilities):
        inputs.append(np.array(probabilities))
        return entropy_bits(probabilities)

    monkeypatch.setattr(w_audit, "wclass_cut_spectra", recording_spectra)
    monkeypatch.setattr(w_audit, "entropy_bits", recording_entropy)
    lemma_scan(step, 0.05)
    assert len(inputs) == len(chunks) == -(-math.comb(round(1.0 / step), 3) // w_audit._SCAN_CHUNK)
    for spectra, pair in zip(chunks, inputs):
        assert pair.shape == (len(spectra), 2)
        assert np.array_equal(pair, _own_pair_of_smallest_lambda_minus(spectra))
        assert np.array_equal(entropy_bits(pair), entropy_bits(spectra).min(axis=1))


def test_every_scan_chunk_writes_one_closed_form_buffer(monkeypatch):
    # 1,140 points in chunks of 300: three full chunks and a short one of 240
    real = w_audit.wclass_cut_spectra
    returned = []

    def recording(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(w_audit, "_SCAN_CHUNK", 300)
    monkeypatch.setattr(w_audit, "wclass_cut_spectra", recording)
    lemma_scan(0.05, 0.05)
    first, last = returned[0], returned[-1]
    assert [len(spectra) for spectra in returned] == [300, 300, 300, 240]
    assert all(np.shares_memory(spectra, first) for spectra in returned)
    # the short chunk is a leading slice: the same start and strides over fewer points
    data = [spectra.__array_interface__["data"][0] for spectra in (first, last)]
    assert data[0] == data[1] and last.strides == first.strides


def test_each_scan_chunk_derives_d_once(monkeypatch):
    # the closed form, the cross-check and the exclusion ball all read one d array a chunk
    received = []
    for name in ("wclass_cut_spectra", "_crosscheck_spectra", "_distance_from_w_point"):
        seen = []
        received.append(seen)

        def recording(a, b, c, d, *rest, _real=getattr(w_audit, name), _seen=seen):
            _seen.append(d)
            return _real(a, b, c, d, *rest)

        monkeypatch.setattr(w_audit, name, recording)
    lemma_scan(0.01, 0.05)
    closed_form, crosscheck, ball = received
    ball = ball[1:]  # check_scan_inputs measures the grid's four corners first
    chunks = -(-math.comb(100, 3) // w_audit._SCAN_CHUNK)
    assert len(closed_form) == len(crosscheck) == len(ball) == chunks
    assert all(x is y is z for x, y, z in zip(closed_form, crosscheck, ball))


@st.composite
def _grid_points(draw):
    """step * (ia, ib, ic) on a scan grid of random step, with two or three indices tied."""
    step = draw(st.floats(min_value=w_audit.SCAN_MIN_STEP, max_value=1.0 / 3.0))
    top = w_audit._grid_top(step)
    kind = draw(st.sampled_from(["distinct", "two tied", "all tied"]))
    if kind == "all tied":
        indices = [draw(st.integers(1, top // 3))] * 3
    elif kind == "two tied":
        tied = draw(st.integers(1, (top - 1) // 2))
        indices = draw(st.permutations([tied, tied, draw(st.integers(1, top - 2 * tied))]))
    else:
        ia = draw(st.integers(1, top - 2))
        ib = draw(st.integers(1, top - 1 - ia))
        indices = [ia, ib, draw(st.integers(1, top - ia - ib))]
    return tuple(i * step for i in indices)


@settings(max_examples=300, deadline=None)
@given(st.lists(_grid_points(), min_size=1, max_size=8))
def test_smallest_lambda_minus_has_the_minimum_cut_entropy_at_grid_points(points):
    # On a grid two cuts' D = (1-2x)^2 + 4xd differ by 4y|x - x'|, y the third
    # parameter, so by 4 step^2 or more unless x = x' ties them exactly. Off the
    # grid, cuts a few ulp apart can round their entropies the other way (65 of
    # 10^6 random points with c one ulp above b), so the points are grid points.
    a, b, c = (np.array(values) for values in zip(*points))
    spectra = wclass_cut_spectra(
        a, b, c, np.maximum(0.0, 1.0 - (a + b + c)), np.empty((2, 3, len(points)))
    )
    pair = _own_pair_of_smallest_lambda_minus(spectra)
    assert np.array_equal(entropy_bits(pair), entropy_bits(spectra).min(axis=1))


@pytest.mark.parametrize("side, value", [(1, 1.5), (1, -0.5), (0, 1.5)])
def test_scan_range_checks_the_cuts_whose_entropy_it_skips(monkeypatch, side, value):
    # with the cross-check gone, a bad value at the cut of largest lambda- must still
    # fail; -0.5 as lambda+ and 1.5 as lambda- never reach the entropy of the pair
    real = w_audit.wclass_cut_spectra
    hits = []

    def corrupt(a, b, c, d, out):
        spectra = real(a, b, c, d, out)
        low = spectra[:, :, 0]
        hit = np.flatnonzero(low.max(axis=1) > low.min(axis=1))
        spectra[hit, np.argmax(low[hit], axis=1), side] = value
        hits.append(hit.size)
        return spectra

    monkeypatch.setattr(w_audit, "_crosscheck_spectra", lambda *args: None)
    monkeypatch.setattr(w_audit, "wclass_cut_spectra", corrupt)
    with pytest.raises(VerificationError, match=f"probability {value} lies outside"):
        lemma_scan(0.1, 0.05)
    assert hits[0] > 0


def test_lemma_scan_validation():
    with pytest.raises(ValueError):
        lemma_scan(0.4, 0.05)
    with pytest.raises(ValueError):
        lemma_scan(-0.1, 0.05)
    with pytest.raises(ValueError):
        lemma_scan(0.001, 0.05)
    with pytest.raises(ValueError):
        lemma_scan(float("nan"), 0.05)
    with pytest.raises(ValueError):
        lemma_scan(0.2, -1.0)
    with pytest.raises(ValueError):
        lemma_scan(0.2, float("nan"))
    with pytest.raises(ValueError):
        lemma_scan(0.2, float("inf"))
    with pytest.raises(ValueError, match="outside the ball"):
        lemma_scan(0.02, 2.0)
    # at step 1/3 the only grid point is the equal-weight point itself
    with pytest.raises(ValueError, match="outside the ball"):
        lemma_scan(1.0 / 3.0, 0.0)


_weights = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _wclass_points(draw):
    """W-class parameters: generic, on the d = 0 face, or with one x within 1e-6 of 1/2."""
    weights = draw(st.tuples(_weights, _weights, _weights, _weights))
    kind = draw(st.sampled_from(["generic", "face", "near-half"]))
    if kind == "generic":
        return WClassParams(*(w / sum(weights) for w in weights[:3]))
    if kind == "face":
        return WClassParams(*(w / sum(weights[:3]) for w in weights[:3]))
    # d = 0 and one parameter at 1/2 + eps, where the 2x2 root goes to 0
    half = 0.5 + draw(st.floats(min_value=-1e-6, max_value=1e-6))
    share = weights[0] / (weights[0] + weights[1])
    values = [half, (1.0 - half) * share, (1.0 - half) * (1.0 - share)]
    shift = draw(st.integers(0, 2))
    return WClassParams(*(values[shift:] + values[:shift]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_wclass_points(), min_size=1, max_size=8))
def test_closed_form_2x2_eigenvalues_match_lapack(points):
    # amplitude-major, as the scan holds it: psi[q1, q2, q3] is a row over the states
    psi = np.stack([w_class(p).amplitudes.real.reshape(2, 2, 2) for p in points], axis=-1)
    for k in (1, 2, 3):
        p, q, r = w_audit._marginal_entries(psi, k, np.empty((3, len(points))))
        marginals = np.moveaxis(np.array([[p, r], [r, q]]), -1, 0)
        for params, marginal in zip(points, marginals):
            traced = {0, 1, 2} - {k - 1}
            direct = partial_trace(density(w_class(params)), traced).entries
            assert np.abs(marginal - direct).max() <= 1e-15
        closed = np.stack(
            w_audit._symmetric_2x2_eigenvalues(p, q, r, np.empty((2, len(points)))), axis=-1
        )
        assert np.abs(closed - np.linalg.eigvalsh(marginals)).max() <= 1e-12


def test_lemma_scan_catches_a_contraction_over_the_wrong_qubit(monkeypatch):
    real = w_audit._marginal_entries
    monkeypatch.setattr(
        w_audit, "_marginal_entries", lambda psi, k, out: real(psi, k % 3 + 1, out)
    )
    with pytest.raises(StructureMismatchError):
        lemma_scan(0.2, 0.05)


def test_lemma_scan_catches_a_nan_closed_form(monkeypatch):
    real = w_audit.wclass_cut_spectra

    def nan_at_first_point(a, b, c, d, out):
        spectra = real(a, b, c, d, out)
        spectra[0, 1, 0] = np.nan
        return spectra

    monkeypatch.setattr(w_audit, "wclass_cut_spectra", nan_at_first_point)
    with pytest.raises(StructureMismatchError, match="cut 2"):
        lemma_scan(0.2, 0.05)
    # a NaN and a 1e-9 shift at two points of the one chunk, each first in turn: the
    # error names the earlier point in grid order and its cut, whichever cut is lower
    grid = _scalar_grid(0.2)
    for nan_at, shift_at in [((3, 2), (7, 0)), ((7, 0), (3, 2)), ((2, 0), (2, 1))]:

        def nan_and_shift(a, b, c, d, out, nan_at=nan_at, shift_at=shift_at):
            spectra = real(a, b, c, d, out)
            spectra[nan_at + (1,)] = np.nan
            spectra[shift_at + (0,)] += 1e-9
            return spectra

        monkeypatch.setattr(w_audit, "wclass_cut_spectra", nan_and_shift)
        point, cut = min(nan_at, shift_at)
        with pytest.raises(StructureMismatchError) as caught:
            lemma_scan(0.2, 0.05)
        assert str(caught.value).endswith(f"at {grid[point]}, cut {cut + 1}")


def test_lemma_scan_runs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran inside the scan")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    report = lemma_scan(0.05, 0.05)
    assert report.points_tested == math.comb(20, 3)
    assert report.violations == ()


def test_exact_verdicts_run_no_eigensolver_or_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver or SVD ran behind an exact verdict")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    classes = all_pair_classifications()
    b_pairs = [c for c in classes if c.category == "B"]
    forms = [btype_form(c.m, c.n, c.witness_k).form for c in b_pairs]
    assert (len(b_pairs), forms.count("I"), forms.count("II")) == (10, 4, 6)
    for c in classes:
        if c.category == "A":
            assert atype_structure(c.m, c.n, c.witness_k).axis_overlap == 1.0
        elif c.category == "C":
            assert ctype_structure(c.m, c.n).sign_residual == 0.0
    verdicts = [ghz_cloning.triple_clonability(t) for t in ghz_cloning.all_triples()]
    assert sum(v.clonable for v in verdicts) == 32
    for pair in ghz_cloning.all_pairs():
        assert dict(ghz_cloning.synthesize_cloner(pair).fidelities) == dict.fromkeys(pair, 1.0)


def _binary_entropy(p):
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@pytest.mark.parametrize("step", [0.02, 0.01])
def test_lemma_scan_reports_its_grid_margin(step):
    radius = 0.05
    report = lemma_scan(step, radius)
    assert report.grid_max_point == WClassParams(0.32, 0.32, 0.36)
    assert report.grid_max_entropy_bits == pytest.approx(0.9043814577, abs=1e-10)
    # the scan's own value, with no recompute, is the one-point closed form's
    assert report.grid_max_entropy_bits == wclass_min_cut_entropy(report.grid_max_point)[1]
    # the supremum outside the ball sits at d = 0, two parameters r/4 below 1/3
    supremum = _binary_entropy(1.0 / 3.0 - radius / 4.0)
    assert supremum == pytest.approx(0.9052854, abs=1e-7)
    assert report.grid_max_entropy_bits < supremum < W_CUT_ENTROPY_BITS


def test_lemma_scan_grid_margin_skips_the_ball():
    step, radius = 0.05, 0.2
    third = 1.0 / 3.0
    entropies = {
        p: wclass_min_cut_entropy(p)[1] for p in _scalar_grid(step)
        if abs(p.a - third) + abs(p.b - third) + abs(p.c - third) + p.d > radius
    }
    report = lemma_scan(step, radius)
    assert report.grid_max_entropy_bits == pytest.approx(max(entropies.values()), abs=1e-12)
    assert entropies[report.grid_max_point] == report.grid_max_entropy_bits
    # the grid's overall maximum lies inside this ball
    assert max(wclass_min_cut_entropy(p)[1] for p in _scalar_grid(step)) > max(
        entropies.values()
    )
