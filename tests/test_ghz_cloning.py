"""Cloning circuit synthesis, verification, and the triple no-go detector."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locclone import exact, ghz_cloning
from locclone.ghz_cloning import (
    CloningCircuit,
    CloningInconsistency,
    NoCircuitFound,
    all_pairs,
    all_triples,
    bell_triple_cut,
    synthesize_cloner,
    triple_clonability,
    verify_cloner,
)
from locclone.registers import Bipartition, SingleQubitGate, StateVector, TransversalCnot
from locclone.states import GHZ_LABELS, GhzLabel, ghz, ghz_signs

from references import embed_operator, reference_bell_like

L = GhzLabel


def all_label_pairs():
    return list(itertools.combinations(GHZ_LABELS, 2))


def all_label_triples():
    return list(itertools.combinations(GHZ_LABELS, 3))


def test_every_pair_clones():
    worst = 1.0
    for pair in all_label_pairs():
        circuit = synthesize_cloner(pair)
        worst = min(worst, min(verify_cloner(circuit, pair).values()))
    assert worst == 1.0


def test_plain_pair_needs_only_the_cnot():
    circuit = synthesize_cloner([L(0, 0, 0), L(0, 1, 1)])
    assert len(circuit.layers) == 1
    assert isinstance(circuit.layers[0], TransversalCnot)
    assert circuit.layers[0].direction == "forward"


def test_shared_bit_pair_uses_reverse_route():
    # (0,0,0) and (1,0,0) share (i,j), so the forward copy cannot split them
    circuit = synthesize_cloner([L(0, 0, 0), L(1, 0, 0)])
    directions = [g.direction for g in circuit.layers if isinstance(g, TransversalCnot)]
    assert "reverse" in directions
    assert all(f == 1.0 for f in verify_cloner(circuit, [L(0, 0, 0), L(1, 0, 0)]).values())


def test_forward_cnot_alone_misses_the_phase():
    circuit = CloningCircuit((TransversalCnot("forward"),), L(0, 0, 0))
    fidelities = verify_cloner(circuit, [L(1, 0, 0)])
    assert fidelities[L(1, 0, 0)] == 0.0


def test_an_extra_quarter_turn_gives_exactly_one_half():
    pair = [L(0, 0, 0), L(0, 1, 1)]
    circuit = synthesize_cloner(pair)
    skewed = CloningCircuit(circuit.layers + (SingleQubitGate(3, "S"),), circuit.blank)
    assert set(verify_cloner(skewed, pair).values()) == {0.5}


def test_triple_with_phase_corrections():
    members = [L(0, 0, 0), L(1, 0, 1), L(0, 1, 0)]
    circuit = synthesize_cloner(members)
    names = sorted(
        (g.name, g.target) for g in circuit.layers if isinstance(g, SingleQubitGate)
    )
    assert names == [("S", 3), ("Sdg", 5)]
    assert all(f == 1.0 for f in verify_cloner(circuit, members).values())


def test_rotated_blank_gets_pre_rotation():
    blank = L(1, 1, 0)
    circuit = synthesize_cloner([L(0, 0, 0), L(0, 1, 1)], blank)
    head = [(g.name, g.target) for g in circuit.layers[:2] if isinstance(g, SingleQubitGate)]
    assert head == [("Z", 3), ("X", 4)]
    assert all(f == 1.0 for f in verify_cloner(circuit, [L(0, 0, 0), L(0, 1, 1)]).values())


def test_any_blank_works_for_sampled_pairs():
    rng = np.random.default_rng(31)
    pairs = all_label_pairs()
    for _ in range(8):
        pair = pairs[int(rng.integers(len(pairs)))]
        blank = GHZ_LABELS[int(rng.integers(8))]
        circuit = synthesize_cloner(pair, blank)
        assert circuit.blank == blank
        assert min(verify_cloner(circuit, pair).values()) == 1.0


def test_circuits_stay_local():
    # no gate couples the two parties: only transversal CNOTs and 1-qubit gates
    for members in ([L(0, 0, 0), L(1, 1, 0)], [L(0, 0, 0), L(0, 0, 1), L(1, 1, 0)]):
        circuit = synthesize_cloner(members)
        for gate in circuit.layers:
            assert isinstance(gate, (SingleQubitGate, TransversalCnot))
            if isinstance(gate, SingleQubitGate):
                assert 0 <= gate.target < 6


def test_synthesize_rejects_wrong_set_sizes():
    with pytest.raises(ValueError):
        synthesize_cloner([L(0, 0, 0)])
    with pytest.raises(ValueError):
        synthesize_cloner([L(0, 0, 0), L(0, 0, 1), L(0, 1, 0), L(0, 1, 1)])


def test_no_go_triple_raises_with_members_named():
    with pytest.raises(NoCircuitFound) as excinfo:
        synthesize_cloner([L(0, 0, 0), L(0, 0, 1), L(1, 0, 0)])
    assert "{(0,0,0), (0,0,1), (1,0,0)}" in str(excinfo.value)


@pytest.mark.parametrize(
    "triple, side_b",
    [
        ([L(0, 0, 0), L(0, 0, 1), L(1, 0, 0)], {2}),  # all share i
        ([L(0, 0, 0), L(0, 1, 0), L(1, 0, 0)], {1}),  # all share j
        ([L(0, 0, 0), L(0, 1, 1), L(1, 0, 0)], {0}),  # all share i xor j
    ],
)
def test_bell_triple_cut_locations(triple, side_b):
    cut = bell_triple_cut(triple)
    assert cut is not None
    assert set(cut.side_b) == side_b


def test_bell_triple_cut_absent_for_spread_triple():
    assert bell_triple_cut([L(0, 0, 0), L(1, 0, 1), L(0, 1, 0)]) is None


def test_bell_triple_cut_needs_three():
    with pytest.raises(ValueError):
        bell_triple_cut([L(0, 0, 0), L(0, 0, 1)])


def test_triple_survey_counts_and_invariants():
    clonable = 0
    for triple in all_label_triples():
        verdict = triple_clonability(triple)
        assert verdict.clonable == (verdict.circuit is not None)
        assert verdict.clonable == (verdict.witness_cut is None)
        if verdict.clonable:
            clonable += 1
            assert min(verify_cloner(verdict.circuit, triple).values()) == 1.0
    assert clonable == 32
    assert len(all_label_triples()) - clonable == 24


def test_enumerations_cover_the_basis():
    assert len(all_pairs()) == 28
    assert len(all_triples()) == 56
    assert all(len(set(t)) == 3 for t in all_triples())


def test_witness_matches_shared_label_pattern():
    # a triple is refused exactly when one label coordinate is constant
    for triple in all_label_triples():
        same_i = len({s.i for s in triple}) == 1
        same_j = len({s.j for s in triple}) == 1
        same_x = len({s.i ^ s.j for s in triple}) == 1
        verdict = triple_clonability(triple)
        assert verdict.clonable != (same_i or same_j or same_x)


def test_closed_form_decides_every_set_for_every_blank(monkeypatch):
    # refusals come from the rule alone: not one circuit is simulated for them
    calls = []
    simulate = ghz_cloning.apply_monomial

    def counting(state, layers, n):
        calls.append(layers)
        return simulate(state, layers, n)

    monkeypatch.setattr(ghz_cloning, "apply_monomial", counting)
    verified = refused = 0
    for blank in GHZ_LABELS:
        for members in all_label_pairs() + all_label_triples():
            before = len(calls)
            try:
                circuit = synthesize_cloner(members, blank)
            except NoCircuitFound:
                assert len(calls) == before
                refused += 1
                continue
            assert len(calls) - before == len(members)
            assert min(verify_cloner(circuit, members).values()) == 1.0
            verified += 1
    assert (verified, refused) == (480, 192)


def test_wrong_phase_gate_fails_verification(monkeypatch):
    # a quarter turn that is really a half turn: the simulation must object
    monkeypatch.setitem(exact.GATES, "S", exact.GATES["Z"])
    members = r"\{\(0,0,0\), \(0,1,0\), \(1,0,1\)\}"
    with pytest.raises(NoCircuitFound, match=members + r".*worst fidelity 0\.5, not 1"):
        synthesize_cloner([L(0, 0, 0), L(1, 0, 1), L(0, 1, 0)])


@pytest.mark.parametrize(
    "triple, forced_cut",
    [
        ([L(0, 0, 0), L(0, 0, 1), L(1, 0, 0)], None),  # no-go triple, witness hidden
        ([L(0, 0, 0), L(1, 0, 1), L(0, 1, 0)], Bipartition(3, frozenset({2}))),
    ],
)
def test_witness_disagreeing_with_closed_form_raises(monkeypatch, triple, forced_cut):
    monkeypatch.setattr(ghz_cloning, "bell_triple_cut", lambda members: forced_cut)
    with pytest.raises(CloningInconsistency):
        triple_clonability(triple)


def test_synthesized_circuit_carries_its_fidelities():
    clonable = all_pairs() + tuple(t for t in all_triples() if bell_triple_cut(t) is None)
    for members in clonable:
        circuit = synthesize_cloner(members)
        assert [label for label, _ in circuit.fidelities] == sorted(members)
        assert dict(circuit.fidelities) == verify_cloner(circuit, members)


CUTS = [Bipartition(3, frozenset({k})) for k in range(3)]


def test_cut_matrix_witness_matches_the_density_route():
    found = 0
    for triple in all_label_triples():
        states = [ghz(label) for label in triple]
        signs = np.stack([ghz_signs(label) for label in triple])
        for k, cut in enumerate(CUTS):
            verdict = ghz_cloning._bell_like_across(signs, k)
            assert verdict == reference_bell_like(states, cut)
            found += verdict
    assert found == 24  # one witness cut per refused triple


def _kets(*terms):
    """Integer amplitudes on three qubits from (sign, basis index) terms."""
    signs = np.zeros(8, dtype=np.int64)
    for sign, index in terms:
        signs[index] = sign
    return signs


@pytest.mark.parametrize(
    "kets, expected",
    [
        # GHZ (0,0,0), (1,0,0), (0,0,1): three Bell states on A-side support {00, 11}
        ([((1, 0), (1, 7)), ((1, 0), (-1, 7)), ((1, 1), (1, 6))], True),
        # the first state twice: not orthogonal
        ([((1, 0), (1, 7)), ((1, 0), (1, 7)), ((1, 0), (-1, 7))], False),
        # |001> is orthogonal to both and shares their A-side support, but is a product
        ([((1, 0), (1, 7)), ((1, 0), (-1, 7)), ((1, 1),)], False),
        # GHZ (0,1,0) brings A-side rows 01 and 10: the joint support is 4-dimensional
        ([((1, 0), (1, 7)), ((1, 0), (-1, 7)), ((1, 2), (1, 5))], False),
    ],
)
def test_bell_like_checks_each_condition(kets, expected):
    signs = np.stack([_kets(*terms) for terms in kets])
    assert ghz_cloning._bell_like_across(signs, 2) == expected
    states = [StateVector(3, s / np.linalg.norm(s)) for s in signs.astype(complex)]
    assert reference_bell_like(states, CUTS[2]) == expected


def _random_unitary(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(raw)[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_label_triples()), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_witness_survives_local_unitaries_across_the_cut(triple, k, seed):
    rng = np.random.default_rng(seed)
    cut = CUTS[k]
    local = np.kron(_random_unitary(rng, 4), _random_unitary(rng, 2))
    op = embed_operator(local, 3, list(cut.side_a) + [k])
    rotated = [StateVector(3, op @ ghz(label).amplitudes) for label in triple]
    verdict = ghz_cloning._bell_like_across(np.stack([ghz_signs(label) for label in triple]), k)
    assert reference_bell_like(rotated, cut) == verdict
