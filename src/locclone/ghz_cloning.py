"""LOCC cloning of GHZ basis states, decided in closed form.

Party s holds original qubit s and clone qubit s+3, so every layer below is
local; a nonstandard blank is first rotated to Psi(0,0,0). Two or three GHZ
basis states Psi(p,i,j) clone with a known GHZ blank exactly when one of two
routes applies. If the members' (i, j) are distinct, a forward transversal
CNOT copies (i, j) but not p, and corrections diag(1, i^t) on the clone
qubits fix the phase when t1 + (1-2i)t2 + (1-2j)t3 = 2p (mod 4) has a common
solution over the members. If a pair shares (i, j), a reverse transversal
CNOT copies p but resets the clone bits to (0, 0), and bit flips restore them.
Every other set is refused without simulation; for a triple that is the no-go
case of three Bell states across one cut, which triple_clonability checks.
Every circuit returned is verified by direct simulation first.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .registers import (
    Bipartition,
    GATE_S,
    GATE_SDG,
    GATE_X,
    GATE_Z,
    LocalGate,
    SingleQubitGate,
    StateVector,
    TransversalCnot,
    apply_circuit,
    cut_matrix,
    fidelity_pure,
    psd_rank,
    tensor,
)
from .states import GHZ_LABELS, GhzLabel, ghz

FIDELITY_TOL = 1e-9
_ORTHO_TOL = 1e-12

BLANK_DEFAULT = GhzLabel(0, 0, 0)


class NoCircuitFound(Exception):
    """No local circuit clones the set, or the closed-form one failed verification."""


class CloningInconsistency(Exception):
    """The closed-form verdict and the Bell-triple witness disagree; one of them is wrong."""


@dataclass(frozen=True)
class CloningCircuit:
    """Gate layers (applied in order) over the original+clone register.

    fidelities holds each member's clone fidelity from the verification that
    synthesize_cloner ran; it is empty for a circuit built by hand.
    """

    layers: tuple[LocalGate, ...]
    blank: GhzLabel
    fidelities: tuple[tuple[GhzLabel, float], ...] = ()


@dataclass(frozen=True)
class TripleVerdict:
    clonable: bool
    witness_cut: Bipartition | None
    circuit: CloningCircuit | None


def _normalize_members(states: Iterable[GhzLabel]) -> tuple[GhzLabel, ...]:
    members = sorted(set(states))
    if not 2 <= len(members) <= 3:
        raise ValueError(f"need 2 or 3 distinct GHZ labels, got {len(members)}")
    return tuple(members)


def _format_members(members: Sequence[GhzLabel]) -> str:
    return "{" + ", ".join(f"({label})" for label in members) + "}"


def _blank_pre_rotation(blank: GhzLabel) -> tuple[LocalGate, ...]:
    """Local clone-register gates mapping ghz(blank) to ghz(0,0,0)."""
    gates: list[LocalGate] = []
    if blank.p:
        gates.append(SingleQubitGate(3, GATE_Z, "Z"))
    if blank.i:
        gates.append(SingleQubitGate(4, GATE_X, "X"))
    if blank.j:
        gates.append(SingleQubitGate(5, GATE_X, "X"))
    return tuple(gates)


# quarter-turn exponent -> correction gate diag(1, i^t) on a clone qubit
_PHASE_GATES = {1: ("S", GATE_S), 2: ("Z", GATE_Z), 3: ("Sdg", GATE_SDG)}


def _phase_corrections(members: Sequence[GhzLabel]) -> tuple[int, int, int] | None:
    """Quarter-turn exponents solving the clone-phase congruences, or None.

    Search order prefers identity, then Z, then S/Sdg, so the simplest valid
    correction is returned first.
    """
    rows = [(1, 1 - 2 * s.i, 1 - 2 * s.j) for s in members]
    rhs = [2 * s.p for s in members]
    order = (0, 2, 1, 3)
    for t1 in order:
        for t2 in order:
            for t3 in order:
                if all(
                    (r0 * t1 + r1 * t2 + r2 * t3 - b) % 4 == 0
                    for (r0, r1, r2), b in zip(rows, rhs)
                ):
                    return (t1, t2, t3)
    return None


def _phase_gate_layer(exponents: tuple[int, int, int]) -> tuple[LocalGate, ...]:
    gates: list[LocalGate] = []
    for offset, t in enumerate(exponents):
        if t:
            name, matrix = _PHASE_GATES[t]
            gates.append(SingleQubitGate(3 + offset, matrix, name))
    return tuple(gates)


def verify_cloner(
    circuit: CloningCircuit, states: Iterable[GhzLabel]
) -> Mapping[GhzLabel, float]:
    """Fidelity of the circuit output with ghz(s) (x) ghz(s) for each member."""
    blank_state = ghz(circuit.blank)
    fidelities: dict[GhzLabel, float] = {}
    for label in states:
        source = ghz(label)
        produced = apply_circuit(tensor(source, blank_state), circuit.layers)
        fidelities[label] = fidelity_pure(produced, tensor(source, source))
    return fidelities


def _cloning_layers(members: Sequence[GhzLabel]) -> tuple[LocalGate, ...] | None:
    """Layers after the blank pre-rotation that clone the members, or None."""
    bit_pairs = [(s.i, s.j) for s in members]
    if len(set(bit_pairs)) == len(members):
        exponents = _phase_corrections(members)
        if exponents is None:
            return None
        return (TransversalCnot("forward"),) + _phase_gate_layer(exponents)
    if len(members) != 2:
        return None
    # a pair sharing (i, j): the reverse layer copies p, then X gates restore the bits
    return (TransversalCnot("reverse"),) + _blank_pre_rotation(GhzLabel(0, *bit_pairs[0]))


def synthesize_cloner(
    states: Iterable[GhzLabel], blank: GhzLabel = BLANK_DEFAULT
) -> CloningCircuit:
    """Verified local cloning circuit for 2 or 3 GHZ basis states.

    Raises NoCircuitFound without simulating anything when neither route of
    the closed form applies, which is the expected outcome exactly for the
    no-go triples, and also when the closed-form circuit fails verification.
    The returned circuit carries the member fidelities of that verification.
    """
    members = _normalize_members(states)
    layers = _cloning_layers(members)
    if layers is None:
        raise NoCircuitFound(f"no local circuit clones {_format_members(members)}")
    layers = _blank_pre_rotation(blank) + layers
    fidelities = verify_cloner(CloningCircuit(layers, blank), members)
    worst = min(fidelities.values())
    if not worst >= 1.0 - FIDELITY_TOL:
        raise NoCircuitFound(
            f"closed-form circuit for {_format_members(members)} fails verification: "
            f"worst fidelity {worst!r} below 1 - {FIDELITY_TOL:g}"
        )
    return CloningCircuit(layers, blank, tuple(fidelities.items()))


def _bell_like_across(states: Sequence[StateVector], cut: Bipartition) -> bool:
    """Three orthogonal maximally entangled states confined to a 2x2 subspace?

    All of it comes from the stacked cut matrices M (side A on rows, B on columns):
    the joint supports are the ranks of sum M M^dagger and sum M^T conj(M), and
    the Schmidt coefficients come from one batched SVD.
    """
    for u, v in itertools.combinations(states, 2):
        if abs(np.vdot(u.amplitudes, v.amplitudes)) > _ORTHO_TOL:
            return False
    mats = np.stack([cut_matrix(s, cut) for s in states])
    joint_a = np.einsum("sij,skj->ik", mats, mats.conj())
    joint_b = np.einsum("sji,sjk->ik", mats, mats.conj())
    if psd_rank(joint_a) != 2 or psd_rank(joint_b) != 2:
        return False
    coeffs = np.linalg.svd(mats, compute_uv=False) ** 2
    return bool(np.all(np.abs(coeffs - 0.5) <= _ORTHO_TOL))


def bell_triple_cut(triple: Iterable[GhzLabel]) -> Bipartition | None:
    """Cut across which the triple reduces to three Bell states, if any.

    At most one of the three single-qubit cuts can qualify for a set of three
    distinct GHZ labels, so the scan order does not matter.
    """
    members = _normalize_members(triple)
    if len(members) != 3:
        raise ValueError("the Bell-triple criterion applies to triples")
    states = [ghz(label) for label in members]
    for k in (1, 2, 3):
        cut = Bipartition(3, frozenset({k - 1}))
        if _bell_like_across(states, cut):
            return cut
    return None


def triple_clonability(triple: Iterable[GhzLabel]) -> TripleVerdict:
    """No-go witness or a verified circuit for a triple of GHZ states.

    The verdict comes from the closed form; the Bell-triple witness is computed
    for every triple and must agree with it in both directions.
    """
    members = _normalize_members(triple)
    witness = bell_triple_cut(members)
    clonable = _cloning_layers(members) is not None
    if clonable == (witness is not None):
        raise CloningInconsistency(
            f"{_format_members(members)}: clonable={clonable} in closed form, "
            f"yet the Bell-triple witness cut is {witness}"
        )
    if witness is not None:
        return TripleVerdict(False, witness, None)
    return TripleVerdict(True, None, synthesize_cloner(members))


def all_pairs() -> tuple[tuple[GhzLabel, GhzLabel], ...]:
    return tuple(itertools.combinations(GHZ_LABELS, 2))


def all_triples() -> tuple[tuple[GhzLabel, GhzLabel, GhzLabel], ...]:
    return tuple(itertools.combinations(GHZ_LABELS, 3))
