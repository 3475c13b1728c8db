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
Every circuit returned is verified by direct simulation first. Both checks
run on the integer amplitudes sqrt(2) * ghz (ghz_signs), so each is exact:
the witness needs no tolerance and a verified fidelity is exactly 1.0.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    VerificationError,
    apply_circuit,
    integer_rank,
    qubit_cut_matrix,
)
from .states import GHZ_LABELS, GhzLabel, ghz_signs

BLANK_DEFAULT = GhzLabel(0, 0, 0)


class NoCircuitFound(VerificationError):
    """No local circuit clones the set, or the closed-form one failed verification."""


class CloningInconsistency(VerificationError):
    """The closed-form verdict and the Bell-triple witness disagree; one of them is wrong."""


class CloningCircuit(NamedTuple):
    """Gate layers (applied in order) over the original+clone register.

    fidelities holds each member's clone fidelity from the verification that
    synthesize_cloner ran; it is empty for a circuit built by hand.
    """

    layers: tuple[LocalGate, ...]
    blank: GhzLabel
    fidelities: tuple[tuple[GhzLabel, float], ...] = ()


@dataclass(frozen=True)
class TripleVerdict:
    """A GHZ triple's Bell-triple witness cut if refused, else its verified circuit.

    A dataclass, not a NamedTuple like the other plain records: bench/workloads.py
    tells a verdict from a clone result, a (circuit, fidelities) tuple, by
    isinstance(output, tuple).
    """

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
    """Fidelity of the circuit output with ghz(s) (x) ghz(s) for each member.

    The circuit runs on the Gaussian-integer amplitudes ghz_signs(s) (x)
    ghz_signs(blank), and the fidelity is |<u|v>|^2 / (<u|u><v|v>) against
    u = ghz_signs(s) (x) ghz_signs(s). Every term is a small integer, so the
    value is exact: 1.0 for a cloner, 0.5 for a wrong quarter turn.
    """
    blank_signs = ghz_signs(circuit.blank)
    fidelities: dict[GhzLabel, float] = {}
    for label in states:
        source = ghz_signs(label)
        start = StateVector(6, np.outer(source, blank_signs).ravel())
        produced = apply_circuit(start, circuit.layers).amplitudes
        target = np.outer(source, source).ravel()
        overlap = np.vdot(target, produced)
        norms = np.vdot(target, target).real * np.vdot(produced, produced).real
        fidelities[label] = float((overlap.real**2 + overlap.imag**2) / norms)
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
    if worst != 1.0:
        raise NoCircuitFound(
            f"closed-form circuit for {_format_members(members)} fails verification: "
            f"worst fidelity {worst!r}, not 1"
        )
    return CloningCircuit(layers, blank, tuple(fidelities.items()))


def _bell_like_across(signs: np.ndarray, qubit: int) -> bool:
    """Three orthogonal maximally entangled states confined to a 2x2 subspace?

    signs stacks the integer amplitudes sqrt(2) * psi of the three states; the
    cut puts qubit (0-based) on side B. With M each state's cut matrix, the
    states are orthogonal when their Gram matrix is diagonal, their joint A-side
    support is the rank of [M1 | M2 | M3], and a state is maximally entangled
    when M^T M is the identity. Side B is one qubit, so its joint support is
    2-dimensional whenever any state is entangled and needs no check.
    """
    if np.triu(signs @ signs.T, 1).any():
        return False
    mats = [qubit_cut_matrix(s, qubit) for s in signs]
    if integer_rank(np.hstack(mats)) != 2:
        return False
    return all(np.array_equal(m.T @ m, np.eye(2, dtype=m.dtype)) for m in mats)


def bell_triple_cut(triple: Iterable[GhzLabel]) -> Bipartition | None:
    """Cut across which the triple reduces to three Bell states, if any.

    At most one of the three single-qubit cuts can qualify for a set of three
    distinct GHZ labels, so the scan order does not matter.
    """
    members = _normalize_members(triple)
    if len(members) != 3:
        raise ValueError("the Bell-triple criterion applies to triples")
    signs = np.stack([ghz_signs(label) for label in members])
    for qubit in range(3):
        if _bell_like_across(signs, qubit):
            return Bipartition(3, frozenset({qubit}))
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
