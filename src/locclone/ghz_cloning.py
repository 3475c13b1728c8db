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
Every circuit returned is verified by direct simulation first. Each gate
sends a ket to one ket times a power of i, so apply_monomial holds a state as
its few nonzero kets and their quarter turns. Both checks run in plain ints
on the amplitudes sqrt(2) * ghz (ghz_signs), the witness through
exact.cut_columns, so each is exact, the witness needs no tolerance, a verified
fidelity is exactly 1.0 and no numpy loads.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exact import GHZ_LABELS, Bipartition, GhzLabel, LocalGate, SingleQubitGate, TransversalCnot
from .exact import VerificationError, column_dot, cut_columns, gate_action, ghz_signs

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
    """The labels sorted, refused if one is repeated or there are not 2 or 3 of them."""
    members = tuple(sorted(states))
    for first, second in zip(members, members[1:]):
        if first == second:
            raise ValueError(f"GHZ label {first} is repeated; give distinct labels")
    if not 2 <= len(members) <= 3:
        raise ValueError(f"need 2 or 3 distinct GHZ labels, got {len(members)}")
    return members


def _format_members(members: Sequence[GhzLabel]) -> str:
    return "{" + ", ".join(f"({label})" for label in members) + "}"


def _blank_pre_rotation(blank: GhzLabel) -> tuple[LocalGate, ...]:
    """Local clone-register gates mapping ghz(blank) to ghz(0,0,0)."""
    gates: list[LocalGate] = []
    if blank.p:
        gates.append(SingleQubitGate(3, "Z"))
    if blank.i:
        gates.append(SingleQubitGate(4, "X"))
    if blank.j:
        gates.append(SingleQubitGate(5, "X"))
    return tuple(gates)


# quarter-turn exponent -> correction gate diag(1, i^t) on a clone qubit
_PHASE_GATES = {1: "S", 2: "Z", 3: "Sdg"}


def _phase_corrections(members: Sequence[GhzLabel]) -> tuple[int, int, int] | None:
    """Quarter-turn exponents solving the clone-phase congruences, or None.

    Search order prefers identity, then Z, then S/Sdg, so the simplest valid
    correction is returned first. t3 is solved, not searched: the first
    member's t3 coefficient c3 = +/-1 is its own inverse mod 4, so
    t3 = c3 (2p - t1 - c2 t2) mod 4 is the only t3 it accepts.
    """
    rows = [(1 - 2 * s.i, 1 - 2 * s.j, 2 * s.p) for s in members]
    c2, c3, b = rows[0]
    order = (0, 2, 1, 3)
    for t1 in order:
        for t2 in order:
            t3 = c3 * (b - t1 - c2 * t2) % 4
            if all((t1 + r2 * t2 + r3 * t3 - rhs) % 4 == 0 for r2, r3, rhs in rows):
                return (t1, t2, t3)
    return None


def apply_monomial(state: dict[int, int], layers: Sequence[LocalGate], n: int) -> dict[int, int]:
    """Apply gates in listed order to a state held as {basis index: quarter turns t}.

    The amplitude is i^t at each listed index and 0 elsewhere. A named gate sends
    each ket to one ket times i^t (exact.gate_action), and a transversal layer
    XORs one half of the index into the other, so the state keeps its size.
    """
    half = n // 2
    for gate in layers:
        if isinstance(gate, SingleQubitGate):
            flip, turns = gate_action(gate, n)
            bit = 1 << (n - 1 - gate.target)
            state = {k ^ (bit * flip): (t + turns) % 4 if k & bit else t for k, t in state.items()}
        elif isinstance(gate, TransversalCnot):
            if n % 2:
                raise ValueError("transversal CNOT needs equal original and clone halves")
            low = (1 << half) - 1  # the clone half; forward: |a,b> -> |a,a^b>, reverse: |a^b,b>
            if gate.direction == "forward":
                state = {k ^ (k >> half): t for k, t in state.items()}
            else:
                state = {k ^ ((k & low) << half): t for k, t in state.items()}
        else:
            raise TypeError(f"unsupported gate {gate!r}")
    return state


def _product_kets(u: Sequence[int], v: Sequence[int]) -> dict[int, int]:
    """u (x) v for sign vectors of two 3-qubit states; a sign x*y = 1 - t is i^t."""
    return {(a << 3) | b: 1 - x * y for a, x in enumerate(u) if x for b, y in enumerate(v) if y}


def verify_cloner(
    circuit: CloningCircuit, states: Iterable[GhzLabel]
) -> Mapping[GhzLabel, float]:
    """Fidelity of the circuit output with ghz(s) (x) ghz(s) for each member.

    The circuit runs on ghz_signs(s) (x) ghz_signs(blank), whose amplitudes are
    powers of i (apply_monomial), and the fidelity is |<u|v>|^2 / (<u|u><v|v>)
    against u = ghz_signs(s) (x) ghz_signs(s). The overlap is a Gaussian integer
    and each norm a ket count, so the value is exact: 1.0 for a cloner, 0.5 for
    a wrong quarter turn.
    """
    blank_signs = ghz_signs(circuit.blank)
    fidelities: dict[GhzLabel, float] = {}
    for label in states:
        source = ghz_signs(label)
        produced = apply_monomial(_product_kets(source, blank_signs), circuit.layers, 6)
        target = _product_kets(source, source)
        turns = [0, 0, 0, 0]  # overlap terms i^(t_v - t_u), counted by power
        for k, t in produced.items():
            if k in target:
                turns[(t - target[k]) % 4] += 1
        re, im = turns[0] - turns[2], turns[1] - turns[3]
        fidelities[label] = (re * re + im * im) / (len(target) * len(produced))
    return fidelities


def _cloning_layers(members: Sequence[GhzLabel]) -> tuple[LocalGate, ...] | None:
    """Layers after the blank pre-rotation that clone the members, or None."""
    bit_pairs = [(s.i, s.j) for s in members]
    if len(set(bit_pairs)) == len(members):
        exponents = _phase_corrections(members)
        if exponents is None:
            return None
        phases = (SingleQubitGate(3 + q, _PHASE_GATES[t]) for q, t in enumerate(exponents) if t)
        return (TransversalCnot("forward"), *phases)
    if len(members) != 2:
        return None
    # a pair sharing (i, j): the reverse layer copies p, then X gates restore the bits
    return (TransversalCnot("reverse"),) + _blank_pre_rotation(GhzLabel(0, *bit_pairs[0]))


def synthesize_cloner(
    states: Iterable[GhzLabel], blank: GhzLabel = BLANK_DEFAULT
) -> CloningCircuit:
    """Verified local cloning circuit for 2 or 3 distinct GHZ basis states.

    A repeated label or a set of another size raises ValueError. Raises
    NoCircuitFound without simulating anything when neither route of the
    closed form applies, which is the expected outcome exactly for the no-go
    triples, and also when the closed-form circuit fails verification. The
    returned circuit carries the member fidelities of that verification.
    """
    members = _normalize_members(states)
    layers = _cloning_layers(members)
    if layers is None:
        raise NoCircuitFound(f"no local circuit clones {_format_members(members)}")
    return _verified_circuit(members, layers, blank)


def _verified_circuit(
    members: Sequence[GhzLabel], layers: tuple[LocalGate, ...], blank: GhzLabel
) -> CloningCircuit:
    """The blank pre-rotation then layers, returned only if it clones every member."""
    layers = _blank_pre_rotation(blank) + layers
    fidelities = verify_cloner(CloningCircuit(layers, blank), members)
    worst = min(fidelities.values())
    if worst != 1.0:
        raise NoCircuitFound(
            f"closed-form circuit for {_format_members(members)} fails verification: "
            f"worst fidelity {worst!r}, not 1"
        )
    return CloningCircuit(layers, blank, tuple(fidelities.items()))


def _bell_like_across(signs: Sequence[Sequence[int]], qubit: int) -> bool:
    """Three orthogonal maximally entangled states confined to a 2x2 subspace?

    signs lists the integer amplitudes sqrt(2) * psi of the three states; the
    cut puts qubit (0-based) on side B. With M = [u0 | u1] each state's cut
    matrix (exact.cut_columns), states are orthogonal when u0.v0 + u1.v1 = 0,
    and maximally entangled when M^T M = I. Integer columns of such an M are
    each +/-1 on one row, a state's two on different rows, so the joint A-side
    support, rank [M1 | M2 | M3], is the number of rows they touch. That count
    comes first: if it is not 2, the unit-column check fails or the columns
    are units of another rank, so the answer is False either way. Side B is
    one qubit, so its joint support is 2-dimensional when any state is entangled.
    """
    mats = [cut_columns(s, qubit + 1) for s in signs]
    if len({row for m in mats for column in m for row in range(4) if column[row]}) != 2:
        return False
    for (u0, u1), (v0, v1) in itertools.combinations(mats, 2):
        if column_dot(u0, v0) + column_dot(u1, v1):
            return False
    return all(
        column_dot(c0, c0) == column_dot(c1, c1) == 1 and not column_dot(c0, c1) for c0, c1 in mats
    )


def bell_triple_cut(triple: Iterable[GhzLabel]) -> Bipartition | None:
    """Cut across which the triple reduces to three Bell states, if any.

    At most one of the three single-qubit cuts can qualify for a set of three
    distinct GHZ labels, so the scan order does not matter.
    """
    return _bell_triple_cut(_normalize_members(triple))


def _bell_triple_cut(members: Sequence[GhzLabel]) -> Bipartition | None:
    """bell_triple_cut of members already normalised."""
    if len(members) != 3:
        raise ValueError("the Bell-triple criterion applies to triples")
    signs = [ghz_signs(label) for label in members]
    for qubit in range(3):
        if _bell_like_across(signs, qubit):
            return Bipartition(3, frozenset({qubit}))
    return None


def triple_clonability(triple: Iterable[GhzLabel]) -> TripleVerdict:
    """No-go witness or a verified circuit for a triple of GHZ states.

    The verdict comes from the closed form; the Bell-triple witness is computed
    for every triple and must agree with it in both directions. A clonable
    triple's layers go straight to synthesize_cloner's verification, default blank.
    """
    members = _normalize_members(triple)
    witness = _bell_triple_cut(members)
    layers = _cloning_layers(members)
    clonable = layers is not None
    if clonable == (witness is not None):
        raise CloningInconsistency(
            f"{_format_members(members)}: clonable={clonable} in closed form, "
            f"yet the Bell-triple witness cut is {witness}"
        )
    if witness is not None:
        return TripleVerdict(False, witness, None)
    return TripleVerdict(True, None, _verified_circuit(members, layers, BLANK_DEFAULT))


def all_pairs() -> tuple[tuple[GhzLabel, GhzLabel], ...]:
    return tuple(itertools.combinations(GHZ_LABELS, 2))


def all_triples() -> tuple[tuple[GhzLabel, GhzLabel, GhzLabel], ...]:
    return tuple(itertools.combinations(GHZ_LABELS, 3))
