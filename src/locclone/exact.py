"""The exact core on plain ints: errors, index checks, cuts, gates, cut columns, GHZ labels.

It imports no numpy, so the GHZ half (ghz_cloning) and the command-line boundary
(cli, report) run without it. Every gate the GHZ half emits is monomial, and GATES
defines each by its name alone as (bit flip f, quarter turns t): |b> -> i^(t*b) |b xor f>.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

GATES: dict[str, tuple[int, int]] = {"X": (1, 0), "Z": (0, 2), "S": (0, 1), "Sdg": (0, 3)}


class VerificationError(Exception):
    """A check on a computed value failed: exit 1, where bad input (ValueError) exits 2."""


class StructureMismatchError(VerificationError):
    """A W pair or W-class blank failed the structural check its claim promises."""


def integer_index(value: object, what: str) -> int:
    """An index as a plain int: numpy ints pass, while a bool, 1.0 or "1" raises
    ValueError naming what. Qubit, W basis and cut indices all go through it."""
    # bool is an int; numpy's bool (type bool_ before numpy 2) is no int, yet an index before 2
    if type(value).__name__ not in ("bool", "bool_"):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} is not an integer")


@dataclass(frozen=True)
class Bipartition:
    """Cut of an n-qubit register; side_b lists the qubits on the B side (0-based)."""

    n_qubits: int
    side_b: frozenset[int]

    def __post_init__(self) -> None:
        side_b = frozenset(integer_index(q, "qubit index") for q in self.side_b)
        object.__setattr__(self, "side_b", side_b)
        if any(q < 0 or q >= self.n_qubits for q in side_b):
            raise ValueError(f"side_b {sorted(side_b)} out of range for {self.n_qubits} qubits")
        if not side_b or len(side_b) == self.n_qubits:
            raise ValueError("side_b must be a nonempty proper subset of the register")

    @property
    def side_a(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n_qubits) if q not in self.side_b)


class SingleQubitGate(NamedTuple):
    """The gate GATES names, acting on one qubit of the register."""

    target: int
    name: str


@dataclass(frozen=True)
class TransversalCnot:
    """Qubit-wise CNOT between the two equal halves of a joint register.

    direction "forward" controls on the first (original) half and targets the
    second (clone) half; "reverse" swaps the roles.
    """

    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "reverse"):
            raise ValueError(f"unknown transversal direction {self.direction!r}")


LocalGate = SingleQubitGate | TransversalCnot


def gate_action(gate: SingleQubitGate, n_qubits: int) -> tuple[int, int]:
    """The gate's (bit flip, quarter turns); ValueError for a target off the register or a
    name GATES lacks. Both circuit simulators read every gate through it."""
    if not 0 <= gate.target < n_qubits:
        raise ValueError(f"gate target {gate.target} out of range for {n_qubits} qubits")
    if gate.name not in GATES:
        raise ValueError(f"unknown gate {gate.name!r}; the gates are {', '.join(GATES)}")
    return GATES[gate.name]


# Readers of the 4x2 cut matrix's columns |0> and |1> at qubit k (1..3) out of 8
# amplitudes: the other two qubits on rows in amplitude order, as registers.cut_matrix has them
_CUT_COLUMNS = {
    k: tuple(operator.itemgetter(*(i for i in range(8) if (i >> (3 - k)) & 1 == b)) for b in (0, 1))
    for k in (1, 2, 3)
}


def cut_columns(signs: Sequence[int], k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Columns |0> and |1> of the 4x2 cut matrix of 8 amplitudes at qubit k (1..3): the
    Bell-triple witness (ghz_cloning) and the W-pair taxonomy (w_audit) both read them."""
    zero, one = _CUT_COLUMNS[k]
    return zero(signs), one(signs)


def column_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


@dataclass(frozen=True, order=True)
class GhzLabel:
    """Label (p, i, j) of a GHZ basis state; each component is the int 0 or 1."""

    p: int
    i: int
    j: int

    def __post_init__(self) -> None:
        for name in ("p", "i", "j"):
            bit = getattr(self, name)
            # 1.0 and True equal a bit, yet print as "1.0" and "True"
            if type(bit) is not int or bit not in (0, 1):
                raise ValueError(f"label component {name}={bit!r} is not a bit")

    def __str__(self) -> str:
        return f"{self.p},{self.i},{self.j}"


GHZ_LABELS: tuple[GhzLabel, ...] = tuple(GhzLabel(*bits) for bits in product((0, 1), repeat=3))


def ghz_signs(label: GhzLabel) -> tuple[int, ...]:
    """Integer amplitudes of ghz(label) times sqrt(2): one +1 and one (-1)^p."""
    signs = [0] * 8
    signs[(label.i << 1) | label.j] = 1
    signs[4 | ((1 - label.i) << 1) | (1 - label.j)] = 1 - 2 * label.p
    return tuple(signs)


def parse_ghz_label(text: str) -> GhzLabel:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) != 3 or any(piece not in ("0", "1") for piece in parts):
        raise ValueError(f"GHZ label must be three bits 'p,i,j', got {text!r}")
    return GhzLabel(*(int(piece) for piece in parts))


def parse_w_index(text: str) -> int:
    t = text.strip().upper()
    if len(t) == 2 and t[0] == "W" and t[1] in "12345678":
        return int(t[1])
    raise ValueError(f"W basis label must be W1..W8, got {text!r}")


def parse_decimal(text: str) -> float:
    """A float written in ASCII without '_'; float() alone also reads other scripts' digits."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII decimal: {text!r}")
    return float(text)
