"""The exact core on plain ints: errors, index checks, cuts, gates, GHZ labels, basis signs.

It imports no numpy, so the GHZ half (ghz_cloning), the W pair taxonomy (w_taxonomy)
and the command-line boundary (cli, report) run without it. Every gate the GHZ half
emits is monomial, and GATES defines each by its name alone as (bit flip f, quarter
turns t): |b> -> i^(t*b) |b xor f>.

Its records that check their fields, like wclass.WClassParams, are NamedTuples that check
in __new__, so making them at import costs little and loads no module beyond typing.
"""
from __future__ import annotations

import operator
from itertools import product
from typing import Iterable, NamedTuple, Sequence

GATES: dict[str, tuple[int, int]] = {"X": (1, 0), "Z": (0, 2), "S": (0, 1), "Sdg": (0, 3)}


class VerificationError(Exception):
    """A check on a computed value failed: exit 1, where bad input (ValueError) exits 2."""


class StructureMismatchError(VerificationError):
    """A W pair or W-class blank failed the structural check its claim promises."""


def integer_index(value: object, what: str) -> int:
    """An index as a plain int: numpy ints pass, while a bool, 1.0 or "1" raises
    ValueError naming what. Qubit, W basis and cut indices all go through it."""
    if type(value) is int:  # the common case; bool's type is bool, so it goes on below
        return value
    # bool is an int; numpy's bool (type bool_ before numpy 2) is no int, yet an index before 2
    if type(value).__name__ not in ("bool", "bool_"):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} is not an integer")


class Validated:
    """Ahead of a NamedTuple base, so _make and _replace, like the constructor, run __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> Validated:
        return cls(*iterable)


class Bipartition(
    Validated, NamedTuple("Bipartition", [("n_qubits", int), ("side_b", frozenset[int])])
):
    """Cut of an n-qubit register; side_b lists the qubits on the B side (0-based)."""

    __slots__ = ()

    def __new__(cls, n_qubits: int, side_b: Iterable[int]) -> Bipartition:
        side_b = frozenset(integer_index(q, "qubit index") for q in side_b)
        if any(q < 0 or q >= n_qubits for q in side_b):
            raise ValueError(f"side_b {sorted(side_b)} out of range for {n_qubits} qubits")
        if not side_b or len(side_b) == n_qubits:
            raise ValueError("side_b must be a nonempty proper subset of the register")
        return super().__new__(cls, n_qubits, side_b)

    @property
    def side_a(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n_qubits) if q not in self.side_b)


class SingleQubitGate(NamedTuple):
    """The gate GATES names, acting on one qubit of the register."""

    target: int
    name: str


class TransversalCnot(Validated, NamedTuple("TransversalCnot", [("direction", str)])):
    """Qubit-wise CNOT between the two equal halves of a joint register.

    direction "forward" controls on the first (original) half and targets the
    second (clone) half; "reverse" swaps the roles.
    """

    __slots__ = ()

    def __new__(cls, direction: str) -> TransversalCnot:
        if direction not in ("forward", "reverse"):
            raise ValueError(f"unknown transversal direction {direction!r}")
        return super().__new__(cls, direction)


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
    Bell-triple witness (ghz_cloning) and the W-pair taxonomy (w_taxonomy) both read them."""
    zero, one = _CUT_COLUMNS[k]
    return zero(signs), one(signs)


def column_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


class GhzLabel(Validated, NamedTuple("GhzLabel", [("p", int), ("i", int), ("j", int)])):
    """Label (p, i, j) of a GHZ basis state; each component is the int 0 or 1."""

    __slots__ = ()

    def __new__(cls, p: int, i: int, j: int) -> GhzLabel:
        for name, bit in (("p", p), ("i", i), ("j", j)):
            # 1.0 and True equal a bit, yet print as "1.0" and "True"
            if type(bit) is not int or bit not in (0, 1):
                raise ValueError(f"label component {name}={bit!r} is not a bit")
        return super().__new__(cls, p, i, j)

    def __str__(self) -> str:
        return f"{self.p},{self.i},{self.j}"


GHZ_LABELS: tuple[GhzLabel, ...] = tuple(GhzLabel(*bits) for bits in product((0, 1), repeat=3))


def ghz_signs(label: GhzLabel) -> tuple[int, ...]:
    """Integer amplitudes of ghz(label) times sqrt(2): one +1 and one (-1)^p."""
    signs = [0] * 8
    signs[(label.i << 1) | label.j] = 1
    signs[4 | ((1 - label.i) << 1) | (1 - label.j)] = 1 - 2 * label.p
    return tuple(signs)


# Basis kets per W state, as (bitstring, sign); every amplitude is sign/sqrt(3).
_W_TERMS: dict[int, tuple[tuple[str, int], ...]] = {
    1: (("001", 1), ("100", 1), ("111", 1)),
    2: (("011", 1), ("101", 1), ("110", 1)),
    3: (("001", 1), ("100", -1), ("010", 1)),
    4: (("011", 1), ("101", -1), ("000", 1)),
    5: (("001", 1), ("010", -1), ("111", -1)),
    6: (("011", 1), ("000", -1), ("110", -1)),
    7: (("100", 1), ("111", -1), ("010", 1)),
    8: (("101", 1), ("110", -1), ("000", 1)),
}

# sqrt(3) * the amplitudes of each W state, built once from its kets
_W_SIGNS = {
    n: tuple(sum(sign for bits, sign in terms if int(bits, 2) == i) for i in range(8))
    for n, terms in _W_TERMS.items()
}


def w_signs(n: int) -> tuple[int, ...]:
    """Integer amplitudes of W basis state n times sqrt(3), as plain ints: three entries of +/-1."""
    n = integer_index(n, "W basis index")
    if n not in _W_SIGNS:
        raise ValueError(f"W basis index must be 1..8, got {n!r}")
    return _W_SIGNS[n]


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
