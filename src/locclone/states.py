"""Catalog of the three-qubit states the package reasons about.

Three families:

* the GHZ basis Psi(p,i,j) = (|0 i j> + (-1)^p |1 i~ j~>)/sqrt(2) with
  p,i,j in {0,1} and x~ the complement of x,
* an orthonormal W-type basis W1..W8 (signs kept exactly as cataloged),
* the W class sqrt(a)|001> + sqrt(b)|010> + sqrt(c)|100> + sqrt(d)|000>
  with a,b,c > 0 and d = 1-(a+b+c) >= 0.

Qubits are numbered 1..3 in user-facing labels and 0..2 internally. The
basis states also come as integer sign vectors (ghz_signs = sqrt(2) * ghz,
w_signs = sqrt(3) * w_basis) for the checks that decide exact claims. The
GHZ labels, their signs and the label parsers are exact's, on plain ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the GHZ labels live in exact, for the numpy-free GHZ half; states names them with the W basis
from .exact import GHZ_LABELS, GhzLabel, ghz_signs, integer_index, parse_decimal, parse_ghz_label
from .exact import parse_w_index
from .registers import StateVector, load_state

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_SQRT_THIRD = 1.0 / math.sqrt(3.0)


def ghz(label: GhzLabel) -> StateVector:
    """GHZ basis state (|0 i j> + (-1)^p |1 i~ j~>)/sqrt(2)."""
    return StateVector(3, (np.array(ghz_signs(label)) * _SQRT_HALF).astype(complex))


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


def w_signs(n: int) -> np.ndarray:
    """Integer amplitudes of W basis state n times sqrt(3): three entries of +/-1."""
    n = integer_index(n, "W basis index")
    if n not in _W_TERMS:
        raise ValueError(f"W basis index must be 1..8, got {n!r}")
    signs = np.zeros(8, dtype=np.int64)
    for bits, sign in _W_TERMS[n]:
        signs[int(bits, 2)] = sign
    return signs


def w_basis(n: int) -> StateVector:
    """W-type basis state W1..W8."""
    return StateVector(3, (w_signs(n) * _SQRT_THIRD).astype(complex))


@dataclass(frozen=True)
class WClassParams:
    """Parameters (a, b, c) of a W-class state; d is derived."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            val = getattr(self, name)
            if not val > 0.0:
                raise ValueError(f"parameter {name}={val!r} must be positive")
        if self.a + self.b + self.c > 1.0 + 1e-12:
            raise ValueError("parameters must satisfy a+b+c <= 1")

    @property
    def d(self) -> float:
        # the clamp only absorbs float rounding when a+b+c lands just above 1
        return max(0.0, 1.0 - (self.a + self.b + self.c))

    def __str__(self) -> str:
        return f"{self.a!r},{self.b!r},{self.c!r}"


def w_class(params: WClassParams) -> StateVector:
    """W-class state sqrt(a)|001> + sqrt(b)|010> + sqrt(c)|100> + sqrt(d)|000>."""
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = math.sqrt(params.a)
    amps[0b010] = math.sqrt(params.b)
    amps[0b100] = math.sqrt(params.c)
    amps[0b000] = math.sqrt(params.d)
    return StateVector(3, amps)


def parse_wclass_params(text: str) -> WClassParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"W-class parameters must be 'a,b,c', got {text!r}")
    return WClassParams(*(parse_decimal(piece) for piece in parts))


def parse_state_label(text: str) -> StateVector:
    """Resolve a CLI state label: 'p,i,j' bits, 'W1'..'W8', 'a,b,c' decimals, or
    '@path.json' for an amplitude file (registers.load_state)."""
    if text.startswith("@"):
        return load_state(text[1:])
    t = text.strip()
    if t.upper().startswith("W"):
        return w_basis(parse_w_index(t))
    parts = [piece.strip() for piece in t.split(",")]
    if len(parts) == 3 and all(piece in ("0", "1") for piece in parts):
        return ghz(parse_ghz_label(t))
    if len(parts) == 3:
        return w_class(parse_wclass_params(t))
    raise ValueError(f"unrecognized state label {text!r}")
