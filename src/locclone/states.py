"""Catalog of the three-qubit states the package reasons about.

Three families:

* the GHZ basis Psi(p,i,j) = (|0 i j> + (-1)^p |1 i~ j~>)/sqrt(2) with
  p,i,j in {0,1} and x~ the complement of x,
* an orthonormal W-type basis W1..W8 (signs kept exactly as cataloged),
* the W class sqrt(a)|001> + sqrt(b)|010> + sqrt(c)|100> + sqrt(d)|000>
  with a,b,c > 0 and d = 1-(a+b+c) >= 0.

Qubits are numbered 1..3 in user-facing labels and 0..2 internally. The
basis states also come as tuples of 8 plain ints (ghz_signs = sqrt(2) * ghz,
w_signs = sqrt(3) * w_basis) for the checks that decide exact claims; ghz and
w_basis wrap them in numpy. The GHZ labels, both bases' signs and the label
parsers are exact's, on plain ints. The W-class parameters (WClassParams) and
their parser are wclass's, on plain floats; w_class builds the state from them.
"""
from __future__ import annotations

import math

import numpy as np

# the GHZ labels and both bases' signs live in exact and the W-class parameters in wclass,
# for the numpy-free queries; states names them with the bases
from .exact import GHZ_LABELS, GhzLabel, ghz_signs, parse_ghz_label, parse_w_index, w_signs
from .registers import StateVector
from .wclass import WClassParams, parse_wclass_params

_SQRT_HALF = 1.0 / math.sqrt(2.0)
SQRT_THIRD = 1.0 / math.sqrt(3.0)  # a W-basis amplitude's magnitude; w_audit reads it too


def ghz(label: GhzLabel) -> StateVector:
    """GHZ basis state (|0 i j> + (-1)^p |1 i~ j~>)/sqrt(2)."""
    return StateVector(3, (np.array(ghz_signs(label)) * _SQRT_HALF).astype(complex))


def w_basis(n: int) -> StateVector:
    """W-type basis state W1..W8."""
    return StateVector(3, (np.array(w_signs(n)) * SQRT_THIRD).astype(complex))


def w_class(params: WClassParams) -> StateVector:
    """W-class state sqrt(a)|001> + sqrt(b)|010> + sqrt(c)|100> + sqrt(d)|000>."""
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = math.sqrt(params.a)
    amps[0b010] = math.sqrt(params.b)
    amps[0b100] = math.sqrt(params.c)
    amps[0b000] = math.sqrt(params.d)
    return StateVector(3, amps)


def parse_state_label(text: str) -> StateVector:
    """Resolve a CLI state label: 'p,i,j' bits, 'W1'..'W8' or 'a,b,c' decimals."""
    t = text.strip()
    if t.upper().startswith("W"):
        return w_basis(parse_w_index(t))
    parts = [piece.strip() for piece in t.split(",")]
    if len(parts) == 3 and all(piece in ("0", "1") for piece in parts):
        return ghz(parse_ghz_label(t))
    if len(parts) == 3:
        return w_class(parse_wclass_params(t))
    raise ValueError(f"unrecognized state label {text!r}")
