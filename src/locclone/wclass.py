"""One W-class state on plain floats: its parameters, minimum cut entropy and blank certificate.

The W class is sqrt(a)|001> + sqrt(b)|010> + sqrt(c)|100> + sqrt(d)|000> with
a, b, c > 0 and d = 1 - (a+b+c) >= 0. Cut k separates qubit k, and its
one-qubit marginal spectrum has the closed form
lambda(+/-) = (1 +/- sqrt((1-2x)^2 + 4xd)) / 2, with x the parameter opposite
the cut (x = c, b, a for cuts 1, 2, 3).

This module imports no numpy, so w blank-check runs without it. It is the
one-point form, for a caller holding one WClassParams, a NamedTuple that checks
its fields in __new__. The scan holds arrays and works out each chunk's d once;
it runs measures.wclass_cut_spectra on them and measures.entropy_bits. Both
forms square as y * y and add a cut's two entropy terms in the same order, so
their spectra agree bit for bit; the entropies differ by a few ulp only where
math.log2 and np.log2 round differently.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .exact import StructureMismatchError, Validated, VerificationError, parse_decimal

# Entropies and negativities closer to 0 than this are rounding noise and read
# as exactly 0, so a product state measures 0 across every cut.
ZERO_CLAMP = 1e-12


class WClassParams(
    Validated, NamedTuple("WClassParams", [("a", float), ("b", float), ("c", float)])
):
    """Parameters (a, b, c) of a W-class state; d is derived."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float) -> WClassParams:
        for name, val in (("a", a), ("b", b), ("c", c)):
            if not val > 0.0:
                raise ValueError(f"parameter {name}={val!r} must be positive")
        if a + b + c > 1.0 + 1e-12:
            raise ValueError("parameters must satisfy a+b+c <= 1")
        return super().__new__(cls, a, b, c)

    @property
    def d(self) -> float:
        # the clamp only absorbs float rounding when a+b+c lands just above 1
        return max(0.0, 1.0 - (self.a + self.b + self.c))

    def __str__(self) -> str:
        return f"{self.a!r},{self.b!r},{self.c!r}"


def parse_wclass_params(text: str) -> WClassParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"W-class parameters must be 'a,b,c', got {text!r}")
    return WClassParams(*(parse_decimal(piece) for piece in parts))


def scalar_entropy_bits(probabilities: Iterable[float]) -> float:
    """Shannon entropy in bits of one distribution: measures.entropy_bits on plain floats.

    It keeps every check of that form: a probability outside
    [-ZERO_CLAMP, 1 + ZERO_CLAMP], NaN and +/-inf included, raises
    VerificationError; negatives that small count as 0, as does an entropy
    within ZERO_CLAMP of 0.
    """
    total = 0.0
    for p in probabilities:
        if not -ZERO_CLAMP <= p <= 1.0 + ZERO_CLAMP:
            raise VerificationError(f"probability {float(p)!r} lies outside [0, 1]")
        p = max(p, 0.0)
        # the floor only keeps log2 finite where p = 0, whose term is 0 either way
        total -= p * math.log2(max(p, 1e-300))
    return 0.0 if abs(total) < ZERO_CLAMP else total


# Minimum cut entropy (bits) of the equal-weight three-term W state; every
# bipartite blank that can drive a W-class cloning step must carry at least
# this much entanglement across the matching cut.
W_CUT_ENTROPY_BITS: float = scalar_entropy_bits((1.0 / 3.0, 2.0 / 3.0))


def wclass_spectra(params: WClassParams) -> tuple[tuple[float, float], ...]:
    """(lambda-, lambda+) at cuts 1, 2, 3, each as measures.wclass_cut_spectra rounds it."""
    d = params.d
    spectra = []
    for x in (params.c, params.b, params.a):  # the parameter opposite cuts 1, 2, 3
        y = 1.0 - 2.0 * x
        # y * y, not y ** 2: numpy squares by multiplying, and pow can round differently
        root = math.sqrt(y * y + 4.0 * x * d)
        spectra.append(((1.0 - root) / 2.0, (1.0 + root) / 2.0))
    return tuple(spectra)


def wclass_min_cut_entropy(params: WClassParams) -> tuple[int, float]:
    """Cut index with the smallest entropy (lowest index wins ties) and its value."""
    entropies = [scalar_entropy_bits(spectrum) for spectrum in wclass_spectra(params)]
    cut = min(range(3), key=entropies.__getitem__)  # first minimum
    return cut + 1, entropies[cut]


def blank_insufficiency(params: WClassParams) -> tuple[int, float]:
    """A cut whose entropy falls short of W_CUT_ENTROPY_BITS, and that entropy in bits."""
    deviation = max(*(abs(x - 1.0 / 3.0) for x in params), params.d)  # params is (a, b, c)
    if deviation < 1e-9:
        raise ValueError("the equal-weight three-term point needs the full threshold")
    cut_index, entropy = wclass_min_cut_entropy(params)
    if entropy >= W_CUT_ENTROPY_BITS:
        raise StructureMismatchError(
            f"no deficient cut at {params}; min entropy {entropy!r}"
        )
    return cut_index, entropy
