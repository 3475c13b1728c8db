"""Entanglement measures: cut entropies, negativity, W-class closed forms."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .registers import (
    Bipartition,
    DensityMatrix,
    StateVector,
    partial_transpose,
    schmidt_coefficients,
    trace_norm,
)
from .states import WClassParams

# Entropies and negativities closer to 0 than this are rounding noise and read
# as exactly 0, so a product state measures 0 across every cut.
ZERO_CLAMP = 1e-12

# Minimum cut entropy (bits) of the equal-weight three-term W state; every
# bipartite blank that can drive a W-class cloning step must carry at least
# this much entanglement across the matching cut.
W_CUT_ENTROPY_BITS: float = -(1.0 / 3.0) * math.log2(1.0 / 3.0) - (2.0 / 3.0) * math.log2(
    2.0 / 3.0
)


@dataclass(frozen=True)
class CutEntropyResult:
    cut: Bipartition
    entropy_bits: float


def entropy_bits(probabilities: np.ndarray | list[float]) -> float:
    """Shannon entropy in bits; rounding noise within ZERO_CLAMP of 0 reads as 0."""
    total = 0.0
    for p in np.asarray(probabilities, dtype=float):
        if not np.isfinite(p):
            raise ValueError(f"probability {p!r} is not finite")
        if p < -ZERO_CLAMP:
            raise ValueError(f"negative probability {p!r}")
        if p > 1e-300:
            total -= float(p) * math.log2(p)
    return 0.0 if abs(total) < ZERO_CLAMP else total


def cut_entropy(state: StateVector, cut: Bipartition) -> CutEntropyResult:
    """Von Neumann entropy of either side of the cut, in bits."""
    return CutEntropyResult(cut, entropy_bits(schmidt_coefficients(state, cut)))


def negativity(dm: DensityMatrix, cut: Bipartition) -> float:
    """Trace norm of the partial transpose minus 1, within ZERO_CLAMP of 0 read as 0.

    This is twice the negativity of Vidal & Werner, PRA 65, 032314 (2002).
    """
    value = trace_norm(partial_transpose(dm, cut)) - 1.0
    return 0.0 if abs(value) < ZERO_CLAMP else value


_CUT_PARAM = {1: "c", 2: "b", 3: "a"}


def wclass_cut_spectrum(params: WClassParams, cut_index: int) -> tuple[float, float]:
    """Closed-form one-qubit marginal spectrum (lambda-, lambda+) of a W-class state.

    Cut 1 separates qubit 1 from qubits 2,3 and depends on x=c; cut 2 uses x=b
    and cut 3 uses x=a:  lambda(+/-) = (1 +/- sqrt((1-2x)^2 + 4xd)) / 2.
    """
    if cut_index not in _CUT_PARAM:
        raise ValueError(f"cut index must be 1..3, got {cut_index!r}")
    x = getattr(params, _CUT_PARAM[cut_index])
    root = math.sqrt((1.0 - 2.0 * x) ** 2 + 4.0 * x * params.d)
    return ((1.0 - root) / 2.0, (1.0 + root) / 2.0)


def wclass_cut_entropy(params: WClassParams, cut_index: int) -> float:
    lam_minus, lam_plus = wclass_cut_spectrum(params, cut_index)
    return entropy_bits([max(lam_minus, 0.0), lam_plus])


def wclass_min_cut_entropy(params: WClassParams) -> tuple[int, float]:
    """Cut index with the smallest entropy (lowest index wins ties) and its value."""
    best_cut = 1
    best = wclass_cut_entropy(params, 1)
    for cut_index in (2, 3):
        value = wclass_cut_entropy(params, cut_index)
        if value < best:
            best_cut, best = cut_index, value
    return best_cut, best


def wclass_cut_spectra(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Array form of wclass_cut_spectrum for many states and all three cuts.

    a, b, c are equal-length arrays of parameters, with d derived as in
    WClassParams. Row [i, k - 1] is (lambda-, lambda+) of state i at cut k.
    """
    d = np.maximum(0.0, 1.0 - (a + b + c))
    x = np.stack([c, b, a], axis=1)  # the parameter opposite cuts 1, 2, 3
    root = np.sqrt((1.0 - 2.0 * x) ** 2 + 4.0 * x * d[:, None])
    return np.stack([(1.0 - root) / 2.0, (1.0 + root) / 2.0], axis=-1)


def wclass_min_cut_entropies(spectra: np.ndarray) -> np.ndarray:
    """Minimum cut entropy in bits of each state from its wclass_cut_spectra rows."""
    p = np.maximum(spectra, 0.0)
    # the floor only keeps log2 finite where p = 0, whose term is 0 either way
    entropies = -(p * np.log2(np.maximum(p, 1e-300))).sum(axis=-1)
    return entropies.min(axis=-1)
