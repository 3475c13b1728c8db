"""Entanglement measures: cut entropies, negativity, W-class closed forms.

entropy_bits is the one Shannon-entropy formula, for one state or a scan chunk.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exact import Bipartition, VerificationError
from .registers import DensityMatrix, StateVector, partial_transpose, schmidt_coefficients
from .registers import trace_norm
from .states import WClassParams

# Entropies and negativities closer to 0 than this are rounding noise and read
# as exactly 0, so a product state measures 0 across every cut.
ZERO_CLAMP = 1e-12


class CutEntropyResult(NamedTuple):
    cut: Bipartition
    entropy_bits: float


def entropy_bits(probabilities: np.ndarray | list[float]) -> np.ndarray:
    """Shannon entropy in bits over the last axis; one distribution gives a 0-d array.

    Every probability must lie in [-ZERO_CLAMP, 1 + ZERO_CLAMP], or
    VerificationError is raised, also for NaN and +/-inf; negatives that small
    are rounding noise and count as 0, as does an entropy within ZERO_CLAMP of 0.
    """
    p = np.asarray(probabilities, dtype=float)
    in_range = (p >= -ZERO_CLAMP) & (p <= 1.0 + ZERO_CLAMP)
    if not in_range.all():
        raise VerificationError(f"probability {float(p[~in_range][0])!r} lies outside [0, 1]")
    p = np.maximum(p, 0.0)
    # the floor only keeps log2 finite where p = 0, whose term is 0 either way
    terms = p * np.log2(np.maximum(p, 1e-300))
    # adding whole columns sums in index order, and beats a reduction over a short axis
    total = -sum(terms[..., i] for i in range(terms.shape[-1]))
    return np.where(np.abs(total) < ZERO_CLAMP, 0.0, total)


# Minimum cut entropy (bits) of the equal-weight three-term W state; every
# bipartite blank that can drive a W-class cloning step must carry at least
# this much entanglement across the matching cut.
W_CUT_ENTROPY_BITS: float = float(entropy_bits([1.0 / 3.0, 2.0 / 3.0]))


def cut_entropy(state: StateVector, cut: Bipartition) -> CutEntropyResult:
    """Von Neumann entropy of either side of the cut, in bits."""
    return CutEntropyResult(cut, float(entropy_bits(schmidt_coefficients(state, cut))))


def negativity(dm: DensityMatrix, cut: Bipartition) -> float:
    """Trace norm of the partial transpose minus 1, within ZERO_CLAMP of 0 read as 0.

    This is twice the negativity of Vidal & Werner, PRA 65, 032314 (2002).
    """
    return transpose_negativity(partial_transpose(dm, cut))


def transpose_negativity(flipped: np.ndarray) -> float:
    """negativity from a partial transpose already taken, or from a stack of its diagonal blocks."""
    value = trace_norm(flipped) - 1.0
    return 0.0 if abs(value) < ZERO_CLAMP else value


def wclass_cut_spectra(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Closed-form one-qubit marginal spectra of W-class states at all three cuts.

    a, b, c are equal-length parameter arrays, d derived as in WClassParams.
    Cut k separates qubit k and depends on the parameter x opposite it (x = c,
    b, a for cuts 1, 2, 3): lambda(+/-) = (1 +/- sqrt((1-2x)^2 + 4xd)) / 2.
    Row [i, k - 1] is (lambda-, lambda+) of state i at cut k.
    """
    d = np.maximum(0.0, 1.0 - (a + b + c))
    x = np.stack([c, b, a], axis=1)  # the parameter opposite cuts 1, 2, 3
    root = np.sqrt((1.0 - 2.0 * x) ** 2 + 4.0 * x * d[:, None])
    return np.stack([(1.0 - root) / 2.0, (1.0 + root) / 2.0], axis=-1)


def wclass_min_cut_entropy(params: WClassParams) -> tuple[int, float]:
    """Cut index with the smallest entropy (lowest index wins ties) and its value."""
    spectra = wclass_cut_spectra(*(np.array([x]) for x in (params.a, params.b, params.c)))
    entropies = entropy_bits(spectra)[0]
    cut = int(np.argmin(entropies))  # first minimum
    return cut + 1, float(entropies[cut])
