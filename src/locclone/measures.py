"""Entanglement measures: cut entropies, negativity, the W-class closed form over arrays.

entropy_bits is the Shannon-entropy formula over numpy arrays, for one state's
Schmidt spectrum or a scan chunk, and wclass_cut_spectra is the W-class closed
form over parameter arrays, d included: the scan works out each chunk's d once.
ZERO_CLAMP, W_CUT_ENTROPY_BITS and wclass_min_cut_entropy are wclass's: the
one-point forms on plain floats, for a caller holding one WClassParams.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exact import Bipartition, VerificationError
from .registers import DensityMatrix, StateVector, partial_transpose, schmidt_coefficients
from .registers import trace_norm
from .wclass import W_CUT_ENTROPY_BITS, ZERO_CLAMP, wclass_min_cut_entropy


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


def cut_entropy(state: StateVector, cut: Bipartition) -> CutEntropyResult:
    """Von Neumann entropy of either side of the cut, in bits."""
    return CutEntropyResult(cut, float(entropy_bits(schmidt_coefficients(state, cut))))


def negativity(dm: DensityMatrix, cut: Bipartition) -> float:
    """Trace norm of the partial transpose minus 1, within ZERO_CLAMP of 0 read as 0.

    This is twice the negativity of Vidal & Werner, PRA 65, 032314 (2002).
    """
    value = trace_norm(partial_transpose(dm, cut)) - 1.0
    return 0.0 if abs(value) < ZERO_CLAMP else value


def wclass_cut_spectra(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Closed-form one-qubit marginal spectra of W-class states at all three cuts.

    a, b, c, d are equal-length arrays; the caller works out d = max(0, 1 - (a+b+c)) once.
    Cut k separates qubit k and depends on the parameter x opposite it (x = c,
    b, a for cuts 1, 2, 3): lambda(+/-) = (1 +/- sqrt((1-2x)^2 + 4xd)) / 2.
    Row [i, k - 1] is (lambda-, lambda+) of state i at cut k, a view of cut-major rows.
    """
    x = np.stack([c, b, a])  # the parameter opposite cuts 1, 2, 3, one row each
    root = np.sqrt((1.0 - 2.0 * x) ** 2 + 4.0 * x * d)
    return np.stack([(1.0 - root) / 2.0, (1.0 + root) / 2.0]).transpose(2, 1, 0)

