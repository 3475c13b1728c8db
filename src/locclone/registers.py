"""Dense state-vector and density-matrix numerics for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the amplitude index, so basis state
  |q0 q1 ... q_{n-1}> lives at index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
* Joint registers compose original-then-clone: the original's qubits come
  first, as the more significant half of the joint index.
* Bipartitions name the B side; qubit indices are 0-based here (user-facing
  labels are 1-based and translated at the CLI boundary).
* The numpy-free names (VerificationError, integer_index, Bipartition, the gate
  records and the 3-qubit cut_columns) live in exact, which the GHZ half runs on
  alone; this module holds what needs numpy, for the W audit's spectra, measure and the benchmark.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exact import (
    GATES,
    Bipartition,
    LocalGate,
    SingleQubitGate,
    TransversalCnot,
    VerificationError,
    gate_action,
    integer_index,
)

HERMITICITY_ATOL = 1e-12


class StateVector(NamedTuple):
    """Pure state on n_qubits qubits, unit norm unless a caller keeps exact scaled amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray


class DensityMatrix(NamedTuple):
    """Unit-trace positive semidefinite operator on n_qubits qubits."""

    n_qubits: int
    entries: np.ndarray


def density(state: StateVector) -> DensityMatrix:
    amps = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(amps, amps.conj()))


def _gate_matrix(flip: int, turns: int) -> np.ndarray:
    """The 2x2 matrix M[b xor flip, b] = i^(turns*b) of a gate exact.GATES defines."""
    matrix = np.zeros((2, 2), dtype=complex)
    matrix[flip, 0], matrix[1 - flip, 1] = 1, 1j**turns
    return matrix


_GATE_MATRICES = {name: _gate_matrix(*action) for name, action in GATES.items()}


def _apply_single(amps: np.ndarray, matrix: np.ndarray, target: int, n: int) -> np.ndarray:
    t = amps.reshape(1 << target, 2, 1 << (n - target - 1))
    return np.matmul(np.asarray(matrix, dtype=complex), t).reshape(-1)


def apply_circuit(state: StateVector, layers: Sequence[LocalGate]) -> StateVector:
    """Apply gates in listed order on dense amplitudes; transversal layers need an even register.

    The dense reference for ghz_cloning.apply_monomial: the benchmark re-simulates
    every circuit it gets with it, and deleting it waits for the benchmark's own copy
    (ROADMAP item 7). A gate on qubit t, checked by exact.gate_action, is one matmul
    of its 2x2 matrix, built once from exact.GATES, on the (2^t, 2, 2^(n-t-1)) view
    of the amplitudes.
    """
    amps = state.amplitudes
    n = state.n_qubits
    for gate in layers:
        if isinstance(gate, SingleQubitGate):
            gate_action(gate, n)
            amps = _apply_single(amps, _GATE_MATRICES[gate.name], gate.target, n)
        elif isinstance(gate, TransversalCnot):
            if n % 2:
                raise ValueError("transversal CNOT needs equal original and clone halves")
            # disjoint CNOTs commute: the layer is |a,b> -> |a,a^b> (forward) or |a^b,b>,
            # an involution, so each amplitude is gathered from the image of its own index
            a, b = np.divmod(np.arange(1 << n), 1 << (n // 2))
            a, b = (a, a ^ b) if gate.direction == "forward" else (a ^ b, b)
            amps = amps[(a << (n // 2)) | b]
        else:
            raise TypeError(f"unsupported gate {gate!r}")
    return StateVector(n, amps)


def partial_trace(dm: DensityMatrix, discard: Iterable[int]) -> DensityMatrix:
    """Trace out the listed qubits, keeping the rest in ascending order."""
    n = dm.n_qubits
    gone = sorted({integer_index(q, "qubit index") for q in discard})
    if not gone:
        raise ValueError("nothing to trace out")
    if any(q < 0 or q >= n for q in gone):
        raise ValueError(f"discard set {gone} out of range for {n} qubits")
    if len(gone) == n:
        raise ValueError("cannot trace out the whole register")
    t = dm.entries.reshape([2] * (2 * n))
    remaining = n
    for q in reversed(gone):
        t = np.trace(t, axis1=q, axis2=q + remaining)
        remaining -= 1
    keep = n - len(gone)
    return DensityMatrix(keep, t.reshape(1 << keep, 1 << keep))


def partial_transpose(dm: DensityMatrix, cut: Bipartition) -> np.ndarray:
    """One matrix's entries with the cut's B side transposed: Hermitian, maybe not positive."""
    n = dm.n_qubits
    if cut.n_qubits != n:
        raise ValueError("cut register size does not match the density matrix")
    t = dm.entries.reshape([2] * (2 * n))
    for q in cut.side_b:  # row bit q is axis q, its column bit axis q + n
        t = np.swapaxes(t, q, q + n)
    return t.reshape(dm.entries.shape)


def hermitian_spectrum(entries: np.ndarray, names: Sequence[str] = ()) -> np.ndarray:
    """Real eigenvalues, descending; VerificationError if a matrix is not Hermitian.

    A stack (..., d, d) is checked and solved at once, one spectrum per matrix. Names
    split it in order into equal runs of matrices, and the error names the first to fail.
    """
    entries = np.asarray(entries)
    # conj() of a real array is that array itself, so a real stack pays for no copy
    skew = np.abs(entries - entries.swapaxes(-1, -2).conj())
    if not skew.max() <= HERMITICITY_ATOL:  # or NaN
        asymmetry = skew.reshape(len(names) or 1, -1).max(axis=1)
        i = int(np.argmax(~(asymmetry <= HERMITICITY_ATOL)))
        raise VerificationError(
            f"{names[i] + ': ' if names else ''}operator is not Hermitian: largest "
            f"|A - A^H| entry {float(asymmetry[i])!r} exceeds {HERMITICITY_ATOL}"
        )
    # flushing entries below 1.5e-154, whose squares underflow and mislead LAPACK, moves
    # eigenvalues < 1e-150 (test_negativity_ignores_amplitudes_whose_squares_underflow)
    magnitude = np.abs(entries)
    if ((magnitude > 0.0) & (magnitude < 1.5e-154)).any():
        entries = np.where(magnitude < 1.5e-154, 0.0, entries)
    return np.linalg.eigvalsh(entries)[..., ::-1]


def trace_norm(entries: np.ndarray) -> float:
    """Sum of |eigenvalue|; for a stack of blocks, of the block-diagonal matrix they form."""
    return float(np.abs(hermitian_spectrum(entries)).sum())


def cut_matrix(state: StateVector, cut: Bipartition) -> np.ndarray:
    """Amplitudes as a matrix with side-A qubits on rows and side-B qubits on columns."""
    if cut.n_qubits != state.n_qubits:
        raise ValueError("cut register size does not match the state")
    a_axes, b_axes = list(cut.side_a), sorted(cut.side_b)
    m = state.amplitudes.reshape([2] * state.n_qubits).transpose(a_axes + b_axes)
    return m.reshape(1 << len(a_axes), 1 << len(b_axes))


def schmidt_coefficients(state: StateVector, cut: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients across the cut, descending, summing to 1."""
    return np.linalg.svd(cut_matrix(state, cut), compute_uv=False) ** 2
