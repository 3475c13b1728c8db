"""Dense state-vector and density-matrix numerics for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the amplitude index, so basis state
  |q0 q1 ... q_{n-1}> lives at index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
* Joint registers compose original-then-clone: the original's qubits come
  first, as the more significant half of the joint index.
* Bipartitions name the B side; qubit indices are 0-based here (user-facing
  labels are 1-based and translated at the CLI boundary).
* The numpy-free names (VerificationError, integer_index, Bipartition, the gate
  records and integer_rank) live in exact, which the GHZ half runs on alone;
  this module holds what needs numpy, for the W half, measure and the benchmark.
"""
from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exact import (
    Bipartition,
    LocalGate,
    SingleQubitGate,
    TransversalCnot,
    VerificationError,
    gate_action,
    integer_index,
)

NORM_ATOL = 1e-9
HERMITICITY_ATOL = 1e-12
MAX_STATE_QUBITS = 10  # keeps a state file's density matrix within 16 MB


class StateVector(NamedTuple):
    """Pure state on n_qubits qubits, unit norm unless a caller keeps exact scaled amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray


class DensityMatrix(NamedTuple):
    """Unit-trace positive semidefinite operator on n_qubits qubits."""

    n_qubits: int
    entries: np.ndarray


def make_pure(amplitudes: Sequence[complex] | np.ndarray) -> StateVector:
    """Build a StateVector, renormalizing away drift up to 1e-9."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    size = amps.size
    if size < 2 or size & (size - 1):
        raise ValueError(f"amplitude count {size} is not a power of two >= 2")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValueError("zero amplitude vector")
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"norm {norm!r} differs from 1 by more than {NORM_ATOL}")
    return StateVector(size.bit_length() - 1, amps / norm)


def density(state: StateVector) -> DensityMatrix:
    amps = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(amps, amps.conj()))


def _apply_single(amps: np.ndarray, matrix: np.ndarray, target: int, n: int) -> np.ndarray:
    t = amps.reshape(1 << target, 2, 1 << (n - target - 1))
    return np.matmul(np.asarray(matrix, dtype=complex), t).reshape(-1)


def apply_circuit(state: StateVector, layers: Sequence[LocalGate]) -> StateVector:
    """Apply gates in listed order on dense amplitudes; transversal layers need an even register.

    The dense reference for ghz_cloning.apply_monomial: the benchmark re-simulates
    every circuit it gets with it, and deleting it waits for the benchmark's own copy
    (ROADMAP item 7). A gate on qubit t is one matmul of its 2x2 matrix
    M[b xor flip, b] = i^(turns*b), from exact.gate_action, on the (2^t, 2, 2^(n-t-1))
    view of the amplitudes.
    """
    amps = state.amplitudes
    n = state.n_qubits
    for gate in layers:
        if isinstance(gate, SingleQubitGate):
            flip, turns = gate_action(gate, n)
            matrix = np.zeros((2, 2), dtype=complex)
            matrix[flip, 0], matrix[1 - flip, 1] = 1, 1j**turns
            amps = _apply_single(amps, matrix, gate.target, n)
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
    """dm's entries with the cut's B-side indices transposed: Hermitian, maybe not positive."""
    n = dm.n_qubits
    if cut.n_qubits != n:
        raise ValueError("cut register size does not match the density matrix")
    t = dm.entries.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in cut.side_b:
        perm[q], perm[q + n] = perm[q + n], perm[q]
    return t.transpose(perm).reshape(dm.entries.shape)


def hermitian_spectrum(entries: np.ndarray) -> np.ndarray:
    """Real eigenvalues, descending; VerificationError if the matrix is not Hermitian.

    A stack (..., d, d) is checked and solved at once, one spectrum per matrix.
    """
    asymmetry = float(np.max(np.abs(entries - np.swapaxes(entries, -1, -2).conj())))
    if not asymmetry <= HERMITICITY_ATOL:  # or NaN
        raise VerificationError(
            f"operator is not Hermitian: largest |A - A^H| entry {asymmetry!r} "
            f"exceeds {HERMITICITY_ATOL}"
        )
    # LAPACK can miss by 2e-3 when entries' squares underflow (a 1e-161 amplitude in a
    # 4-qubit mixture); zeroing entries below 1.5e-154 moves eigenvalues < 1e-150
    return np.linalg.eigvalsh(np.where(np.abs(entries) < 1.5e-154, 0.0, entries))[..., ::-1]


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


def qubit_cut_matrix(amplitudes: np.ndarray, qubit: int) -> np.ndarray:
    """Amplitudes as a 2^(n-1) x 2 matrix: the other qubits on rows, the given qubit on columns.

    The same matrix as cut_matrix with side B {qubit}, for amplitudes of any dtype
    (integer ones included) and without building a Bipartition.
    """
    return amplitudes.reshape(1 << qubit, 2, -1).transpose(0, 2, 1).reshape(-1, 2)


def state_from_json(obj: object) -> StateVector:
    """State from a list of [re, im] pairs of finite numbers (qubit 0 most significant) only.

    Registers above MAX_STATE_QUBITS are refused before any matrix is built.
    """
    if not isinstance(obj, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)
        for pair in obj
    ):
        raise ValueError("a state file must hold a list of [re, im] number pairs")
    if len(obj) > 1 << MAX_STATE_QUBITS:
        raise ValueError(
            f"a state file holds at most {1 << MAX_STATE_QUBITS} amplitudes "
            f"({MAX_STATE_QUBITS} qubits), got {len(obj)}"
        )
    try:
        return make_pure([complex(re, im) for re, im in obj])
    except OverflowError:  # an integer too large for a float
        raise ValueError("amplitudes must be finite") from None


def load_state(path: str) -> StateVector:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:  # nesting too deep for the parser: not a list of pairs
            obj = None
        except ValueError as exc:  # a JSON syntax or UTF-8 decoding error
            raise ValueError(f"state file {path} is not UTF-8 JSON: {exc}") from None
    try:
        return state_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"state file {path}: {exc}") from None
