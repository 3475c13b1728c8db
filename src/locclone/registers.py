"""Dense state-vector and density-matrix numerics for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the amplitude index, so basis state
  |q0 q1 ... q_{n-1}> lives at index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
* Joint registers compose original-then-clone: tensor(u, v) puts u's qubits
  in front of v's.
* Bipartitions name the B side; qubit indices are 0-based here (user-facing
  labels are 1-based and translated at the CLI boundary).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-9
HERMITICITY_ATOL = 1e-12
DEFAULT_RANK_TOL = 1e-10
NEGATIVITY_CLAMP = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Pure state on n_qubits qubits, unit norm."""

    n_qubits: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite operator on n_qubits qubits."""

    n_qubits: int
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator that need not be positive (partial transposes land here)."""

    dim: int
    entries: np.ndarray


@dataclass(frozen=True)
class Bipartition:
    """Cut of an n-qubit register; side_b lists the qubits on the B side (0-based)."""

    n_qubits: int
    side_b: frozenset[int]

    def __post_init__(self) -> None:
        side_b = frozenset(int(q) for q in self.side_b)
        object.__setattr__(self, "side_b", side_b)
        if any(q < 0 or q >= self.n_qubits for q in side_b):
            raise ValueError(f"side_b {sorted(side_b)} out of range for {self.n_qubits} qubits")
        if not side_b or len(side_b) == self.n_qubits:
            raise ValueError("side_b must be a nonempty proper subset of the register")

    @property
    def side_a(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n_qubits) if q not in self.side_b)


@dataclass(frozen=True)
class SingleQubitGate:
    """One 2x2 unitary acting on a single qubit of the register."""

    target: int
    matrix: np.ndarray
    name: str = "U"


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

GATE_I = np.eye(2, dtype=complex)
GATE_X = np.array([[0, 1], [1, 0]], dtype=complex)
GATE_Z = np.array([[1, 0], [0, -1]], dtype=complex)
GATE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
GATE_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)


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


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Tensor product with u's qubits more significant than v's."""
    return StateVector(u.n_qubits + v.n_qubits, np.kron(u.amplitudes, v.amplitudes))


def density(state: StateVector) -> DensityMatrix:
    amps = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(amps, amps.conj()))


def fidelity_pure(u: StateVector, v: StateVector) -> float:
    """|<u|v>|^2 for pure states."""
    if u.n_qubits != v.n_qubits:
        raise ValueError("register sizes differ")
    return float(abs(np.vdot(u.amplitudes, v.amplitudes)) ** 2)


def mix(weights: Sequence[float], parts: Sequence[DensityMatrix]) -> DensityMatrix:
    """Convex mixture of density matrices."""
    if len(weights) != len(parts) or not parts:
        raise ValueError("weights and density matrices must pair up nonempty")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    n = parts[0].n_qubits
    if any(p.n_qubits != n for p in parts):
        raise ValueError("mixed density matrices must share the register size")
    total = np.zeros((parts[0].dim, parts[0].dim), dtype=complex)
    for wi, p in zip(w, parts):
        total += wi * p.entries
    return DensityMatrix(n, total)


def _apply_single(amps: np.ndarray, matrix: np.ndarray, target: int, n: int) -> np.ndarray:
    t = amps.reshape([2] * n)
    t = np.tensordot(np.asarray(matrix, dtype=complex), t, axes=([1], [target]))
    return np.moveaxis(t, 0, target).reshape(-1)


def _apply_cnot(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    t = amps.reshape([2] * n).copy()
    sel: list[slice | int] = [slice(None)] * n
    sel[control] = 1
    # dropping the control axis shifts later axes left by one
    flip_axis = target if target < control else target - 1
    t[tuple(sel)] = np.flip(t[tuple(sel)], axis=flip_axis)
    return t.reshape(-1)


def apply_circuit(state: StateVector, layers: Sequence[LocalGate]) -> StateVector:
    """Apply gates in listed order; transversal layers need an even register."""
    amps = state.amplitudes
    n = state.n_qubits
    for gate in layers:
        if isinstance(gate, SingleQubitGate):
            if not 0 <= gate.target < n:
                raise ValueError(f"gate target {gate.target} out of range for {n} qubits")
            amps = _apply_single(amps, gate.matrix, gate.target, n)
        elif isinstance(gate, TransversalCnot):
            if n % 2:
                raise ValueError("transversal CNOT needs equal original and clone halves")
            half = n // 2
            for q in range(half):
                if gate.direction == "forward":
                    amps = _apply_cnot(amps, q, q + half, n)
                else:
                    amps = _apply_cnot(amps, q + half, q, n)
        else:
            raise TypeError(f"unsupported gate {gate!r}")
    return StateVector(n, amps)


def partial_trace(dm: DensityMatrix, discard: Iterable[int]) -> DensityMatrix:
    """Trace out the listed qubits, keeping the rest in ascending order."""
    n = dm.n_qubits
    gone = sorted({int(q) for q in discard})
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


def partial_transpose(dm: DensityMatrix, cut: Bipartition) -> HermitianOperator:
    """Transpose the B-side indices of the cut."""
    n = dm.n_qubits
    if cut.n_qubits != n:
        raise ValueError("cut register size does not match the density matrix")
    t = dm.entries.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in cut.side_b:
        perm[q], perm[q + n] = perm[q + n], perm[q]
    out = t.transpose(perm).reshape(dm.dim, dm.dim)
    return HermitianOperator(dm.dim, out)


def hermitian_spectrum(op: HermitianOperator | DensityMatrix) -> np.ndarray:
    """Real eigenvalues in descending order; rejects non-Hermitian input."""
    entries = op.entries
    if float(np.max(np.abs(entries - entries.conj().T))) > HERMITICITY_ATOL:
        raise ValueError("operator is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh(entries)
    return vals[::-1]


def trace_norm(op: HermitianOperator | DensityMatrix) -> float:
    return float(np.abs(hermitian_spectrum(op)).sum())


def schmidt_coefficients(state: StateVector, cut: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients across the cut, descending, summing to 1."""
    if cut.n_qubits != state.n_qubits:
        raise ValueError("cut register size does not match the state")
    a_axes = list(cut.side_a)
    b_axes = sorted(cut.side_b)
    m = state.amplitudes.reshape([2] * state.n_qubits)
    m = m.transpose(a_axes + b_axes).reshape(1 << len(a_axes), 1 << len(b_axes))
    sv = np.linalg.svd(m, compute_uv=False)
    return sv**2


def psd_rank(entries: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of a positive semidefinite matrix, counting eigenvalues above tol."""
    vals = np.linalg.eigvalsh(entries)
    return int(np.count_nonzero(vals > tol))


def support_span_dim(a: DensityMatrix, b: DensityMatrix, tol: float = DEFAULT_RANK_TOL) -> int:
    """Dimension of the span of the supports of two density matrices."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register sizes differ")
    return psd_rank(a.entries + b.entries, tol)


def commutator_norm(a: DensityMatrix, b: DensityMatrix) -> float:
    """Max-abs entry of [a, b]."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register sizes differ")
    comm = a.entries @ b.entries - b.entries @ a.entries
    return float(np.max(np.abs(comm)))


def embed_operator(matrix: np.ndarray, n_qubits: int, targets: Sequence[int]) -> np.ndarray:
    """Lift an operator on the listed qubits (in that order) to the full register."""
    targets = [int(q) for q in targets]
    k = len(targets)
    if len(set(targets)) != k or any(q < 0 or q >= n_qubits for q in targets):
        raise ValueError(f"bad target list {targets} for {n_qubits} qubits")
    rest = [q for q in range(n_qubits) if q not in targets]
    order = targets + rest
    full = np.kron(np.asarray(matrix, dtype=complex), np.eye(1 << len(rest)))
    t = full.reshape([2] * (2 * n_qubits))
    perm = [order.index(q) for q in range(n_qubits)]
    t = t.transpose(perm + [p + n_qubits for p in perm])
    return t.reshape(1 << n_qubits, 1 << n_qubits)


def state_to_json(state: StateVector) -> list[list[float]]:
    """Amplitudes as [re, im] pairs, qubit-0-most-significant order."""
    return [[float(z.real), float(z.imag)] for z in state.amplitudes]


def state_from_json(obj: object) -> StateVector:
    """Inverse of state_to_json; accepts only a list of [re, im] pairs of finite numbers."""
    if not isinstance(obj, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)
        for pair in obj
    ):
        raise ValueError("a state file must hold a list of [re, im] number pairs")
    try:
        return make_pure([complex(re, im) for re, im in obj])
    except OverflowError:  # an integer too large for a float
        raise ValueError("amplitudes must be finite") from None


def save_state(state: StateVector, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh)


def load_state(path: str) -> StateVector:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(json.load(fh))
