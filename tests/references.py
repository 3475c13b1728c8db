"""Slow, plainly written references that the tests check the program's fast routes against.

The package calls none of these. Each takes the direct route: the gates'
2x2 matrices written out, a tensor product of two states, a normalized state
from a list of amplitudes, a weighted sum of density matrices, a gate embedded
as a full 2^n x 2^n operator, the cloner's mixtures as complex 64x64 matrices,
the Bell-triple witness from partial traces, the exact rank of an integer
matrix by elimination and the clone-phase exponents by trying all 64. Tests
hold both circuit simulators, the integer witness, the Schur-complement span,
the parity-sector audit and the solved phase search to them.
"""
from __future__ import annotations

import itertools
import operator
from typing import Iterable, Sequence

import numpy as np

from locclone import w_audit
from locclone.registers import (
    Bipartition,
    DensityMatrix,
    StateVector,
    density,
    partial_trace,
    schmidt_coefficients,
)
from locclone.states import w_basis

GATE_X = np.array([[0, 1], [1, 0]], dtype=complex)
GATE_Z = np.array([[1, 0], [0, -1]], dtype=complex)
GATE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
GATE_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
GATE_MATRICES = {"X": GATE_X, "Z": GATE_Z, "S": GATE_S, "Sdg": GATE_SDG}


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Tensor product with u's qubits more significant than v's."""
    return StateVector(u.n_qubits + v.n_qubits, np.outer(u.amplitudes, v.amplitudes).ravel())


def mix(weights: Sequence[float], parts: Sequence[DensityMatrix]) -> DensityMatrix:
    """Convex mixture of density matrices on one register size."""
    return DensityMatrix(parts[0].n_qubits, sum(w * p.entries for w, p in zip(weights, parts)))


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


def make_pure(amplitudes: Sequence[complex] | np.ndarray) -> StateVector:
    """The state of a list of 2^n amplitudes, qubit 0 most significant, scaled to unit norm."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    return StateVector(amps.size.bit_length() - 1, amps / np.linalg.norm(amps))


def cloner_io(
    m: int, n: int, k: int, blank: int = 1
) -> tuple[DensityMatrix, DensityMatrix, Bipartition]:
    """Cloner input/output mixtures over original+blank registers, with the lab cut.

    Input: equal mixture of W_m (x) W_blank and W_n (x) W_blank. Output: equal
    mixture of W_m (x) W_m and W_n (x) W_n. Lab B holds qubit k of both
    registers; lab A holds the other four qubits. Both are full complex 64x64
    matrices.
    """
    w_audit.classify_pair(m, n)  # refuses indices that are not two distinct W basis indices
    if k not in (1, 2, 3):
        raise ValueError(f"qubit index k={k!r} must be 1..3")
    pair, state_blank = (w_basis(m), w_basis(n)), w_basis(blank)
    rho_in = mix([0.5, 0.5], [density(tensor(state, state_blank)) for state in pair])
    rho_out = mix([0.5, 0.5], [density(tensor(state, state)) for state in pair])
    return rho_in, rho_out, Bipartition(6, frozenset({k - 1, k + 2}))


def integer_rank(matrix: Iterable[Iterable[int]]) -> int:
    """Exact rank of an integer matrix given by rows, by fraction-free elimination; a float
    or complex entry raises TypeError, as the answer is exact only because the entries are."""
    rows = [[operator.index(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        # cross-multiplying clears column col from every other row and keeps them integer
        rows = [
            [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)] if row[col] else row
            for row in rows
        ]
    return rank


def reference_bell_like(states, cut):
    """The witness from density matrices, partial traces and per-state Schmidt coefficients."""
    tol = 1e-12
    for u, v in itertools.combinations(states, 2):
        if abs(np.vdot(u.amplitudes, v.amplitudes)) > tol:
            return False
    joint_a = sum(partial_trace(density(s), cut.side_b).entries for s in states)
    joint_b = sum(partial_trace(density(s), cut.side_a).entries for s in states)
    # each eigenvalue of these joint marginals is 0 up to rounding or at least 0.5
    if any(np.count_nonzero(np.linalg.eigvalsh(j) > 1e-10) != 2 for j in (joint_a, joint_b)):
        return False
    for s in states:
        coeffs = schmidt_coefficients(s, cut)
        if abs(coeffs[0] - 0.5) > tol or abs(coeffs[1] - 0.5) > tol:
            return False
    return True


def phase_corrections_search(members) -> tuple[int, int, int] | None:
    """First (t1, t2, t3) in the order identity, Z, S, Sdg with
    t1 + (1-2i) t2 + (1-2j) t3 = 2p (mod 4) for every member Psi(p, i, j), or None."""
    rows = [(1, 1 - 2 * s.i, 1 - 2 * s.j) for s in members]
    rhs = [2 * s.p for s in members]
    order = (0, 2, 1, 3)
    for t1 in order:
        for t2 in order:
            for t3 in order:
                if all(
                    (r0 * t1 + r1 * t2 + r2 * t3 - b) % 4 == 0
                    for (r0, r1, r2), b in zip(rows, rhs)
                ):
                    return (t1, t2, t3)
    return None
