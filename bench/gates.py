"""Expected values and independent recomputations behind the output gates.

Every gate compares a program output against a number stated in the paper
(PAPER.md) or against a recomputation done here with plain numpy. A gate
that fails records a finding; it never stops the run. The self-test swaps
each expectation for a wrong one to show that every gate can fail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Expectations:
    """What a correct program produces; the self-test perturbs each field."""

    fidelity_floor: float = 1.0 - 1e-9
    refused_triples_per_pass: int = 24
    # (shared label bit, isolated qubit): a triple is refused exactly when all
    # three members share that bit, and the witness cut isolates that qubit
    witness_rule: tuple[tuple[str, int], ...] = (("i", 3), ("j", 2), ("i^j", 1))
    category_counts: tuple[tuple[str, int], ...] = (("A", 6), ("B", 10), ("C", 12))
    form_counts: tuple[tuple[str, int], ...] = (("I", 4), ("II", 6))
    min_negativity_gain: float = 0.1
    reference_tol: float = 1e-3
    recompute_tol: float = 1e-9
    marginal_tol: float = 1e-12
    structure_tol: float = 1e-9
    scan_violations: int = 0
    closed_form_tol: float = 1e-10
    measure_tol: float = 1e-10
    report_counts: tuple[tuple[str, int], ...] = (
        ("ghz_pairs", 28), ("ghz_triples", 56), ("clonable_triples", 32),
        ("w_classifications", 28), ("pairs", 28), ("scan_points", 19600),
    )
    query_exit: int = 0
    invalid_exit: int = 2


@dataclass
class Findings:
    """Failed checks, grouped by op id (-1 for checks on a whole pass or run)."""

    attempted_checks: int = 0
    bad_ops: dict[int, list[str]] = field(default_factory=dict)
    bad_runs: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str, op_id: int = -1) -> bool:
        if op_id < 0:
            self.attempted_checks += 1
        if not ok:
            if op_id < 0:
                self.bad_runs.append(message)
            else:
                self.bad_ops.setdefault(op_id, []).append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.bad_ops) + len(self.bad_runs)

    def messages(self, limit: int = 10) -> list[str]:
        lines = list(self.bad_runs)
        for op_id, items in sorted(self.bad_ops.items()):
            lines.extend(f"op {op_id}: {item}" for item in items)
        return lines[:limit]


def ghz_vector(p: int, i: int, j: int) -> np.ndarray:
    """(|0 i j> + (-1)^p |1 ~i ~j>)/sqrt(2), qubit 1 most significant."""
    amps = np.zeros(8, dtype=complex)
    amps[(i << 1) | j] = _SQRT_HALF
    amps[4 | ((1 - i) << 1) | (1 - j)] = (-1.0) ** p * _SQRT_HALF
    return amps


def label_bit(label, key: str) -> int:
    if key == "i^j":
        return label.i ^ label.j
    return getattr(label, key)


def rule_cut(members, rule) -> int | None:
    """Isolated qubit (1-based) the label rule names for a triple, or None."""
    if len(members) != 3:
        return None
    for key, qubit in rule:
        if len({label_bit(s, key) for s in members}) == 1:
            return qubit
    return None


def cut_text(isolated: int) -> str:
    """The report's rendering of a single-qubit cut, e.g. "12|3"."""
    side_a = "".join(str(q) for q in (1, 2, 3) if q != isolated)
    return f"{side_a}|{isolated}"


def entropy_bits(probabilities: np.ndarray) -> float:
    p = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


def cut_entropy_bits(amps: np.ndarray, side_b: tuple[int, ...]) -> float:
    """Entanglement entropy of a pure register across a cut (0-based B side)."""
    n = int(round(math.log2(amps.size)))
    side_a = [q for q in range(n) if q not in side_b]
    m = amps.reshape([2] * n).transpose(side_a + sorted(side_b))
    m = m.reshape(1 << len(side_a), -1)
    return entropy_bits(np.linalg.svd(m, compute_uv=False) ** 2)


def negativity_of(rho: np.ndarray, side_b: tuple[int, ...]) -> float:
    """Trace norm of the partial transpose minus one, from numpy alone."""
    n = int(round(math.log2(rho.shape[0])))
    t = rho.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in side_b:
        perm[q], perm[q + n] = perm[q + n], perm[q]
    flipped = t.transpose(perm).reshape(rho.shape)
    return float(np.abs(np.linalg.eigvalsh(flipped)).sum() - 1.0)


def w_threshold_bits() -> float:
    """Cut entropy of the equal-weight W state: spectrum (1/3, 2/3)."""
    return entropy_bits(np.array([1.0 / 3.0, 2.0 / 3.0]))


def wclass_vector(a: float, b: float, c: float) -> np.ndarray:
    """sqrt(a)|001> + sqrt(b)|010> + sqrt(c)|100> + sqrt(d)|000>."""
    amps = np.zeros(8, dtype=complex)
    amps[0b001], amps[0b010], amps[0b100] = math.sqrt(a), math.sqrt(b), math.sqrt(c)
    amps[0b000] = math.sqrt(max(0.0, 1.0 - (a + b + c)))
    return amps
