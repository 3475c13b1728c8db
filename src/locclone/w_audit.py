"""Taxonomy and no-go audit for pairs drawn from the W-type basis.

Pairs (W_m, W_n) are sorted by the span of the supports of their two-qubit
reductions Tr_k: category A has some k with span 2, category B none with 2
but some with 3, category C span 4 for every k plus a k where the reductions
do not commute. The audit then builds the six-qubit cloner input and output
mixtures, cuts them between lab A (qubits i, j of both registers) and lab B
(qubit k of both), and compares negativities: an output above the input
certifies that no LOCC step can have produced it.

The lemma-scan half covers W-class states: each one-qubit marginal spectrum
has the closed form lambda(+/-) = (1 +/- sqrt((1-2x)^2 + 4xd))/2 with x the
parameter opposite the cut, so the minimum cut entropy of every state except
the equal-weight three-term point stays below that point's entropy and a
product blank plus LOCC cannot reach it. The scan evaluates that closed form
over the whole parameter grid in numpy, one grid row at a time, and
checks it at every grid point against the eigenvalues of the three one-qubit
marginals taken by partial trace of the state's amplitudes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .measures import (
    W_CUT_ENTROPY_BITS,
    negativity,
    wclass_cut_spectra,
    wclass_min_cut_entropies,
    wclass_min_cut_entropy,
)
from .registers import (
    DEFAULT_RANK_TOL,
    Bipartition,
    DensityMatrix,
    commutator_norm,
    density,
    mix,
    partial_trace,
    support_span_dim,
    tensor,
)
from .states import WClassParams, w_basis

COMMUTATOR_TOL = 1e-10
STRUCTURE_TOL = 1e-10
SPECTRUM_TOL = 1e-10
SCAN_MIN_STEP = 0.002  # C(500, 3) = 20,708,500 grid points
_SCAN_CHUNK = 1 << 10  # grid points per scan step; larger chunks only add memory
_WEIGHT_TOL = 1e-8
_SQRT_HALF = 1.0 / np.sqrt(2.0)

CATEGORY_A = "A"
CATEGORY_B = "B"
CATEGORY_C = "C"

FORM_I = "I"
FORM_II = "II"


class StructureMismatchError(Exception):
    """A pair failed the structural checks its category promises."""


class WStatePointError(Exception):
    """The equal-weight three-term point itself was passed where it cannot be."""


@dataclass(frozen=True)
class PairClassification:
    m: int
    n: int
    category: str
    witness_k: int | None
    span_dim: int


@dataclass(frozen=True)
class BTypeForm:
    form: str
    shared_direction_weight: float


@dataclass(frozen=True)
class AtypeReport:
    """Measured structure of an A-type pair at its witness cut."""

    m: int
    n: int
    k: int
    schmidt_m: tuple[float, float]
    schmidt_n: tuple[float, float]
    axis_overlap: float      # min |<a_m|a_n>| over the two shared A directions, ~1
    partner_overlap: float   # max |<b_m|b_n>| over B partners of those directions, ~0


@dataclass(frozen=True)
class CtypeReport:
    """Measured structure of a C-type pair at its noncommuting witness cut."""

    m: int
    n: int
    k: int
    overlap_magnitude: float      # |<0|0'>| ~ 1/sqrt(2)
    sign_residual: float          # |<0|0'> + <1|1'>| ~ 0
    cross_overlap: float          # max(|<0|1'>|, |<1|0'>|) ~ 0
    b_basis_residual: float       # |<alpha0|alpha1>| ~ 0


@dataclass(frozen=True)
class AuditRecord:
    m: int
    n: int
    category: str
    witness_k: int
    form: str | None
    negativity_in: float
    negativity_out: float
    blank: int


@dataclass(frozen=True)
class InsufficiencyCertificate:
    params: WClassParams
    cut_index: int
    blank_entropy_bits: float
    required_bits: float


@dataclass(frozen=True)
class ScanReport:
    step: float
    exclusion_radius: float
    points_tested: int
    violations: tuple[tuple[WClassParams, float], ...] = field(default_factory=tuple)


def _validate_indices(m: int, n: int) -> None:
    for label, value in (("m", m), ("n", n)):
        if value not in range(1, 9):
            raise ValueError(f"W basis index {label}={value!r} must be 1..8")
    if m == n:
        raise ValueError("pair members must differ")


def reduced_pair_state(m: int, k: int) -> DensityMatrix:
    """Two-qubit reduction Tr_k of W_m (k is the 1-based traced qubit)."""
    if k not in (1, 2, 3):
        raise ValueError(f"qubit index k={k!r} must be 1..3")
    return partial_trace(density(w_basis(m)), {k - 1})


def classify_pair(m: int, n: int, tol: float = DEFAULT_RANK_TOL) -> PairClassification:
    """Category A/B/C of a W-basis pair with its witness cut.

    The witness for A and B is the largest k attaining the minimal span (one
    pair attains its minimum at every k and is cataloged under k=3); for C it
    is the smallest k whose reductions do not commute. tol is the eigenvalue
    threshold for the span-dimension ranks.
    """
    _validate_indices(m, n)
    dims = {
        k: support_span_dim(reduced_pair_state(m, k), reduced_pair_state(n, k), tol)
        for k in (1, 2, 3)
    }
    span = min(dims.values())
    if span < 2:  # exact spans are at least 2, so only an oversized tol gets here
        raise ValueError(f"pair ({m},{n}) spans {span} at rank tolerance {tol!r}; no category")
    if span <= 3:
        category = CATEGORY_A if span == 2 else CATEGORY_B
        witness = max(k for k, dim in dims.items() if dim == span)
        return PairClassification(m, n, category, witness, span)
    noncommuting = [
        k
        for k in (1, 2, 3)
        if commutator_norm(reduced_pair_state(m, k), reduced_pair_state(n, k)) > COMMUTATOR_TOL
    ]
    if not noncommuting:
        raise StructureMismatchError(
            f"pair ({m},{n}) spans 4 at every cut but all reductions commute"
        )
    return PairClassification(m, n, CATEGORY_C, min(noncommuting), 4)


def _cut_matrix(m: int, k: int) -> np.ndarray:
    """Amplitudes of W_m as a 4x2 matrix over (qubits {i,j}, qubit k)."""
    amps = w_basis(m).amplitudes.reshape([2, 2, 2])
    a_axes = [q for q in range(3) if q != k - 1]
    return amps.transpose(a_axes + [k - 1]).reshape(4, 2)


def btype_form(m: int, n: int, k: int, rank_tol: float = DEFAULT_RANK_TOL) -> BTypeForm:
    """Form I or II of a B-type pair from the shared support direction.

    The two A-side supports meet in one direction; its marginal weight is 2/3
    in both states for form I and 1/3 in both for form II. rank_tol is the
    eigenvalue threshold for the supports, as in classify_pair.
    """
    rho_m, rho_n = reduced_pair_state(m, k), reduced_pair_state(n, k)
    if support_span_dim(rho_m, rho_n, rank_tol) != 3:
        raise ValueError(f"pair ({m},{n}) does not span 3 at k={k}; not a B-type witness")
    basis_m = _support_basis(rho_m, rank_tol)
    basis_n = _support_basis(rho_n, rank_tol)
    overlap = basis_m.conj().T @ basis_n
    u, singular, _ = np.linalg.svd(overlap)
    meeting = int(np.count_nonzero(singular > 1.0 - _WEIGHT_TOL))
    if meeting != 1:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: support intersection is {meeting}-dimensional"
        )
    shared = basis_m @ u[:, 0]
    weight_m = float(np.real(shared.conj() @ rho_m.entries @ shared))
    weight_n = float(np.real(shared.conj() @ rho_n.entries @ shared))
    for weight, rho in ((weight_m, rho_m), (weight_n, rho_n)):
        if float(np.linalg.norm(rho.entries @ shared - weight * shared)) > _WEIGHT_TOL:
            raise StructureMismatchError(
                f"pair ({m},{n}) at k={k}: shared direction is not a marginal eigenvector"
            )
    if abs(weight_m - 2.0 / 3.0) < _WEIGHT_TOL and abs(weight_n - 2.0 / 3.0) < _WEIGHT_TOL:
        return BTypeForm(FORM_I, weight_m)
    if abs(weight_m - 1.0 / 3.0) < _WEIGHT_TOL and abs(weight_n - 1.0 / 3.0) < _WEIGHT_TOL:
        return BTypeForm(FORM_II, weight_m)
    raise StructureMismatchError(
        f"pair ({m},{n}) at k={k}: inconsistent shared weights {weight_m}, {weight_n}"
    )


def _support_basis(rho: DensityMatrix, tol: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho.entries)
    return vecs[:, vals > tol]


def atype_structure(m: int, n: int, k: int) -> AtypeReport:
    """Check the different-planes pattern of an A-type pair at witness k."""
    cls = classify_pair(m, n)
    if cls.category != CATEGORY_A or cls.witness_k != k:
        raise ValueError(f"pair ({m},{n}) is {cls.category} with witness {cls.witness_k}, not A at k={k}")
    mat_m, mat_n = _cut_matrix(m, k), _cut_matrix(n, k)
    u_m, s_m, _ = np.linalg.svd(mat_m)
    u_n, s_n, _ = np.linalg.svd(mat_n)
    lam_m, lam_n = s_m**2, s_n**2
    for lam in (lam_m, lam_n):
        if abs(lam[0] - 2.0 / 3.0) > STRUCTURE_TOL or abs(lam[1] - 1.0 / 3.0) > STRUCTURE_TOL:
            raise StructureMismatchError(
                f"pair ({m},{n}) at k={k}: cut coefficients {lam[:2]} are not {{2/3, 1/3}}"
            )
    axis_overlap = 1.0
    partner_overlap = 0.0
    for col in (0, 1):
        axis_overlap = min(axis_overlap, float(abs(np.vdot(u_m[:, col], u_n[:, col]))))
        partner_m = u_m[:, col].conj() @ mat_m
        partner_n = u_n[:, col].conj() @ mat_n
        partner_m = partner_m / np.linalg.norm(partner_m)
        partner_n = partner_n / np.linalg.norm(partner_n)
        partner_overlap = max(partner_overlap, float(abs(np.vdot(partner_m, partner_n))))
    if 1.0 - axis_overlap > STRUCTURE_TOL:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: A-side directions differ (overlap {axis_overlap})"
        )
    if partner_overlap > STRUCTURE_TOL:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: B partners are not opposite (overlap {partner_overlap})"
        )
    return AtypeReport(
        m, n, k,
        (float(lam_m[0]), float(lam_m[1])),
        (float(lam_n[0]), float(lam_n[1])),
        axis_overlap,
        partner_overlap,
    )


def ctype_structure(m: int, n: int) -> CtypeReport:
    """Check the swapped-coefficient canonical structure of a C-type pair."""
    cls = classify_pair(m, n)
    if cls.category != CATEGORY_C:
        raise ValueError(f"pair ({m},{n}) is {cls.category}, not C")
    k = cls.witness_k
    assert k is not None
    mat_m, mat_n = _cut_matrix(m, k), _cut_matrix(n, k)
    u, s, vh = np.linalg.svd(mat_m)
    # canonical |0>_A, |0>_B carry sqrt(1/3) in W_m; svd sorts descending
    a_low, a_high = u[:, 1], u[:, 0]
    b_low, b_high = vh[1, :], vh[0, :]
    if abs(s[0] ** 2 - 2.0 / 3.0) > STRUCTURE_TOL or abs(s[1] ** 2 - 1.0 / 3.0) > STRUCTURE_TOL:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: cut coefficients {s**2} are not {{2/3, 1/3}}"
        )
    alpha_low = mat_n @ b_low.conj()
    alpha_high = mat_n @ b_high.conj()
    b_basis_residual = float(abs(np.vdot(alpha_low, alpha_high)))
    norm_low, norm_high = float(np.vdot(alpha_low, alpha_low).real), float(
        np.vdot(alpha_high, alpha_high).real
    )
    if abs(norm_low - 2.0 / 3.0) > STRUCTURE_TOL or abs(norm_high - 1.0 / 3.0) > STRUCTURE_TOL:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: coefficients {norm_low}, {norm_high} are not swapped"
        )
    prime_low = alpha_low / np.sqrt(norm_low)
    prime_high = alpha_high / np.sqrt(norm_high)
    ov_low = complex(np.vdot(a_low, prime_low))
    ov_high = complex(np.vdot(a_high, prime_high))
    report = CtypeReport(
        m, n, k,
        overlap_magnitude=float(abs(ov_low)),
        sign_residual=float(abs(ov_low + ov_high)),
        cross_overlap=max(
            float(abs(np.vdot(a_low, prime_high))), float(abs(np.vdot(a_high, prime_low)))
        ),
        b_basis_residual=b_basis_residual,
    )
    if (
        abs(report.overlap_magnitude - _SQRT_HALF) > STRUCTURE_TOL
        or report.sign_residual > STRUCTURE_TOL
        or report.cross_overlap > STRUCTURE_TOL
        or report.b_basis_residual > STRUCTURE_TOL
    ):
        raise StructureMismatchError(f"pair ({m},{n}) at k={k}: canonical C structure fails: {report}")
    return report


def cloner_io(
    m: int, n: int, k: int, blank: int = 1
) -> tuple[DensityMatrix, DensityMatrix, Bipartition]:
    """Cloner input/output mixtures over original+blank registers, with the lab cut.

    Input: equal mixture of W_m (x) W_blank and W_n (x) W_blank. Output: equal
    mixture of W_m (x) W_m and W_n (x) W_n. Lab B holds qubit k of both
    registers; lab A holds the other four qubits.
    """
    _validate_indices(m, n)
    if blank not in range(1, 9):
        raise ValueError(f"blank index {blank!r} must be 1..8")
    if k not in (1, 2, 3):
        raise ValueError(f"qubit index k={k!r} must be 1..3")
    state_m, state_n, state_blank = w_basis(m), w_basis(n), w_basis(blank)
    rho_in = mix(
        [0.5, 0.5],
        [density(tensor(state_m, state_blank)), density(tensor(state_n, state_blank))],
    )
    rho_out = mix(
        [0.5, 0.5],
        [density(tensor(state_m, state_m)), density(tensor(state_n, state_n))],
    )
    cut = Bipartition(6, frozenset({k - 1, k + 2}))
    return rho_in, rho_out, cut


def negativity_audit(
    m: int, n: int, blank: int = 1, rank_tol: float = DEFAULT_RANK_TOL
) -> AuditRecord:
    """Negativities of the cloner mixtures across the witness lab cut.

    Runs for any distinct pair; A-type records carry no form and are reported
    without a reference comparison. rank_tol reaches the classification and
    the B-type form.
    """
    cls = classify_pair(m, n, rank_tol)
    k = cls.witness_k
    assert k is not None
    form = btype_form(m, n, k, rank_tol).form if cls.category == CATEGORY_B else None
    rho_in, rho_out, cut = cloner_io(m, n, k, blank)
    return AuditRecord(
        m, n, cls.category, k, form,
        negativity(rho_in, cut), negativity(rho_out, cut), blank,
    )


def blank_insufficiency(params: WClassParams) -> InsufficiencyCertificate:
    """Certificate naming a cut whose entropy falls short of the required bits."""
    deviation = max(
        abs(params.a - 1.0 / 3.0),
        abs(params.b - 1.0 / 3.0),
        abs(params.c - 1.0 / 3.0),
        params.d,
    )
    if deviation < 1e-9:
        raise WStatePointError("the equal-weight three-term point needs the full threshold")
    cut_index, entropy = wclass_min_cut_entropy(params)
    if entropy >= W_CUT_ENTROPY_BITS:
        raise StructureMismatchError(
            f"no deficient cut at {params}; min entropy {entropy!r}"
        )
    return InsufficiencyCertificate(params, cut_index, entropy, W_CUT_ENTROPY_BITS)


def _grid_top(step: float) -> int:
    """Grid points are step * (ia, ib, ic) with positive integers summing to at most this."""
    return int(np.floor(1.0 / step + 1e-9))


def _grid_rows(top: int, ia: int) -> tuple[np.ndarray, np.ndarray]:
    """(ib, ic) of the grid row at fixed ia, in lexicographic order."""
    rest = top - ia
    counts = np.arange(rest - 1, 0, -1)  # ic runs over 1..rest-ib for ib = 1..rest-1
    ib = np.repeat(np.arange(1, rest), counts)
    ic = np.arange(ib.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    return ib, ic


def _grid_chunks(step: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Grid parameters (a, b, c) = step * (ia, ib, ic) as arrays.

    Points come in lexicographic (ia, ib, ic) order, one ia row per chunk;
    rows longer than _SCAN_CHUNK are split so memory stays bounded.
    """
    top = _grid_top(step)
    for ia in range(1, top - 1):
        ib, ic = _grid_rows(top, ia)
        for lo in range(0, ib.size, _SCAN_CHUNK):
            ib_part, ic_part = ib[lo:lo + _SCAN_CHUNK], ic[lo:lo + _SCAN_CHUNK]
            yield np.full(ib_part.size, ia * step), ib_part * step, ic_part * step


def _distance_from_w_point(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    third = 1.0 / 3.0
    return np.abs(a - third) + np.abs(b - third) + np.abs(c - third) + d


def check_scan_inputs(step: float, exclusion_radius: float) -> None:
    """Reject a scan that cannot run or cannot fail.

    The step must lie in [SCAN_MIN_STEP, 1/3] and the radius must be finite
    and nonnegative. Some grid point must lie outside the exclusion ball; the
    L1 distance is convex, so its grid maximum sits at one of the four corners
    of the grid's simplex.
    """
    if not SCAN_MIN_STEP <= step <= 1.0 / 3.0:
        raise ValueError(f"grid step {step!r} must lie in [{SCAN_MIN_STEP}, 1/3]")
    if not (np.isfinite(exclusion_radius) and exclusion_radius >= 0.0):
        raise ValueError(
            f"exclusion radius {exclusion_radius!r} must be finite and nonnegative"
        )
    top = _grid_top(step)
    corners = np.array([[1, 1, 1], [top - 2, 1, 1], [1, top - 2, 1], [1, 1, top - 2]])
    a, b, c = (corners * step).T
    farthest = float(_distance_from_w_point(a, b, c, np.maximum(0.0, 1.0 - (a + b + c))).max())
    if not farthest > exclusion_radius:
        raise ValueError(
            f"exclusion radius {exclusion_radius!r} leaves no grid point outside the "
            f"ball (farthest at L1 distance {farthest!r})"
        )


def lemma_scan(step: float, exclusion_radius: float) -> ScanReport:
    """Scan the open parameter simplex for minimum cut entropies at the threshold.

    Any grid point outside the L1 exclusion ball around the equal-weight point
    whose minimum cut entropy reaches the threshold (within 1e-12) is recorded
    as a violation, in grid order and with its entropy recomputed by the
    scalar wclass_min_cut_entropy; the expected result is none. At every grid
    point the closed-form spectra of all three cuts must match the partial
    trace spectra to SPECTRUM_TOL, or StructureMismatchError is raised.
    """
    check_scan_inputs(step, exclusion_radius)
    violations: list[tuple[WClassParams, float]] = []
    tested = 0
    for a, b, c in _grid_chunks(step):
        d = np.maximum(0.0, 1.0 - (a + b + c))
        spectra = wclass_cut_spectra(a, b, c)
        _crosscheck_spectra(a, b, c, d, spectra)
        entropy = wclass_min_cut_entropies(spectra)
        hits = (_distance_from_w_point(a, b, c, d) > exclusion_radius) & (
            entropy >= W_CUT_ENTROPY_BITS - 1e-12
        )
        for i in np.flatnonzero(hits):
            params = WClassParams(float(a[i]), float(b[i]), float(c[i]))
            violations.append((params, wclass_min_cut_entropy(params)[1]))
        tested += a.size
    return ScanReport(step, exclusion_radius, tested, tuple(violations))


def _crosscheck_spectra(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, spectra: np.ndarray
) -> None:
    """Compare the closed-form spectra with the partial-trace spectra of every state."""
    psi = np.zeros((a.size, 2, 2, 2))
    psi[:, 0, 0, 0] = np.sqrt(d)
    psi[:, 0, 0, 1] = np.sqrt(a)
    psi[:, 0, 1, 0] = np.sqrt(b)
    psi[:, 1, 0, 0] = np.sqrt(c)
    marginals = np.empty((a.size, 3, 2, 2))
    for k in (1, 2, 3):
        # qubit k against the two traced ones: M M^T = Tr_others |psi><psi|
        kept = np.moveaxis(psi, k, 1).reshape(-1, 2, 4)
        np.matmul(kept, kept.swapaxes(1, 2), out=marginals[:, k - 1])
    gap = np.linalg.eigvalsh(marginals)  # ascending, like spectra
    gap -= spectra
    bad = np.argwhere((np.abs(gap) > SPECTRUM_TOL).any(axis=-1))
    if bad.size:
        i, cut = bad[0]
        raise StructureMismatchError(
            f"closed-form spectrum disagrees with partial trace at "
            f"{float(a[i])!r},{float(b[i])!r},{float(c[i])!r}, cut {cut + 1}"
        )


def all_pair_classifications(tol: float = DEFAULT_RANK_TOL) -> tuple[PairClassification, ...]:
    return tuple(
        classify_pair(m, n, tol) for m in range(1, 9) for n in range(m + 1, 9)
    )


def all_audit_records(
    blank: int = 1, rank_tol: float = DEFAULT_RANK_TOL
) -> tuple[AuditRecord, ...]:
    return tuple(
        negativity_audit(m, n, blank, rank_tol) for m in range(1, 9) for n in range(m + 1, 9)
    )
