"""Taxonomy and no-go audit for pairs drawn from the W-type basis.

Pairs (W_m, W_n) are sorted by the span of the supports of their two-qubit
reductions Tr_k: category A has some k with span 2, category B none with 2
but some with 3, category C span 4 for every k plus a k where the reductions
do not commute. These decisions and the A, B and C structures are exact:
sqrt(3) * W_m has entries 0 and +/-1, so its 4x2 cut matrix M at qubit k is
integer and the reduction Tr_k = M M^T / 3 has the column space of M. The
span at k is the integer rank of [M_m | M_n], and the reductions commute
exactly when the Gram matrix G = M_m^T M_n is 0: with span 4, P = [M_m | M_n]
is invertible and 9 times their commutator, M_m G M_n^T - M_n G^T M_m^T, is
P [[0, G], [-G^T, 0]] P^T. The canonical forms are integer tests on the same
G, after each M^T M is checked to be diagonal with entries {1, 2}: its columns
are then the A-side Schmidt directions, paired with |0> and |1> on qubit k.
No tolerance is left to tune.

The audit cuts the cloner input and output mixtures between lab A (qubits
i, j of both registers) and lab B (qubit k of both) and compares negativities:
an output above the input certifies that no LOCC step can have produced it.
The cut splits each register at qubit k, so the input negativity factors into
two 8x8 ones. Each W-basis state has one Z(x)Z(x)Z parity, so the output commutes
with both registers' parities, and its partial transpose splits into four 16x16
parity sectors that one batched eigensolve takes at once.

The lemma-scan half covers W-class states: each one-qubit marginal spectrum
has the closed form lambda(+/-) = (1 +/- sqrt((1-2x)^2 + 4xd))/2 with x the
parameter opposite the cut, so the minimum cut entropy of every state except
the equal-weight three-term point stays below that point's entropy and a
product blank plus LOCC cannot reach it. measures.wclass_cut_spectra, the one
implementation of that closed form, runs over the whole parameter grid in
numpy, in chunks of a fixed number of grid points that span grid rows, and
the scan checks it at every grid point against the eigenvalues of the three
one-qubit marginals. Each marginal is contracted from the state's amplitude
tensor over the two traced qubits; being real symmetric 2x2, its eigenvalues
follow exactly from its entries p, q (diagonal) and r (off-diagonal) as
(p + q -/+ sqrt((p - q)^2 + 4r^2))/2, so no eigensolver runs per point.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .measures import (
    W_CUT_ENTROPY_BITS,
    entropy_bits,
    negativity,
    transpose_negativity,
    wclass_cut_spectra,
    wclass_min_cut_entropy,
)
from .exact import Bipartition, VerificationError, integer_index, integer_rank
from .registers import DensityMatrix, StateVector, density, partial_transpose, qubit_cut_matrix
from .states import WClassParams, w_basis, w_signs

SPECTRUM_TOL = 1e-10
SCAN_MIN_STEP = 0.002  # C(500, 3) = 20,708,500 grid points
# Grid points per scan step. Each numpy pass has a fixed cost of about
# 0.2 ms, so larger chunks run faster and hold more memory: lemma_scan(0.01,
# 0.05) on a 2-core Xeon takes about 85, 66 and 61 ms at 1 << 10, 1 << 12
# and 1 << 13, with 30.0, 31.3 and 33.5 MB max RSS (99 ms and 30.1 MB with
# one grid row per chunk).
_SCAN_CHUNK = 1 << 12

# The 64 joint indices of original (x) clone, original register most significant,
# listed by (original parity, clone parity): four sectors of 16 indices each.
_SECTORS = np.argsort(
    [2 * (bin(i >> 3).count("1") % 2) + bin(i & 7).count("1") % 2 for i in range(64)],
    kind="stable",
).reshape(4, 16)

CATEGORY_A = "A"
CATEGORY_B = "B"
CATEGORY_C = "C"

FORM_I = "I"
FORM_II = "II"


class StructureMismatchError(VerificationError):
    """A pair failed the structural checks its category promises."""


class PairClassification(NamedTuple):
    m: int
    n: int
    category: str
    witness_k: int | None
    span_dim: int


class BTypeForm(NamedTuple):
    form: str
    shared_direction_weight: float


class AtypeReport(NamedTuple):
    """Measured structure of an A-type pair at its witness cut."""

    m: int
    n: int
    k: int
    schmidt_m: tuple[float, float]
    schmidt_n: tuple[float, float]
    axis_overlap: float      # min |<a_m|a_n>| over the two shared A directions: 1
    partner_overlap: float   # max |<b_m|b_n>| over B partners of those directions: 0


class CtypeReport(NamedTuple):
    """Measured structure of a C-type pair at its noncommuting witness cut."""

    m: int
    n: int
    k: int
    overlap_magnitude: float      # |<0|0'>| = 1/sqrt(2)
    sign_residual: float          # |<0|0'> + <1|1'>| = 0
    cross_overlap: float          # max(|<0|1'>|, |<1|0'>|) = 0
    b_basis_residual: float       # |<alpha0|alpha1>| = 0


class AuditRecord(NamedTuple):
    m: int
    n: int
    category: str
    witness_k: int
    form: str | None
    negativity_in: float
    negativity_out: float
    blank: int


class ScanReport(NamedTuple):
    step: float
    exclusion_radius: float
    points_tested: int
    # largest minimum cut entropy outside the exclusion ball, at its first grid point
    grid_max_entropy_bits: float
    grid_max_point: WClassParams
    violations: tuple[tuple[WClassParams, float], ...]


def classify_pair(m: int, n: int) -> PairClassification:
    """Category A/B/C of a W-basis pair with its witness cut.

    The witness for A and B is the largest k attaining the minimal span (one
    pair attains its minimum at every k and is cataloged under k=3); for C it
    is the smallest k whose reductions do not commute, that is whose Gram
    matrix G is nonzero (see the module docstring). Indices follow
    registers.integer_index, and w_signs checks their range.
    """
    m, n = integer_index(m, "W basis index"), integer_index(n, "W basis index")
    if m == n:
        raise ValueError("pair members must differ")
    cuts = {k: _cut_gram(m, n, k) for k in (1, 2, 3)}
    span = min(dim for *_, dim in cuts.values())
    if span <= 3:
        category = CATEGORY_A if span == 2 else CATEGORY_B
        witness = max(k for k, (*_, dim) in cuts.items() if dim == span)
        return PairClassification(m, n, category, witness, span)
    noncommuting = [k for k, (_, _, g, _) in cuts.items() if g.any()]
    if not noncommuting:
        raise StructureMismatchError(
            f"pair ({m},{n}) spans 4 at every cut but all reductions commute"
        )
    return PairClassification(m, n, CATEGORY_C, min(noncommuting), 4)


def _cut_gram(m: int, n: int, k: int) -> tuple[int, int, np.ndarray, int]:
    """Heavy columns h_m, h_n at cut k, the Gram matrix G = M_m^T M_n and the span.

    M is the integer 4x2 cut matrix of sqrt(3) * W at qubit k. Each state must
    have M^T M diagonal with entries {1, 2}: then column b is the A-side Schmidt
    direction paired with |b> on qubit k, of marginal weight M^T M[b, b] / 3,
    so column h (weight 2/3) is heavy and 1 - h (weight 1/3) light, and G[i, j]
    is the overlap of column i of M_m with column j of M_n. The span of the two
    reductions' supports is the rank of [M_m | M_n].
    """
    if integer_index(k, "cut index k") not in (1, 2, 3):
        raise ValueError(f"cut index k={k!r} must be 1..3")
    pair = np.hstack([qubit_cut_matrix(w_signs(x), k - 1) for x in (m, n)])
    gram = pair.T @ pair  # [[M_m^T M_m, G], [G^T, M_n^T M_n]]
    heavy = []
    for x, i in ((m, 0), (n, 2)):
        own = gram[i:i + 2, i:i + 2].tolist()
        if own[0][1] or sorted((own[0][0], own[1][1])) != [1, 2]:
            raise StructureMismatchError(
                f"W{x} at k={k}: M^T M = {own} is not diagonal with entries 1, 2"
            )
        heavy.append(0 if own[0][0] == 2 else 1)
    return heavy[0], heavy[1], gram[:2, 2:], integer_rank(pair.tolist())


def btype_form(m: int, n: int, k: int) -> BTypeForm:
    """Form I or II of a B-type pair from the shared support direction.

    The two A-side supports meet in one direction. With h and l each state's
    heavy (weight 2/3) and light (weight 1/3) column, form I has the heavy
    columns parallel (|G[h_m, h_n]| = 2) and form II the light ones
    (|G[l_m, l_n]| = 1). Columns of norm^2 2 and 1 are never parallel, so a
    direction shared at different weights, or by no columns at all, fails.
    """
    h_m, h_n, g, span = _cut_gram(m, n, k)
    if span != 3:
        raise StructureMismatchError(f"pair ({m},{n}) spans {span} at k={k}, not 3 as a B witness")
    heavy, light = abs(g[h_m, h_n]) == 2, abs(g[1 - h_m, 1 - h_n]) == 1
    if heavy != light:
        return BTypeForm(FORM_I, 2.0 / 3.0) if heavy else BTypeForm(FORM_II, 1.0 / 3.0)
    raise StructureMismatchError(
        f"pair ({m},{n}) at k={k}: the shared direction is no common marginal eigenvector"
    )


def atype_structure(m: int, n: int, k: int) -> AtypeReport:
    """Check the different-planes pattern of an A-type pair at witness k.

    Both states split 2/3, 1/3 at k (_cut_gram), their heavy and their light
    columns are parallel (|G[h_m, h_n]| = 2, |G[l_m, l_n]| = 1), and the heavy
    columns pair with opposite B partners (h_m != h_n). The report's overlaps
    are then exactly 1 and 0.
    """
    cls = classify_pair(m, n)
    if cls.category != CATEGORY_A or cls.witness_k != k:
        raise ValueError(f"pair ({m},{n}) is {cls.category} with witness {cls.witness_k}, not A at k={k}")
    h_m, h_n, g, _ = _cut_gram(m, n, k)
    if abs(g[h_m, h_n]) != 2 or abs(g[1 - h_m, 1 - h_n]) != 1:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: A-side directions differ (G = {g.tolist()})"
        )
    if h_m == h_n:
        raise StructureMismatchError(f"pair ({m},{n}) at k={k}: B partners are not opposite")
    weights = (2.0 / 3.0, 1.0 / 3.0)
    return AtypeReport(cls.m, cls.n, cls.witness_k, weights, weights, 1.0, 0.0)


def ctype_structure(m: int, n: int) -> CtypeReport:
    """Check the swapped-coefficient canonical structure of a C-type pair.

    With h and l W_m's heavy and light column at the witness k, W_n is heavy
    on l, G is diagonal, |G[l, l]| = 1 and G[l, l] + G[h, h] = 0: the two
    states' directions paired with |l> overlap by 1/sqrt(2), those paired with
    |h> by the opposite sign, and no cross pair overlaps. The residuals are
    then exactly 0.
    """
    cls = classify_pair(m, n)
    if cls.category != CATEGORY_C:
        raise ValueError(f"pair ({m},{n}) is {cls.category}, not C")
    k = cls.witness_k
    assert k is not None
    h_m, h_n, g, _ = _cut_gram(m, n, k)
    l_m = 1 - h_m
    if h_n == h_m or g[0, 1] or g[1, 0] or abs(g[l_m, l_m]) != 1 or g[l_m, l_m] + g[h_m, h_m]:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: canonical C structure fails (G = {g.tolist()})"
        )
    return CtypeReport(
        cls.m, cls.n, k,
        overlap_magnitude=float(abs(g[l_m, l_m]) / np.sqrt(2.0)),
        sign_residual=0.0,
        cross_overlap=0.0,
        b_basis_residual=0.0,
    )


def input_negativity(pair: DensityMatrix, blank: DensityMatrix, k: int) -> float:
    """Negativity of pair (x) blank across the six-qubit lab cut {k-1, k+2}.

    The cut splits both registers at qubit k, so (pair (x) blank)^T_B is
    pair^T_k (x) blank^T_k and trace norms multiply: 1 + N = (1 + N_pair)(1 + N_blank).
    """
    cut = Bipartition(3, frozenset({k - 1}))
    return (1.0 + negativity(pair, cut)) * (1.0 + negativity(blank, cut)) - 1.0


def negativity_audit(m: int, n: int, blank: int = 1) -> AuditRecord:
    """Negativities of the cloner's input and output across the witness lab cut.

    Input: equal mixture of W_m (x) W_blank and W_n (x) W_blank. Output: that of
    W_m (x) W_m and W_n (x) W_n.
    """
    return audit_classified(classify_pair(m, n), blank)


def audit_classified(cls: PairClassification, blank: int = 1) -> AuditRecord:
    """negativity_audit of a pair already classified, at its witness cut.

    The input is input_negativity of the 8x8 pair mixture and blank. The output
    mixture of W_m (x) W_m and W_n (x) W_n keeps each register's Z(x)Z(x)Z parity,
    so its negativity comes from four 16x16 parity sectors (_output_negativity).
    Runs for any distinct pair; A-type records carry no form and get no
    reference comparison. A failed check names the pair and the cut.
    """
    blank = integer_index(blank, "blank W basis index")
    m, n, k = cls.m, cls.n, cls.witness_k
    assert k is not None
    form = btype_form(m, n, k).form if cls.category == CATEGORY_B else None
    states = (w_basis(m), w_basis(n))
    pair = DensityMatrix(3, (density(states[0]).entries + density(states[1]).entries) / 2)
    try:
        negativity_in = input_negativity(pair, density(w_basis(blank)), k)
        negativity_out = _output_negativity(states, k)
    except VerificationError as exc:
        raise type(exc)(f"pair ({m},{n}) at k={k}: {exc}") from None
    return AuditRecord(m, n, cls.category, k, form, negativity_in, negativity_out, blank)


def _output_negativity(states: Sequence[StateVector], k: int) -> float:
    """Negativity of the equal mixture of clones |s>|s> across the lab cut {k-1, k+2}.

    States of definite Z(x)Z(x)Z parity make the mixture commute with each register's
    parity, which transposing lab B keeps, so the partial transpose lies in _SECTORS:
    one stacked 16x16 eigensolve. An entry outside them raises StructureMismatchError.
    """
    # W-basis amplitudes are real, so dropping their zero imaginary parts loses nothing
    clones = np.stack([np.outer(s.amplitudes.real, s.amplitudes.real).ravel() for s in states])
    rho_out = DensityMatrix(6, clones.T @ clones / len(states))
    flipped = partial_transpose(rho_out, Bipartition(6, frozenset({k - 1, k + 2})))
    blocks = flipped[_SECTORS[:, :, None], _SECTORS[:, None, :]]
    inside, total = np.count_nonzero(blocks), np.count_nonzero(flipped)
    if inside < total:
        raise StructureMismatchError(
            f"{total - inside} of {total} nonzero entries of the output's partial transpose "
            "lie outside the register parity sectors"
        )
    return transpose_negativity(blocks)


def blank_insufficiency(params: WClassParams) -> tuple[int, float]:
    """A cut whose entropy falls short of W_CUT_ENTROPY_BITS, and that entropy in bits."""
    deviation = max(
        abs(params.a - 1.0 / 3.0),
        abs(params.b - 1.0 / 3.0),
        abs(params.c - 1.0 / 3.0),
        params.d,
    )
    if deviation < 1e-9:
        raise ValueError("the equal-weight three-term point needs the full threshold")
    cut_index, entropy = wclass_min_cut_entropy(params)
    if entropy >= W_CUT_ENTROPY_BITS:
        raise StructureMismatchError(
            f"no deficient cut at {params}; min entropy {entropy!r}"
        )
    return cut_index, entropy


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

    Points come in lexicographic (ia, ib, ic) order, _SCAN_CHUNK to a chunk
    and the rest in the last one; a chunk spans as many ia rows as it needs,
    so the fixed cost of a numpy pass is paid per full chunk, not per row.
    """
    top = _grid_top(step)
    held: list[np.ndarray] = []  # (ia, ib, ic) index rows not yet yielded
    size = 0
    for ia in range(1, top - 1):
        ib, ic = _grid_rows(top, ia)
        held.append(np.stack((np.full(ib.size, ia), ib, ic)))
        size += ib.size
        if size < _SCAN_CHUNK:
            continue
        grid = np.concatenate(held, axis=1)
        full = size - size % _SCAN_CHUNK
        for lo in range(0, full, _SCAN_CHUNK):
            a, b, c = grid[:, lo:lo + _SCAN_CHUNK] * step
            yield a, b, c
        held, size = [grid[:, full:]], size - full
    if size:
        a, b, c = np.concatenate(held, axis=1) * step
        yield a, b, c


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

    A point's minimum cut entropy is entropy_bits of its wclass_cut_spectra,
    minimised over the cuts. Any grid point outside the L1 exclusion ball
    around the equal-weight point whose minimum reaches the threshold (within
    1e-12) is recorded as a violation with that entropy, in grid order; the
    expected result is none. The report also carries the largest minimum
    outside the ball, at its first grid point: the scan's margin below the
    threshold. At every grid point the closed-form spectra of all three cuts
    must match the exact 2x2 eigenvalues of the marginals contracted from the
    amplitudes to SPECTRUM_TOL, or StructureMismatchError is raised.
    """
    check_scan_inputs(step, exclusion_radius)
    violations: list[tuple[WClassParams, float]] = []
    tested = 0
    best_entropy, best_point = -np.inf, None
    for a, b, c in _grid_chunks(step):
        d = np.maximum(0.0, 1.0 - (a + b + c))
        spectra = wclass_cut_spectra(a, b, c)
        _crosscheck_spectra(a, b, c, d, spectra)
        cuts = entropy_bits(spectra)
        # a column-wise minimum beats a reduction over the short cut axis
        entropy = np.where(
            _distance_from_w_point(a, b, c, d) > exclusion_radius,
            np.minimum(np.minimum(cuts[:, 0], cuts[:, 1]), cuts[:, 2]),
            -np.inf,
        )
        for i in np.flatnonzero(entropy >= W_CUT_ENTROPY_BITS - 1e-12):
            params = WClassParams(float(a[i]), float(b[i]), float(c[i]))
            violations.append((params, float(entropy[i])))
        top = int(np.argmax(entropy))  # first maximum, so ties keep grid order
        if entropy[top] > best_entropy:
            best_entropy = float(entropy[top])
            best_point = WClassParams(float(a[top]), float(b[top]), float(c[top]))
        tested += a.size
    assert best_point is not None  # check_scan_inputs leaves a point outside the ball
    return ScanReport(
        step, exclusion_radius, tested,
        grid_max_entropy_bits=best_entropy,
        grid_max_point=best_point,
        violations=tuple(violations),
    )


def _marginal_entries(
    psi: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<0|rho|0>, <1|rho|1> and <0|rho|1> of qubit k's marginal for each real state.

    psi holds real amplitudes with shape (states, 2, 2, 2), axis k for qubit
    k; the two traced qubits are contracted as rows of four amplitudes.
    """
    zero = np.take(psi, 0, axis=k).reshape(-1, 4)
    one = np.take(psi, 1, axis=k).reshape(-1, 4)
    return (
        np.einsum("ij,ij->i", zero, zero),
        np.einsum("ij,ij->i", one, one),
        np.einsum("ij,ij->i", zero, one),
    )


def _symmetric_2x2_eigenvalues(
    p: np.ndarray, q: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ascending eigenvalues of the real symmetric matrices [[p, r], [r, q]]."""
    root = np.sqrt((p - q) ** 2 + 4.0 * r * r)
    return (p + q - root) / 2.0, (p + q + root) / 2.0


def _crosscheck_spectra(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, spectra: np.ndarray
) -> None:
    """Compare the closed-form spectra with the marginal spectra of every state.

    The three one-qubit marginals come from the amplitudes by contraction,
    their eigenvalues from the exact 2x2 formula. A gap above SPECTRUM_TOL,
    or a NaN on either side, fails the first such point and cut in grid order.
    """
    psi = np.zeros((a.size, 2, 2, 2))
    psi[:, 0, 0, 0] = np.sqrt(d)
    psi[:, 0, 0, 1] = np.sqrt(a)
    psi[:, 0, 1, 0] = np.sqrt(b)
    psi[:, 1, 0, 0] = np.sqrt(c)
    bad = np.empty((a.size, 3), dtype=bool)
    for k in (1, 2, 3):
        low, high = _symmetric_2x2_eigenvalues(*_marginal_entries(psi, k))
        bad[:, k - 1] = ~(
            (np.abs(low - spectra[:, k - 1, 0]) <= SPECTRUM_TOL)
            & (np.abs(high - spectra[:, k - 1, 1]) <= SPECTRUM_TOL)
        )
    if bad.any():
        i, cut = np.argwhere(bad)[0]
        raise StructureMismatchError(
            f"closed-form spectrum disagrees with partial trace at "
            f"{float(a[i])!r},{float(b[i])!r},{float(c[i])!r}, cut {cut + 1}"
        )


def all_pair_classifications() -> tuple[PairClassification, ...]:
    return tuple(classify_pair(m, n) for m in range(1, 9) for n in range(m + 1, 9))


def all_audit_records(blank: int = 1) -> tuple[AuditRecord, ...]:
    return tuple(audit_classified(cls, blank) for cls in all_pair_classifications())
