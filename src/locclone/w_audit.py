"""No-go audit and simplex scan of the W half: the code that runs on numpy.

The audit cuts each pair w_taxonomy classifies, at its witness cut k, between
lab A (qubits i, j of both registers) and lab B (qubit k of both), and compares
the cloner input's and output's negativities: an output above the input
certifies that no LOCC step can have produced it.
Every value comes from X_s = (|s><s|)^T_k for s = W_m, W_n and the blank, read
from the integer signs exact.w_signs: X_s[i, j] = s[i ^ d] s[j ^ d] / 3, d the bit
of qubit k in i ^ j. A W-basis state has one Z(x)Z(x)Z parity, so X_s has two
4x4 blocks. The input's partial transpose is (X_m + X_n)/2 (x) X_blank, whose
trace norms multiply; the output's, the mean of X_s (x) X_s over the pair, lies
in four 16x16 parity sectors, of which (1,0) is (0,1) with original and clone
swapped, so three are solved. A batch of pairs takes two eigensolves in all.

The lemma-scan half covers W-class states: each one-qubit marginal spectrum
has the closed form lambda(+/-) = (1 +/- sqrt((1-2x)^2 + 4xd))/2 with x the
parameter opposite the cut, so the minimum cut entropy of every state except
the equal-weight three-term point stays below that point's entropy and a
product blank plus LOCC cannot reach it. measures.wclass_cut_spectra, the
array form of that closed form, runs cut-major over the parameter grid in
chunks of a fixed number of points that span grid rows, on the chunk's one d,
which its amplitudes and exclusion ball share; the scan checks it at every
point against the three one-qubit marginals. A scan's one amplitude buffer
holds psi[q1, q2, q3] as a row over a chunk's states; each chunk fills its
four W-class rows, the other four staying zero. Qubit k's marginal contracts
two views, its 0- and 1-slices, over all 8 amplitudes, so no row is copied or
gathered. Being real symmetric 2x2, it has the exact eigenvalues
(t -/+ sqrt((p - q)^2 + 4r^2))/2 from its diagonal p, q, trace t = p + q and
off-diagonal r, for all three cuts in one pass against the closed form's
cut-major rows, so no eigensolver runs per point. A point's minimum cut
entropy is that of its smallest lambda- with its largest lambda+, which one
cut holds: the binary entropy rises on [0, 1/2], and on the grid two cuts'
D = (1-2x)^2 + 4xd differ by 4y|x - x'|, y the third parameter, at least
4 step^2 unless they tie exactly, so this is the minimum over the three cuts
bit for bit at a third of the log2 work; all six spectrum values are range-checked.
The one-point certificate, blank_insufficiency, is wclass's, on plain floats.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .measures import entropy_bits, wclass_cut_spectra
from .exact import StructureMismatchError, integer_index, w_signs
from .registers import hermitian_spectrum
from .states import SQRT_THIRD
from .w_taxonomy import CATEGORY_B, PairClassification, btype_form, classify_pair
# the A and C structure checks keep their w_audit names, which the benchmark calls
from .w_taxonomy import atype_structure, ctype_structure
# lemma_scan reads the threshold through this module's own global; blank_insufficiency
# keeps its w_audit name
from .wclass import W_CUT_ENTROPY_BITS, ZERO_CLAMP, WClassParams, blank_insufficiency

SPECTRUM_TOL = 1e-10
SCAN_MIN_STEP = 0.002  # C(500, 3) = 20,708,500 grid points
# Grid points per scan step. Each numpy pass has a fixed cost, so larger chunks run faster and
# hold more memory: lemma_scan(0.01, 0.05) on a 2-core Xeon, pinned to one core, takes 34, 22 and
# 20.5 ms at 1 << 10, 1 << 12 and 1 << 13 (best of 4 processes x 10 scans), 29.3, 30.8 and 32.4 MB
# max RSS, timed with glibc heap trimming active, so they include faults on chunk temporaries.
_SCAN_CHUNK = 1 << 12

# The 8 indices of one register by Z(x)Z(x)Z parity, even then odd: two 4x4 blocks
_PARITY = np.array([[i for i in range(8) if bin(i).count("1") % 2 == p] for p in (0, 1)])
# Block entry (i, j) of X_s is s[i ^ d] s[j ^ d], d = (i ^ j) & qubit k's bit: [k-1, side, p, a, c]
_BLOCK_KETS = np.array([[_PARITY[:, :, None] ^ d, _PARITY[:, None, :] ^ d] for d in (
    (_PARITY[:, :, None] ^ _PARITY[:, None, :]) & bit for bit in (4, 2, 1))])


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


def negativity_audit(m: int, n: int, blank: int = 1) -> AuditRecord:
    """Negativities of the cloner's input and output across the witness lab cut.

    Input: equal mixture of W_m (x) W_blank and W_n (x) W_blank. Output: that of
    W_m (x) W_m and W_n (x) W_n. This is the audit_classified batch of one pair, kept
    for callers that hold (m, n) rather than a classification: the benchmark's.
    """
    return audit_classified((classify_pair(m, n),), blank)[0]


def audit_classified(
    pairs: Sequence[PairClassification], blank: int = 1
) -> tuple[AuditRecord, ...]:
    """negativity_audit of classified pairs, each at its witness cut, in one pass.

    Row i holds pair i's (W_m, W_n, W_blank) at its cut. Its input trace norm is the
    pair's (its members' mean _parity_blocks) times the blank's, its output's comes from
    its _output_sectors, and each takes one stacked solve over all rows. A record depends
    on its row alone; a failed check names the first failing row's pair and cut.
    """
    blank = integer_index(blank, "blank W basis index")
    w_signs(blank)  # refuses a bad blank, an empty batch too
    if not pairs:
        return ()
    names = [f"pair ({c.m},{c.n}) at k={c.witness_k}" for c in pairs]
    blocks = _parity_blocks([(c.m, c.n, blank) for c in pairs], [c.witness_k for c in pairs], names)
    # the pair mixture's transpose is the mean of its members' X_s
    factors = np.stack([(blocks[:, 0] + blocks[:, 1]) / 2, blocks[:, 2]], axis=1)
    norms = np.abs(hermitian_spectrum(factors, names)).reshape(-1, 2, 8).sum(axis=-1)
    sectors = np.abs(hermitian_spectrum(_output_sectors(blocks[:, :2]), names)).sum(axis=-1)
    # sector (1,0) is (0,1) with original and clone swapped: its spectrum counts twice
    out = sectors[0::3] + 2.0 * sectors[1::3] + sectors[2::3] - 1.0
    return tuple(
        AuditRecord(c.m, c.n, c.category, c.witness_k,
                    btype_form(c.m, c.n, c.witness_k).form if c.category == CATEGORY_B else None,
                    float(x_in), 0.0 if abs(x_out) < ZERO_CLAMP else float(x_out), blank)
        for c, x_in, x_out in zip(pairs, norms[:, 0] * norms[:, 1] - 1.0, out)
    )


def _parity_blocks(
    rows: Sequence[Sequence[int]], cuts: Sequence[int], names: Sequence[str]
) -> np.ndarray:
    """The two 4x4 _PARITY blocks of each X_s = (|s><s|)^T_k, as [row, s, p, a, c].

    Row i lists W-basis indices, transposed at qubit cuts[i]: w_signs gathered through
    _BLOCK_KETS, times fl(1/sqrt(3))^2 as two w_basis amplitudes multiply (not 1/3). A state
    with n_p kets of parity p has 2 n_0 n_1 of the (n_0 + n_1)^2 nonzero entries of X_s
    outside the blocks; the first row with any raises StructureMismatchError under its name.
    """
    cuts = [integer_index(k, "cut index k") for k in cuts]
    if any(k not in (1, 2, 3) for k in cuts):
        raise ValueError(f"cut indices {cuts} must each be 1..3")
    signs = np.array([[w_signs(x) for x in row] for row in rows])
    kets = (signs[..., _PARITY] != 0).sum(axis=-1)  # n_p, as [row, s, p]
    outside = 2 * kets[..., 0] * kets[..., 1]
    if outside.any():
        i = np.argmax(outside.any(axis=1))
        raise StructureMismatchError(
            f"{names[i]}: {outside[i].sum()} of {(kets[i].sum(axis=-1) ** 2).sum()} nonzero "
            "entries of the states' 8x8 partial transposes lie outside the register parity sectors"
        )
    at = _BLOCK_KETS[[k - 1 for k in cuts]].reshape(len(rows), -1)  # [row, (side, p, a, c)]
    ends = signs[np.arange(len(rows))[:, None], :, at].swapaxes(1, 2)  # [row, s, (side, p, a, c)]
    ends = ends.reshape(signs.shape[:2] + _BLOCK_KETS.shape[1:])
    return ends[:, :, 0] * ends[:, :, 1] * (SQRT_THIRD * SQRT_THIRD)


def _output_sectors(blocks: np.ndarray) -> np.ndarray:
    """The clones' partial transpose, each row's mean of X_s (x) X_s, as its 16x16 parity
    sectors (0,0), (0,1) and (1,1), each the mean of X_s[p] (x) X_s[q], stacked
    (3 * rows, 16, 16) row by row from blocks [row, s, p, a, c]."""
    rows, states = blocks.shape[:2]
    # [row, p, (a, c), s] @ [row, q, s, (b, d)] -> [row, pq, (a, c), (b, d)] -> (ab, cd)
    factors = blocks.transpose(0, 2, 3, 4, 1).reshape(rows, 2, 16, states)
    products = np.matmul(factors[:, [0, 0, 1]], factors[:, [0, 1, 1]].swapaxes(2, 3)) / states
    return products.reshape(rows, 3, 4, 4, 4, 4).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 16, 16)


def _grid_top(step: float) -> int:
    """Grid points are step * (ia, ib, ic) with positive integers summing to at most this."""
    return int(np.floor(1.0 / step + 1e-9))


def _grid_chunks(step: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Grid parameters (a, b, c) = step * (ia, ib, ic) as arrays.

    Points come in lexicographic (ia, ib, ic) order, _SCAN_CHUNK to a chunk
    and the rest in the last one; a chunk spans as many grid rows (ia, ib) as
    it needs, so the fixed cost of a numpy pass is paid per full chunk, not per
    row. Only the row table is held: each row's (ia, ib), its ic offset and
    where its points end. A chunk repeats its rows' entries by their run
    lengths in it, so no per-point index is built or gathered through.
    """
    top = _grid_top(step)
    r = np.arange(1, top)
    ia, ib = np.nonzero(np.add.outer(r, r) < top)
    ia, ib = ia + 1, ib + 1
    ends = np.cumsum(top - ia - ib)  # row (ia, ib) holds ic = 1..top-ia-ib
    total = int(ends[-1])
    offset = (top + 1) - ia - ib - ends  # a row's ic is its grid point index plus this
    for lo in range(0, total, _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK, total)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        rows = slice(first, last + 1)
        runs = np.diff(np.minimum(ends[rows], hi), prepend=lo)
        ic = np.arange(lo, hi) + np.repeat(offset[rows], runs)
        yield np.repeat(ia[rows], runs) * step, np.repeat(ib[rows], runs) * step, ic * step


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
    minimised over the cuts: that of its smallest lambda- and largest lambda+
    (see the module docstring). Any grid point outside the L1 exclusion ball
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
    psi = np.zeros((2, 2, 2, _SCAN_CHUNK))  # each chunk's amplitudes, in its first columns
    for a, b, c in _grid_chunks(step):
        d = np.maximum(0.0, 1.0 - (a + b + c))  # one d a chunk: closed form, cross-check, ball
        spectra = wclass_cut_spectra(a, b, c, d)
        rows = spectra.transpose(2, 1, 0)  # [lambda-/+, cut, point]: the closed form's own stack
        _crosscheck_spectra(a, b, c, d, rows, psi[..., :a.size])
        if not (rows.min() >= -ZERO_CLAMP and rows.max() <= 1.0 + ZERO_CLAMP):  # or NaN
            entropy_bits(spectra)  # raises, naming the first value outside [0, 1]
        # one cut holds both, the most unequal, whose entropy is the minimum
        pair = np.stack([rows[0].min(axis=0), rows[1].max(axis=0)]).T
        entropy = np.where(
            _distance_from_w_point(a, b, c, d) > exclusion_radius, entropy_bits(pair), -np.inf
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

    psi holds real amplitudes with shape (2, 2, 2, states), axis k - 1 for
    qubit k; its 0- and 1-slices there are views, contracted over the rest.
    """
    zero, one = (psi[(slice(None),) * (k - 1) + (bit,)] for bit in (0, 1))
    pairs = ((zero, zero), (one, one), (zero, one))
    return tuple(np.einsum("ijn,ijn->n", u, v) for u, v in pairs)


def _symmetric_2x2_eigenvalues(
    p: np.ndarray, q: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ascending eigenvalues of real symmetric [[p, r], [r, q]]; p + q is formed once."""
    trace, root = p + q, np.sqrt((p - q) ** 2 + 4.0 * r * r)
    return (trace - root) / 2.0, (trace + root) / 2.0


def _crosscheck_spectra(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, rows: np.ndarray,
    psi: np.ndarray,
) -> None:
    """Compare the closed-form spectra rows [lambda-/+, cut, point] with every marginal's.

    psi is the (2, 2, 2, points) amplitude buffer, zero but for the four W-class
    rows, which this fills. The three one-qubit marginals come from it by
    contraction, their eigenvalues from the exact 2x2 formula, over all cuts at
    once. A gap above SPECTRUM_TOL, or a NaN on either side, fails the first such
    point and cut in grid order.
    """
    np.sqrt(d, out=psi[0, 0, 0])
    np.sqrt(a, out=psi[0, 0, 1])
    np.sqrt(b, out=psi[0, 1, 0])
    np.sqrt(c, out=psi[1, 0, 0])
    entries = np.empty((3, 3, a.size))  # [p/q/r, cut, point]
    for k in (1, 2, 3):
        for row, value in zip(entries[:, k - 1], _marginal_entries(psi, k)):
            row[...] = value
    low, high = _symmetric_2x2_eigenvalues(*entries)
    bad = ~((np.abs(low - rows[0]) <= SPECTRUM_TOL) & (np.abs(high - rows[1]) <= SPECTRUM_TOL))
    if bad.any():
        i, cut = np.argwhere(bad.T)[0]
        raise StructureMismatchError(
            f"closed-form spectrum disagrees with partial trace at "
            f"{float(a[i])!r},{float(b[i])!r},{float(c[i])!r}, cut {cut + 1}"
        )

