"""Taxonomy of pairs drawn from the W-type basis, on plain ints: w classify loads no numpy.

Pairs (W_m, W_n) are sorted by the span of the supports of their two-qubit
reductions Tr_k: category A has some k with span 2, category B none with 2
but some with 3, category C span 4 for every k plus a k where the reductions
do not commute. These decisions and the A, B and C structures are exact and
run on plain ints: sqrt(3) * W_m has entries 0 and +/-1 (exact.w_signs), so
its 4x2 cut matrix M at qubit k (exact.cut_columns) is integer, and Tr_k =
M M^T / 3 has the column space of M. Each D = M^T M is checked to be diagonal with
entries {1, 2}: M's columns are then the A-side Schmidt directions, paired with
|0> and |1> on qubit k, and D_m is invertible. So the span at k, the rank of
[M_m | M_n], is 2 plus the rank of the integer 2x2 Schur complement
S = 2 D_n - G^T (2 D_m^-1) G of the Gram matrix G = M_m^T M_n: S is twice the
Gram matrix of M_n's columns less their projections onto M_m's column space.
The reductions commute exactly when G is 0: with span 4, P = [M_m | M_n] is
invertible and 9 times their commutator, M_m G M_n^T - M_n G^T M_m^T, is
P [[0, G], [-G^T, 0]] P^T. The canonical forms are integer tests on the same G.
No tolerance is left to tune.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .exact import StructureMismatchError, column_dot, cut_columns, integer_index, w_signs

CATEGORY_A = "A"
CATEGORY_B = "B"
CATEGORY_C = "C"

FORM_I = "I"
FORM_II = "II"


class PairClassification(NamedTuple):
    m: int
    n: int
    category: str
    witness_k: int
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


def classify_pair(m: int, n: int) -> PairClassification:
    """Category A/B/C of a W-basis pair with its witness cut.

    The witness for A and B is the largest k attaining the minimal span (one
    pair attains its minimum at every k and is cataloged under k=3); for C it
    is the smallest k whose reductions do not commute, that is whose Gram
    matrix G is nonzero (see the module docstring). Indices follow
    exact.integer_index, _cut_gram checks that they differ and w_signs their range.
    """
    m, n = integer_index(m, "W basis index"), integer_index(n, "W basis index")
    cuts = {k: _cut_gram(m, n, k) for k in (1, 2, 3)}
    span = min(dim for *_, dim in cuts.values())
    if span <= 3:
        category = CATEGORY_A if span == 2 else CATEGORY_B
        witness = max(k for k, (*_, dim) in cuts.items() if dim == span)
        return PairClassification(m, n, category, witness, span)
    noncommuting = [k for k, (_, _, g, _) in cuts.items() if any(map(any, g))]
    if not noncommuting:
        raise StructureMismatchError(
            f"pair ({m},{n}) spans 4 at every cut but all reductions commute"
        )
    return PairClassification(m, n, CATEGORY_C, min(noncommuting), 4)


def _cut_gram(m: int, n: int, k: int) -> tuple[int, int, tuple[tuple[int, int], ...], int]:
    """Heavy columns h_m, h_n at cut k, the Gram matrix G = M_m^T M_n and the span.

    M is the integer 4x2 cut matrix of sqrt(3) * W at qubit k. Each state must
    have M^T M diagonal with entries {1, 2}: then column b is the A-side Schmidt
    direction paired with |b> on qubit k, of marginal weight M^T M[b, b] / 3,
    so column h (weight 2/3) is heavy and 1 - h (weight 1/3) light, and G[i, j]
    is the overlap of column i of M_m with column j of M_n. The span of the two
    reductions' supports is the rank of [M_m | M_n], from _span.
    """
    if integer_index(k, "cut index k") not in (1, 2, 3):
        raise ValueError(f"cut index k={k!r} must be 1..3")
    if m == n:  # the callers' plain ints, compared before w_signs range-checks either
        raise ValueError("pair members must differ")
    (m0, m1), (n0, n1) = (cut_columns(w_signs(x), k) for x in (m, n))
    heavy, diagonals = [], []
    for x, (c0, c1) in ((m, (m0, m1)), (n, (n0, n1))):
        d0, off, d1 = column_dot(c0, c0), column_dot(c0, c1), column_dot(c1, c1)
        if off or {d0, d1} != {1, 2}:
            raise StructureMismatchError(
                f"W{x} at k={k}: M^T M = {[[d0, off], [off, d1]]} is not diagonal with entries 1, 2"
            )
        heavy.append(0 if d0 == 2 else 1)
        diagonals.append((d0, d1))
    gram = tuple((column_dot(c, n0), column_dot(c, n1)) for c in (m0, m1))
    return heavy[0], heavy[1], gram, _span(diagonals[0], diagonals[1], gram)


def _span(d_m: tuple[int, int], d_n: tuple[int, int], gram: tuple[tuple[int, int], ...]) -> int:
    """Rank of [M_m | M_n] from the diagonals of D_m = M_m^T M_m and D_n, entries 1 or 2, and G.

    M_m has rank 2, so the rank is 2 + rank S for the Schur complement
    S = 2 D_n - G^T (2 D_m^-1) G, whose weights 2 / D_m[i, i] are the integers 2
    and 1. The symmetric 2x2 S has rank 2 if det S != 0, else 1 if it is nonzero.
    """
    w0, w1 = 2 // d_m[0], 2 // d_m[1]
    (g00, g01), (g10, g11) = gram
    s00 = 2 * d_n[0] - w0 * g00 * g00 - w1 * g10 * g10
    s11 = 2 * d_n[1] - w0 * g01 * g01 - w1 * g11 * g11
    s01 = w0 * g00 * g01 + w1 * g10 * g11  # -S[0, 1]; only its square enters
    if s00 * s11 != s01 * s01:
        return 4
    return 3 if s00 or s01 or s11 else 2


def btype_form(m: int, n: int, k: int) -> BTypeForm:
    """Form I or II of a B-type pair from the shared support direction.

    The two A-side supports meet in one direction. With h and l each state's
    heavy (weight 2/3) and light (weight 1/3) column, form I has the heavy
    columns parallel (|G[h_m, h_n]| = 2) and form II the light ones
    (|G[l_m, l_n]| = 1). Columns of norm^2 2 and 1 are never parallel, so a
    direction shared at different weights, or by no columns at all, fails.
    """
    m, n = integer_index(m, "W basis index"), integer_index(n, "W basis index")
    h_m, h_n, g, span = _cut_gram(m, n, k)
    if span != 3:
        raise StructureMismatchError(f"pair ({m},{n}) spans {span} at k={k}, not 3 as a B witness")
    heavy, light = abs(g[h_m][h_n]) == 2, abs(g[1 - h_m][1 - h_n]) == 1
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
    if abs(g[h_m][h_n]) != 2 or abs(g[1 - h_m][1 - h_n]) != 1:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: A-side directions differ (G = {g})"
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
    h_m, h_n, g, _ = _cut_gram(m, n, k)
    l_m = 1 - h_m
    if h_n == h_m or g[0][1] or g[1][0] or abs(g[l_m][l_m]) != 1 or g[l_m][l_m] + g[h_m][h_m]:
        raise StructureMismatchError(
            f"pair ({m},{n}) at k={k}: canonical C structure fails (G = {g})"
        )
    return CtypeReport(
        cls.m, cls.n, k,
        overlap_magnitude=abs(g[l_m][l_m]) / math.sqrt(2.0),
        sign_residual=0.0,
        cross_overlap=0.0,
        b_basis_residual=0.0,
    )


def all_pair_classifications() -> tuple[PairClassification, ...]:
    return tuple(classify_pair(m, n) for m in range(1, 9) for n in range(m + 1, 9))
