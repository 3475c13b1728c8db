"""Entropy, negativity, and the closed-form W-class cut spectra."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from locclone.measures import (
    W_CUT_ENTROPY_BITS,
    cut_entropy,
    entropy_bits,
    negativity,
    wclass_cut_spectra,
    wclass_min_cut_entropy,
)
from locclone.registers import (
    Bipartition,
    DensityMatrix,
    VerificationError,
    density,
    schmidt_coefficients,
)
from locclone.states import GHZ_LABELS, WClassParams, ghz, w_basis, w_class

from references import embed_operator, make_pure, mix, tensor


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return make_pure(amps / np.linalg.norm(amps))


def random_unitary(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cut_spectrum(params, cut_index):
    """(lambda-, lambda+) of one state at one cut, from length-1 wclass_cut_spectra."""
    spectra = wclass_cut_spectra(
        *(np.array([getattr(params, x)]) for x in "abcd"), np.empty((2, 3, 1))
    )
    return tuple(float(x) for x in spectra[0, cut_index - 1])


def random_simplex_params(rng):
    a, b, c, _ = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
    # shrink toward the interior so a,b,c stay positive with a+b+c < 1
    scale, floor = 1.0 - 4e-6, 1e-6
    return WClassParams(a * scale + floor, b * scale + floor, c * scale + floor)


def test_entropy_bits_basics():
    assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert entropy_bits([1.0, 0.0]) == 0.0
    assert entropy_bits([1.0, -1e-13]) == 0.0  # rounding noise is dropped
    with pytest.raises(VerificationError):
        entropy_bits([1.1, -0.1])
    for above_one in ([2.0], [0.5, 1.5]):  # the formula alone gives -2 and -0.377 bits
        with pytest.raises(VerificationError):
            entropy_bits(above_one)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(VerificationError):
            entropy_bits([bad, 1.0])


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 40)),
              elements=st.floats(min_value=0.0, max_value=1.0)))
def test_entropy_bits_matches_a_loop(weights):
    # each row, normalised, is one distribution; the loop adds its terms in index order
    assume(np.all(weights.sum(axis=1) > 0.0))
    rows = weights / weights.sum(axis=1, keepdims=True)
    logs = np.log2(np.where(rows > 0.0, rows, 1.0))
    want = []
    for row, log_row in zip(rows, logs):
        total = 0.0
        for p, log_p in zip(row, log_row):
            total -= p * log_p
        want.append(0.0 if abs(total) < 1e-12 else total)
    got = entropy_bits(rows)
    assert got.shape == (len(rows),) and got.tolist() == want
    assert [float(entropy_bits(row)) for row in rows] == want


def test_threshold_constant():
    want = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert W_CUT_ENTROPY_BITS == pytest.approx(want, abs=1e-15)
    assert W_CUT_ENTROPY_BITS == pytest.approx(0.9182958340544896, abs=1e-15)


@pytest.mark.parametrize("label", GHZ_LABELS, ids=str)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_ghz_cut_entropy_is_one_bit(label, k):
    result = cut_entropy(ghz(label), Bipartition(3, frozenset({k - 1})))
    assert result.entropy_bits == pytest.approx(1.0, abs=1e-12)


def test_cut_entropy_product_is_zero():
    state = make_pure([1, 0, 0, 0, 0, 0, 0, 0])
    result = cut_entropy(state, Bipartition(3, frozenset({2})))
    assert abs(result.entropy_bits) < 1e-12


def test_w_basis_cut_entropy_hits_threshold():
    result = cut_entropy(w_basis(1), Bipartition(3, frozenset({2})))
    assert result.entropy_bits == pytest.approx(W_CUT_ENTROPY_BITS, abs=1e-12)


def test_negativity_bell():
    state = make_pure([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    value = negativity(density(state), Bipartition(2, frozenset({1})))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_negativity_w_state():
    value = negativity(density(w_basis(1)), Bipartition(3, frozenset({2})))
    assert value == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)


def test_negativity_product_clamps_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(5):
        joint = tensor(random_state(rng, 1), random_state(rng, 2))
        value = negativity(density(joint), Bipartition(3, frozenset({0})))
        assert abs(value) < 1e-12


def test_negativity_matches_schmidt_oracle():
    # pure states: trace-norm route against (sum of root coefficients)^2 - 1
    rng = np.random.default_rng(22)
    for _ in range(10):
        state = random_state(rng, 3)
        side_b = frozenset(rng.choice(3, size=int(rng.integers(1, 3)), replace=False).tolist())
        cut = Bipartition(3, side_b)
        coeffs = schmidt_coefficients(state, cut)
        want = float(np.sqrt(np.clip(coeffs, 0.0, None)).sum() ** 2 - 1.0)
        assert negativity(density(state), cut) == pytest.approx(want, abs=1e-10)


def test_negativity_invariant_under_local_unitaries():
    rng = np.random.default_rng(23)
    cut = Bipartition(3, frozenset({2}))
    for _ in range(5):
        state = random_state(rng, 3)
        base = negativity(density(state), cut)
        rotation = embed_operator(random_unitary(rng, 4), 3, [0, 1]) @ embed_operator(
            random_unitary(rng, 2), 3, [2]
        )
        rotated = DensityMatrix(3, rotation @ density(state).entries @ rotation.conj().T)
        assert negativity(rotated, cut) == pytest.approx(base, abs=1e-10)


def test_wclass_cut_spectrum_known_points():
    third = 1.0 / 3.0
    lam_minus, lam_plus = cut_spectrum(WClassParams(third, third, third), 1)
    assert (lam_minus, lam_plus) == (pytest.approx(third, abs=1e-12), pytest.approx(2 * third, abs=1e-12))
    lam_minus, lam_plus = cut_spectrum(WClassParams(0.25, 0.25, 0.5), 1)
    assert lam_minus == pytest.approx(0.5, abs=1e-12)
    assert lam_plus == pytest.approx(0.5, abs=1e-12)


def test_wclass_cut_spectrum_postconditions():
    rng = np.random.default_rng(24)
    for _ in range(50):
        params = random_simplex_params(rng)
        for cut_index in (1, 2, 3):
            lam_minus, lam_plus = cut_spectrum(params, cut_index)
            assert lam_minus + lam_plus == pytest.approx(1.0, abs=1e-12)
            assert -1e-12 <= lam_minus <= lam_plus <= 1.0 + 1e-12


def test_wclass_spectrum_matches_partial_trace():
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(200):
        params = random_simplex_params(rng)
        state = w_class(params)
        for cut_index in (1, 2, 3):
            lam_minus, lam_plus = cut_spectrum(params, cut_index)
            direct = schmidt_coefficients(state, Bipartition(3, frozenset({cut_index - 1})))
            worst = max(worst, abs(direct[0] - lam_plus), abs(direct[-1] - max(lam_minus, 0.0)))
    assert worst <= 1e-10


_weights = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_weights, _weights, _weights, _weights), min_size=1, max_size=8))
def test_array_closed_form_matches_partial_trace(weights):
    # four positive weights normalised give a point (a, b, c) with d >= 0
    points = [WClassParams(*(w / sum(ws) for w in ws[:3])) for ws in weights]
    a, b, c, d = (np.array([getattr(p, name) for p in points]) for name in "abcd")
    spectra = wclass_cut_spectra(a, b, c, d, np.empty((2, 3, len(points))))
    entropies = entropy_bits(spectra).min(axis=-1)
    assert spectra.shape == (len(points), 3, 2) and entropies.shape == (len(points),)
    for params, entropy in zip(points, entropies):
        state = w_class(params)
        direct = min(
            cut_entropy(state, Bipartition(3, frozenset({k}))).entropy_bits for k in range(3)
        )
        assert abs(entropy - direct) <= 1e-10


def test_balanced_cut_spectrum_needs_balanced_c():
    # with both eigenvalues of cut 1 inside [1/3, 2/3], c must sit there too
    step = 0.05
    top = round(1.0 / step)
    for ia in range(1, top - 1):
        for ib in range(1, top - ia):
            for ic in range(1, top - ia - ib + 1):
                params = WClassParams(ia * step, ib * step, ic * step)
                lam_minus, lam_plus = cut_spectrum(params, 1)
                if 1 / 3 - 1e-12 <= lam_minus and lam_plus <= 2 / 3 + 1e-12:
                    assert 1 / 3 - 1e-9 <= params.c <= 2 / 3 + 1e-9


def test_joint_inequalities_pin_the_w_point():
    # a,b,c >= 1/3 with a+b+c <= 1 leaves only the equal-weight point
    step = 1.0 / 30.0
    hits = []
    for ia in range(1, 30):
        for ib in range(1, 30 - ia):
            for ic in range(1, 30 - ia - ib + 1):
                a, b, c = ia * step, ib * step, ic * step
                if min(a, b, c) >= 1 / 3 - 1e-9:
                    hits.append((a, b, c))
    assert len(hits) == 1
    a, b, c = hits[0]
    assert max(abs(a - 1 / 3), abs(b - 1 / 3), abs(c - 1 / 3)) < 1e-9


def test_wclass_min_cut_entropy():
    third = 1.0 / 3.0
    cut_index, entropy = wclass_min_cut_entropy(WClassParams(third, third, third))
    assert cut_index == 1  # all three cuts tie; lowest index wins
    assert entropy == pytest.approx(W_CUT_ENTROPY_BITS, abs=1e-12)
    _, entropy = wclass_min_cut_entropy(WClassParams(0.6, 0.2, 0.2))
    assert entropy < W_CUT_ENTROPY_BITS
    _, entropy = wclass_min_cut_entropy(WClassParams(0.333, 0.333, 0.333))
    assert entropy < W_CUT_ENTROPY_BITS


def test_wclass_min_cut_entropy_minimizes():
    rng = np.random.default_rng(26)
    for _ in range(20):
        params = random_simplex_params(rng)
        cut_index, entropy = wclass_min_cut_entropy(params)
        state = w_class(params)
        values = [
            cut_entropy(state, Bipartition(3, frozenset({k - 1}))).entropy_bits for k in (1, 2, 3)
        ]
        assert entropy == pytest.approx(min(values), abs=1e-14)
        assert values[cut_index - 1] == pytest.approx(entropy, abs=1e-14)


_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def _complex(raw):
    return raw[0] + 1j * raw[1]


@st.composite
def states_cut_and_local_unitary(draw):
    """Two pure states on 3 or 4 qubits, a cut, and a unitary local to that cut."""
    n = draw(st.integers(3, 4))
    cut = Bipartition(n, draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    states = []
    for _ in range(2):
        amps = _complex(draw(arrays(float, (2, 1 << n), elements=_entries)))
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        states.append(make_pure(amps / norm))
    local = np.eye(1 << n, dtype=complex)
    for side in (cut.side_a, sorted(cut.side_b)):
        dim = 1 << len(side)
        # Q of a QR factorisation is unitary whatever the rank of its input
        q, _ = np.linalg.qr(_complex(draw(arrays(float, (2, dim, dim), elements=_entries))))
        local = local @ embed_operator(q, n, side)
    return states, cut, local


@settings(max_examples=150, deadline=None)
@given(states_cut_and_local_unitary())
def test_cut_entropy_and_negativity_invariant_under_local_unitaries(case):
    (u, v), cut, local = case
    rotated_u, rotated_v = (make_pure(local @ s.amplitudes) for s in (u, v))
    assert abs(
        cut_entropy(rotated_u, cut).entropy_bits - cut_entropy(u, cut).entropy_bits
    ) <= 1e-9
    before = mix([0.5, 0.5], [density(u), density(v)])
    after = mix([0.5, 0.5], [density(rotated_u), density(rotated_v)])
    assert abs(negativity(after, cut) - negativity(before, cut)) <= 1e-9


@st.composite
def product_states(draw):
    """A product of 3 or 4 random one-qubit pure states."""
    state = None
    for _ in range(draw(st.integers(3, 4))):
        amps = _complex(draw(arrays(float, (2, 2), elements=_entries)))
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        qubit = make_pure(amps / norm)
        state = qubit if state is None else tensor(state, qubit)
    return state


@settings(max_examples=150, deadline=None)
@given(product_states())
def test_product_state_measures_exactly_zero_on_every_cut(state):
    n = state.n_qubits
    for mask in range(1, (1 << n) - 1):
        cut = Bipartition(n, frozenset(q for q in range(n) if mask >> q & 1))
        assert cut_entropy(state, cut).entropy_bits == 0.0
        assert negativity(density(state), cut) == 0.0


def test_negativity_ignores_amplitudes_whose_squares_underflow():
    # LAPACK's eigvalsh put this mixture's negativity 2.2e-5 low before tiny entries were flushed
    amps = np.zeros(16)
    amps[[1, 7, 9]] = [2 / 3, 1 / 3, 2 / 3]
    cut = Bipartition(4, frozenset({0, 1}))
    basis = density(make_pure([1] + [0] * 15))
    values = []
    for tiny in (0.0, 4.61406301e-161):
        amps[0] = tiny
        values.append(negativity(mix([0.5, 0.5], [basis, density(make_pure(amps))]), cut))
    assert abs(values[1] - values[0]) <= 1e-12
