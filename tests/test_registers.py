"""Register numerics: composition, both circuit simulators, reduction, transposition, spectra,
and the reference exact rank."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from locclone.exact import GATES
from locclone.ghz_cloning import CloningCircuit, apply_monomial, verify_cloner
from locclone.registers import (
    Bipartition,
    DensityMatrix,
    SingleQubitGate,
    StateVector,
    TransversalCnot,
    VerificationError,
    _apply_single,
    apply_circuit,
    cut_matrix,
    density,
    hermitian_spectrum,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    trace_norm,
)
from locclone.states import GhzLabel, ghz, w_basis

from references import (
    GATE_MATRICES, GATE_S, GATE_X, GATE_Z, embed_operator, integer_rank, make_pure, mix, tensor,
)

RT2 = np.sqrt(2.0)


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return make_pure(amps / np.linalg.norm(amps))


def random_density(rng: np.random.Generator, n: int, rank: int = 3) -> DensityMatrix:
    weights = rng.random(rank)
    weights /= weights.sum()
    return mix(weights, [density(random_state(rng, n)) for _ in range(rank)])


def bell() -> StateVector:
    return make_pure([1 / RT2, 0, 0, 1 / RT2])


def test_tensor_basis_states():
    ket01 = tensor(make_pure([1, 0]), make_pure([0, 1]))
    assert ket01.n_qubits == 2
    assert np.allclose(ket01.amplitudes, [0, 1, 0, 0])


def test_tensor_preserves_norm():
    rng = np.random.default_rng(11)
    for _ in range(5):
        joint = tensor(random_state(rng, 2), random_state(rng, 3))
        assert abs(np.linalg.norm(joint.amplitudes) - 1.0) < 1e-12


def test_tensor_ghz_pair_has_four_half_amplitudes():
    joint = tensor(ghz(GhzLabel(0, 0, 0)), ghz(GhzLabel(0, 0, 0)))
    magnitudes = np.abs(joint.amplitudes)
    assert np.count_nonzero(magnitudes > 1e-12) == 4
    assert np.allclose(magnitudes[magnitudes > 1e-12], 0.5)


def test_transversal_cnot_fixes_all_zero():
    state = make_pure([1] + [0] * 63)
    out = apply_circuit(state, [TransversalCnot("forward")])
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_transversal_cnot_fixes_ghz_pair():
    pair = tensor(ghz(GhzLabel(0, 0, 0)), ghz(GhzLabel(0, 0, 0)))
    out = apply_circuit(pair, [TransversalCnot("forward")])
    assert abs(np.vdot(out.amplitudes, pair.amplitudes)) ** 2 > 1 - 1e-12


def test_clone_register_x_relabels_ghz():
    # X on the clone's middle qubit flips the clone's i label
    joint = tensor(ghz(GhzLabel(0, 0, 0)), ghz(GhzLabel(0, 0, 0)))
    out = apply_circuit(joint, [SingleQubitGate(4, "X")])
    want = tensor(ghz(GhzLabel(0, 0, 0)), ghz(GhzLabel(0, 1, 0)))
    assert abs(np.vdot(out.amplitudes, want.amplitudes)) ** 2 > 1 - 1e-12


def test_apply_circuit_preserves_norm():
    rng = np.random.default_rng(3)
    state = random_state(rng, 4)
    layers = []
    for _ in range(6):
        layers.append(SingleQubitGate(int(rng.integers(4)), str(rng.choice(sorted(GATES)))))
        layers.append(TransversalCnot("reverse"))
    out = apply_circuit(state, layers)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_apply_circuit_rejects_bad_targets():
    state = make_pure([1, 0])
    with pytest.raises(ValueError):
        apply_circuit(state, [SingleQubitGate(1, "X")])
    three = make_pure([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        apply_circuit(three, [TransversalCnot("forward")])


def test_transversal_direction_validated():
    with pytest.raises(ValueError):
        TransversalCnot("sideways")


def test_density_projector():
    dm = density(make_pure([1, 0]))
    assert np.allclose(dm.entries, np.diag([1, 0]))
    dm = density(bell())
    assert abs(np.trace(dm.entries) - 1.0) < 1e-12
    assert np.allclose(dm.entries[0, 0], 0.5)
    assert np.allclose(dm.entries[0, 3], 0.5)


def test_mix_basics():
    dm = mix([0.5, 0.5], [density(make_pure([1, 0])), density(make_pure([0, 1]))])
    assert np.allclose(dm.entries, np.diag([0.5, 0.5]))
    first = density(bell())
    same = mix([1.0, 0.0], [first, density(make_pure([1, 0, 0, 0]))])
    assert np.allclose(same.entries, first.entries)


def test_partial_trace_bell_marginal():
    reduced = partial_trace(density(bell()), {1})
    assert np.allclose(reduced.entries, np.diag([0.5, 0.5]))


def test_partial_trace_w_state_marginal():
    # grouping the terms of the first W basis state by its third qubit
    reduced = partial_trace(density(w_basis(1)), {2})
    phi = np.array([1, 0, 0, 1]) / RT2
    want = (2 / 3) * np.outer(phi, phi) + (1 / 3) * np.outer([0, 0, 1, 0], [0, 0, 1, 0])
    assert np.allclose(reduced.entries, want, atol=1e-12)


def test_partial_trace_product_keeps_factor():
    rng = np.random.default_rng(5)
    left, right = random_state(rng, 2), random_state(rng, 1)
    reduced = partial_trace(density(tensor(left, right)), {2})
    assert np.allclose(reduced.entries, density(left).entries, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    dm = random_density(rng, 3)
    for discard in ({0}, {1, 2}, {0, 2}):
        reduced = partial_trace(dm, discard)
        assert abs(np.trace(reduced.entries) - 1.0) < 1e-12


def test_partial_trace_rejects_bad_subsets():
    dm = density(bell())
    with pytest.raises(ValueError):
        partial_trace(dm, set())
    with pytest.raises(ValueError):
        partial_trace(dm, {0, 1})
    with pytest.raises(ValueError):
        partial_trace(dm, {5})


@pytest.mark.parametrize("qubit", [-1, 3])
def test_partial_trace_refuses_a_qubit_off_the_register(qubit):
    # unchecked, -1 would trace out the last qubit
    with pytest.raises(ValueError, match=rf"discard set \[{qubit}\] out of range for 3 qubits"):
        partial_trace(density(w_basis(1)), {qubit})


def test_a_cut_of_another_register_size_is_refused():
    # unchecked, a 3-qubit cut of 6-qubit entries would swap axes 2 and 8
    six = DensityMatrix(6, np.eye(64, dtype=complex) / 64)
    with pytest.raises(ValueError, match="cut register size does not match the density matrix"):
        partial_transpose(six, Bipartition(3, frozenset({2})))
    with pytest.raises(ValueError, match="cut register size does not match the state"):
        cut_matrix(w_basis(1), Bipartition(2, frozenset({1})))


def test_partial_transpose_bell_spectrum():
    op = partial_transpose(density(bell()), Bipartition(2, frozenset({1})))
    spectrum = hermitian_spectrum(op)
    assert np.allclose(spectrum, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(7)
    dm = random_density(rng, 3)
    cut = Bipartition(3, frozenset({0, 2}))
    once = partial_transpose(dm, cut)
    twice = partial_transpose(DensityMatrix(3, once), cut)
    assert np.allclose(twice, dm.entries, atol=1e-14)
    assert abs(np.trace(once) - 1.0) < 1e-12


def test_partial_transpose_product_stays_positive():
    rng = np.random.default_rng(8)
    left = random_density(rng, 1)
    right = random_density(rng, 2)
    joint = DensityMatrix(3, np.kron(left.entries, right.entries))
    spectrum = hermitian_spectrum(partial_transpose(joint, Bipartition(3, frozenset({1, 2}))))
    assert spectrum.min() > -1e-12


def test_hermitian_spectrum_sorted_and_checked():
    op = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(hermitian_spectrum(op), [1, -1])
    with pytest.raises(VerificationError, match=r"largest \|A - A\^H\| entry 1\.0 exceeds"):
        hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(VerificationError, match="entry nan exceeds"):
        hermitian_spectrum(np.array([[0, 1], [1, np.nan]], dtype=complex))


def test_spectrum_error_names_the_first_failing_run():
    # three runs of two 2x2 matrices; the later, larger and NaN faults must not win
    stack = np.zeros((3, 2, 2, 2))
    stack[1, 1, 0, 1] = 1e-6
    stack[2, 0, 0, 1] = 1.0
    stack[2, 1, 1, 1] = np.nan
    with pytest.raises(VerificationError) as caught:
        hermitian_spectrum(stack, ["first", "second", "third"])
    assert str(caught.value) == (
        "second: operator is not Hermitian: largest |A - A^H| entry 1e-06 exceeds 1e-12"
    )


def test_trace_norm_of_density_is_one():
    rng = np.random.default_rng(9)
    assert abs(trace_norm(random_density(rng, 2).entries) - 1.0) < 1e-12


def test_schmidt_coefficients_bell():
    coeffs = schmidt_coefficients(bell(), Bipartition(2, frozenset({1})))
    assert np.allclose(coeffs, [0.5, 0.5])


def test_schmidt_matches_marginal_spectrum():
    rng = np.random.default_rng(10)
    for _ in range(20):
        state = random_state(rng, 4)
        side_b = frozenset(rng.choice(4, size=int(rng.integers(1, 4)), replace=False).tolist())
        cut = Bipartition(4, side_b)
        coeffs = schmidt_coefficients(state, cut)
        marginal = partial_trace(density(state), set(cut.side_b))
        spectrum = hermitian_spectrum(marginal.entries)[: len(coeffs)]
        assert np.allclose(np.sort(coeffs), np.sort(spectrum), atol=1e-10)
        assert abs(coeffs.sum() - 1.0) < 1e-10
        assert np.all(np.diff(coeffs) <= 1e-15)


def test_integer_rank_examples():
    zero, one = np.array([[1], [0]]), np.array([[0], [1]])
    assert integer_rank(zero) == 1
    assert integer_rank(np.hstack([zero, one])) == 2  # the span of two supports
    assert integer_rank(np.hstack([zero, zero])) == 1
    assert integer_rank(np.zeros((3, 2), dtype=np.int64)) == 0
    assert integer_rank(np.array([[2, 4], [3, 6]])) == 1
    assert integer_rank(np.array([[0, 1, 2], [0, 2, 4], [1, 0, 0]], dtype=np.uint8)) == 2
    for bad in (np.eye(2), np.eye(2, dtype=complex), np.arange(3)):
        with pytest.raises(TypeError):
            integer_rank(bad)


def _fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                ratio = rows[i][col] / rows[rank][col]
                rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 7), st.data())
def test_integer_rank_matches_rational_elimination(n_rows, n_cols, inner, data):
    # a product of n_rows x inner and inner x n_cols integer factors has rank at most inner
    small = st.integers(-9, 9)
    left = data.draw(arrays(np.int64, (n_rows, inner), elements=small))
    right = data.draw(arrays(np.int64, (inner, n_cols), elements=small))
    matrix = left @ right
    rank = integer_rank(matrix)
    assert rank == _fraction_rank(matrix.tolist())
    assert rank <= min(n_rows, n_cols, inner)


def test_embed_operator_matches_kron():
    assert np.allclose(embed_operator(GATE_X, 2, [0]), np.kron(GATE_X, np.eye(2)))
    assert np.allclose(embed_operator(GATE_Z, 2, [1]), np.kron(np.eye(2), GATE_Z))
    with pytest.raises(ValueError):
        embed_operator(GATE_X, 2, [0, 0])


def test_embed_operator_agrees_with_apply_circuit():
    rng = np.random.default_rng(12)
    state = random_state(rng, 3)
    via_gate = apply_circuit(state, [SingleQubitGate(1, "S")])
    via_embed = embed_operator(GATE_S, 3, [1]) @ state.amplitudes
    assert np.allclose(via_gate.amplitudes, via_embed, atol=1e-12)


def test_bipartition_validation():
    cut = Bipartition(3, frozenset({2}))
    assert cut.side_a == (0, 1)
    with pytest.raises(ValueError):
        Bipartition(3, frozenset())
    with pytest.raises(ValueError):
        Bipartition(3, frozenset({0, 1, 2}))
    with pytest.raises(ValueError):
        Bipartition(3, frozenset({3}))


@pytest.mark.parametrize("qubit", [1.5, 1.0, True, np.True_, "1"], ids=repr)
def test_qubit_indices_refuse_non_integers(qubit):
    """int() would read each of these as qubit 1; numpy ints still pass."""
    with pytest.raises(ValueError, match="is not an integer"):
        Bipartition(3, {qubit})
    with pytest.raises(ValueError, match="is not an integer"):
        partial_trace(density(ghz(GhzLabel(0, 0, 0))), [qubit])
    assert Bipartition(3, {np.int64(1)}).side_b == frozenset({1})


_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def mixed_state_cut_and_side_a_qubit(draw):
    """A density matrix on 3 or 4 qubits, a cut, and a qubit on side A that can go."""
    n = draw(st.integers(3, 4))
    side_b = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 2))
    traced = draw(st.sampled_from([q for q in range(n) if q not in side_b]))
    raw = draw(arrays(float, (2, 1 << n, 2), elements=_entries))
    gram = (raw[0] + 1j * raw[1]) @ (raw[0] + 1j * raw[1]).conj().T + np.eye(1 << n)
    return DensityMatrix(n, gram / np.trace(gram).real), Bipartition(n, side_b), traced


@settings(max_examples=150, deadline=None)
@given(mixed_state_cut_and_side_a_qubit())
def test_tracing_side_a_commutes_with_transposing_side_b(case):
    dm, cut, traced = case
    transposed = partial_transpose(dm, cut)
    then_traced = partial_trace(DensityMatrix(dm.n_qubits, transposed), [traced])
    reduced_cut = Bipartition(dm.n_qubits - 1, {q - (q > traced) for q in cut.side_b})
    traced_first = partial_transpose(partial_trace(dm, [traced]), reduced_cut)
    assert np.abs(then_traced.entries - traced_first).max() <= 1e-14


_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _complex_array(data, shape):
    raw = data.draw(arrays(float, (2, *shape), elements=_entries))
    return raw[0] + 1j * raw[1]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_single_qubit_gate_is_the_embedded_operator(n, data):
    """The dense kernel apply_circuit runs, for any 2x2 unitary, not only the named gates."""
    amps = _complex_array(data, (1 << n,))
    unitary, _ = np.linalg.qr(_complex_array(data, (2, 2)))
    for target in range(n):
        got = _apply_single(amps, unitary, target, n)
        want = embed_operator(unitary, n, [target]) @ amps
        assert np.abs(got - want).max() <= 1e-12


@st.composite
def monomial_circuits(draw):
    """A register of 2, 4 or 6 qubits, kets with random quarter turns, and layers of gates."""
    n = draw(st.sampled_from([2, 4, 6]))
    support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True))
    state = {k: draw(st.integers(0, 3)) for k in support}
    gate = st.one_of(
        st.builds(SingleQubitGate, st.integers(0, n - 1), st.sampled_from(sorted(GATES))),
        st.builds(TransversalCnot, st.sampled_from(["forward", "reverse"])),
    )
    return n, state, draw(st.lists(gate, max_size=10))


def _dense(state, n):
    amps = np.zeros(1 << n, dtype=complex)
    for k, t in state.items():
        amps[k] = 1j**t
    return amps


@settings(max_examples=300, deadline=None)
@given(monomial_circuits())
def test_both_simulators_are_the_product_of_embedded_operators(case):
    """apply_monomial and apply_circuit against the literal 2x2 and CNOT matrices."""
    n, state, layers = case
    want = _dense(state, n)
    for gate in layers:
        if isinstance(gate, SingleQubitGate):
            want = embed_operator(GATE_MATRICES[gate.name], n, [gate.target]) @ want
        else:
            half = n // 2
            for q in range(half):
                control_target = [q, q + half] if gate.direction == "forward" else [q + half, q]
                want = embed_operator(_CNOT, n, control_target) @ want
    assert np.array_equal(_dense(apply_monomial(state, layers, n), n), want)
    assert np.array_equal(apply_circuit(StateVector(n, _dense(state, n)), layers).amplitudes, want)


def test_unknown_gate_names_are_refused_by_name():
    gate = SingleQubitGate(3, "H")
    with pytest.raises(ValueError, match="unknown gate 'H'"):
        apply_monomial({0: 0}, [gate], 6)
    with pytest.raises(ValueError, match="unknown gate 'H'"):
        apply_circuit(StateVector(6, np.eye(64, dtype=complex)[0]), [gate])
    with pytest.raises(ValueError, match="unknown gate 'H'"):
        verify_cloner(CloningCircuit((gate,), GhzLabel(0, 0, 0)), [GhzLabel(0, 0, 1)])


@pytest.mark.parametrize("target", [6, -1])
def test_both_simulators_refuse_a_target_off_the_register(target):
    # unchecked, target -1 would make apply_monomial flip index bit 64
    gate, off = SingleQubitGate(target, "X"), f"gate target {target} out of range for 6 qubits"
    with pytest.raises(ValueError, match=off):
        apply_monomial({0: 0}, [gate], 6)
    with pytest.raises(ValueError, match=off):
        apply_circuit(StateVector(6, np.eye(64, dtype=complex)[0]), [gate])


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_both_simulators_refuse_a_transversal_layer_on_an_odd_register(direction):
    gate, halves = TransversalCnot(direction), "transversal CNOT needs equal original and clone halves"
    with pytest.raises(ValueError, match=halves):
        apply_monomial({0: 0}, [gate], 5)
    with pytest.raises(ValueError, match=halves):
        apply_circuit(StateVector(5, np.eye(32, dtype=complex)[0]), [gate])


def test_both_simulators_refuse_a_layer_that_is_no_gate_record():
    layer = (3, "X")  # a SingleQubitGate's fields, not the record
    with pytest.raises(TypeError, match=r"unsupported gate \(3, 'X'\)"):
        apply_monomial({0: 0}, [layer], 6)
    with pytest.raises(TypeError, match=r"unsupported gate \(3, 'X'\)"):
        apply_circuit(StateVector(6, np.eye(64, dtype=complex)[0]), [layer])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.data())
def test_transversal_layer_is_its_cnots_one_pair_at_a_time(n, data):
    amps = _complex_array(data, (1 << n,))
    half = n // 2
    for direction in ("forward", "reverse"):
        want = amps
        for q in range(half):
            control_target = [q, q + half] if direction == "forward" else [q + half, q]
            want = embed_operator(_CNOT, n, control_target) @ want
        got = apply_circuit(StateVector(n, amps), [TransversalCnot(direction)])
        assert np.array_equal(got.amplitudes, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_tensor_is_kron_bit_for_bit(n_u, n_v, data):
    u = StateVector(n_u, _complex_array(data, (1 << n_u,)))
    v = StateVector(n_v, _complex_array(data, (1 << n_v,)))
    assert tensor(u, v).amplitudes.tobytes() == np.kron(u.amplitudes, v.amplitudes).tobytes()


def _hermitian_stack(data, n_blocks, dim):
    raw = _complex_array(data, (n_blocks, dim, dim))
    return (raw + np.swapaxes(raw, -1, -2).conj()) / 2.0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_stacked_spectrum_is_the_block_diagonal_spectrum(n_blocks, dim, data):
    stack = _hermitian_stack(data, n_blocks, dim)
    assembled = np.zeros((n_blocks * dim, n_blocks * dim), dtype=complex)
    for i, block in enumerate(stack):
        assembled[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = block
    spectra = hermitian_spectrum(stack)
    assert spectra.shape == (n_blocks, dim)
    assert np.all(np.diff(spectra, axis=-1) <= 0.0)  # each block descending
    want = hermitian_spectrum(assembled)
    assert np.abs(np.sort(spectra.ravel())[::-1] - want).max() <= 1e-12
    got_norm = trace_norm(stack)
    assert got_norm == pytest.approx(trace_norm(assembled), abs=1e-12)
    # a 2-D operator's spectrum is exactly the one eigvalsh gives, descending
    for block in stack:
        plain = np.linalg.eigvalsh(np.where(np.abs(block) < 1.5e-154, 0.0, block))[::-1]
        assert np.array_equal(hermitian_spectrum(block), plain)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6), st.data())
def test_stacked_spectrum_refuses_one_bad_block(n_blocks, dim, data):
    stack = _hermitian_stack(data, n_blocks, dim)
    bad = data.draw(st.integers(0, n_blocks - 1))
    row, col = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    skewed = stack.copy()
    skewed[bad, row, (row + 1) % dim] += 1e-6  # breaks the symmetry of one entry pair
    with pytest.raises(VerificationError, match="not Hermitian"):
        hermitian_spectrum(skewed)
    with_nan = stack.copy()
    with_nan[bad, row, col] = np.nan
    with pytest.raises(VerificationError, match="not Hermitian"):
        hermitian_spectrum(with_nan)
    with pytest.raises(VerificationError, match="not Hermitian"):
        trace_norm(with_nan)
