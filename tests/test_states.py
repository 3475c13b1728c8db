"""State catalog: GHZ basis, W basis, W-class family, and label parsing."""
from __future__ import annotations

import math

import numpy as np
import pytest

from locclone.states import (
    GHZ_LABELS,
    GhzLabel,
    WClassParams,
    ghz,
    parse_ghz_label,
    parse_state_label,
    parse_w_index,
    parse_wclass_params,
    w_basis,
    w_class,
)

RT2 = math.sqrt(2.0)
RT3 = math.sqrt(3.0)


def test_ghz_label_validation_and_str():
    assert str(GhzLabel(1, 0, 1)) == "1,0,1"
    with pytest.raises(ValueError):
        GhzLabel(2, 0, 0)
    for bit in (1.0, True, np.int64(1), "1"):  # 1.0 and True would print as "1.0" and "True"
        with pytest.raises(ValueError, match="is not a bit"):
            GhzLabel(bit, 0, 0)
    assert len(GHZ_LABELS) == 8
    assert GHZ_LABELS[0] == GhzLabel(0, 0, 0)


def test_ghz_explicit_amplitudes():
    amps = ghz(GhzLabel(0, 0, 0)).amplitudes
    assert abs(amps[0b000] - 1 / RT2) < 1e-15
    assert abs(amps[0b111] - 1 / RT2) < 1e-15
    amps = ghz(GhzLabel(1, 0, 1)).amplitudes
    assert abs(amps[0b001] - 1 / RT2) < 1e-15
    assert abs(amps[0b110] + 1 / RT2) < 1e-15


def test_ghz_basis_orthonormal_and_complete():
    vectors = np.array([ghz(label).amplitudes for label in GHZ_LABELS])
    gram = vectors.conj() @ vectors.T
    assert np.allclose(gram, np.eye(8), atol=1e-12)
    # 8 orthonormal vectors in dimension 8 resolve the identity
    assert np.allclose(vectors.T.conj() @ vectors, np.eye(8), atol=1e-12)


def test_w_basis_orthonormal():
    vectors = np.array([w_basis(n).amplitudes for n in range(1, 9)])
    gram = vectors.conj() @ vectors.T
    assert np.allclose(gram, np.eye(8), atol=1e-12)


def test_w_basis_first_state_terms():
    amps = w_basis(1).amplitudes
    for index in (0b001, 0b100, 0b111):
        assert abs(amps[index] - 1 / RT3) < 1e-15
    assert np.count_nonzero(np.abs(amps) > 1e-12) == 3


def test_w_basis_all_have_three_terms():
    for n in range(1, 9):
        magnitudes = np.abs(w_basis(n).amplitudes)
        assert np.count_nonzero(magnitudes > 1e-12) == 3
        assert np.allclose(magnitudes[magnitudes > 1e-12], 1 / RT3)


def test_w_basis_index_checked():
    with pytest.raises(ValueError):
        w_basis(0)
    with pytest.raises(ValueError):
        w_basis(9)


def test_wclass_params_validation():
    params = WClassParams(0.5, 0.2, 0.2)
    assert abs(params.d - 0.1) < 1e-12
    with pytest.raises(ValueError):
        WClassParams(0.0, 0.5, 0.4)
    with pytest.raises(ValueError):
        WClassParams(0.5, 0.5, 0.5)


def test_wclass_params_d_clamps_rounding():
    third = 1.0 / 3.0
    params = WClassParams(third, third, third)
    assert params.d == 0.0


def test_w_class_equal_weights():
    amps = w_class(WClassParams(1 / 3, 1 / 3, 1 / 3)).amplitudes
    for index in (0b001, 0b010, 0b100):
        assert abs(amps[index] - 1 / RT3) < 1e-12
    assert abs(amps[0b000]) < 1e-7


def test_parse_ghz_label():
    assert parse_ghz_label("1, 0, 1") == GhzLabel(1, 0, 1)
    for bad in ("1,0", "2,0,0", "a,b,c"):
        with pytest.raises(ValueError):
            parse_ghz_label(bad)


def test_parse_w_index():
    assert parse_w_index("W3") == 3
    assert parse_w_index("w8") == 8
    for bad in ("W0", "W9", "W10", "3"):
        with pytest.raises(ValueError):
            parse_w_index(bad)


def test_parse_wclass_params():
    params = parse_wclass_params("0.5,0.2,0.2")
    assert (params.a, params.b, params.c) == (0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        parse_wclass_params("0.5,0.2")


def test_parse_state_label_dispatch():
    assert np.allclose(parse_state_label("0,0,0").amplitudes, ghz(GhzLabel(0, 0, 0)).amplitudes)
    assert np.allclose(parse_state_label("W2").amplitudes, w_basis(2).amplitudes)
    wc = parse_state_label("0.4,0.3,0.3")
    assert np.allclose(wc.amplitudes, w_class(WClassParams(0.4, 0.3, 0.3)).amplitudes)
    with pytest.raises(ValueError):
        parse_state_label("nonsense")
