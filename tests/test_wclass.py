"""The one-point W-class forms on plain floats hold to the array forms the scan runs."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locclone import measures, states, w_audit, wclass
from locclone.exact import StructureMismatchError, VerificationError
from locclone.measures import entropy_bits, wclass_cut_spectra
from locclone.wclass import (
    W_CUT_ENTROPY_BITS,
    WClassParams,
    scalar_entropy_bits,
    wclass_min_cut_entropy,
    wclass_spectra,
)

_weight = st.floats(min_value=1e-6, max_value=1.0)


@st.composite
def wclass_points(draw) -> WClassParams:
    """Four weights normalised: d's may be 0, and two of a, b, c may tie."""
    a, b, c = draw(st.tuples(_weight, _weight, _weight))
    d = draw(st.one_of(st.just(0.0), _weight))
    tie = draw(st.sampled_from(["", "ab", "bc", "ca"]))
    if tie == "ab":
        b = a
    elif tie == "bc":
        c = b
    elif tie == "ca":
        a = c
    total = a + b + c + d
    return WClassParams(a / total, b / total, c / total)


@settings(max_examples=300, deadline=None)
@given(wclass_points())
# points where (1 - 2x) ** 2 rounds apart from (1 - 2x) * (1 - 2x), at cuts 1 and 3
@example(WClassParams(0.4470214853607974, 0.5150444830204448, 0.019444755656373013))
@example(WClassParams(0.09917256846852116, 0.09304985035209008, 0.13837755183145925))
@example(WClassParams(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))  # all three cuts tie
def test_the_one_point_form_matches_the_array_form(params):
    arrays = wclass_cut_spectra(
        *(np.array([getattr(params, x)]) for x in "abcd"), np.empty((2, 3, 1))
    )[0]
    assert wclass_spectra(params) == tuple(tuple(float(x) for x in cut) for cut in arrays)
    entropies = entropy_bits(arrays)
    cut_index, entropy = wclass_min_cut_entropy(params)
    assert cut_index == int(np.argmin(entropies)) + 1  # first minimum in both
    assert abs(entropy - float(entropies[cut_index - 1])) <= 1e-15


def test_scalar_entropy_refuses_what_the_array_form_refuses():
    assert scalar_entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert scalar_entropy_bits([1.0, 0.0]) == 0.0
    assert scalar_entropy_bits([1.0, -1e-13]) == 0.0  # rounding noise is dropped
    for bad in ([1.1, -0.1], [2.0], [0.5, 1.5], [math.nan, 1.0], [math.inf, 1.0],
                [-math.inf, 1.0]):
        with pytest.raises(VerificationError) as scalar:
            scalar_entropy_bits(bad)
        with pytest.raises(VerificationError) as array:
            entropy_bits(bad)
        assert str(scalar.value) == str(array.value)


def test_threshold_is_the_array_forms_to_the_bit():
    assert W_CUT_ENTROPY_BITS == float(entropy_bits([1.0 / 3.0, 2.0 / 3.0])) == 0.9182958340544896


def test_the_old_names_are_the_wclass_objects():
    assert states.WClassParams is WClassParams
    assert states.parse_wclass_params is wclass.parse_wclass_params
    assert measures.wclass_min_cut_entropy is wclass_min_cut_entropy
    assert measures.W_CUT_ENTROPY_BITS is W_CUT_ENTROPY_BITS is w_audit.W_CUT_ENTROPY_BITS
    assert measures.ZERO_CLAMP is wclass.ZERO_CLAMP
    assert w_audit.blank_insufficiency is wclass.blank_insufficiency
    assert w_audit.StructureMismatchError is StructureMismatchError
