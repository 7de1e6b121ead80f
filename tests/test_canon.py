"""The report serializer against its reference: `cli._canon` writes a
non-empty, all-finite float64 array with one %-format built from its shape,
and every other value element by element; `oracles.canon` writes everything
element by element.  The two must agree byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirinfo import cli
import oracles

# -0.0, the smallest subnormal, a subnormal with 17 digits, the largest and
# near-largest doubles, and values that %.12g rounds
SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
           np.finfo(float).max, -np.finfo(float).max, 1 / 3, 0.1 + 0.2, 1e-300]
NON_FINITE = [math.nan, math.inf, -math.inf]

SHAPES = st.one_of(st.sampled_from([(), (0,), (0, 3), (2, 0), (1,), (1, 1)]),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))


def _agree(a, exact=False):
    expected = oracles.canon(a.tolist(), exact)
    assert cli._canon(a, exact) == expected
    assert cli._canon({"b": a, "a": [a]}, exact) == oracles.canon({"b": a, "a": [a]}, exact)
    return expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=hnp.arrays(np.float64, SHAPES, elements=FINITE))
def test_finite_float_arrays_match_the_reference(a):
    _agree(a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=hnp.arrays(np.float64, SHAPES, elements=st.one_of(FINITE, st.sampled_from(NON_FINITE))))
def test_float_arrays_with_nan_and_inf_match_the_reference(a):
    text = _agree(a)
    if not np.isfinite(a).all():
        assert '"nan"' in text or '"inf"' in text or '"-inf"' in text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.one_of(hnp.arrays(np.int64, SHAPES), hnp.arrays(np.bool_, SHAPES)))
def test_int_and_bool_arrays_match_the_reference(a):
    _agree(a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=hnp.arrays(np.float64, SHAPES, elements=FINITE))
def test_exact_float_arrays_match_the_reference(a):
    _agree(a, exact=True)


@pytest.mark.parametrize("a, text", [
    (np.array([1 / 3, 0.25]), "[0.3333333333333333, 0.25]"),
    (np.array([[0.1 + 0.2], [-0.0]]), "[[0.30000000000000004], [-0]]"),
])
def test_exact_writes_every_digit_of_a_float_that_12g_rounds(a, text):
    assert _agree(a, exact=True) == text
    assert cli._canon(a) != text


@pytest.mark.parametrize("a, text", [
    (np.zeros(()), "0"),
    (np.zeros((0,)), "[]"),
    (np.zeros((0, 3)), "[]"),
    (np.zeros((2, 0)), "[[], []]"),
    (np.array([[-0.0, 5e-324], [1e300, np.inf]]), '[[-0, 4.94065645841e-324], [1e+300, "inf"]]'),
])
def test_edge_shapes_and_values(a, text):
    assert _agree(a) == text


# quotes, backslashes, control characters, non-ASCII text (a line separator, and one
# character past the BMP, which json writes as a surrogate pair) and the empty string,
# in keys and values
TRICKY = st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "café \u2028 \U0001d11e", "", '\\"'])
TEXT = st.one_of(st.text(), TRICKY)
SCALARS = st.one_of(TEXT, st.sampled_from([None, True, False] + NON_FINITE), FINITE)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=st.dictionaries(TEXT, st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                                            st.dictionaries(TEXT, SCALARS, max_size=3)),
                           max_size=6))
def test_strings_and_literals_match_the_reference(doc):
    for exact in (False, True):
        assert cli._canon(doc, exact) == oracles.canon(doc, exact)


@pytest.mark.parametrize("value, text", [
    (None, "null"), (True, "true"), (False, "false"), ("", '""'),
    ('a"b\\c\né', '"a\\"b\\\\c\\n\\u00e9"'), ({"": math.nan, "\x00": -math.inf},
                                                  '{"": "nan", "\\u0000": "-inf"}'),
])
def test_literals_and_escapes(value, text):
    assert cli._canon(value) == oracles.canon(value) == text
