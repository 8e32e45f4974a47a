"""CSV cells are ``repr(float(v))``, whoever writes the digits.

``csvio._format_column`` takes its digits from orjson and its notation for
very small and very large magnitudes, nan and inf from ``repr``. These
checks pin its output to ``repr`` byte for byte, so an orjson release that
writes any value differently fails here.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imfkit.csvio import _format_column


def reprs(values) -> list[str]:
    return [repr(float(v)) for v in np.asarray(values, dtype=np.float64)]


def assert_repr(values) -> None:
    assert _format_column(values) == reprs(values)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 64), elements=st.floats()))
def test_any_floats_including_nan_and_inf(a):
    assert_repr(a)


def test_random_bit_patterns():
    bits = np.random.default_rng(1).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_magnitudes_where_both_write_positional_digits():
    rng = np.random.default_rng(2)
    n = 200_000
    mantissa = rng.uniform(1, 10, n) * rng.choice([-1.0, 1.0], n)
    a = mantissa * 10.0 ** rng.uniform(-4, 16, n)
    assert_repr(a[(np.abs(a) >= 1e-4) & (np.abs(a) < 1e16)])


def test_scaled_normals():
    rng = np.random.default_rng(3)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e9, 1e15, 1e20):
        assert_repr(scale * rng.standard_normal(20_000))


def test_notation_boundaries_and_extremes():
    edges = []
    for x in (1e-4, 1e16, 5e-324, sys.float_info.min, 0.1, 1.0):
        for v in (x, -x):
            edges += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    for v in (sys.float_info.max, -sys.float_info.max):
        edges += [v, np.nextafter(v, 0.0)]
    edges += [0.0, -0.0, np.nan, np.inf, -np.inf]
    edges += [2.0**k for k in range(-1074, 1024)]
    edges += [k / 8 for k in range(-200, 200)] + [k / 10 for k in range(-200, 200)]
    assert_repr(np.array(edges))


def test_other_inputs_are_read_as_float64():
    mask = np.array([True, False, False, True])
    assert _format_column(mask) == ["1.0", "0.0", "0.0", "1.0"]
    mask = np.random.default_rng(3).random(5000) > 0.3
    for view in (mask, mask[4096:], mask[1::7], mask[:0]):
        assert_repr(view)
    strided = np.linspace(-3.0, 7.0, 41)[::3]
    assert_repr(strided)
    single = np.float32([0.1, 1e-5, 3.4e38, -2.5])
    assert _format_column(single) == [repr(float(v)) for v in single]
    assert _format_column(np.empty(0)) == []
