"""Both cases of the extrema scan match a plain loop over the samples.

``core._extrema_indices`` finds the extrema of a signal without equal
neighbours from the signs of its differences alone, and hands any other
signal to ``core._plateau_extrema``, which places each extremum at its
plateau's midpoint. Each case must give the loop's indices, as ``intp``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imfkit.core import _extrema_indices, _plateau_extrema


@st.composite
def seeded(draw, levels):
    """n = 2-600 samples from a drawn seed: normals at a drawn scale when
    ``levels`` is None, else integers in 0..levels-1."""
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if levels is None:
        return rng.standard_normal(n) * 2.0 ** draw(st.integers(-100, 100))
    return rng.integers(0, draw(levels), n).astype(np.float64)


# Distinct values, so no two neighbours are equal: the sign-mask case.
# Short arrays are drawn element by element, so a failure shrinks.
distinct = st.one_of(
    arrays(np.float64, st.integers(2, 12), unique=True,
           elements=st.floats(-1e300, 1e300, allow_subnormal=True)),
    seeded(None),
)

# A few levels, so plateaus are common, at the boundaries too, and short
# arrays are often constant: the plateau case.
quantised = st.one_of(
    arrays(np.float64, st.integers(2, 12), elements=st.sampled_from([0.0, 1.0, 2.0])),
    seeded(st.integers(1, 4)),
)

# A plateau-free middle between runs of equal samples at each boundary.
boundary_runs = st.tuples(
    st.integers(1, 20), distinct, st.integers(1, 20)
).map(lambda t: np.concatenate([np.full(t[0], t[1][0]), t[1], np.full(t[2], t[1][-1])]))


def loop_extrema(x):
    """Each run of equal samples that is not at a boundary and whose two
    neighbours are both lower (higher) is a maximum (minimum) at the run's
    midpoint, rounded down."""
    maxima, minima = [], []
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[j + 1] == x[i]:
            j += 1
        if i > 0 and j < len(x) - 1:
            if x[i - 1] < x[i] > x[j + 1]:
                maxima.append((i + j) // 2)
            elif x[i - 1] > x[i] < x[j + 1]:
                minima.append((i + j) // 2)
        i = j + 1
    return maxima, minima


def assert_loop_indices(found, x):
    for got, want in zip(found, loop_extrema(x)):
        assert got.dtype == np.intp
        assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(distinct)
def test_sign_mask_case_on_distinct_neighbours(x):
    assert np.all(np.diff(x) != 0)
    assert_loop_indices(_extrema_indices(x), x)
    # The plateau case gives the same indices where it is not needed.
    assert_loop_indices(_plateau_extrema(np.diff(x)), x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(quantised, boundary_runs))
def test_plateau_case(x):
    assert_loop_indices(_extrema_indices(x), x)
    assert_loop_indices(_plateau_extrema(np.diff(x)), x)


def test_constant_and_two_sample_arrays_have_none():
    for x in (np.full(7, 2.5), np.zeros(600), np.array([1.0, 2.0]), np.array([3.0, 3.0])):
        assert_loop_indices(_extrema_indices(x), x)
        assert all(a.size == 0 for a in _extrema_indices(x))
