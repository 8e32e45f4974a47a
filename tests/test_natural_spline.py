"""The envelope spline: bit-identical to scipy's natural CubicSpline."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from imfkit.core import _natural_spline

# Every float64 of magnitude at most 1e300: zeros of both signs, subnormals,
# values near 1e-300 and near 1e300; small integers and signed zeros are
# drawn often, because they make exact zeros in the evaluation.
values = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -3.0]),
)


@st.composite
def knots(draw, min_knots=2, max_knots=40, gaps=st.integers(1, 1000)):
    """(pos, val, n) meeting _natural_spline's contract.

    Integer knots, strictly increasing, with pos[0] <= 0 <= n - 1 <= pos[-1].
    """
    m = draw(st.integers(min_knots, max_knots))
    steps = draw(st.lists(gaps, min_size=m - 1, max_size=m - 1))
    offsets = np.concatenate([[0], np.cumsum(steps)])
    pos = (offsets - draw(st.integers(0, int(offsets[-1])))).astype(np.float64)
    val = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    n = draw(st.integers(1, int(pos[-1]) + 1))
    return pos, val, n


def assert_bits_equal(pos, val, n):
    expected = CubicSpline(pos, val, bc_type="natural")(np.arange(n))
    got = _natural_spline(pos, val, n)
    # int64 views compare signed zeros (and any NaN) bit for bit.
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(knots())
def test_bit_identical_to_cubic_spline(case):
    assert_bits_equal(*case)


@settings(max_examples=200, deadline=None)
@given(knots(min_knots=2, max_knots=3))
def test_two_and_three_knots(case):
    assert_bits_equal(*case)


@st.composite
def pivoting_knots(draw):
    """Knots whose second gap is more than twice the first.

    dgtsv's first row then has |d[0]| = 2*dx[0] < |dl[0]| = dx[1], so LAPACK
    swaps rows 0 and 1; gaps drawn from widely spread sizes make later
    swaps likely too.
    """
    first = draw(st.integers(1, 50))
    second = draw(st.integers(2 * first + 1, 2000))
    rest = draw(st.lists(st.sampled_from([1, 2, 5, 13, 40, 300]), max_size=30))
    offsets = np.cumsum([0, first, second, *rest])
    pos = (offsets - draw(st.integers(0, first))).astype(np.float64)
    val = np.array(draw(st.lists(values, min_size=pos.size, max_size=pos.size)))
    return pos, val, int(pos[-1]) + 1


@settings(max_examples=200, deadline=None)
@given(pivoting_knots())
def test_pivoting_systems(case):
    pos, val, n = case
    assert pos[2] - pos[1] > 2 * (pos[1] - pos[0])
    assert_bits_equal(pos, val, n)


@pytest.mark.parametrize(
    "pos, val, n",
    [
        # Grid ends on the last knot: its point belongs to the closed last interval.
        ([0.0, 3.0, 7.0], [1.0, -2.0, 0.5], 8),
        # Knots beyond both ends of the grid, as boundary mirroring makes them.
        ([-9.0, -2.0, 4.0, 5.0, 20.0, 33.0], [0.0, 1.0, -1.0, 2.0, 0.0, 1.0], 12),
        # Zero values of both signs.
        ([0.0, 1.0, 4.0], [-0.0, -0.0, -0.0], 5),
        ([-1.0, 2.0, 3.0, 9.0], [0.0, -0.0, 0.0, -0.0], 9),
        # A knot value -0.0 on a falling spline: every term of the sample at
        # that knot is -0.0, and scipy's sum starts from +0.0.
        ([0.0, 2.0, 5.0], [-0.0, -1.0, -3.0], 6),
        # Two knots: a straight line.
        ([0.0, 5.0], [2.0, -3.0], 6),
    ],
)
def test_edge_cases(pos, val, n):
    assert_bits_equal(np.array(pos), np.array(val), n)


def test_import_does_not_load_scipy_interpolate():
    code = "import sys, imfkit; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_bit_identical_when_the_spline_loads_lapack_first():
    # The spline loads scipy's LAPACK wrapper on its own; CubicSpline,
    # imported afterwards, must then solve with the same dgtsv.
    code = (
        "import sys, numpy as np\n"
        "from imfkit.core import _natural_spline\n"
        "pos = np.array([0.0, 1.0, 4.0, 5.0, 13.0, 14.0, 40.0])\n"
        "val = np.array([0.3, -1.0, 2.5, -0.0, 7.0, -3.0, 1.0])\n"
        "got = _natural_spline(pos, val, 41)\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "from scipy.interpolate import CubicSpline\n"
        "want = CubicSpline(pos, val, bc_type='natural')(np.arange(41))\n"
        "print(np.array_equal(got.view(np.int64), want.view(np.int64)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
