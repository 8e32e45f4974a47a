import math

import numpy as np
import pytest

from imfkit import (
    BoundaryExtension,
    MaskFunction,
    Signal,
    extrema,
    make_mask,
    moving_average,
)
from imfkit.core import _sum_squares


def brute_force_extrema(x):
    """Plateau-aware reference scan: O(n^2)-ish, deliberately naive.

    A sample (or a run of equal samples) is a maximum if the nearest
    differing neighbors on both sides are lower; plateaus report their
    midpoint rounded down; boundary runs never count.
    """
    n = len(x)
    maxima, minima = [], []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        if i > 0 and j < n - 1:
            left, right = x[i - 1], x[j + 1]
            mid = (i + j) // 2
            if left < x[i] and right < x[i]:
                maxima.append(mid)
            elif left > x[i] and right > x[i]:
                minima.append(mid)
        i = j + 1
    return maxima, minima


def merged(maxima, minima):
    return np.sort(np.concatenate([maxima, minima]))


class TestExtrema:
    def test_strict_alternation(self):
        maxima, minima = extrema(Signal([0, 1, 0, -1, 0]))
        assert maxima.tolist() == [1]
        assert minima.tolist() == [3]

    def test_constant_signal_has_none(self):
        maxima, minima = extrema(Signal([5, 5, 5, 5]))
        assert maxima.size == minima.size == 0

    def test_plateau_midpoint(self):
        maxima, minima = extrema(Signal([0, 1, 1, 1, 0]))
        assert maxima.tolist() == [2]
        assert minima.size == 0

    def test_matches_brute_force_on_plateau_heavy_signals(self, rng):
        for _ in range(200):
            n = rng.integers(5, 60)
            x = rng.integers(-3, 4, size=n).astype(float)
            maxima, minima = extrema(Signal(x))
            ref_max, ref_min = brute_force_extrema(x)
            assert maxima.tolist() == ref_max
            assert minima.tolist() == ref_min

    def test_maxima_minima_alternate(self, rng):
        for _ in range(50):
            x = rng.standard_normal(200)
            maxima, minima = extrema(Signal(x))
            kinds = np.isin(merged(maxima, minima), maxima)
            assert np.all(kinds[1:] != kinds[:-1])

    def test_all_indices_interior(self, rng):
        x = rng.standard_normal(500)
        m = merged(*extrema(Signal(x)))
        assert m.min() >= 1 and m.max() <= 498

    def test_sinusoid_count(self):
        # one extremum per half period, up to one ambiguity per boundary
        for periods in (3, 4, 10):
            n = 64 * periods
            t = np.arange(n) / n
            maxima, minima = extrema(Signal(np.sin(2 * np.pi * periods * t)))
            assert abs(maxima.size + minima.size - 2 * periods) <= 2


def brute_force_reflect(x, pad):
    """Index map oracle: fold positions into [0, n-1] by repeated mirroring."""
    n = len(x)
    out = []
    for p in range(-pad, n + pad):
        period = 2 * (n - 1)
        q = p % period if period else 0
        if q >= n:
            q = period - q
        out.append(x[q])
    return np.array(out)


def direct_sum(padded, weights):
    """out[i] = sum_j weights[j] * padded[i + j], one term at a time."""
    n = len(padded) - len(weights) + 1
    return np.array(
        [sum(w * padded[i + j] for j, w in enumerate(weights)) for i in range(n)]
    )


def average(x, mask, mode):
    return moving_average(Signal(x), mask, mode).samples


class TestExtend:
    """The boundary extension that moving_average applies, a mask half-length
    on each side, against a direct sum over the explicitly extended signal.
    Half-lengths run up to n - 1, the longest mask that fits."""

    def test_constant(self):
        mask = make_mask(2)
        out = average(np.array([1.0, 2, 3]), mask, BoundaryExtension.CONSTANT)
        want = direct_sum([1, 1, 1, 2, 3, 3, 3], mask.weights)
        assert np.abs(out - want).max() <= 1e-14

    def test_periodic(self):
        mask = make_mask(2)
        out = average(np.array([1.0, 2, 3]), mask, BoundaryExtension.PERIODIC)
        want = direct_sum([2, 3, 1, 2, 3, 1, 2], mask.weights)
        assert np.abs(out - want).max() <= 1e-14

    def test_reflection(self):
        mask = make_mask(2)
        out = average(np.array([1.0, 2, 3]), mask, BoundaryExtension.REFLECTION)
        want = direct_sum([3, 2, 1, 2, 3, 2, 1], mask.weights)
        assert np.abs(out - want).max() <= 1e-14

    def test_reflection_matches_symmetry_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            l = int(rng.integers(1, n))  # up to n - 1
            x = rng.standard_normal(n)
            mask = make_mask(l)
            out = average(x, mask, BoundaryExtension.REFLECTION)
            want = direct_sum(brute_force_reflect(x, l), mask.weights)
            assert np.abs(out - want).max() <= 1e-14

    @pytest.mark.parametrize("mode", list(BoundaryExtension))
    @pytest.mark.parametrize("pad", [1, 3, 17])
    def test_central_window_identity(self, mode, pad, rng):
        # A centred unit impulse reads each window's middle sample: the
        # original samples sit in the central window of the extension.
        x = rng.standard_normal(18)
        impulse = np.zeros(2 * pad + 1)
        impulse[pad] = 1.0
        out = average(x, MaskFunction(impulse, pad), mode)
        assert out.size == 18
        assert np.abs(out - x).max() <= 1e-14

    def test_periodic_has_signal_period(self, rng):
        # Shifting the signal by k samples shifts its periodic average by k.
        x = rng.standard_normal(5)
        mask = make_mask(4)
        out = average(x, mask, BoundaryExtension.PERIODIC)
        for k in range(1, 5):
            shifted = average(np.roll(x, k), mask, BoundaryExtension.PERIODIC)
            assert np.abs(shifted - np.roll(out, k)).max() <= 1e-14

    def test_pad_must_be_positive(self):
        # The pad is the mask half-length, which make_mask keeps >= 1.
        with pytest.raises(ValueError):
            make_mask(0)


class TestNorm2:
    """The Euclidean norm of IF's stopping ratio: sqrt of core._sum_squares."""

    @staticmethod
    def norm2(x):
        return math.sqrt(_sum_squares(np.asarray(x, dtype=np.float64)))

    def test_zero(self):
        assert self.norm2([0, 0, 0]) == 0.0

    def test_three_four_five(self):
        assert self.norm2([3, 4]) == 5.0

    def test_against_compensated_summation(self, rng):
        x = rng.standard_normal(1000) * rng.uniform(1e-3, 1e3)
        reference = math.sqrt(math.fsum(float(v) * float(v) for v in x))
        assert self.norm2(x) == pytest.approx(reference, rel=1e-12)

    def test_absolute_homogeneity(self, rng):
        x = rng.standard_normal(257)
        for c in (-3.7, 0.0, 1e-9, 42.0):
            assert self.norm2(c * x) == pytest.approx(
                abs(c) * self.norm2(x), rel=1e-12, abs=1e-300
            )


class TestSignal:
    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(ValueError):
            Signal([1.0])
        with pytest.raises(ValueError):
            Signal([1.0, np.nan])
        with pytest.raises(ValueError):
            Signal([1.0, 2.0], dt=0.0)

    def test_times(self):
        s = Signal([1, 2, 3], dt=0.5, t0=10.0)
        assert s.times.tolist() == [10.0, 10.5, 11.0]

    def test_samples_are_read_only(self):
        s = Signal([1, 2, 3])
        with pytest.raises(ValueError):
            s.samples[0] = 9
