import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from imfkit import (
    BoundaryExtension,
    EMDSettings,
    Signal,
    StopReason,
    TooFewExtrema,
    emd,
    envelope_mean,
    extract_imf,
    extrema,
    sift_once,
)
from imfkit.emd import _envelope_knots
from conftest import central_correlation, two_tone


def offset_tone(n=1024, f=4.0, offset=2.0):
    t = np.arange(n) / n
    return Signal(np.sin(2 * np.pi * f * t) + offset, dt=1.0 / n)


class TestEnvelopeMean:
    def test_offset_tone_mean_is_the_offset(self):
        # Analytic envelopes of sin + 2 are the constants 3 and 1.
        s = offset_tone()
        m = envelope_mean(s).samples
        central = m[len(s) // 10 : -len(s) // 10]
        assert np.max(np.abs(central - 2.0)) < 0.05

    def test_reproduces_constant_between_equal_knots(self):
        # A tiny ripple around c gives equal-valued maxima (and minima), and
        # the natural spline through equal values is that constant.
        n, c = 256, 7.5
        t = np.arange(n) / n
        s = Signal(c + 1e-3 * np.sin(2 * np.pi * 8 * t), dt=1.0 / n)
        m = envelope_mean(s).samples
        assert np.max(np.abs(m - c)) < 1e-10

    def test_triangular_wave_mean_near_zero(self):
        # Odd symmetry: upper and lower envelopes are reflections.
        n = 512
        t = np.arange(n) / n
        tri = 2.0 * np.abs(2.0 * (t * 8 % 1.0) - 1.0) - 1.0
        m = envelope_mean(Signal(tri, dt=1.0 / n)).samples
        central = m[n // 10 : -n // 10]
        assert np.max(np.abs(central)) < 0.02 * 2.0

    def test_envelopes_touch_signal_at_extremum_knots(self, rng):
        x = rng.standard_normal(300)
        maxima, minima = extrema(Signal(x))
        grid = np.arange(x.size)
        pos, val = _envelope_knots(maxima, x, BoundaryExtension.REFLECTION)
        upper = CubicSpline(pos, val, bc_type="natural")(grid)
        assert np.max(np.abs(upper[maxima] - x[maxima])) == 0.0
        pos, val = _envelope_knots(minima, x, BoundaryExtension.REFLECTION)
        lower = CubicSpline(pos, val, bc_type="natural")(grid)
        assert np.max(np.abs(lower[minima] - x[minima])) == 0.0

    def test_requires_both_envelopes(self):
        with pytest.raises(TooFewExtrema):
            envelope_mean(Signal(np.linspace(0, 1, 50)))

    @pytest.mark.parametrize("mode", list(BoundaryExtension))
    def test_alternative_boundary_modes(self, mode):
        n = 1024
        t = np.arange(n) / n
        s = Signal(np.sin(2 * np.pi * 4 * t) + 2.0, dt=1.0 / n)
        m = envelope_mean(s, boundary=mode).samples
        assert np.all(np.isfinite(m))
        central = m[n // 10 : -n // 10]
        assert np.max(np.abs(central - 2.0)) < 0.05


class TestSiftOnce:
    def test_removes_offset_from_tone(self):
        s = offset_tone()
        t = np.arange(len(s)) / len(s)
        out = sift_once(s).samples
        assert central_correlation(out, np.sin(2 * np.pi * 4 * t)) >= 0.99

    def test_zero_mean_tone_is_near_fixed_point(self):
        n = 1024
        t = np.arange(n) / n
        x = np.sin(2 * np.pi * 6 * t)
        out = sift_once(Signal(x, dt=1.0 / n)).samples
        assert np.sum((out - x) ** 2) / np.sum(x**2) < 0.2

    def test_fast_tone_dominates_over_trend(self):
        n = 2048
        t = np.arange(n) / n
        tone = np.sin(2 * np.pi * 24 * t)
        s = Signal(tone + 3.0 * t, dt=1.0 / n)
        out = sift_once(s).samples
        assert central_correlation(out, tone) >= 0.9


class TestExtractImf:
    def test_pure_tone_converges_quickly(self):
        n = 1024
        t = np.arange(n) / n
        x = np.sin(2 * np.pi * 8 * t)
        imf, iterations, reason = extract_imf(Signal(x, dt=1.0 / n))
        assert iterations <= 10
        assert reason is StopReason.DELTA_REACHED
        assert central_correlation(imf.samples, x) >= 0.99

    def test_max_inner_one_equals_single_sift(self):
        n = 512
        t = np.arange(n) / n
        s = Signal(np.sin(2 * np.pi * 8 * t) + 4.0 * t, dt=1.0 / n)
        imf, iterations, reason = extract_imf(s, EMDSettings(max_inner=1))
        assert iterations == 1
        assert reason is StopReason.MAX_INNER_REACHED
        assert np.array_equal(imf.samples, sift_once(s).samples)

    def test_two_tone_first_imf_is_fast_tone(self):
        n = 2048
        t = np.arange(n) / n
        fast = np.sin(2 * np.pi * 20 * t)
        s = Signal(np.sin(2 * np.pi * 2 * t) + fast, dt=1.0 / n)
        imf, _, _ = extract_imf(s)
        assert central_correlation(imf.samples, fast) >= 0.95

    def test_too_few_extrema_raises_on_first_iteration(self):
        with pytest.raises(TooFewExtrema):
            extract_imf(Signal(np.linspace(0, 1, 64)))


class TestEmd:
    def test_monotone_ramp_yields_no_imfs(self):
        s = Signal(np.linspace(-1, 4, 100))
        d = emd(s)
        assert len(d.imfs) == 0
        assert np.array_equal(d.residual.samples, s.samples)

    def test_two_tone_components_recovered(self):
        s, slow, fast = two_tone(n=2048)
        d = emd(s)
        assert len(d.imfs) >= 2
        assert central_correlation(d.imfs[0].samples, fast) >= 0.95
        assert any(
            central_correlation(imf.samples, slow) >= 0.95 for imf in d.imfs[1:]
        )
        assert np.abs(d.residual.samples).max() < 0.2

    def test_reconstruction_is_telescoping(self, rng):
        for _ in range(5):
            x = rng.standard_normal(int(rng.integers(64, 1000)))
            s = Signal(x)
            d = emd(s)
            err = np.abs(d.reconstruct().samples - x).max()
            assert err <= 1e-10 * np.abs(x).max()

    def test_deterministic(self, rng):
        x = rng.standard_normal(512)
        d1, d2 = emd(Signal(x)), emd(Signal(x))
        assert len(d1.imfs) == len(d2.imfs)
        for a, b in zip(d1.imfs, d2.imfs):
            assert a.samples.tobytes() == b.samples.tobytes()
        assert d1.residual.samples.tobytes() == d2.residual.samples.tobytes()

    def test_imf_count_capped(self, rng):
        x = rng.standard_normal(2048)
        d = emd(Signal(x), EMDSettings(max_imfs=3))
        assert len(d.imfs) == 3

    def test_residual_termination(self, rng):
        x = rng.standard_normal(512)
        cfg = EMDSettings()
        d = emd(Signal(x), cfg)
        if len(d.imfs) < cfg.max_imfs:
            maxima, minima = extrema(d.residual)
            n_max, n_min = maxima.size, minima.size
            assert n_max + n_min < cfg.min_extrema or n_max < 2 or n_min < 2

    def test_converged_imfs_balance_extrema(self):
        s, _, _ = two_tone(n=2048)
        d = emd(s)
        for imf, meta in zip(d.imfs, d.meta):
            if meta.stop_reason is StopReason.DELTA_REACHED:
                maxima, minima = extrema(imf)
                assert abs(maxima.size - minima.size) <= 1
