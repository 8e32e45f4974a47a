import numpy as np
import pytest

from imfkit import (
    BoundaryExtension,
    IFSettings,
    MaskFunction,
    MaskLengthRule,
    MaskTooLong,
    Signal,
    StopReason,
    TooFewExtrema,
    extrema,
    if_extract,
    iterative_filtering,
    make_mask,
    mask_gain,
    mask_length,
    moving_average,
)
from imfkit.iterfilt import _circular_embed
from conftest import central_correlation, two_tone

MASK_SIZES = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 256]


def percentile30_oracle(values):
    """Sort-and-interpolate 30th percentile, independent of numpy."""
    v = sorted(float(x) for x in values)
    if len(v) == 1:
        return v[0]
    rank = 0.30 * (len(v) - 1)
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(v):
        return v[lo]
    return v[lo] + frac * (v[lo + 1] - v[lo])


def round_half_up_oracle(x):
    import math

    return int(math.floor(x + 0.5))


def merged_extrema(s):
    return np.sort(np.concatenate(extrema(s)))


def dft_oracle(w, l, n):
    """Direct O(n*l) DFT of the centered mask; no FFT involved."""
    k = np.arange(n)[:, None]
    j = np.arange(-l, l + 1)[None, :]
    return (w[None, :] * np.exp(-2j * np.pi * k * j / n)).sum(axis=1)


class TestMakeMask:
    def test_half_length_one(self):
        assert make_mask(1).weights.tolist() == [0.25, 0.5, 0.25]

    @pytest.mark.parametrize("l", MASK_SIZES)
    def test_matches_self_convolution(self, l):
        base = np.ones(l + 1) / (l + 1)
        expected = np.convolve(base, base)
        assert np.abs(make_mask(l).weights - expected).max() < 1e-15

    @pytest.mark.parametrize("l", MASK_SIZES)
    def test_unit_sum_and_symmetry(self, l):
        w = make_mask(l).weights
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert np.array_equal(w, w[::-1])
        assert np.all(w >= 0)

    @pytest.mark.parametrize("l", [1, 2, 3, 8, 31, 256])
    def test_dft_nonnegative(self, l):
        w = make_mask(l).weights
        spec = dft_oracle(w, l, 4 * l)
        assert spec.real.min() >= -1e-12
        assert np.abs(spec.imag).max() <= 1e-12

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MaskFunction(weights=np.array([0.5, 0.5]), half_length=1)
        with pytest.raises(ValueError):
            MaskFunction(weights=np.array([0.2, 0.5, 0.3]), half_length=1)
        with pytest.raises(ValueError):
            MaskFunction(weights=np.array([-0.1, 1.2, -0.1]), half_length=1)


class TestMaskLength:
    def test_pure_tone_ave_formula(self):
        # 1000 samples, 5 cycles -> exactly 10 extrema.
        t = np.arange(1000) / 1000.0
        s = Signal(np.sin(2 * np.pi * 5 * t), dt=1e-3)
        assert sum(e.size for e in extrema(s)) == 10
        cfg = IFSettings(xi=1.6, alpha=MaskLengthRule.AVE)
        assert mask_length(s, cfg) == 320  # round(2*1.6*1000/10)

    def test_equal_spacing_almost_min(self):
        # Triangle wave, extrema exactly every 50 samples.
        n = 1000
        t = np.arange(n)
        tri = np.abs((t % 100) - 50.0)
        s = Signal(tri, dt=1.0)
        spacing = np.diff(merged_extrema(s))
        assert np.all(spacing == 50)
        cfg = IFSettings(xi=2.0, alpha=MaskLengthRule.ALMOST_MIN)
        assert mask_length(s, cfg) == 200  # round(2*2*50)

    def test_fixed_rules_use_min_and_max_spacing(self, rng):
        x = np.cumsum(rng.standard_normal(400))
        s = Signal(x)
        d = np.diff(merged_extrema(s))
        xi = 1.3
        l0 = mask_length(s, IFSettings(xi=xi, alpha=MaskLengthRule.FIXED0))
        l1 = mask_length(s, IFSettings(xi=xi, alpha=MaskLengthRule.FIXED1))
        assert l0 == min(max(round_half_up_oracle(xi * d.min()), 1), 399 // 2)
        assert l1 == min(max(round_half_up_oracle(xi * d.max()), 1), 399 // 2)

    def test_randomized_against_oracles(self, rng):
        checked = 0
        while checked < 100:
            n = int(rng.integers(64, 600))
            x = rng.standard_normal(n)
            s = Signal(x)
            merged = merged_extrema(s)
            if merged.size < 2:
                continue
            d = np.diff(merged)
            xi = float(rng.uniform(1.1, 3.0))
            cap = (n - 1) // 2
            got_ave = mask_length(s, IFSettings(xi=xi, alpha=MaskLengthRule.AVE))
            want_ave = min(
                max(round_half_up_oracle(2 * xi * n / merged.size), 1), cap
            )
            assert got_ave == want_ave
            got_am = mask_length(s, IFSettings(xi=xi, alpha=MaskLengthRule.ALMOST_MIN))
            want_am = min(
                max(round_half_up_oracle(2 * xi * percentile30_oracle(d)), 1), cap
            )
            assert got_am == want_am
            checked += 1

    def test_too_few_extrema(self):
        with pytest.raises(TooFewExtrema):
            mask_length(Signal(np.linspace(0, 1, 32)), IFSettings())


def naive_periodic_average(x, w, l):
    """O(n*l) circular correlation, the independent oracle."""
    n = x.size
    idx = (np.arange(n)[:, None] + np.arange(-l, l + 1)[None, :]) % n
    return x[idx] @ w


class TestMovingAverage:
    def test_preserves_constants(self):
        for n in (64, 2048):  # direct path and FFT path
            s = Signal(np.full(n, 3.25))
            out = moving_average(s, make_mask(9), BoundaryExtension.PERIODIC)
            assert np.abs(out.samples - 3.25).max() < 1e-12

    def test_tone_gain_matches_dft(self):
        n, k, l = 2048, 24, 40
        t = np.arange(n)
        x = np.cos(2 * np.pi * k * t / n)
        mask = make_mask(l)
        out = moving_average(Signal(x), mask, BoundaryExtension.PERIODIC).samples
        gain = mask_gain(mask, n)[k]
        assert np.abs(out - gain * x).max() < 1e-10
        assert np.abs(out - naive_periodic_average(x, mask.weights, l)).max() < 1e-10

    @pytest.mark.parametrize("n", [257, 4096])
    def test_fft_and_direct_paths_agree(self, n, rng):
        x = rng.standard_normal(n)
        mask = make_mask(31)
        fast = _fft_average(x, mask)
        ext = np.pad(x, 31, mode="wrap")
        direct = np.convolve(ext, mask.weights, mode="valid")
        assert np.abs(fast - direct).max() < 1e-10

    def test_linearity(self, rng):
        n = 512
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        mask = make_mask(17)
        for ext in BoundaryExtension:
            f = lambda v: moving_average(Signal(v), mask, ext).samples
            combo = f(2.0 * x1 - 0.7 * x2)
            assert np.abs(combo - (2.0 * f(x1) - 0.7 * f(x2))).max() < 1e-10

    def test_mask_too_long(self):
        with pytest.raises(MaskTooLong):
            moving_average(Signal(np.ones(8)), make_mask(8), BoundaryExtension.PERIODIC)

    def test_gains_lie_in_unit_interval(self):
        for l in (3, 17, 64):
            for n in (256, 1000):
                g = mask_gain(make_mask(l), n)
                assert g.min() >= -1e-12 and g.max() <= 1.0 + 1e-12


def _fft_average(x, mask):
    wpad = _circular_embed(mask.weights, mask.half_length, x.size)
    return np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(wpad), x.size)


class TestIfExtract:
    def test_tone_at_kernel_zero_converges(self):
        # k * (l+1) / n integer puts the tone on a mask DFT zero, so the
        # gain is ~0 (< delta) and the iteration stops via delta.
        n, k, l = 1024, 32, 31
        t = np.arange(n)
        x = np.cos(2 * np.pi * k * t / n)
        gain = mask_gain(make_mask(l), n)[k]
        assert gain < 0.001
        imf, iterations, reason = if_extract(Signal(x), l, IFSettings())
        assert reason is StopReason.DELTA_REACHED
        assert central_correlation(imf.samples, x) >= 0.99
        # spectral fixed-point oracle: m iterations scale the mode by (1-gain)^m
        expected = (1.0 - gain) ** iterations * x
        assert np.abs(imf.samples - expected).max() < 1e-9

    def test_max_inner_one_is_single_subtraction(self, rng):
        x = rng.standard_normal(300)
        s = Signal(x)
        mask = make_mask(11)
        imf, iterations, _ = if_extract(s, 11, IFSettings(max_inner=1))
        expected = x - moving_average(s, mask, BoundaryExtension.PERIODIC).samples
        assert iterations == 1
        assert np.array_equal(imf.samples, expected)

    @pytest.mark.parametrize(
        "n,extension",
        [
            (2048, BoundaryExtension.PERIODIC),
            (300, BoundaryExtension.PERIODIC),
            (300, BoundaryExtension.REFLECTION),
            (300, BoundaryExtension.CONSTANT),
        ],
    )
    def test_inner_loop_matches_repeated_moving_average(self, rng, n, extension):
        x = rng.standard_normal(n)
        cfg = IFSettings(extension=extension, max_inner=6, delta=1e-300)
        mask = make_mask(9)
        expected = Signal(x)
        for _ in range(6):
            avg = moving_average(expected, mask, extension)
            expected = expected.with_samples(expected.samples - avg.samples)
        imf, iterations, _ = if_extract(Signal(x), 9, cfg)
        assert iterations == 6
        if extension is BoundaryExtension.CONSTANT:
            assert np.array_equal(imf.samples, expected.samples)
        else:
            # Periodic and reflection run in closed form on the mask
            # spectrum, which rounds differently from six round trips.
            gap = np.abs(imf.samples - expected.samples).max()
            assert gap <= 1e-13 * np.abs(x).max()

    def test_zero_signal_returns_immediately(self):
        imf, iterations, reason = if_extract(Signal(np.zeros(64)), 5, IFSettings())
        assert iterations == 0
        assert reason is StopReason.DELTA_REACHED
        assert np.all(imf.samples == 0)


class TestIterativeFiltering:
    def test_monotone_yields_no_imfs(self):
        s = Signal(np.linspace(0, 1, 128))
        d = iterative_filtering(s)
        assert len(d.imfs) == 0
        assert np.array_equal(d.residual.samples, s.samples)

    def test_two_tone_first_imf_is_fast_tone(self):
        s, _, fast = two_tone()
        cfg = IFSettings(alpha=MaskLengthRule.ALMOST_MIN, xi=1.6, n_imfs=100)
        d = iterative_filtering(s, cfg)
        assert len(d.imfs) >= 2
        assert central_correlation(d.imfs[0].samples, fast) >= 0.95

    def test_reconstruction_is_telescoping(self, rng):
        for _ in range(5):
            x = rng.standard_normal(int(rng.integers(64, 1500)))
            s = Signal(x)
            d = iterative_filtering(s, IFSettings(n_imfs=4))
            err = np.abs(d.reconstruct().samples - x).max()
            assert err <= 1e-10 * np.abs(x).max()

    def test_mask_lengths_recorded_and_capped(self, rng):
        x = rng.standard_normal(777)
        d = iterative_filtering(Signal(x), IFSettings(n_imfs=5))
        lengths = [m.mask_half_length for m in d.meta]
        assert len(lengths) == len(d.imfs)
        for l in lengths:
            assert 1 <= l <= (777 - 1) // 2

    def test_mask_length_override(self):
        s, _, _ = two_tone(n=1024)
        cfg = IFSettings(n_imfs=2, mask_lengths=(9, 40))
        d = iterative_filtering(s, cfg)
        assert [m.mask_half_length for m in d.meta] == [9, 40][: len(d.imfs)]

    def test_spectral_iteration_contract(self, rng):
        # One inner iteration multiplies DFT mode k by (1 - gain_k).
        for _ in range(10):
            n = int(rng.integers(1024, 3000))
            x = rng.standard_normal(n)
            l = int(rng.integers(2, 200))
            mask = make_mask(l)
            imf, _, _ = if_extract(Signal(x), l, IFSettings(max_inner=1))
            lhs = np.fft.rfft(imf.samples)
            rhs = (1.0 - mask_gain(mask, n)) * np.fft.rfft(x)
            scale = np.abs(np.fft.rfft(x)).max()
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_smaller_xi_never_extracts_fewer_imfs(self):
        s, _, _ = two_tone(n=2048)
        counts = {}
        for xi in (1.1, 1.6, 3.0):
            cfg = IFSettings(alpha=MaskLengthRule.ALMOST_MIN, xi=xi, n_imfs=30)
            counts[xi] = len(iterative_filtering(s, cfg).imfs)
        assert counts[1.1] >= counts[1.6] >= counts[3.0]
