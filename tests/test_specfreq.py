import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imfkit import (
    Decomposition,
    ImfMeta,
    Signal,
    StopReason,
    derivative_if,
    hilbert_if,
    hilbert_spectrum,
)
from imfkit.specfreq import _analytic_arr


def tone(f=5.0, n=2048, span=2.0):
    dt = span / n
    t = np.arange(n) * dt
    return Signal(np.sin(2 * np.pi * f * t), dt=dt), t


def make_decomposition(components, dt):
    imfs = tuple(Signal(c, dt=dt) for c in components)
    residual = Signal(np.zeros(len(components[0])), dt=dt)
    meta = tuple(ImfMeta(1, StopReason.DELTA_REACHED) for _ in imfs)
    return Decomposition(imfs=imfs, residual=residual, meta=meta)


class TestAnalyticSignal:
    """The raw one-sided-spectrum transform that hilbert_if extends."""

    def test_cos_maps_to_sin(self):
        k = 5
        for n in (512, 511):  # with and without a Nyquist bin
            t = np.arange(n) / n
            z = _analytic_arr(np.cos(2 * np.pi * k * t))
            assert np.abs(z.imag - np.sin(2 * np.pi * k * t)).max() < 1e-10

    def test_constant_has_no_quadrature(self):
        z = _analytic_arr(np.full(64, 2.5))
        assert np.abs(z.imag).max() < 1e-10

    def test_tone_modulus_is_unit(self):
        n, k = 1024, 17
        t = np.arange(n) / n
        z = _analytic_arr(np.cos(2 * np.pi * k * t))
        assert np.abs(np.abs(z) - 1.0).max() < 1e-9

    def test_linearity(self, rng):
        x1, x2 = rng.standard_normal(256), rng.standard_normal(256)
        f = lambda v: _analytic_arr(v).imag
        combo = f(1.5 * x1 - 2.25 * x2)
        assert np.abs(combo - (1.5 * f(x1) - 2.25 * f(x2))).max() < 1e-10


class TestHilbertIf:
    def test_tone_frequency(self):
        s, _ = tone(f=5.0, n=2048, span=2.0)
        trace = hilbert_if(s)
        f = trace.frequency.samples[trace.valid_mask]
        assert np.abs(f - 5.0).max() < 0.01 * 5.0

    def test_linear_chirp(self):
        # phase 2*pi*(2t + 5t^2) -> instantaneous frequency 2 + 10t.
        # The first ~0.2s holds under half a period of the local ~3 Hz wave,
        # so the estimate there is boundary-limited; the tracking is tight
        # once a full local period fits inside the window.
        n = 4096
        t = np.arange(n) / n
        s = Signal(np.sin(2 * np.pi * (2 * t + 5 * t**2)), dt=1.0 / n)
        trace = hilbert_if(s)
        target = 2 + 10 * t
        f = trace.frequency.samples
        central = trace.valid_mask & (t >= 0.1) & (t <= 0.9)
        rel = np.abs(f[central] - target[central]) / target[central]
        assert rel.max() < 0.05
        settled = trace.valid_mask & (t >= 0.3) & (t <= 0.8)
        rel = np.abs(f[settled] - target[settled]) / target[settled]
        assert rel.max() < 0.02

    def test_chirp_stabilization_improves_on_raw_transform(self):
        n = 4096
        t = np.arange(n) / n
        s = Signal(np.sin(2 * np.pi * (2 * t + 5 * t**2)), dt=1.0 / n)
        target = 2 + 10 * t
        central = slice(n // 10, -n // 10)

        def worst(freq, valid):
            sel = valid[central]
            f = freq[central][sel]
            return np.max(np.abs(f - target[central][sel]) / target[central][sel])

        trace = hilbert_if(s)
        stabilized = worst(trace.frequency.samples, trace.valid_mask)
        # The same phase derivative of the raw transform, valid everywhere.
        z = _analytic_arr(s.samples)
        phase = np.unwrap(np.arctan2(z.imag, z.real))
        raw = worst(np.gradient(phase, s.dt) / (2 * np.pi), np.ones(n, dtype=bool))
        assert stabilized < 0.5 * raw

    def test_zero_signal_all_invalid(self):
        trace = hilbert_if(Signal(np.zeros(128)))
        assert not trace.valid_mask.any()

    def test_boundary_invalidated(self):
        s, _ = tone()
        trace = hilbert_if(s)
        edge = int(np.ceil(0.05 * len(s)))
        assert not trace.valid_mask[:edge].any()
        assert not trace.valid_mask[-edge:].any()

    def test_scale_invariance(self):
        s, _ = tone()
        f1 = hilbert_if(s).frequency.samples
        f2 = hilbert_if(s.with_samples(1e3 * s.samples)).frequency.samples
        mask = hilbert_if(s).valid_mask
        assert np.abs(f1[mask] - f2[mask]).max() <= 1e-9 * np.abs(f1[mask]).max()


class TestDerivativeIf:
    def test_tone_frequency(self):
        s, _ = tone(f=5.0, n=2048, span=2.0)
        trace = derivative_if(s)
        f = trace.frequency.samples[trace.valid_mask]
        assert np.abs(f - 5.0).max() < 0.02 * 5.0

    def test_amplitude_modulated_tone(self):
        n = 4096
        t = np.arange(n) / n
        carrier = 40.0
        x = (1.0 + 0.3 * np.sin(2 * np.pi * 2 * t)) * np.sin(2 * np.pi * carrier * t)
        trace = derivative_if(Signal(x, dt=1.0 / n))
        central = slice(n // 10, -n // 10)
        sel = trace.valid_mask[central]
        f = trace.frequency.samples[central][sel]
        assert np.abs(f - carrier).max() < 0.05 * carrier

    def test_zero_signal_all_invalid(self):
        trace = derivative_if(Signal(np.zeros(128)))
        assert not trace.valid_mask.any()

    def test_amplitude_nonnegative(self, rng):
        trace = derivative_if(Signal(rng.standard_normal(512)))
        assert np.all(trace.amplitude.samples >= 0)

    def test_agrees_with_hilbert_on_tones(self):
        s, _ = tone(f=8.0, n=4096, span=1.0)
        th = hilbert_if(s)
        td = derivative_if(s)
        both = th.valid_mask & td.valid_mask
        fh = th.frequency.samples[both]
        fd = td.frequency.samples[both]
        assert np.abs(fh - fd).max() <= 0.05 * 8.0

    def test_scale_invariance(self):
        s, _ = tone()
        f1 = derivative_if(s).frequency.samples
        f2 = derivative_if(s.with_samples(250.0 * s.samples)).frequency.samples
        assert np.abs(f1 - f2).max() <= 1e-9 * np.abs(f1).max()


class TestHilbertSpectrum:
    def test_single_tone_mass_concentrates(self):
        n = 2048
        t = np.arange(n) / n
        f0 = 40.0
        d = make_decomposition([np.sin(2 * np.pi * f0 * t)], dt=1.0 / n)
        grid = hilbert_spectrum(d, nbins=64)
        fmax = 0.5 * n
        target_bin = int(f0 / fmax * 64)
        total = grid.amplitude.sum()
        assert grid.amplitude[:, target_bin].sum() >= 0.95 * total

    def test_empty_valid_masks_give_zero_grid(self):
        d = make_decomposition([np.zeros(256)], dt=1.0)
        grid = hilbert_spectrum(d, nbins=16)
        assert np.all(grid.amplitude == 0)

    def test_two_tone_ridges_disjoint(self):
        n = 4096
        t = np.arange(n) / n
        d = make_decomposition(
            [np.sin(2 * np.pi * 40 * t), np.sin(2 * np.pi * 2 * t)], dt=1.0 / n
        )
        grid = hilbert_spectrum(d, nbins=64)
        fmax = 0.5 * n
        ridge = grid.amplitude.sum(axis=0)
        top_two = np.argsort(ridge)[-2:]
        expected = {int(40 / fmax * 64), int(2 / fmax * 64)}
        assert set(top_two.tolist()) == expected

    def test_mass_bookkeeping(self, rng):
        n = 512
        comps = [rng.standard_normal(n) for _ in range(3)]
        d = make_decomposition(comps, dt=1.0)
        grid = hilbert_spectrum(d, nbins=32)
        deposited = 0.0
        for imf in d.imfs:
            trace = hilbert_if(imf)
            deposited += trace.amplitude.samples[trace.valid_mask].sum()
        assert grid.amplitude.sum() == pytest.approx(deposited, rel=1e-12)

    def test_energy_weighting_flag(self):
        n = 1024
        t = np.arange(n) / n
        d = make_decomposition([2.0 * np.sin(2 * np.pi * 30 * t)], dt=1.0 / n)
        amp = hilbert_spectrum(d, nbins=16, weight="amplitude").amplitude.sum()
        eng = hilbert_spectrum(d, nbins=16, weight="energy").amplitude.sum()
        # amplitude ~2 per sample, energy ~4 per sample
        assert eng == pytest.approx(2.0 * amp, rel=0.05)

    def test_no_imfs_give_a_grid_with_no_cells(self):
        residual = Signal(np.arange(16.0), dt=0.25, t0=1.0)
        d = Decomposition(imfs=(), residual=residual, meta=())
        for traces in (None, []):
            grid = hilbert_spectrum(d, nbins=8, traces=traces)
            assert np.array_equal(grid.times, residual.times)
            assert np.array_equal(grid.freqs, np.linspace(0.0, 2.0, 9))
            assert grid.rows.size == grid.bins.size == grid.values.size == 0
            assert grid.amplitude.shape == (16, 8) and not grid.amplitude.any()
        with pytest.raises(ValueError):
            hilbert_spectrum(d, nbins=0)

    def test_estimator_selection(self):
        n = 2048
        t = np.arange(n) / n
        d = make_decomposition([np.sin(2 * np.pi * 40 * t)], dt=1.0 / n)
        g_h = hilbert_spectrum(d, nbins=32, estimator="hilbert")
        g_d = hilbert_spectrum(d, nbins=32, estimator="derivative")
        # both concentrate on the same bin even if masses differ
        assert np.argmax(g_h.amplitude.sum(axis=0)) == np.argmax(
            g_d.amplitude.sum(axis=0)
        )
        with pytest.raises(ValueError):
            hilbert_spectrum(d, nbins=8, estimator="wavelet")

    def test_precomputed_traces_give_same_grid(self, rng):
        dt = 1.0 / 512
        t = np.arange(1024) * dt
        d = make_decomposition(
            [np.sin(2 * np.pi * 60 * t), rng.standard_normal(1024)], dt
        )
        for estimator, trace_fn in (("hilbert", hilbert_if), ("derivative", derivative_if)):
            traces = [trace_fn(imf) for imf in d.imfs]
            for weight in ("amplitude", "energy"):
                kw = dict(nbins=32, estimator=estimator, weight=weight)
                got = hilbert_spectrum(d, traces=traces, **kw)
                assert np.array_equal(got.amplitude, hilbert_spectrum(d, **kw).amplitude)

    def test_traces_must_hold_one_trace_per_imf(self):
        s, t = tone(n=512)
        d = make_decomposition([s.samples, np.cos(2 * np.pi * 20 * t)], s.dt)
        traces = [hilbert_if(imf) for imf in d.imfs]
        with pytest.raises(ValueError):
            hilbert_spectrum(d, nbins=16, traces=traces[:1])
        short = hilbert_if(Signal(s.samples[:256], dt=s.dt))
        with pytest.raises(ValueError):
            hilbert_spectrum(d, nbins=16, traces=[traces[0], short])
        with pytest.raises(TypeError):
            hilbert_spectrum(d, 16, "hilbert", "amplitude", traces)


def test_import_does_not_load_scipy_signal():
    code = "import sys, imfkit; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _contract_signals(n: int, rng) -> list[np.ndarray]:
    """A tone, two tones, a chirp and noise of n samples, at shares of the sample rate."""
    k = np.arange(n)
    return [
        np.sin(2 * np.pi * 0.05 * k + 0.4),
        np.cos(2 * np.pi * 0.013 * k) + 0.5 * np.sin(2 * np.pi * 0.21 * k),
        np.sin(2 * np.pi * (0.01 + 0.1 * k / n) * k),  # chirp, 0.01 -> 0.21
        rng.standard_normal(n),
    ]


def _edge_case_shapes(n: int, rng) -> dict[str, np.ndarray]:
    """Unit-scale inputs that stress the transforms and the tone continuation."""
    k = np.arange(n, dtype=np.float64)
    spike = np.zeros(n)
    spike[rng.integers(n)] = 1.0
    step = (k >= rng.integers(1, n)).astype(np.float64)
    noise = rng.standard_normal(n)
    tail = rng.integers(1, n)
    noise[tail:] = np.ldexp(rng.integers(-(2**20), 2**20, n - tail), -1074)
    return {
        "spike": spike,
        "step": step,
        "alternating": (-1.0) ** k,
        "near_constant": 1.0 + 1e-12 * np.cos(0.3 * k),
        "slow_tone": np.cos(1e-7 * k + rng.uniform(0, 2 * np.pi)),  # below the 1e-6 floor
        "near_nyquist": np.cos((np.pi - 1e-3) * k + rng.uniform(0, 2 * np.pi)),
        "ramp": k,
        "subnormal_tail": noise,
    }


@st.composite
def _scaled_edge_cases(draw):
    """One shape of n = 16-700 samples, scaled by m * 2**e, 1 <= m < 2, |e| <= 1000."""
    n = draw(st.integers(16, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name, x = draw(st.sampled_from(sorted(_edge_case_shapes(n, rng).items())))
    scale = np.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-1000, 1000)))
    if name == "subnormal_tail":  # the tail stays subnormal whatever the scale
        head = np.abs(x) >= 2.0**-1022
        return name, np.where(head, x * scale, x)
    return name, x * scale


class TestHilbertIfContract:
    """Properties of hilbert_if that hold whatever its edge continuation is."""

    def test_time_reversal(self, rng):
        # Reversing a real signal conjugates and reverses its analytic
        # signal, so the amplitude, the frequency and the mask reverse.
        # n = 16-24 are the shortest stabilized inputs: at n = 16 the
        # window the edge frequency is read from holds two samples.
        for n in (*range(16, 25), 64, 601, 4096):
            for x in _contract_signals(n, rng):
                fwd, bwd = hilbert_if(Signal(x)), hilbert_if(Signal(x[::-1]))
                amplitude, freq = fwd.amplitude.samples, fwd.frequency.samples
                assert np.all(np.isfinite(amplitude)) and np.all(np.isfinite(freq))
                assert np.array_equal(bwd.valid_mask[::-1], fwd.valid_mask)
                err = np.abs(bwd.amplitude.samples[::-1] - amplitude).max()
                assert err <= 1e-12 * amplitude.max()
                err = np.abs(bwd.frequency.samples[::-1] - freq).max()
                assert err <= 1e-10 * np.abs(freq).max()

    def test_scale_equivariance(self, rng):
        for n in (16, 64, 601, 4096):
            for x in _contract_signals(n, rng):
                ref = hilbert_if(Signal(x))
                amplitude, freq = ref.amplitude.samples, ref.frequency.samples
                for c in (2.0**600, 2.0**-600, 1e3, 1e-3):
                    got = hilbert_if(Signal(c * x))
                    assert np.array_equal(got.valid_mask, ref.valid_mask)
                    err = np.abs(got.amplitude.samples - c * amplitude).max()
                    assert err <= 1e-12 * c * amplitude.max()
                    err = np.abs(got.frequency.samples - freq).max()
                    assert err <= 1e-10 * np.abs(freq).max()

    def test_power_of_two_scales_keep_every_bit(self, rng):
        # The trace is taken on the input scaled to a unit peak by a power
        # of two, so such a scale reaches only the amplitude, exactly, even
        # at 2**1000, where the transforms of the unscaled input are near
        # overflow.
        for n in (16, 601, 4096):
            for x in _contract_signals(n, rng):
                ref = hilbert_if(Signal(x))
                for e in (1000, -1000):
                    got = hilbert_if(Signal(np.ldexp(x, e)))
                    assert np.array_equal(got.valid_mask, ref.valid_mask)
                    assert np.array_equal(
                        got.amplitude.samples, np.ldexp(ref.amplitude.samples, e)
                    )
                    assert np.array_equal(got.frequency.samples, ref.frequency.samples)

    def test_tone_near_the_float64_limit(self):
        # A 6e304 peak overflows an unscaled transform of the ~2n extended
        # points; the trace must stay finite and match the unit tone's.
        n = 4096
        x = np.cos(2 * np.pi * 37.3 * np.arange(n) / n)
        ref = hilbert_if(Signal(x, dt=1.0 / n))
        got = hilbert_if(Signal(6e304 * x, dt=1.0 / n))
        assert np.all(np.isfinite(got.amplitude.samples))
        assert np.array_equal(got.valid_mask, ref.valid_mask)
        err = np.abs(got.amplitude.samples / 6e304 - ref.amplitude.samples).max()
        assert err <= 1e-12
        err = np.abs(got.frequency.samples - ref.frequency.samples).max()
        assert err <= 1e-10 * 37.3

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_scaled_edge_cases())
    def test_finite_on_edge_cases_at_any_scale(self, case):
        # The transforms run on the input scaled to a peak in [0.5, 1), so
        # none of them may overflow, whatever the shape and the scale.
        name, x = case
        trace = hilbert_if(Signal(x))
        assert np.all(np.isfinite(trace.amplitude.samples)), name
        assert np.all(np.isfinite(trace.frequency.samples)), name

    @pytest.mark.parametrize(
        "cycles, bound",
        [(5, 5e-3), (12.5, 1e-4), (37.3, 2e-5), (200.5, 1e-7), (1000.25, 1e-9)],
    )
    def test_pure_cosine_frequency(self, cycles, bound):
        n = 4096
        x = np.cos(2 * np.pi * cycles * np.arange(n) / n)
        trace = hilbert_if(Signal(x, dt=1.0 / n))
        f = trace.frequency.samples[trace.valid_mask]
        assert f.size > 0.8 * n
        assert np.abs(f - cycles).max() <= bound * cycles
