"""IF's inner loop in closed form on the mask spectrum.

Periodic and reflection extension find the stop index from the mode
energies and form the IMF with a fixed number of transforms. These tests
hold the result to a time-domain loop that applies the moving average
once per iteration (the definition), and to a long-double spectral oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imfkit import BoundaryExtension, IFSettings, Signal, StopReason, if_extract, make_mask
from imfkit import iterfilt
from imfkit.iterfilt import mask_gain

PAD_MODE = {BoundaryExtension.PERIODIC: "wrap", BoundaryExtension.REFLECTION: "reflect"}


def reference_extract(x, l, cfg):
    """The inner loop as defined: subtract the padded direct-sum average."""
    weights, mode = make_mask(l).weights, PAD_MODE[cfg.extension]
    cur = x.copy()
    for it in range(1, cfg.max_inner + 1):
        avg = np.convolve(np.pad(cur, l, mode=mode), weights, mode="valid")
        num = math.sqrt(float(np.sum(avg * avg)))
        den = math.sqrt(float(np.sum(cur * cur)))
        cur = cur - avg
        if den == 0.0 or num < cfg.delta * den:
            return cur, it, StopReason.DELTA_REACHED
    return cur, cfg.max_inner, StopReason.MAX_INNER_REACHED


def spectral_oracle(x, l, extension, k):
    """irfft((1 - g)^k X) in long double, with the gain from a direct cosine sum."""
    y = x.astype(np.longdouble)
    if extension is BoundaryExtension.REFLECTION:
        y = np.concatenate([y, y[-2:0:-1]])  # even extension of period 2(n-1)
    period = y.size
    j = np.arange(-l, l + 1)
    modes = np.arange(period // 2 + 1)
    w = make_mask(l).weights.astype(np.longdouble)
    pi = np.arccos(np.longdouble(-1))
    angle = 2 * pi * (np.outer(modes, j) % period).astype(np.longdouble) / period
    gain = np.cos(angle).dot(w)
    out = np.fft.irfft((1 - gain) ** k * np.fft.rfft(y), period)
    return out[: x.size].astype(np.float64)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 1500))
    l = draw(st.integers(1, n - 1))
    extension = draw(st.sampled_from(list(PAD_MODE)))
    delta = 10.0 ** draw(st.floats(-6.0, -0.3))
    max_inner = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n)
    if draw(st.booleans()):  # a strong tone, at a gain the draw decides
        x += 3.0 * np.cos(2 * np.pi * draw(st.integers(0, n // 2)) * np.arange(n) / n)
    cfg = IFSettings(delta=delta, max_inner=max_inner, extension=extension)
    return x, l, cfg


@settings(max_examples=150, deadline=None)
@given(cases())
def test_matches_time_domain_loop_and_spectral_oracle(case):
    x, l, cfg = case
    want, want_iterations, want_reason = reference_extract(x, l, cfg)
    imf, iterations, reason = if_extract(Signal(x), l, cfg)
    assert (iterations, reason) == (want_iterations, want_reason)
    tol = 1e-12 * np.abs(x).max()
    assert np.abs(imf.samples - want).max() <= tol
    oracle = spectral_oracle(x, l, cfg.extension, iterations)
    assert np.abs(imf.samples - oracle).max() <= tol


@pytest.mark.parametrize("extension", list(PAD_MODE))
def test_short_signals_every_mask_length(extension):
    # On a few samples the two end samples weigh as much as the rest of a
    # reflected signal's norm, so the stop index depends on them. A mask
    # that wraps around a short period can have a ratio of exactly
    # 1/(l+1)^2 at every iteration (n=11, l=9: 0.01), and then rounding
    # alone decides the comparison, so no delta here is such a value.
    rng = np.random.default_rng(11)
    for n in range(2, 17):
        x = rng.standard_normal(n)
        for l in range(1, n):
            for delta in (0.29, 0.093, 0.031, 0.0093, 0.0011):
                cfg = IFSettings(delta=delta, max_inner=60, extension=extension)
                want, want_iterations, want_reason = reference_extract(x, l, cfg)
                imf, iterations, reason = if_extract(Signal(x), l, cfg)
                assert (n, l, delta, iterations, reason) == (
                    n, l, delta, want_iterations, want_reason
                )
                assert np.abs(imf.samples - want).max() <= 1e-12 * np.abs(x).max()


@settings(max_examples=40, deadline=None)
@given(cases(), st.sampled_from([1000, -1000]))
def test_power_of_two_scaling(case, exponent):
    x, l, cfg = case
    imf, iterations, reason = if_extract(Signal(x), l, cfg)
    c = 2.0**exponent
    scaled, scaled_iterations, scaled_reason = if_extract(Signal(c * x), l, cfg)
    assert (scaled_iterations, scaled_reason) == (iterations, reason)
    # Exact up to rounding into the subnormals at 2**-1000.
    assert np.abs(scaled.samples - c * imf.samples).max() <= 1e-12 * c * np.abs(x).max()


@pytest.mark.parametrize("extension", list(PAD_MODE))
@pytest.mark.parametrize("max_inner", [1, 50, 2000])
def test_transform_count_does_not_grow_with_iterations(monkeypatch, extension, max_inner):
    calls = {"rfft": 0, "irfft": 0, "convolve": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(np.fft, "rfft")
    counting(np.fft, "irfft")
    counting(np, "convolve")
    x = np.random.default_rng(3).standard_normal(4096)
    cfg = IFSettings(delta=1e-300, max_inner=max_inner, extension=extension)
    _, iterations, _ = if_extract(Signal(x), 40, cfg)
    assert iterations == max_inner
    # A first iteration in the time domain, then one transform of the
    # signal, the mask's gain, one inverse transform and a last moving
    # average. Periodic moving averages are transforms too, and there the
    # scan shares the moving average's gain.
    assert calls["irfft"] <= 3
    assert calls["rfft"] <= 4
    assert calls["convolve"] <= 2


@pytest.mark.parametrize("extension", list(PAD_MODE))
@pytest.mark.parametrize("n", [300, 1000, 3000])
def test_constant_signal_leaves_exact_zeros(extension, n):
    # The moving average reproduces a constant exactly, so one iteration
    # leaves zeros and the next stops on den == 0. The constant's transform
    # is not exactly one mode, so a scan started from it would follow noise.
    x = np.full(n, 3.0)
    cfg = IFSettings(extension=extension)
    imf, iterations, reason = if_extract(Signal(x), 9, cfg)
    assert reference_extract(x, 9, cfg)[1:] == (2, StopReason.DELTA_REACHED)
    assert (iterations, reason) == (2, StopReason.DELTA_REACHED)
    assert np.all(imf.samples == 0.0)


# A periodic scan whose ratio stays above delta up to max_inner skips its
# tests (iterfilt._periodic_cannot_stop). The skip rests on the ratio not
# rising from one iteration to the next and on np.power matching the
# scan's sequential products; the tests below check both, and that the
# skip leaves every result bit for bit as the scan gives it.


def periodic_energy(x, l):
    """The scan's mode energies of x and the mask's gain on len(x) points."""
    n = x.size
    spec = np.fft.rfft(x)
    weight = np.full(spec.size, 2.0 / n)
    weight[0] = 1.0 / n
    if n % 2 == 0:
        weight[-1] = 1.0 / n
    return weight * np.abs(spec) ** 2, mask_gain(make_mask(l), n)


def scan_ratios2(energy, g, steps):
    """(num^2, den^2) of the ratio tested at each of ``steps`` iterations,
    by the scan's sequential products."""
    energy, h2 = energy.copy(), (1.0 - g) ** 2
    out = []
    for _ in range(steps):
        out.append((float(np.sum(energy * g * g)), float(energy.sum())))
        energy *= h2
    return out


def reference_ratios(x, l, steps):
    """The time-domain loop's ratio num/den at each of ``steps`` iterations."""
    weights, cur, out = make_mask(l).weights, x.copy(), []
    for _ in range(steps):
        avg = np.convolve(np.pad(cur, l, mode="wrap"), weights, mode="valid")
        out.append(math.sqrt(float(np.sum(avg * avg)) / float(np.sum(cur * cur))))
        cur = cur - avg
    return out


def extract_without_skip(monkeypatch, x, l, cfg):
    with monkeypatch.context() as m:
        m.setattr(iterfilt, "_periodic_cannot_stop", lambda *args: False)
        return if_extract(Signal(x), l, cfg)


def record_skip_decisions(monkeypatch):
    """The list that each call of the skip's test appends its answer to."""
    decided, skip = [], iterfilt._periodic_cannot_stop
    monkeypatch.setattr(iterfilt, "_periodic_cannot_stop",
                        lambda *args: decided.append(skip(*args)) or decided[-1])
    return decided


def assert_same_result(a, b):
    assert (a[1], a[2]) == (b[1], b[2])
    assert np.array_equal(a[0].samples, b[0].samples)


periodic_cases = cases().filter(lambda c: c[2].extension is BoundaryExtension.PERIODIC)


@settings(max_examples=100, deadline=None)
@given(periodic_cases)
def test_periodic_ratio_does_not_rise(case):
    x, l, cfg = case
    energy, g = periodic_energy(x, l)
    assert -1e-14 <= g.min() and g.max() <= 1.0 + 1e-14
    ratios2 = [num2 / den2 for num2, den2 in scan_ratios2(energy, g, cfg.max_inner)
               if den2 > iterfilt._NORMAL_SUM]
    for before, after in zip(ratios2, ratios2[1:]):
        assert after <= before * (1.0 + 1e-12) + 1e-30


@settings(max_examples=100, deadline=None)
@given(periodic_cases)
def test_power_bound_matches_sequential_products(case):
    x, l, cfg = case
    energy, g = periodic_energy(x, l)
    (want_num2, want_den2), = scan_ratios2(energy, g, cfg.max_inner)[-1:]
    # The skip's bound: the weights at the last test by np.power.
    last = energy * np.power((1.0 - g) ** 2, cfg.max_inner - 1)
    num2, den2 = float(np.sum(last * g * g)), float(last.sum())
    if min(want_num2, want_den2) > iterfilt._NORMAL_SUM:
        want = math.sqrt(want_num2 / want_den2)
        assert abs(math.sqrt(num2 / den2) - want) <= 1e-6 * want


@settings(max_examples=100, deadline=None)
@given(cases())
def test_skip_keeps_every_bit(case):
    x, l, cfg = case
    with pytest.MonkeyPatch.context() as m:
        assert_same_result(if_extract(Signal(x), l, cfg), extract_without_skip(m, x, l, cfg))


@pytest.mark.parametrize("margin", [1e-3, 1e-9])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_ratio_crossing_delta_at_max_inner(monkeypatch, margin, offset):
    # The time-domain ratio first falls below delta at iteration 40. With
    # margin 1e-3 delta sits well below the ratio at 39, so at max_inner 39
    # the scan is skipped; with 1e-9 it sits inside the skip's 1e-6 margin,
    # so the scan runs and decides.
    rng = np.random.default_rng(40)
    n, l, crossing = 512, 12, 40
    x = rng.standard_normal(n) + 2.0 * np.cos(2 * np.pi * 9 * np.arange(n) / n)
    ratios = reference_ratios(x, l, crossing)
    assert ratios[-2] > ratios[-1] * (1 + 1e-2)
    delta = ratios[-2] * (1 - margin)
    cfg = IFSettings(delta=delta, max_inner=crossing + offset)
    decided = record_skip_decisions(monkeypatch)
    got = if_extract(Signal(x), l, cfg)
    want, want_iterations, want_reason = reference_extract(x, l, cfg)
    assert got[1:] == (min(cfg.max_inner, crossing), want_reason) == (want_iterations, want_reason)
    assert np.abs(got[0].samples - want).max() <= 1e-12 * np.abs(x).max()
    assert_same_result(got, extract_without_skip(monkeypatch, x, l, cfg))
    assert decided == [offset == -1 and margin == 1e-3]


def test_weights_near_the_subnormal_range_never_decide():
    # There the scan's sequential products could flush to zero where
    # np.power does not. No input is known to get there after the unit
    # scaling, so the guard is checked on the mode energies directly.
    g = np.linspace(0.1, 0.9, 9)
    assert iterfilt._periodic_cannot_stop(np.ones(9), g, 1e-3, 20)
    assert not iterfilt._periodic_cannot_stop(np.full(9, 1e-290), g, 1e-3, 20)
