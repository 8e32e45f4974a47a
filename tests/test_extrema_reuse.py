"""EMD's first sift of each IMF reuses the outer loop's extrema scan when
the unit scaling was exact, and rescans when it was not, with the same bits.
IF's mask-length rule reuses the outer loop's scan of each remainder."""

import importlib

import numpy as np
import pytest

from imfkit import BoundaryExtension, EMDSettings, IFSettings, Signal, emd
from imfkit import if_extract, iterative_filtering, mask_length
from imfkit.core import _extrema_indices, _unit_scaled

# The package's ``emd`` attribute is the function, not this module.
emd_module = importlib.import_module("imfkit.emd")
if_module = importlib.import_module("imfkit.iterfilt")


def chirp(n=500):
    t = np.arange(n) / n
    x = np.sin(2 * np.pi * (3 + 30 * t) * t) + 0.4 * np.sin(2 * np.pi * 2 * t)
    return x + 0.2 * np.random.default_rng(5).standard_normal(n)


def bits(d):
    return [c.samples.view(np.int64).tolist() for c in (*d.imfs, d.residual)]


def run(monkeypatch, x, cfg, reuse):
    """emd of x, the number of extrema scans it made, with or without reuse."""
    calls = []

    def counting_scan(a):
        calls.append(a.size)
        return _extrema_indices(a)

    extract = emd_module._extract_imf_arr
    with monkeypatch.context() as m:
        m.setattr(emd_module, "_extrema_indices", counting_scan)
        if not reuse:
            m.setattr(emd_module, "_extract_imf_arr",
                      lambda x, cfg, extrema=None: extract(x, cfg))
        d = emd(Signal(x), cfg)
    return d, len(calls)


@pytest.mark.parametrize("scale", [1.0, 3e-200, 7e250])
def test_one_scan_fewer_per_imf(monkeypatch, scale):
    x = scale * chirp()
    d, scans = run(monkeypatch, x, EMDSettings(), reuse=True)
    d_rescan, rescans = run(monkeypatch, x, EMDSettings(), reuse=False)
    assert len(d.imfs) >= 3
    assert scans == rescans - len(d.imfs)
    assert bits(d) == bits(d_rescan)


def test_inexact_scaling_rescans_with_the_same_bits(monkeypatch):
    # Scaling max|x| = 2**1000 into [0.5, 1) flushes the samples near
    # 2**-1070 to zero, which turns their extrema into a plateau.
    n = 400
    x = 2.0 ** 1000 * chirp(n)
    x[n // 2 :] = 2.0 ** -1070 * np.tile([1.0, 3.0, 2.0, 5.0], n // 8)
    cur, _ = _unit_scaled(x)
    scanned, rescanned = _extrema_indices(x), _extrema_indices(cur)
    assert any(a.size != b.size for a, b in zip(scanned, rescanned))

    cfg = EMDSettings(max_imfs=3)
    d, scans = run(monkeypatch, x, cfg, reuse=True)
    d_rescan, rescans = run(monkeypatch, x, cfg, reuse=False)
    assert len(d.imfs) >= 2
    assert bits(d) == bits(d_rescan)
    assert scans > rescans - len(d.imfs)  # at least one IMF rescanned


@pytest.mark.parametrize("mode", list(BoundaryExtension), ids=lambda m: m.value)
def test_extrema_only_in_flushed_bits_end_the_decomposition(mode):
    # Two maxima and two minima, but halving the samples into [0.5, 1)
    # flushes +-5e-324 to zero, which leaves the sifted copy one maximum.
    x = np.array([0.0, 5e-324, -1.0, 0.0, -5e-324, 0.0])
    d = emd(Signal(x), EMDSettings(boundary=mode))
    assert d.imfs == ()
    assert np.array_equal(d.residual.samples, x)


def test_if_scans_each_remainder_once(monkeypatch):
    n = 8192
    t = np.arange(n) / 1024
    x = (np.sin(2 * np.pi * 0.5 * t) + 0.8 * np.sin(2 * np.pi * (2 + 5 * t) * t)
         + 0.1 * np.random.default_rng(7).standard_normal(n))
    cfg = IFSettings(n_imfs=6, xi=3.0)
    calls = []

    def counting_scan(a):
        calls.append(a.size)
        return _extrema_indices(a)

    with monkeypatch.context() as m:
        m.setattr(if_module, "_extrema_indices", counting_scan)
        d = iterative_filtering(Signal(x), cfg)
    assert len(d.imfs) == 6
    assert len(calls) == 6

    # The same components, one public step at a time.
    rest, expected = Signal(x), []
    for _ in range(6):
        imf, _, _ = if_extract(rest, mask_length(rest, cfg), cfg)
        expected.append(imf)
        rest = rest.with_samples(rest.samples - imf.samples)
    assert bits(d) == [c.samples.view(np.int64).tolist() for c in (*expected, rest)]
