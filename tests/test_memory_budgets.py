"""Peak-memory budgets of whole runs, derived from what the design holds.

Each test measures the tracemalloc peak of one library run (numpy reports
its array buffers to tracemalloc) against a bound in float64s per sample or
in decompositions, so a hidden n x nbins grid or ne x K x n member stack
fails it.
"""

import tracemalloc

import numpy as np
import pytest

import imfkit as ik


def peak_of(run):
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("n", [2**12, 2**15])
def test_if_traces_and_spectrum_peak_per_sample(n):
    """IF with 6 IMFs, their Hilbert traces and a 128-bin grid: < 100 n float64s.

    The run holds arrays of n samples only, a fixed number per IMF: 7 for
    the decomposition, about 13 for six traces (amplitude, frequency and
    a valid mask each), up to 20 for one trace's analytic signal of 3n
    complex points, and about 50 while the grid gathers six IMFs' cells
    (their keys and masses, concatenated, then np.unique's sort, inverse
    and cells). That is about 70 float64s per sample, what was measured at
    2**15 and 2**17 samples. A dense 128-bin grid alone is 128 per sample.
    """
    t = np.arange(n) / n
    x = np.sin(2 * np.pi * (20 * t + 40 * t * t)) + 0.5 * np.sin(2 * np.pi * 300 * t)
    x += 0.1 * np.random.default_rng(5).standard_normal(n)
    s = ik.Signal(x, dt=1.0 / n)

    def run():
        d = ik.iterative_filtering(s, ik.IFSettings(n_imfs=6, xi=3))
        traces = [ik.hilbert_if(imf) for imf in d.imfs]
        return d, ik.hilbert_spectrum(d, nbins=128, traces=traces)

    (d, grid), peak = peak_of(run)
    assert len(d.imfs) == 6 and grid.values.size <= 6 * n
    per_sample = peak / (8 * n)
    assert per_sample < 100, f"tracemalloc peak {per_sample:.1f} float64s per sample"


def test_eemd_peak_does_not_grow_with_members():
    """eemd(threads=1) holds running sums, not its members.

    The ensemble keeps one (K + 1) x n sum and the member being reduced,
    whatever ``ne`` is, so going from 10 to 40 members may not add even
    one member's decomposition. A stack of the members would add 30.
    """
    n = 4096
    t = np.arange(n) / n
    x = np.sin(2 * np.pi * 8 * t) + 0.3 * np.sin(2 * np.pi * 90 * t)
    s = ik.Signal(x + 0.05 * np.random.default_rng(6).standard_normal(n), dt=1.0 / n)
    ik.eemd(s, ik.EEMDSettings(ne=2, seed=1))  # first-call loads and caches
    peaks = {}
    for ne in (10, 40):
        d, peaks[ne] = peak_of(lambda: ik.eemd(s, ik.EEMDSettings(ne=ne, seed=1)))
    member = (len(d.imfs) + 1) * n * 8
    growth = peaks[40] - peaks[10]
    assert growth < member, (
        f"peak grew {growth / 1e6:.2f} MB from 10 to 40 members "
        f"({peaks[10] / 1e6:.2f} -> {peaks[40] / 1e6:.2f} MB); "
        f"one member is {member / 1e6:.2f} MB"
    )
