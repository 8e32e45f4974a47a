"""The time-frequency grid stored as its cells: the same grid, less memory.

``hilbert_spectrum`` must build, cell for cell and bit for bit, the dense
grid that depositing each IMF's trace with ``np.add.at`` into a zeroed
n x nbins array builds; that construction is kept below as the oracle.
"""

import tracemalloc

import numpy as np
import pytest

from imfkit import (
    Decomposition,
    IFTrace,
    ImfMeta,
    Signal,
    StopReason,
    TimeFrequencyGrid,
    hilbert_spectrum,
)
from imfkit.csvio import _format_column, _write_spectrum_csv
from imfkit.specfreq import _ESTIMATORS

from helpers import grid_from_dense


def dense_oracle(d, nbins, traces, weight="amplitude"):
    """The grid deposited IMF by IMF into a dense zeroed array."""
    n = len(d.residual)
    fmax = np.linspace(0.0, 0.5 / d.residual.dt, nbins + 1)[-1]
    grid = np.zeros((n, nbins))
    rows = np.arange(n)
    for trace in traces:
        mass = trace.amplitude.samples
        if weight == "energy":
            mass = mass * mass
        bins = np.floor(trace.frequency.samples / fmax * nbins).astype(np.int64)
        np.clip(bins, 0, nbins - 1, out=bins)
        v = trace.valid_mask
        np.add.at(grid, (rows[v], bins[v]), mass[v])
    return grid


def decomposition(imfs, dt=0.01):
    n = len(imfs[0])
    return Decomposition(
        imfs=tuple(Signal(x, dt=dt, t0=0.5) for x in imfs),
        residual=Signal(np.zeros(n), dt=dt, t0=0.5),
        meta=tuple(ImfMeta(1, StopReason.DELTA_REACHED) for _ in imfs),
    )


def trace(d, amplitude, frequency, valid):
    ref = d.residual
    return IFTrace(
        amplitude=ref.with_samples(amplitude),
        frequency=ref.with_samples(frequency),
        valid_mask=valid,
    )


def assert_same_grid(grid, want):
    assert grid.amplitude.tobytes() == want.tobytes()  # signs of zeros included
    key = grid.rows * want.shape[1] + grid.bins
    assert np.all(np.diff(key) > 0)  # distinct cells, row-major


def crafted_traces(d, rng):
    """Coincident cells, clipped end bins, masses whose sum depends on order."""
    n = len(d.residual)
    fmax = 0.5 / d.residual.dt
    freq = rng.uniform(-0.2 * fmax, 1.2 * fmax, n)  # some clip into bins 0 and -1
    freq[:5] = [-3.0, 0.0, fmax, 2 * fmax, np.nextafter(fmax, 0.0)]
    mass = rng.random(n) * 10.0 ** rng.uniform(-8, 16, n)
    mass[5:8] = [0.0, -0.0, 1e-200]  # the last squares to 0.0 with weight="energy"
    valid = rng.random(n) < 0.8
    shifted = freq.copy()
    shifted[::3] = rng.uniform(0.0, fmax, shifted[::3].size)
    return [
        trace(d, mass, freq, valid),
        trace(d, mass[::-1].copy(), freq, np.ones(n, dtype=bool)),  # same cells
        trace(d, rng.random(n), shifted, valid | (rng.random(n) < 0.5)),
        trace(d, rng.random(n), freq, np.zeros(n, dtype=bool)),  # all invalid
        trace(d, 1e16 * np.ones(n), freq, valid),
    ]


@pytest.mark.parametrize("weight", ["amplitude", "energy"])
@pytest.mark.parametrize("n, nbins", [(200, 1), (200, 7), (1000, 64), (257, 300)])
def test_cells_equal_dense_add_at(weight, n, nbins):
    rng = np.random.default_rng(100 * n + nbins)
    d = decomposition([rng.standard_normal(n) for _ in range(5)])
    traces = crafted_traces(d, rng)
    grid = hilbert_spectrum(d, nbins=nbins, weight=weight, traces=traces)
    assert_same_grid(grid, dense_oracle(d, nbins, traces, weight))


@pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
@pytest.mark.parametrize("weight", ["amplitude", "energy"])
def test_estimated_traces_equal_dense_add_at(estimator, weight):
    rng = np.random.default_rng(7)
    n = 900
    t = np.arange(n) / 100.0
    d = decomposition(
        [
            np.sin(2 * np.pi * 9 * t) * (1 + 0.5 * t / t[-1]),
            np.sin(2 * np.pi * 9.2 * t + 1.0),  # shares cells with the first
            np.sin(2 * np.pi * 0.7 * t) + 0.01 * rng.standard_normal(n),
            np.zeros(n),  # no valid sample
        ]
    )
    traces = [_ESTIMATORS[estimator](imf) for imf in d.imfs]
    grid = hilbert_spectrum(d, nbins=40, estimator=estimator, weight=weight)
    assert_same_grid(grid, dense_oracle(d, 40, traces, weight))


def test_all_invalid_traces_give_a_grid_without_cells():
    n = 64
    d = decomposition([np.ones(n), np.ones(n)])
    traces = [trace(d, np.ones(n), np.ones(n), np.zeros(n, dtype=bool))] * 2
    grid = hilbert_spectrum(d, nbins=16, traces=traces)
    assert grid.rows.size == grid.bins.size == grid.values.size == 0
    assert grid.amplitude.shape == (n, 16) and not grid.amplitude.any()


def test_dense_constructor_keeps_nonzero_cells():
    a = np.zeros((5, 4))
    a[[0, 0, 3, 4], [3, 1, 0, 3]] = [2.0, 1.5, 1e-300, 7.0]
    grid = grid_from_dense(np.arange(5.0), np.arange(5.0), a)
    assert grid.rows.tolist() == [0, 0, 3, 4]
    assert grid.bins.tolist() == [1, 3, 0, 3]
    assert grid.values.tolist() == [1.5, 2.0, 1e-300, 7.0]
    assert np.array_equal(grid.amplitude, a)


@pytest.mark.parametrize(
    "rows, bins, values",
    [
        ([1, 0], [0, 0], [1.0, 1.0]),  # not row-major
        ([0, 0], [2, 2], [1.0, 1.0]),  # repeated cell
        ([0, 0], [2, 1], [1.0, 1.0]),  # bins out of order within a row
        ([0], [4], [1.0]),  # bin out of range
        ([5], [0], [1.0]),  # row out of range
        ([-1], [0], [1.0]),
        ([0], [0], [-1.0]),  # negative mass
        ([0, 1], [0], [1.0]),  # lengths differ
    ],
)
def test_from_cells_rejects_bad_cells(rows, bins, values):
    """The constructor, which takes a grid's cells, checks them."""
    with pytest.raises(ValueError):
        TimeFrequencyGrid(
            np.arange(5.0), np.arange(5.0), np.array(rows), np.array(bins),
            np.array(values),
        )


def test_grid_memory_grows_with_cells_not_bins():
    # 3 IMFs at 2**20 samples and 128 bins: the dense grid is 2**30 bytes.
    n, nbins = 2**20, 128
    t = np.arange(n) / 1024.0
    d = decomposition([np.zeros(n)] * 3, dt=1 / 1024)
    rng = np.random.default_rng(3)
    traces = [
        trace(d, 1.0 + rng.random(n), f + 20 * np.sin(t), np.ones(n, dtype=bool))
        for f in (300.0, 40.0, 2.0)
    ]
    tracemalloc.start()
    try:
        grid = hilbert_spectrum(d, nbins=nbins, traces=traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.values.size <= 3 * n
    assert peak < n * nbins * 8 / 4, f"tracemalloc peak {peak / 1e6:.0f} MB"


def test_wide_spectrum_csv_memory_is_one_row(tmp_path):
    # 4096 rows x 8000 bins, 6 cells per row: the text is 132 MB.
    n, nbins, per_row = 4096, 8000, 6
    rng = np.random.default_rng(9)
    bins = np.stack([np.sort(rng.choice(nbins, per_row, replace=False)) for _ in range(n)])
    bins[0, [0, -1]] = 0, nbins - 1  # no zero run before or after row 0's cells
    values = rng.random(bins.shape) * 10.0 ** rng.uniform(-5, 5, bins.shape)
    dt = 0.01
    grid = TimeFrequencyGrid(
        0.5 + np.arange(n) * dt,
        np.linspace(0.0, 0.5 / dt, nbins + 1),
        np.repeat(np.arange(n), per_row),
        bins.ravel(),
        values.ravel(),
    )
    time_text = _format_column(grid.times)
    path = tmp_path / "spectrum.csv"
    tracemalloc.start()
    try:
        _write_spectrum_csv(path, grid, time_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6, f"tracemalloc peak {peak / 1e6:.1f} MB"
    centers = 0.5 * (grid.freqs[:-1] + grid.freqs[1:])
    with path.open() as fh:
        assert next(fh) == ",".join(["time", *map(repr, centers.tolist())]) + "\n"
        for t, row_bins, row_values in zip(time_text, bins.tolist(), values.tolist()):
            cells = ["0.0"] * nbins
            for c, v in zip(row_bins, row_values):
                cells[c] = repr(v)
            assert next(fh) == ",".join([t, *cells]) + "\n"
        assert next(fh, None) is None
