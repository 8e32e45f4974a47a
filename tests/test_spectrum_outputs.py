"""The spectrum heat map and spectrum.csv: exact bytes at bounded cost.

``render_spectrum_svg`` must draw exactly what a plain per-cell loop draws;
that loop is kept below as the oracle. ``_write_spectrum_csv`` must write
a wide grid without memory that grows with the square of its bin count.
"""

import tracemalloc

import numpy as np
import pytest

from imfkit.csvio import _format_column, _write_spectrum_csv
from imfkit.specfreq import TimeFrequencyGrid
from imfkit.svgplot import _fmt, render_spectrum_svg

_STOPS = np.array([[255, 255, 255], [245, 166, 35], [122, 11, 11]], dtype=float)


def _color(v):
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(_STOPS) - 1)
    i = min(int(pos), len(_STOPS) - 2)
    frac = pos - i
    rgb = (1 - frac) * _STOPS[i] + frac * _STOPS[i + 1]
    return "#%02x%02x%02x" % tuple(int(round(c)) for c in rgb)


def _pool_columns(a, max_cols):
    n = a.shape[0]
    if n <= max_cols:
        return a
    edges = np.linspace(0, n, max_cols + 1).astype(int)
    return np.stack([a[s:e].max(axis=0) for s, e in zip(edges[:-1], edges[1:])])


def oracle_svg(grid):
    """The heat map drawn one cell at a time."""
    pooled = _pool_columns(grid.amplitude, 256)
    ncols, nbins = pooled.shape
    w, h = 900 - 70 - 20, 420
    peak = float(pooled.max()) or 1.0
    cell_w = w / ncols
    cell_h = h / nbins
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="900" height="{h + 70}" viewBox="0 0 900 {h + 70}">',
        f'<rect width="900" height="{h + 70}" fill="#ffffff"/>',
    ]
    for i in range(ncols):
        x = 70 + i * cell_w
        for j in range(nbins):
            v = pooled[i, j] / peak
            if v <= 0:
                continue
            y = 20 + h - (j + 1) * cell_h
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w + 0.5)}" '
                f'height="{_fmt(cell_h + 0.5)}" fill="{_color(v)}"/>'
            )
    t0, t1 = float(grid.times[0]), float(grid.times[-1])
    f0, f1 = float(grid.freqs[0]), float(grid.freqs[-1])
    parts += [
        f'<rect x="70" y="20" width="{w}" height="{h}" fill="none" stroke="#444444"/>',
        f'<text x="70" y="{20 + h + 16}" font-size="11" '
        f'font-family="monospace">t = [{_fmt(t0)}, {_fmt(t1)}]</text>',
        f'<text x="4" y="32" font-size="11" font-family="monospace">f = {_fmt(f1)}</text>',
        f'<text x="4" y="{20 + h}" font-size="11" '
        f'font-family="monospace">f = {_fmt(f0)}</text>',
        f'<text x="70" y="{20 + h + 34}" font-size="10" '
        f'font-family="monospace">amplitude 0..{_fmt(peak)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def assert_same_svg(grid):
    """render_spectrum_svg(grid) equals the oracle; returns the SVG text."""
    got, want = render_spectrum_svg(grid), oracle_svg(grid)
    if got != want:  # report one line: pytest's diff of long texts is slow
        lines = zip(got.splitlines(), want.splitlines())
        first = next((p for p in lines if p[0] != p[1]), "one is a prefix of the other")
        raise AssertionError(f"first differing line (got, want): {first}")
    return got


def _grid(amplitude, dt=0.01):
    n, nbins = amplitude.shape
    return TimeFrequencyGrid.from_dense(
        0.5 + np.arange(n) * dt, np.linspace(0.0, 0.5 / dt, nbins + 1), amplitude
    )


def _sparse(rng, n, nbins, density=0.2):
    a = rng.random((n, nbins)) * 3.7
    a[rng.random((n, nbins)) >= density] = 0.0
    return a


@pytest.mark.parametrize(
    "n, nbins",
    [(1, 1), (40, 16), (256, 128), (257, 24), (300, 1), (4096, 32)],
)
def test_heat_map_equals_per_cell_loop(n, nbins):
    rng = np.random.default_rng(1000 * n + nbins)
    assert_same_svg(_grid(_sparse(rng, n, nbins)))


@pytest.mark.parametrize("n", [50, 700])
def test_all_zero_heat_map_equals_per_cell_loop(n):
    svg = assert_same_svg(_grid(np.zeros((n, 8))))
    assert svg.count("<rect") == 2  # background and frame only


@pytest.mark.parametrize("n", [6, 2560])
def test_colour_stops_and_ties_equal_per_cell_loop(n):
    # Shares of the peak at the colour stops (0.5, 1.0), a share of 1e-300,
    # and 0.125 and 0.75, whose blends end in .5 (round half to even).
    shares = [1.0, 0.5, 1e-300, 0.125, 0.75, 0.25]
    a = np.zeros((n, len(shares)))
    a[np.arange(len(shares)) * (n // len(shares)), np.arange(len(shares))] = shares
    a *= 2.5
    svg = assert_same_svg(_grid(a))
    assert svg.count("<rect") == 2 + len(shares)


def test_spectrum_csv_peak_memory_is_bounded(tmp_path):
    n, nbins, per_row = 64, 6000, 6
    rng = np.random.default_rng(8)
    a = np.zeros((n, nbins))
    a[np.repeat(np.arange(n), per_row), rng.integers(0, nbins, n * per_row)] = rng.random(
        n * per_row
    )
    grid = _grid(a)
    time_text = _format_column(grid.times)
    path = tmp_path / "spectrum.csv"
    tracemalloc.start()
    try:
        _write_spectrum_csv(path, grid, time_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    centers = 0.5 * (grid.freqs[:-1] + grid.freqs[1:])
    expected = [",".join(["time", *map(repr, centers.tolist())])]
    for t, row in zip(time_text, a.tolist()):
        expected.append(",".join([t, *("0.0" if v == 0 else repr(v) for v in row)]))
    assert path.read_text() == "\n".join(expected) + "\n"
    assert peak < 8e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

