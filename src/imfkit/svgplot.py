"""Minimal deterministic SVG emission for decompositions and spectra.

Plots are plain SVG 1.1 text (polylines and rects), so output files are
self-contained, diffable and need no rendering backend. The spectrum heat
map draws one rect per nonzero cell of its pooled grid and leaves the rest
to the white background, so its cost grows with the number of nonzero
pooled cells, not with the size of the grid.
"""

from __future__ import annotations

import numpy as np

from .core import Decomposition, Signal
from .specfreq import TimeFrequencyGrid

_WIDTH = 900
_PANEL_HEIGHT = 110
_PANEL_GAP = 14
_LEFT = 70
_RIGHT = 20
_TOP = 20
_MAX_LINE_POINTS = 1024
_MAX_HEAT_COLS = 256


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _document(height: int, body: list[str]) -> str:
    """SVG text of ``body``'s elements on a white page _WIDTH wide."""
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
        *body,
        "</svg>\n",
    ])


def _downsample_line(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bucketed min/max downsampling; preserves the drawn envelope.

    Above _MAX_LINE_POINTS samples, each of _MAX_LINE_POINTS // 2 buckets of
    consecutive samples keeps the first sample at its minimum and the first
    at its maximum (as ``np.argmin``/``np.argmax`` pick them), in index
    order. The samples are finite (``Signal`` checks), so each bucket's
    extreme equals at least one of its samples.
    """
    n = y.size
    if n <= _MAX_LINE_POINTS:
        return t, y
    edges = np.linspace(0, n, _MAX_LINE_POINTS // 2 + 1).astype(int)
    starts, counts = edges[:-1], np.diff(edges)

    def first_hits(extreme: np.ufunc) -> np.ndarray:
        hits = np.flatnonzero(y == np.repeat(extreme.reduceat(y, starts), counts))
        return hits[np.searchsorted(hits, starts)]

    lo, hi = first_hits(np.minimum), first_hits(np.maximum)
    idx = np.column_stack([np.minimum(lo, hi), np.maximum(lo, hi)]).ravel()
    return t[idx], y[idx]


def _panel_polyline(
    t: np.ndarray, y: np.ndarray, top: float, label: str
) -> list[str]:
    w = _WIDTH - _LEFT - _RIGHT
    h = _PANEL_HEIGHT
    t0, t1 = float(t[0]), float(t[-1])
    tspan = (t1 - t0) or 1.0
    ymin, ymax = float(y.min()), float(y.max())
    yspan = (ymax - ymin) or 1.0
    td, yd = _downsample_line(t, y)
    xs = _LEFT + (td - t0) / tspan * w
    ys = top + h - (yd - ymin) / yspan * h
    points = " ".join(f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, ys))
    return [
        f'<rect x="{_LEFT}" y="{_fmt(top)}" width="{w}" height="{h}" '
        'fill="none" stroke="#cccccc"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" '
        'stroke-width="1"/>',
        f'<text x="4" y="{_fmt(top + h / 2)}" font-size="12" '
        f'font-family="monospace">{label}</text>',
        f'<text x="{_LEFT}" y="{_fmt(top + h + 11)}" font-size="9" '
        f'font-family="monospace">[{_fmt(ymin)}, {_fmt(ymax)}]</text>',
    ]


def render_decomposition_svg(source: Signal, d: Decomposition) -> str:
    """Stacked line panels: input, each IMF, residual (per-panel autoscale)."""
    panels = [("input", source)]
    panels += [(f"imf{i + 1}", imf) for i, imf in enumerate(d.imfs)]
    panels.append(("residual", d.residual))
    parts = []
    top = float(_TOP)
    for label, sig in panels:
        parts.extend(_panel_polyline(sig.times, sig.samples, top, label))
        top += _PANEL_HEIGHT + _PANEL_GAP
    t = source.times
    parts.append(
        f'<text x="{_LEFT}" y="{_fmt(top + 4)}" font-size="11" '
        f'font-family="monospace">t = [{_fmt(t[0])}, {_fmt(t[-1])}]</text>'
    )
    return _document(_TOP + len(panels) * (_PANEL_HEIGHT + _PANEL_GAP) + 20, parts)


# White -> amber -> dark red, linear in normalized amplitude.
_STOPS = np.array([[255, 255, 255], [245, 166, 35], [122, 11, 11]], dtype=float)


def _colors(v: np.ndarray) -> list[str]:
    """The #rrggbb colour of each normalized amplitude in ``v``, all in (0, 1]."""
    pos = np.minimum(v, 1.0) * (len(_STOPS) - 1)
    i = np.minimum(pos.astype(np.int64), len(_STOPS) - 2)
    frac = (pos - i)[:, None]
    rgb = np.round((1 - frac) * _STOPS[i] + frac * _STOPS[i + 1]).astype(np.int64)
    codes = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    return [f"#{c:06x}" for c in codes.tolist()]


def render_spectrum_svg(grid: TimeFrequencyGrid) -> str:
    """Amplitude heat map: time on the horizontal axis, frequency vertical.

    Rows are max-pooled to at most 256 time columns; nonzero cells are drawn
    in row-major order.
    """
    n = grid.times.size
    ncols, nbins = min(n, _MAX_HEAT_COLS), grid.freqs.size - 1
    # Column i pools rows edges[i] .. edges[i + 1] - 1 (each row alone when
    # n <= ncols); only the grid's cells can raise a column above zero.
    edges = np.linspace(0, n, ncols + 1).astype(int)
    pooled = np.zeros((ncols, nbins))
    col = np.searchsorted(edges, grid.rows, side="right") - 1
    np.maximum.at(pooled, (col, grid.bins), grid.values)
    w = _WIDTH - _LEFT - _RIGHT
    h = 420
    peak = float(pooled.max()) or 1.0
    cell_w = w / ncols
    cell_h = h / nbins
    v = pooled / peak
    cols, bins = np.nonzero(v > 0)  # zero cells stay the white background
    xs = list(map(_fmt, (_LEFT + np.arange(ncols) * cell_w).tolist()))
    ys = list(map(_fmt, (_TOP + h - np.arange(1, nbins + 1) * cell_h).tolist()))
    size = f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}"'
    parts = [
        f'<rect x="{xs[i]}" y="{ys[j]}" {size} fill="{fill}"/>'
        for i, j, fill in zip(cols.tolist(), bins.tolist(), _colors(v[cols, bins]))
    ]
    t0, t1 = float(grid.times[0]), float(grid.times[-1])
    f0, f1 = float(grid.freqs[0]), float(grid.freqs[-1])
    parts.extend(
        [
            f'<rect x="{_LEFT}" y="{_TOP}" width="{w}" height="{h}" '
            'fill="none" stroke="#444444"/>',
            f'<text x="{_LEFT}" y="{_TOP + h + 16}" font-size="11" '
            f'font-family="monospace">t = [{_fmt(t0)}, {_fmt(t1)}]</text>',
            f'<text x="4" y="{_TOP + 12}" font-size="11" '
            f'font-family="monospace">f = {_fmt(f1)}</text>',
            f'<text x="4" y="{_TOP + h}" font-size="11" '
            f'font-family="monospace">f = {_fmt(f0)}</text>',
            f'<text x="{_LEFT}" y="{_TOP + h + 34}" font-size="10" '
            f'font-family="monospace">amplitude 0..{_fmt(peak)}</text>',
        ]
    )
    return _document(h + 70, parts)
