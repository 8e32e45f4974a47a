"""Helpers that only the tests need: meta.txt parsing and grids from dense matrices.

A :class:`imfkit.TimeFrequencyGrid` stores only its nonzero cells; the tests
that start from a dense matrix build their grid here.
"""

from pathlib import Path

import numpy as np

from imfkit import TimeFrequencyGrid


def read_meta(path: str | Path) -> dict[str, str]:
    """Parse a meta.txt back into a key -> value-string mapping."""
    result = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            result[key.strip()] = value.strip()
    return result


def grid_from_dense(
    times: np.ndarray, freqs: np.ndarray, amplitude: np.ndarray
) -> TimeFrequencyGrid:
    """The grid of a dense (len(times), len(freqs) - 1) matrix's nonzero cells."""
    if amplitude.shape != (times.size, freqs.size - 1):
        raise ValueError("amplitude must be (len(times), len(freqs)-1)")
    rows, bins = np.nonzero(amplitude)
    return TimeFrequencyGrid(times, freqs, rows, bins, amplitude[rows, bins])
