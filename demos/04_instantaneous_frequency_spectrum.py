"""
Instantaneous frequency and the time-frequency picture
======================================================

Once a signal is split into near-monocomponent IMFs, each one gets an
amplitude and a frequency trace: either from the analytic signal's phase
(integral, stable) or from the local second difference (fully local,
twitchier). Depositing every valid sample's amplitude at its instantaneous
frequency builds the time-frequency spectrum.
"""

import numpy as np

from imfkit import (
    IFSettings,
    MaskLengthRule,
    Signal,
    derivative_if,
    hilbert_if,
    hilbert_spectrum,
    iterative_filtering,
)
from imfkit.svgplot import render_spectrum_svg

n = 4096
t = np.arange(n) / n

# a chirp sweeping 2 -> 12 cycles per unit
chirp = Signal(np.sin(2 * np.pi * (2 * t + 5 * t * t)), dt=1.0 / n)
trace = hilbert_if(chirp)
mid = trace.valid_mask & (t > 0.3) & (t < 0.8)
err = np.abs(trace.frequency.samples[mid] - (2 + 10 * t)[mid]) / (2 + 10 * t)[mid]
print(f"chirp frequency tracking error (middle): {err.max():.4f}")

tone = Signal(np.sin(2 * np.pi * 8 * t), dt=1.0 / n)
th, td = hilbert_if(tone), derivative_if(tone)
both = th.valid_mask & td.valid_mask
gap = np.abs(th.frequency.samples[both] - td.frequency.samples[both]).max()
print(f"estimator disagreement on an 8 Hz tone: {gap:.4f} cycles/unit")

# decompose a two-tone signal and draw its spectrum
signal = Signal(np.sin(2 * np.pi * 2 * t) + np.sin(2 * np.pi * 40 * t), dt=1.0 / n)
d = iterative_filtering(
    signal, IFSettings(n_imfs=4, xi=3.0, alpha=MaskLengthRule.AVE)
)
nbins = 128
grid = hilbert_spectrum(d, nbins=nbins)
# The grid keeps only its nonzero cells; sum them per frequency bin.
ridge = grid.freqs[np.argmax(np.bincount(grid.bins, grid.values, minlength=nbins))]
print(f"strongest ridge starts at {ridge:.1f} cycles/unit")

with open("two_tone_spectrum.svg", "w") as fh:
    fh.write(render_spectrum_svg(grid))
print("wrote two_tone_spectrum.svg")
