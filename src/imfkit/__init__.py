"""imfkit: iterative decomposition of 1-D nonstationary signals.

Decomposes uniformly sampled time series into intrinsic mode functions
plus a residual via Empirical Mode Decomposition (cubic-spline envelope
sifting), its noise-assisted ensemble variant, and Iterative Filtering
(convolutional sifting with compactly supported masks). Instantaneous
frequency estimators and a time-frequency (Hilbert) spectrum turn the
components into a time-frequency picture of the signal.
"""

from .core import (
    BoundaryExtension,
    Decomposition,
    DecompositionError,
    ImfMeta,
    MaskTooLong,
    Signal,
    StopReason,
    TooFewExtrema,
    ZeroVarianceSignal,
    extrema,
)
from .eemd import EEMDSettings, eemd, noise_member
from .emd import EMDSettings, emd, envelope_mean, extract_imf, sift_once
from .iterfilt import (
    IFSettings,
    MaskFunction,
    MaskLengthRule,
    if_extract,
    iterative_filtering,
    make_mask,
    mask_gain,
    mask_length,
    moving_average,
)
from .specfreq import (
    IFTrace,
    TimeFrequencyGrid,
    derivative_if,
    hilbert_if,
    hilbert_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryExtension",
    "Decomposition",
    "DecompositionError",
    "EEMDSettings",
    "EMDSettings",
    "IFSettings",
    "IFTrace",
    "ImfMeta",
    "MaskFunction",
    "MaskLengthRule",
    "MaskTooLong",
    "Signal",
    "StopReason",
    "TimeFrequencyGrid",
    "TooFewExtrema",
    "ZeroVarianceSignal",
    "derivative_if",
    "eemd",
    "emd",
    "envelope_mean",
    "extract_imf",
    "extrema",
    "hilbert_if",
    "hilbert_spectrum",
    "if_extract",
    "iterative_filtering",
    "make_mask",
    "mask_gain",
    "mask_length",
    "moving_average",
    "noise_member",
    "sift_once",
]
