"""Instantaneous frequency estimation and time-frequency spectra.

Two estimators are provided: the analytic-signal route (Hilbert transform,
phase derivative) and a purely local derivative-based route using the
second difference of the signal. Per-component traces are deposited into a
time-frequency amplitude grid, which keeps only its nonzero cells: at most
one per component and time sample, however many frequency bins it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Decomposition,
    Signal,
    _extrema_indices,
    _natural_spline,
    _unit_scaled,
)

BOUNDARY_FRACTION = 0.05
AMPLITUDE_FLOOR = 1e-8
# The fewest samples either estimator traces.
MIN_IF_SAMPLES = 8


@dataclass(frozen=True)
class IFTrace:
    """Amplitude and instantaneous-frequency traces with a validity mask.

    ``valid_mask`` is False where the estimate is boundary-contaminated or
    the amplitude is too small for the phase to mean anything.
    """

    amplitude: Signal
    frequency: Signal
    valid_mask: np.ndarray

    def __post_init__(self):
        if not (len(self.amplitude) == len(self.frequency) == self.valid_mask.size):
            raise ValueError("trace fields must have equal length")
        if np.any(self.amplitude.samples < 0):
            raise ValueError("amplitude must be nonnegative")
        mask = np.asarray(self.valid_mask, dtype=bool).copy()
        mask.flags.writeable = False
        object.__setattr__(self, "valid_mask", mask)


@dataclass(frozen=True)
class TimeFrequencyGrid:
    """Time x frequency amplitude grid with its axes, stored as its cells.

    ``freqs`` holds the nbins+1 ascending bin edges in cycles per time
    unit. The mass deposited at time ``times[rows[k]]`` into frequency bin
    ``bins[k]`` is ``values[k]``; every other cell of the grid is zero. The
    cells are distinct and in row-major order, so a grid costs memory in
    proportion to its cells (at most one per IMF and time sample), not to
    len(times) x nbins. The dense :attr:`amplitude` matrix, len(times) x
    nbins x 8 bytes, is kept for the benchmark's span tracer.
    """

    times: np.ndarray
    freqs: np.ndarray
    rows: np.ndarray
    bins: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        bins = np.asarray(self.bins, dtype=np.intp)
        values = np.asarray(self.values, dtype=np.float64)
        if not (rows.ndim == 1 and rows.shape == bins.shape == values.shape):
            raise ValueError("rows, bins and values must be 1-D of equal length")
        nbins = self.freqs.size - 1
        key = rows * nbins + bins  # strictly increasing: distinct, row-major
        if rows.size and not (
            0 <= rows[0] and rows[-1] < self.times.size
            and 0 <= bins.min() and bins.max() < nbins
            and np.all(key[1:] > key[:-1])
        ):
            raise ValueError("cells must be distinct, in range and in row-major order")
        if np.any(values < 0):
            raise ValueError("grid amplitudes must be nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "values", values)

    @property
    def amplitude(self) -> np.ndarray:
        """The dense (len(times), nbins) matrix, built anew on every access."""
        a = np.zeros((self.times.size, self.freqs.size - 1))
        a[self.rows, self.bins] = self.values
        return a


def _edge_len(n: int) -> int:
    """Samples in each boundary band of n: ceil(BOUNDARY_FRACTION * n), at least 1."""
    return max(1, int(np.ceil(BOUNDARY_FRACTION * n)))


def _analytic_arr(x: np.ndarray) -> np.ndarray:
    """One-sided-spectrum analytic signal of x, without edge extension.

    The real part is x itself. The imaginary part is the discrete Hilbert
    transform, taken by one real-input transform pair: the half spectrum
    is multiplied by -i, with the DC bin, and for even lengths the Nyquist
    bin, set to zero. This equals zeroing the negative-frequency bins of
    the full spectrum and doubling the positive ones, without computing
    the negative half.
    """
    spec = np.fft.rfft(x)
    spec *= -1j
    # numpy's irfft drops these bins' imaginary parts; zeroing them says so.
    spec[0] = 0.0
    if x.size % 2 == 0:
        spec[-1] = 0.0
    z = np.empty(x.size, dtype=np.complex128)
    z.real = x
    z.imag = np.fft.irfft(spec, x.size)
    return z


# Passes of the tone continuation, a fixed count rather than iterated to
# convergence. On the linear chirp of criterion 08a one pass is 3.2% off,
# two 1.4% and three 1.0%; each pass costs two transforms of ~2n points.
_TONE_PASSES = 2


def _left_tone(x: np.ndarray, z: np.ndarray, ext: int) -> np.ndarray:
    """ext samples continuing x to the left with the tone at its first edge.

    The tone's frequency, in radians per sample, is read from ``z``, the
    current analytic signal of x: the centred difference of its unwrapped
    phase over the 5-15% window, fitted by a line evaluated at sample 0,
    floored at 1e-6; ``z`` may hold just the first 3 * _edge_len(n) + 1
    samples, the ones read. Its amplitude and phase,
    ``c*cos(w*k) + s*sin(w*k)``, are fitted by least squares to the first
    min(64, n // 2) samples.
    """
    n = x.size
    lo = _edge_len(n)
    k = np.arange(lo, 3 * lo)
    phase = np.unwrap(np.angle(z[: 3 * lo + 1]))
    _, w = np.polyfit(k, 0.5 * (phase[k + 1] - phase[k - 1]), 1)
    w = max(w, 1e-6)
    k = np.arange(min(64, n // 2))
    basis = np.column_stack([np.cos(w * k), np.sin(w * k)])
    (c, s), *_ = np.linalg.lstsq(basis, x[: k.size], rcond=None)
    k = np.arange(-ext, 0)
    return c * np.cos(w * k) + s * np.sin(w * k)


def _stabilized_analytic_arr(x: np.ndarray) -> np.ndarray:
    """Analytic signal with boundary-stabilizing signal extension.

    The FFT construction assumes periodicity, and the seam between the
    last and first samples contaminates the whole window for signals that
    do not wrap smoothly. Starting from the plain transform, each of
    ``_TONE_PASSES`` passes continues both ends by n // 2 samples of the
    tone at that edge (see ``_left_tone``; the right end is the left end of
    the reversed signal, whose analytic signal is the conjugate reversed),
    cosine-tapered to zero over the extension, and transforms the extended
    signal. Only the original window is kept, whose real part is x itself.
    The caller scales x to a peak in [0.5, 1), so no transform overflows.
    """
    n = x.size
    z = _analytic_arr(x)
    if n < 16 or not np.any(x):
        return z
    ext = n // 2
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(ext) / ext)
    head = 3 * _edge_len(n) + 1  # the samples of z that _left_tone reads
    for _ in range(_TONE_PASSES):
        left = _left_tone(x, z, ext)
        right = _left_tone(x[::-1], z[::-1][:head].conj(), ext)[::-1]
        xe = np.concatenate([left * ramp, x, right * ramp[::-1]])
        z = _analytic_arr(xe)[ext : ext + n]
    return z


def _base_valid_mask(amplitude: np.ndarray) -> np.ndarray:
    n = amplitude.size
    valid = np.ones(n, dtype=bool)
    edge = _edge_len(n)
    valid[:edge] = False
    valid[n - edge :] = False
    peak = float(amplitude.max())
    if peak == 0.0:
        valid[:] = False
    else:
        valid &= amplitude >= AMPLITUDE_FLOOR * peak
    return valid


def _trace(s: Signal, amplitude: np.ndarray, freq: np.ndarray) -> IFTrace:
    """The trace of s with these samples, masked by ``_base_valid_mask``."""
    return IFTrace(
        amplitude=s.with_samples(amplitude),
        frequency=s.with_samples(freq),
        valid_mask=_base_valid_mask(amplitude),
    )


def hilbert_if(s: Signal) -> IFTrace:
    """Instantaneous frequency from the analytic-signal phase.

    Amplitude is the analytic modulus; frequency is the centered finite
    difference of the unwrapped phase divided by 2*pi*dt (one-sided at the
    ends). Samples in the outer ``BOUNDARY_FRACTION`` of the signal or with
    amplitude below ``AMPLITUDE_FLOOR`` times the peak are flagged invalid.

    The analytic signal is computed on a copy of the signal extended at
    both ends by the tone at each edge, in two passes (see
    ``_stabilized_analytic_arr``), which suppresses the periodic-seam
    leakage of the plain FFT construction (``_analytic_arr``). Both take
    the Hilbert transform by one real-input FFT pair; below 16 samples, or
    for an all-zero signal, the plain one is used. The transforms run on
    the signal scaled by a power of two to a peak in [0.5, 1), so they
    cannot overflow for any finite input.
    """
    if len(s) < MIN_IF_SAMPLES:
        raise ValueError(
            f"instantaneous frequency needs at least {MIN_IF_SAMPLES} samples"
        )
    x, exp = _unit_scaled(s.samples)  # exact: the phase keeps every bit
    z = _stabilized_analytic_arr(x)
    amplitude = np.ldexp(np.abs(z), exp)
    phase = np.unwrap(np.angle(z))
    n = phase.size
    freq = np.empty(n)
    freq[1:-1] = (phase[2:] - phase[:-2]) / (4.0 * np.pi * s.dt)
    freq[0] = (phase[1] - phase[0]) / (2.0 * np.pi * s.dt)
    freq[-1] = (phase[-1] - phase[-2]) / (2.0 * np.pi * s.dt)
    return _trace(s, amplitude, freq)


def _abs_envelope(x: np.ndarray) -> np.ndarray:
    """Envelope of |x| through its local maxima (natural cubic spline).

    The spline is :func:`imfkit.core._natural_spline`, bit-identical to
    scipy's ``CubicSpline(..., bc_type="natural")`` on the sample grid.
    """
    absx = np.abs(x)
    idx_max, _ = _extrema_indices(absx)
    # Endpoints are included as knots so the spline covers the full grid.
    pos = np.concatenate([[0], idx_max, [absx.size - 1]]).astype(np.float64)
    val = np.concatenate([[absx[0]], absx[idx_max], [absx[-1]]])
    env = _natural_spline(pos, val, absx.size)
    return np.maximum(env, 0.0)


def derivative_if(s: Signal) -> IFTrace:
    """Purely local instantaneous frequency from the second difference.

    For a narrowband component, s'' ~ -(2*pi*f)^2 * s, so
    f = sqrt(max(0, -s''/s)) / (2*pi) wherever |s| exceeds 1e-3 of its
    peak; samples near zero crossings are filled by linear interpolation
    from the nearest estimated neighbors. Amplitude is the spline envelope
    of |s| through its local maxima. Samples are flagged invalid as by
    :func:`hilbert_if`.

    The raw ratio is ill-conditioned close to zero crossings (a slowly
    varying envelope contributes a term proportional to cot of the phase),
    so only samples where |s| reaches at least half the local envelope
    anchor the estimate; there the envelope-induced error is second order.
    """
    if len(s) < MIN_IF_SAMPLES:
        raise ValueError(
            f"instantaneous frequency needs at least {MIN_IF_SAMPLES} samples"
        )
    x = s.samples
    n = x.size
    peak = float(np.abs(x).max())
    if peak == 0.0:
        return _trace(s, np.zeros(n), np.zeros(n))
    amplitude = _abs_envelope(x)
    d2 = np.zeros(n)
    d2[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (s.dt * s.dt)
    defined = np.abs(x) > 1e-3 * peak
    defined[0] = defined[-1] = False  # no centered second difference at the ends
    anchored = defined & (np.abs(x) >= 0.5 * amplitude)
    ok = anchored if anchored.any() else defined
    ratio = np.zeros(n)
    np.divide(-d2, x, out=ratio, where=ok)
    est = np.sqrt(np.maximum(ratio, 0.0)) / (2.0 * np.pi)
    idx_ok = np.flatnonzero(ok)
    if idx_ok.size == 0:
        freq = np.zeros(n)
    else:
        freq = np.interp(np.arange(n), idx_ok, est[idx_ok])
    return _trace(s, amplitude, freq)


_ESTIMATORS = {"hilbert": hilbert_if, "derivative": derivative_if}


def _bin_edges(dt: float, nbins: int) -> np.ndarray:
    """The nbins+1 uniform frequency-bin edges over [0, 1/(2*dt)]."""
    return np.linspace(0.0, 0.5 / dt, nbins + 1)


def hilbert_spectrum(
    d: Decomposition,
    nbins: int,
    estimator: str = "hilbert",
    weight: str = "amplitude",
    *,
    traces: Sequence[IFTrace] | None = None,
) -> TimeFrequencyGrid:
    """Time-frequency grid built from a decomposition's IF traces.

    For every IMF and every valid sample, the trace amplitude (or squared
    amplitude with ``weight="energy"``) is deposited into the frequency
    bin containing the instantaneous frequency. Bin edges span
    [0, 1/(2*dt)] uniformly; out-of-range frequencies are clipped into the
    end bins so the deposited mass is conserved. The grid holds only the
    cells that received mass, so it takes memory in proportion to IMFs x
    samples, whatever ``nbins`` is. A decomposition with no IMFs gives a
    grid with no cells.

    ``traces``, when given, holds one already computed trace per IMF, in
    IMF order (for example the ``estimator``'s output); the estimator is
    then not run again.
    """
    if nbins < 1:
        raise ValueError("nbins must be >= 1")
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if weight not in ("amplitude", "energy"):
        raise ValueError(f"unknown weight {weight!r}")
    ref = d.residual
    n = len(ref)
    if traces is None:
        traces = map(_ESTIMATORS[estimator], d.imfs)
    elif len(traces) != len(d.imfs) or any(len(t.frequency) != n for t in traces):
        raise ValueError("traces must hold one trace per IMF, each of the IMF length")
    edges = _bin_edges(ref.dt, nbins)
    if not d.imfs:
        return TimeFrequencyGrid(ref.times, edges, [], [], [])
    fmax = edges[-1]
    keys, masses = [], []  # per IMF: row * nbins + bin and mass of each valid sample
    for trace in traces:
        mass = trace.amplitude.samples
        if weight == "energy":
            mass = mass * mass
        bins = np.floor(trace.frequency.samples / fmax * nbins).astype(np.int64)
        np.clip(bins, 0, nbins - 1, out=bins)
        v = trace.valid_mask
        keys.append(np.flatnonzero(v) * nbins + bins[v])
        masses.append(mass[v])
    # A cell hit by several IMFs sums their masses in IMF order from 0.0,
    # as np.add.at into a zeroed dense grid, one IMF after another, would.
    cells, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    values = np.zeros(cells.size)
    np.add.at(values, inverse, np.concatenate(masses))
    rows, bins = np.divmod(cells, nbins)
    return TimeFrequencyGrid(ref.times, edges, rows, bins, values)
