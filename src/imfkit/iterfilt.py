"""Iterative Filtering: sifting by convolution with a compact mask.

The moving average here is a convolution of the signal with an even,
nonnegative, unit-sum weight vector obtained by convolving a uniform
window with itself (a triangular mask). Self-convolution makes the mask's
DFT nonnegative, so one inner iteration scales every circular-spectrum
mode by a factor in [0, 1] and the iteration is non-expansive mode-wise.

Because the mask acts on each Fourier mode separately, k inner iterations
under periodic extension are irfft((1 - g)^k X), with g the mask's gain
(:func:`mask_gain`), and both norms of the stopping ratio follow from
Parseval. Reflection is periodic extension of the mirrored signal, so it
takes the same closed form on a grid of 2(n - 1) points. The inner loop
therefore runs without a transform per iteration (Cicone & Zhou,
"Numerical analysis for iterative filtering with new efficient
implementations based on FFT", Numer. Math. 2021). Constant extension has
no such form and keeps the loop in the time domain.

The mask half-length is derived from the spacing of the signal's extrema
and frozen for the whole extraction of one component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import (
    BoundaryExtension,
    Decomposition,
    ImfMeta,
    MaskTooLong,
    Signal,
    StopReason,
    TooFewExtrema,
    _extrema_indices,
    _sum_squares,
    _unit_scaled,
)


# np.pad modes of the extensions that pad in the time domain; periodic
# extension multiplies by the mask's gain instead.
_NP_PAD_MODE = {
    BoundaryExtension.CONSTANT: "edge",
    BoundaryExtension.REFLECTION: "reflect",
}


class MaskLengthRule(Enum):
    """How the mask half-length is derived from extrema spacings."""

    FIXED0 = "fixed0"  # xi times the minimum spacing
    FIXED1 = "fixed1"  # xi times the maximum spacing
    AVE = "ave"  # round(2 * xi * length / extrema count)
    ALMOST_MIN = "almost_min"  # round(2 * xi * 30th percentile of spacings)


@dataclass(frozen=True)
class MaskFunction:
    """Even, nonnegative filter weights with unit sum on 2*half_length+1 points."""

    weights: np.ndarray
    half_length: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.size != 2 * self.half_length + 1:
            raise ValueError("weights must have 2*half_length+1 entries")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.array_equal(w, w[::-1]):
            raise ValueError("weights must be even-symmetric")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class IFSettings:
    """Tuning knobs for :func:`iterative_filtering`.

    ``delta`` stops the inner loop once the moving-average-to-signal norm
    ratio falls below it; ``ext_points`` is the minimum extrema count for
    the outer loop to keep extracting; ``xi`` scales the mask length
    (suggested range [1.1, 3]). ``mask_lengths`` fixes the mask half-lengths
    of the first components, one each; ``()`` leaves them all to ``alpha``.
    """

    delta: float = 0.001
    ext_points: int = 3
    n_imfs: int = 1
    extension: BoundaryExtension = BoundaryExtension.PERIODIC
    max_inner: int = 200
    alpha: MaskLengthRule = MaskLengthRule.AVE
    xi: float = 1.6
    mask_lengths: tuple[int, ...] = ()

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError("delta must be positive")
        if self.ext_points < 2:
            raise ValueError("ext_points must be >= 2")
        if self.n_imfs < 1:
            raise ValueError("n_imfs must be >= 1")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if not (self.xi > 0):
            raise ValueError("xi must be positive")
        lengths = tuple(int(v) for v in self.mask_lengths)
        if any(v < 1 for v in lengths):
            raise ValueError("mask lengths must be positive")
        object.__setattr__(self, "mask_lengths", lengths)


def make_mask(l: int) -> MaskFunction:
    """Triangular mask: a uniform window of l+1 points convolved with itself.

    Computed in closed form, (l+1 - |j|)/(l+1)^2 for j = -l..l, so the
    even symmetry is exact. The weights are nonnegative with unit sum and
    a nonnegative DFT (a Fejer kernel in frequency).
    """
    if l < 1:
        raise ValueError("mask half-length must be >= 1")
    tri = (l + 1) - np.abs(np.arange(-l, l + 1))
    return MaskFunction(weights=tri / float((l + 1) ** 2), half_length=l)


def _round_half_up(v: float) -> int:
    # "roundoff value" with halves away from zero; v is always positive here.
    return int(np.floor(v + 0.5))


def _mask_length_arr(n: int, cfg: IFSettings, *extrema: np.ndarray) -> int:
    merged = np.sort(np.concatenate(extrema))
    if merged.size < 2:
        raise TooFewExtrema(
            f"mask length needs >= 2 extrema, found {merged.size}"
        )
    spacing = np.diff(merged)
    if cfg.alpha is MaskLengthRule.FIXED0:
        raw = cfg.xi * float(spacing.min())
    elif cfg.alpha is MaskLengthRule.FIXED1:
        raw = cfg.xi * float(spacing.max())
    elif cfg.alpha is MaskLengthRule.AVE:
        raw = 2.0 * cfg.xi * n / merged.size
    else:  # ALMOST_MIN
        raw = 2.0 * cfg.xi * float(np.percentile(spacing, 30))
    return min(max(_round_half_up(raw), 1), (n - 1) // 2)


def mask_length(s: Signal, cfg: IFSettings | None = None) -> int:
    """Mask half-length for a signal under the configured rule.

    The result is clamped to [1, (n-1)//2] so the mask always fits the
    signal.

    Raises
    ------
    TooFewExtrema
        If the signal has fewer than two extrema.
    """
    cfg = cfg if cfg is not None else IFSettings()
    return _mask_length_arr(len(s), cfg, *_extrema_indices(s.samples))


def _circular_embed(weights: np.ndarray, l: int, n: int) -> np.ndarray:
    """Place centered weights on an n-point circular grid (wrapping overlaps)."""
    wpad = np.zeros(n)
    np.add.at(wpad, np.arange(-l, l + 1) % n, weights)
    return wpad


def mask_gain(mask: MaskFunction, n: int) -> np.ndarray:
    """Per-mode DFT gain of the mask on an n-point circular grid.

    Returns the rfft-bin gains; one inner filtering iteration under
    periodic extension multiplies mode k by (1 - gain[k]).
    """
    wpad = _circular_embed(mask.weights, mask.half_length, n)
    return np.fft.rfft(wpad).real


def _mask_operator(
    mask: MaskFunction, n: int, extension: BoundaryExtension
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray | None]:
    """The moving average x -> M(x) for n-sample signals, and its gain.

    The mask's transform (or its weights and padding mode) is prepared
    once, so a loop that applies the same mask pays for it only once. The
    gain is :func:`mask_gain` on n points under periodic extension, where
    M multiplies by it, and None otherwise.
    """
    l = mask.half_length
    if l >= n:
        raise MaskTooLong(f"mask half-length {l} must be < signal length {n}")
    if extension is BoundaryExtension.PERIODIC:
        gain = mask_gain(mask, n)
        return (lambda x: np.fft.irfft(np.fft.rfft(x) * gain, n)), gain
    weights, mode = mask.weights, _NP_PAD_MODE[extension]
    return (lambda x: np.convolve(np.pad(x, l, mode=mode), weights, mode="valid")), None


def moving_average(s: Signal, w: MaskFunction, ext: BoundaryExtension) -> Signal:
    """Convolve the boundary-extended signal with the mask weights.

    Periodic extension multiplies the signal's rfft by :func:`mask_gain`
    (a circular convolution); reflection and constant extension pad the
    signal and take the direct sum over the mask.
    """
    average, _ = _mask_operator(w, len(s), ext)
    return s.with_samples(average(s.samples))


def _if_extract_loop(
    cur: np.ndarray,
    average: Callable[[np.ndarray], np.ndarray],
    delta: float,
    steps: int,
) -> tuple[np.ndarray, int, StopReason]:
    """Up to ``steps`` iterations in the time domain: cur <- cur - M(cur)."""
    iterations = 0
    reason = StopReason.MAX_INNER_REACHED
    for it in range(1, steps + 1):
        avg = average(cur)
        num = math.sqrt(_sum_squares(avg))
        den = math.sqrt(_sum_squares(cur))
        cur -= avg
        iterations = it
        if den == 0.0 or num < delta * den:
            reason = StopReason.DELTA_REACHED
            break
    return cur, iterations, reason


# Weight sums above this hold a mode far from the subnormal range.
_NORMAL_SUM = math.sqrt(np.finfo(np.float64).tiny)


def _periodic_cannot_stop(energy: np.ndarray, g: np.ndarray, delta: float, k: int) -> bool:
    """Whether no test of the periodic scan, from the current one to the one
    k iterations later, can find the ratio below ``delta``.

    The squared ratio after i iterations is the mean of g^2 over the modes,
    weighted by ``energy * h^(2i)`` with h = 1 - g. Each iteration tilts the
    weights by h^2, which falls as g rises while g^2 rises, so for g in
    [0, 1] the mean cannot increase (Chebyshev's sum inequality), and the
    last test decides. Its weights are taken by ``np.power``, and it is
    compared with a 1e-6 relative margin above ``delta``, far above the
    rounding of the gain (g lies in [-eps, 1 + eps]) and the difference
    between ``np.power`` and the scan's sequential products and sums. A
    weight sum near the subnormal range, where the scan's products could
    flush to zero, never decides.
    """
    last = energy * np.power((1.0 - g) ** 2, k)
    num2, den2 = float(np.einsum("i,i->", last, g * g)), float(last.sum())
    return den2 > _NORMAL_SUM and math.sqrt(num2) > delta * (1.0 + 1e-6) * math.sqrt(den2)


def _if_extract_spectral(
    cur: np.ndarray,
    g: np.ndarray,
    extension: BoundaryExtension,
    average: Callable[[np.ndarray], np.ndarray],
    delta: float,
    steps: int,
) -> tuple[np.ndarray, int, StopReason]:
    """Up to ``steps`` iterations in closed form, for periodic and reflection.

    On a periodic grid of N points one iteration multiplies rfft mode j by
    h_j = 1 - g_j, so by Parseval both squared stopping norms after k
    iterations are weighted sums of |X_j|^2 h_j^(2k). Reflection is the
    even extension of period N = 2(n-1); its squared norms over the n
    original samples are (squared norm over N + first^2 + last^2) / 2, and
    the two end samples are sums over the modes too. The stop index comes
    from a scan over vectors of N//2+1 entries, and the result from one
    inverse transform and one step of the moving average itself. ``g`` is
    the mask's gain (:func:`mask_gain`) on the N-point grid. A periodic
    scan whose ratio cannot fall below ``delta`` in time
    (:func:`_periodic_cannot_stop`) skips its tests and forms only the
    decay.
    """
    n = cur.size
    reflect = extension is BoundaryExtension.REFLECTION
    ext = np.concatenate([cur, cur[-2:0:-1]]) if reflect else cur
    period = ext.size
    spec = np.fft.rfft(ext)
    h = 1.0 - g
    # One-sided rfft weights over N: sum(ext**2) == sum(weight * |spec|**2).
    weight = np.full(g.size, 2.0 / period)
    weight[0] = 1.0 / period
    if period % 2 == 0:
        weight[-1] = 1.0 / period
    # Mode energies of the current iterate, and its decay h^(iterations-1).
    energy = weight * (spec.real * spec.real + spec.imag * spec.imag)
    decay = np.ones_like(g)
    g2, h2 = g * g, h * h
    if reflect:
        # ext[0] and ext[n-1] = ext[period/2] as sums over the modes.
        first = weight * spec.real
        last = first.copy()
        last[1::2] *= -1.0
        ends = np.stack([first, last, first * g, last * g])
    iterations = 0
    reason = StopReason.MAX_INNER_REACHED
    if not reflect and _periodic_cannot_stop(energy, g, delta, steps - 1):
        # The scan would run to its end; build its decay, h^(steps-1), by
        # the same sequence of products, so the IMF keeps its bits.
        for _ in range(steps - 1):
            decay *= h
        iterations = steps
    while iterations < steps:
        iterations += 1
        den2 = float(energy.sum())
        num2 = float(np.einsum("i,i->", energy, g2))
        if reflect:
            first0, last0, first1, last1 = np.einsum("ij,j->i", ends, decay)
            den2 = (den2 + first0 * first0 + last0 * last0) / 2.0
            num2 = (num2 + first1 * first1 + last1 * last1) / 2.0
        num = math.sqrt(num2)
        den = math.sqrt(den2)
        if den == 0.0 or num < delta * den:
            reason = StopReason.DELTA_REACHED
            break
        if iterations == steps:
            break
        energy *= h2
        decay *= h
    if iterations > 1:
        cur = np.fft.irfft(spec * decay, period)[:n]
    return cur - average(cur), iterations, reason


def _if_extract_arr(
    x: np.ndarray,
    mask: MaskFunction,
    cfg: IFSettings,
) -> tuple[np.ndarray, int, StopReason]:
    cur, exp = _unit_scaled(x)  # keeps the stopping ratio scale-invariant
    if _sum_squares(cur) == 0.0:
        # 0/0 ratio convention: an identically zero signal is converged.
        return cur, 0, StopReason.DELTA_REACHED
    average, gain = _mask_operator(mask, cur.size, cfg.extension)
    # Edge padding is not a periodic extension, so constant extension has
    # no mode-wise form and iterates in the time domain throughout. The
    # others take their first iteration there too: a signal the average
    # reproduces exactly (a constant) then leaves exact zeros, where the
    # rounding of its transform would leave noise for the scan to follow.
    steps = cfg.max_inner if cfg.extension is BoundaryExtension.CONSTANT else 1
    cur, iterations, reason = _if_extract_loop(cur, average, cfg.delta, steps)
    if reason is StopReason.MAX_INNER_REACHED and iterations < cfg.max_inner:
        if gain is None:  # reflection: the gain on the mirrored period 2(n - 1)
            gain = mask_gain(mask, 2 * (cur.size - 1))
        cur, more, reason = _if_extract_spectral(
            cur, gain, cfg.extension, average, cfg.delta, cfg.max_inner - iterations
        )
        iterations += more
    return np.ldexp(cur, exp), iterations, reason


def if_extract(
    s: Signal, l: int, cfg: IFSettings | None = None
) -> tuple[Signal, int, StopReason]:
    """Extract one component with a frozen mask of half-length ``l``.

    Repeats ``s <- s - M(s)`` with the same mask until the ratio
    ||M(s)|| / ||s|| drops below ``cfg.delta`` or ``cfg.max_inner``
    subtractions were performed.

    Under periodic and reflection extension the repetition is evaluated in
    closed form: k subtractions multiply rfft mode j of the (mirrored)
    signal by (1 - g_j)^k, so the stop index is found from the mode
    energies and the component costs a fixed number of transforms,
    whatever ``cfg.max_inner`` is. The first and the last subtraction go
    through :func:`moving_average` itself. Constant extension has no
    mode-wise form and subtracts in the time domain.

    Returns
    -------
    (imf, iterations, stop_reason)
    """
    cfg = cfg if cfg is not None else IFSettings()
    imf, iterations, reason = _if_extract_arr(s.samples, make_mask(l), cfg)
    return s.with_samples(imf), iterations, reason


def iterative_filtering(s: Signal, cfg: IFSettings | None = None) -> Decomposition:
    """Decompose a signal by iterative filtering.

    Per component: take the next value of ``cfg.mask_lengths`` or, once
    those run out, derive the mask half-length from the spacing of the
    remainder's extrema, extract with that frozen mask, and subtract.
    Stops once the remainder has fewer than ``cfg.ext_points`` extrema or
    ``cfg.n_imfs`` components were extracted. Each component's mask
    half-length is recorded in the decomposition metadata. Every mask is
    the triangular self-convolution mask of :func:`make_mask`.
    """
    cfg = cfg if cfg is not None else IFSettings()
    x = s.samples.astype(np.float64, copy=True)
    imfs: list[np.ndarray] = []
    meta: list[ImfMeta] = []
    while len(imfs) < cfg.n_imfs:
        idx_max, idx_min = _extrema_indices(x)
        if idx_max.size + idx_min.size < cfg.ext_points:
            break
        if len(imfs) < len(cfg.mask_lengths):
            l = cfg.mask_lengths[len(imfs)]
        else:
            l = _mask_length_arr(x.size, cfg, idx_max, idx_min)
        imf, iterations, reason = _if_extract_arr(x, make_mask(l), cfg)
        imfs.append(imf)
        meta.append(
            ImfMeta(inner_iterations=iterations, stop_reason=reason, mask_half_length=l)
        )
        x = x - imf
    return Decomposition(
        imfs=tuple(s.with_samples(v) for v in imfs),
        residual=s.with_samples(x),
        meta=tuple(meta),
    )
