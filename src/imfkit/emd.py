"""Empirical Mode Decomposition via cubic-spline envelope sifting.

The sifting step subtracts the pointwise mean of the upper and lower
natural-cubic-spline envelopes (through the maxima and minima) from the
signal; repeating it drives the iterate toward an intrinsic mode function.
Extracted IMFs are subtracted from the signal until no oscillation is left.
The envelopes come from :func:`imfkit.core._natural_spline`, which is
bit-identical to scipy's ``CubicSpline(..., bc_type="natural")`` on the
sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryExtension,
    Decomposition,
    ImfMeta,
    Signal,
    StopReason,
    TooFewExtrema,
    _extrema_indices,
    _natural_spline,
    _sum_squares,
    _unit_scaled,
)


@dataclass(frozen=True)
class EMDSettings:
    """Tuning knobs for :func:`emd`.

    ``sd_threshold`` stops the inner sifting loop when the Cauchy-style
    ratio sum(mean^2)/sum(signal^2) drops below it; ``min_extrema`` is the
    outer-loop guard on the remainder's extrema count.
    """

    max_imfs: int = 50
    max_inner: int = 200
    sd_threshold: float = 0.2
    min_extrema: int = 2
    boundary: BoundaryExtension = BoundaryExtension.REFLECTION

    def __post_init__(self):
        if self.max_imfs < 1:
            raise ValueError("max_imfs must be >= 1")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if not (self.sd_threshold > 0):
            raise ValueError("sd_threshold must be positive")
        if self.min_extrema < 2:
            raise ValueError("min_extrema must be >= 2")


def _envelope_knots(
    idx: np.ndarray,
    x: np.ndarray,
    boundary: BoundaryExtension,
) -> tuple[np.ndarray, np.ndarray]:
    """Extremum knots augmented with boundary knots for one envelope.

    Reflection mirrors up to the two nearest extrema across each endpoint
    (positions mirrored, values kept); periodic wraps them by one period;
    constant holds the envelope level of the nearest extremum flat.
    """
    n = x.size
    vals = x[idx]
    k = min(2, idx.size)
    if boundary is BoundaryExtension.PERIODIC:
        left_pos, left_val = idx[-k:] - n, vals[-k:]
        right_pos, right_val = idx[:k] + n, vals[:k]
    elif boundary is BoundaryExtension.CONSTANT:
        left_pos, left_val = -idx[:k][::-1], np.full(k, vals[0])
        right_pos, right_val = 2 * (n - 1) - idx[-k:][::-1], np.full(k, vals[-1])
    else:  # reflection
        left_pos, left_val = -idx[:k][::-1], vals[:k][::-1]
        right_pos, right_val = 2 * (n - 1) - idx[-k:][::-1], vals[-k:][::-1]
    pos = np.concatenate([left_pos, idx, right_pos])
    val = np.concatenate([left_val, vals, right_val])
    return pos.astype(np.float64), val


def _envelope_mean_arr(
    x: np.ndarray,
    boundary: BoundaryExtension = BoundaryExtension.REFLECTION,
    extrema: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Envelope mean of x; ``extrema``, if given, are x's (idx_max, idx_min)."""
    idx_max, idx_min = extrema if extrema is not None else _extrema_indices(x)
    if idx_max.size == 0 or idx_min.size == 0:
        raise TooFewExtrema(
            f"envelopes need at least one maximum and one minimum, "
            f"found {idx_max.size} maxima / {idx_min.size} minima"
        )
    mean = _natural_spline(*_envelope_knots(idx_max, x, boundary), x.size)
    mean += _natural_spline(*_envelope_knots(idx_min, x, boundary), x.size)
    mean *= 0.5
    return mean


def envelope_mean(s: Signal, boundary: BoundaryExtension | None = None) -> Signal:
    """Pointwise mean of the upper and lower cubic-spline envelopes.

    The upper (lower) envelope is the natural cubic spline through the
    maxima (minima), with extrema mirrored across each endpoint to tame
    boundary swings.

    Raises
    ------
    TooFewExtrema
        If the signal has no maxima or no minima.
    """
    mode = boundary if boundary is not None else BoundaryExtension.REFLECTION
    return s.with_samples(_envelope_mean_arr(s.samples, mode))


def sift_once(s: Signal, boundary: BoundaryExtension | None = None) -> Signal:
    """One sifting step: the signal minus its envelope mean."""
    mode = boundary if boundary is not None else BoundaryExtension.REFLECTION
    return s.with_samples(s.samples - _envelope_mean_arr(s.samples, mode))


def _extract_imf_arr(
    x: np.ndarray,
    cfg: EMDSettings,
    extrema: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, int, StopReason]:
    """Sift one IMF out of x; ``extrema``, if given, are x's (idx_max, idx_min)."""
    cur, exp = _unit_scaled(x)  # keeps the stopping ratio scale-invariant
    # The first sift reuses x's extrema for cur only if the scaling was exact
    # (no sample rounded into the subnormal range): then it kept every order
    # and tie between samples.
    if extrema is not None and not np.array_equal(np.ldexp(cur, exp), x):
        extrema = None
    iterations = 0
    reason = StopReason.MAX_INNER_REACHED
    for it in range(1, cfg.max_inner + 1):
        try:
            mean = _envelope_mean_arr(cur, cfg.boundary, extrema)
        except TooFewExtrema:
            if it == 1:
                raise
            # Sifting flattened the iterate; nothing left to subtract.
            reason = StopReason.DELTA_REACHED
            break
        denom = _sum_squares(cur)
        num = _sum_squares(mean)
        cur -= mean
        extrema = None
        iterations = it
        if denom == 0.0 or num < cfg.sd_threshold * denom:
            reason = StopReason.DELTA_REACHED
            break
    return np.ldexp(cur, exp), iterations, reason


def extract_imf(
    s: Signal, cfg: EMDSettings | None = None
) -> tuple[Signal, int, StopReason]:
    """Sift one intrinsic mode function out of a signal.

    Iterates :func:`sift_once` until the Cauchy ratio drops below
    ``cfg.sd_threshold`` or ``cfg.max_inner`` subtractions were performed.

    Returns
    -------
    (imf, iterations, stop_reason)
    """
    cfg = cfg if cfg is not None else EMDSettings()
    imf, iterations, reason = _extract_imf_arr(s.samples, cfg)
    return s.with_samples(imf), iterations, reason


def emd(s: Signal, cfg: EMDSettings | None = None) -> Decomposition:
    """Decompose a signal into IMFs plus a residual.

    IMFs are extracted and subtracted from the remainder until it has
    fewer than ``cfg.min_extrema`` extrema (or fewer than two maxima or
    two minima, where envelopes degenerate), or ``cfg.max_imfs`` is hit.
    It also ends when the remainder's extrema lie only in bits that scaling
    it to a peak in [0.5, 1) flushes to zero, as in ``[0, 5e-324, -1, 0,
    -5e-324, 0]``; the remainder is then the residual.
    The subtraction chain telescopes, so the components always sum back
    to the input up to rounding.
    """
    cfg = cfg if cfg is not None else EMDSettings()
    x = s.samples.astype(np.float64, copy=True)
    imfs: list[np.ndarray] = []
    meta: list[ImfMeta] = []
    while len(imfs) < cfg.max_imfs:
        idx_max, idx_min = _extrema_indices(x)
        count = idx_max.size + idx_min.size
        if count < cfg.min_extrema or idx_max.size < 2 or idx_min.size < 2:
            break
        try:
            imf, iterations, reason = _extract_imf_arr(x, cfg, (idx_max, idx_min))
        except TooFewExtrema:  # the extrema were in bits the unit scaling flushes
            break
        imfs.append(imf)
        meta.append(ImfMeta(inner_iterations=iterations, stop_reason=reason))
        x = x - imf
    return Decomposition(
        imfs=tuple(s.with_samples(v) for v in imfs),
        residual=s.with_samples(x),
        meta=tuple(meta),
    )
