"""Shared domain types and primitive signal operations.

Everything downstream (EMD, EEMD, iterative filtering, spectral tools)
works in terms of :class:`Signal`, :class:`Decomposition` and the helpers
defined here. All functions but :func:`_forked_map`, which runs tasks on
forked worker processes, are pure and safe for concurrent use.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np


class DecompositionError(Exception):
    """Base class for errors raised by the decomposition engines."""


class TooFewExtrema(DecompositionError):
    """Signal does not carry enough oscillation for the requested operation."""


class MaskTooLong(DecompositionError):
    """Filter mask half-length is not smaller than the signal length."""


class ZeroVarianceSignal(DecompositionError):
    """Noise amplitude is relative to signal std, which is zero here."""


class BoundaryExtension(Enum):
    """How a signal is assumed to continue outside its boundaries."""

    CONSTANT = "constant"
    PERIODIC = "periodic"
    REFLECTION = "reflection"


class StopReason(Enum):
    """Why an inner (per-component) iteration loop terminated."""

    DELTA_REACHED = "delta_reached"
    MAX_INNER_REACHED = "max_inner_reached"


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real time series.

    Parameters
    ----------
    samples : array_like
        Real sample values, length >= 2, all finite.
    dt : float
        Time step between samples, > 0.
    t0 : float
        Time of the first sample.
    """

    samples: np.ndarray
    dt: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"signal must be 1-D, got shape {x.shape}")
        if x.size < 2:
            raise ValueError(f"signal needs at least 2 samples, got {x.size}")
        if not np.all(np.isfinite(x)):
            raise ValueError("signal samples must be finite")
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t0", float(self.t0))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        """Sample times t0 + i*dt."""
        return self.t0 + self.dt * np.arange(self.samples.size)

    def with_samples(self, samples: np.ndarray) -> "Signal":
        """New signal on the same time grid with different sample values."""
        return Signal(samples, dt=self.dt, t0=self.t0)


@dataclass(frozen=True)
class ImfMeta:
    """Per-component provenance of a decomposition."""

    inner_iterations: int
    stop_reason: StopReason
    mask_half_length: int | None = None


@dataclass(frozen=True)
class Decomposition:
    """Ordered intrinsic mode functions plus the non-oscillatory residual.

    The components telescope: summing ``imfs`` and ``residual`` reproduces
    the decomposed signal up to floating-point rounding.
    """

    imfs: tuple[Signal, ...]
    residual: Signal
    meta: tuple[ImfMeta, ...] = field(default=())

    def __post_init__(self):
        n = len(self.residual)
        for imf in self.imfs:
            if len(imf) != n:
                raise ValueError("all components must share the input length")
        if len(self.meta) != len(self.imfs):
            raise ValueError("one meta record per IMF required")

    def reconstruct(self) -> Signal:
        """Sum of all IMFs and the residual."""
        total = self.residual.samples.copy()
        for imf in self.imfs:
            total += imf.samples
        return self.residual.with_samples(total)


def extrema(s: Signal) -> tuple[np.ndarray, np.ndarray]:
    """Interior local maxima and minima, as ascending index arrays.

    A run of equal values flanked by lower (higher) values on both sides
    counts as a single maximum (minimum) at the run's midpoint, rounded
    down. Boundary samples and plateaus touching a boundary are never
    extrema. A constant signal has none.
    """
    return _extrema_indices(s.samples)


def _extrema_indices(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized extrema scan on a raw array; see :func:`extrema`.

    Two cases give the same indices. Where no two neighbours are equal,
    every extremum is a sample that rises into it and falls out of it (or
    the reverse), found from the sign masks of the differences alone.
    Otherwise :func:`_plateau_extrema` places each extremum at its
    plateau's midpoint.
    """
    dx = np.diff(x)
    up = dx > 0
    down = dx < 0
    if np.count_nonzero(up) + np.count_nonzero(down) < dx.size:
        return _plateau_extrema(dx)
    idx_max = np.flatnonzero(up[:-1] & down[1:]) + 1
    idx_min = np.flatnonzero(down[:-1] & up[1:]) + 1
    return idx_max, idx_min


def _plateau_extrema(dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extrema from the differences dx of a signal that may hold plateaus."""
    nz = np.flatnonzero(dx != 0)
    if nz.size < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    sign = np.sign(dx[nz])
    flip = sign[:-1] != sign[1:]
    # A plateau between nz[i] and nz[i+1] spans samples nz[i]+1 .. nz[i+1];
    # its midpoint (rounded down) is the extremum location.
    mid = (nz[:-1] + 1 + nz[1:]) // 2
    idx_max = mid[flip & (sign[:-1] > 0)]
    idx_min = mid[flip & (sign[:-1] < 0)]
    return idx_max.astype(np.intp), idx_min.astype(np.intp)


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's compiled LAPACK wrapper, loaded without the scipy.linalg package.

    ``scipy.linalg.lapack.dgtsv`` is this module's ``dgtsv``. On a 2-core
    x86 host with numpy loaded, importing the package around it took
    ~0.27 s and ~27 MB of RSS, most of it in modules that scipy's array-API
    layer pulls in; this takes ~20 ms and ~3 MB, ``import scipy`` included,
    which runs first for scipy's platform set-up. The module is registered
    under its own name, so a later ``import scipy.linalg`` reuses it, and a
    wrapper that scipy.linalg already loaded is reused here. ``import
    imfkit`` does not call this: IF and the Hilbert estimator never fit a
    spline.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    import scipy

    directory = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no _flapack extension in {directory}", name=_FLAPACK)
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, str(path))
    spec = importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


# The task of the running _forked_map; its forked workers inherit it.
_forked_task = None


def _call_forked_task(i: int):
    return _forked_task(i)


def _forked_map(task, count: int, workers: int):
    """task(0), ..., task(count - 1), yielded in index order.

    With ``min(workers, count)`` above 1 the calls run on that many worker
    processes forked from this one, each index going to the first free
    worker. The workers inherit ``task`` through a module global set
    before they fork, so it may be any callable, a closure too: only
    indices, results and exceptions are pickled. A task's exception is
    raised here, with its type, once every worker has ended. Call it with
    more than one worker only from a process that runs no other Python
    threads. With one, the calls run in this process.
    """
    global _forked_task
    workers = min(workers, count)
    if workers <= 1:
        yield from map(task, range(count))
        return
    # Imported here so that ``import imfkit`` loads no process machinery.
    # Fork, not spawn or forkserver: forked workers inherit the task, the
    # arrays it reads and numpy already imported.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _forked_task = task
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            # One index per call (the default chunksize), so the caller
            # unpickles and holds one result at a time.
            yield from pool.map(_call_forked_task, range(count))
    finally:
        _forked_task = None


def _natural_spline(pos: np.ndarray, val: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic spline through the knots (pos, val), sampled at 0..n-1.

    The samples are bit-identical to
    ``CubicSpline(pos, val, bc_type="natural")(np.arange(n))`` of scipy 1.17:
    the same slope-form tridiagonal system, solved by the LAPACK ``dgtsv``
    that ``solve_banded((1, 1), ...)`` calls (it pivots where a knot gap
    more than doubles), the same Hermite coefficients and the same
    power-sum evaluation order. The power sum is evaluated in place, in
    the per-sample coefficient rows, so it allocates no temporaries; the
    result is a row of that coefficient array. scipy's end rows also add
    ``-/+ 0.5 * 0.0 * dx**2``, which can change only the sign of a zero in
    the solution; no sample shows it, as their sum starts from +0.0.

    ``pos`` must hold at least two strictly increasing integer values with
    ``pos[0] <= 0`` and ``pos[-1] >= n - 1``: then every sample point lies
    in a knot interval, and the points of interval i are the integers in
    ``[pos[i], pos[i+1])`` (the last interval closed), so the interval of
    each point comes from the knot gaps without a search.

    ``dgtsv`` comes from :func:`_lapack`: the first call loads scipy's
    LAPACK wrapper (~20 ms), not the scipy.linalg package.
    """
    dgtsv = _lapack().dgtsv

    m = pos.size
    # The knot gaps between two zeros: d's end entries are 2 * (0 + gap),
    # the same values as 2 * gap.
    gaps = np.zeros(m + 1)
    dx = np.subtract(pos[1:], pos[:-1], out=gaps[1:-1])
    slope = np.diff(val) / dx
    d = gaps[:-1] + gaps[1:]
    d *= 2
    b = np.empty(m)
    b[0] = 3 * (val[1] - val[0])
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[-1] = 3 * (val[-1] - val[-2])
    lower = np.concatenate([dx[1:], dx[-1:]])
    upper = np.concatenate([dx[:1], dx[:-1]])
    _, _, _, s, info = dgtsv(
        lower, d, upper, b,
        overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True,
    )
    if info != 0:
        raise np.linalg.LinAlgError("singular spline system")
    t = s[:-1] + s[1:]
    t -= 2 * slope
    t /= dx
    coef = np.empty((5, m - 1))
    np.divide(t, dx, out=coef[0])
    np.subtract(slope, s[:-1], out=coef[1])
    coef[1] /= dx
    coef[1] -= t
    coef[2] = s[:-1]
    coef[3] = val[:-1]
    coef[4] = pos[:-1]
    edges = np.clip(pos, 0, n).astype(np.intp)
    edges[-1] = n
    c0, c1, c2, c3, u = np.repeat(coef, np.diff(edges), axis=1)
    # u is each sample's knot position until it becomes the offset from it.
    np.subtract(np.arange(n, dtype=np.float64), u, out=u)
    uu = u * u
    # scipy's ((0.0 + c3) + c2*u) + c1*u**2 + c0*u**3, step by step in the
    # rows np.repeat returned: the same operations in the same order.
    c3 += 0.0
    c2 *= u
    c3 += c2
    c1 *= uu
    c3 += c1
    uu *= u
    c0 *= uu
    c3 += c0
    return c3


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x times 2**-exp, with exp chosen so that max|x| lands in [0.5, 1).

    Scaling by a power of two is exact, so a loop that stops on a ratio of
    squared norms can run on the copy without overflow or underflow at any
    input scale, and ``np.ldexp(result, exp)`` restores the input scale.
    """
    _, exp = np.frexp(np.max(np.abs(x)))
    return np.ldexp(x, -exp), int(exp)


def _sum_squares(x: np.ndarray) -> float:
    """Sum of the squared entries of a 1-D array, in numpy's own loop.

    ``np.dot`` and ``np.linalg.norm`` call the BLAS ``ddot``, which on long
    vectors hands the sum to worker threads that then spin: they doubled
    the CPU time of IF on 65536 samples, and made two forked EEMD workers
    on two cores slower than one process.
    """
    return float(np.einsum("i,i->", x, x))
