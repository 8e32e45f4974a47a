"""Ensemble EMD: noise-assisted averaging of EMD decompositions.

Each ensemble member decomposes the signal plus an independent white
Gaussian noise realization whose standard deviation is ``nstd`` times the
signal's. Members may run on worker processes forked by
:func:`imfkit.core._forked_map`, which inherit the member task instead of
being sent it; only the IMF rows each member found, at most the fixed
component count, and its residual come back. Member IMFs are averaged in
member order as if zero-padded to that count, which makes the result
independent of how many worker processes computed the members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    Decomposition,
    ImfMeta,
    Signal,
    StopReason,
    ZeroVarianceSignal,
    _forked_map,
    _lapack,
)
from .emd import EMDSettings, emd


@dataclass(frozen=True)
class EEMDSettings:
    """Ensemble parameters.

    ``nstd`` is the ratio of added-noise std to signal std; ``ne`` the
    number of noise realizations. ``num_imfs`` fixes the output component
    count (members with more IMFs fold the surplus into their residual,
    members with fewer are zero-padded); None means round(log2(n)) - 1.
    """

    nstd: float = 0.2
    ne: int = 100
    seed: int = 0
    num_imfs: int | None = None
    emd: EMDSettings = field(default_factory=EMDSettings)

    def __post_init__(self):
        if self.nstd < 0:
            raise ValueError("nstd must be >= 0")
        if self.ne < 1:
            raise ValueError("ne must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.num_imfs is not None and self.num_imfs < 1:
            raise ValueError("num_imfs must be >= 1")


def _default_num_imfs(n: int) -> int:
    return max(1, int(round(np.log2(n))) - 1)


def _noise_scale(s: Signal, cfg: EEMDSettings) -> float:
    sigma = float(np.std(s.samples))
    if cfg.nstd > 0 and sigma == 0.0:
        raise ZeroVarianceSignal("cannot scale noise to a zero-variance signal")
    return cfg.nstd * sigma


def noise_member(s: Signal, cfg: EEMDSettings, k: int) -> Signal:
    """The k-th noisy copy of the signal.

    The noise stream is derived from (seed, k) alone, so members are
    reproducible and independent of evaluation order or worker count.
    """
    if not (0 <= k < cfg.ne):
        raise ValueError(f"member index {k} outside 0..{cfg.ne - 1}")
    scale = _noise_scale(s, cfg)
    if scale == 0.0:
        return s
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, k]))
    return s.with_samples(s.samples + scale * rng.standard_normal(len(s)))


def _member(
    s: Signal, cfg: EEMDSettings, num_imfs: int, k: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, StopReason]]]:
    """Decompose member k: its first IMFs, at most num_imfs, as the rows of
    one array; its residual, with any further IMFs folded in; and each
    returned IMF's (inner iterations, stop reason)."""
    member = noise_member(s, cfg, k)
    d = emd(member, cfg.emd)
    found = min(len(d.imfs), num_imfs)
    imfs = np.zeros((found, len(member)))
    residual = d.residual.samples.copy()
    for i, imf in enumerate(d.imfs):
        if i < found:
            imfs[i] = imf.samples
        else:
            residual += imf.samples
    return imfs, residual, [(m.inner_iterations, m.stop_reason) for m in d.meta[:found]]


def eemd(s: Signal, cfg: EEMDSettings | None = None, threads: int = 1) -> Decomposition:
    """Ensemble-averaged EMD decomposition.

    ``threads`` is the number of worker processes that compute members,
    capped at ``min(threads, cfg.ne)``. With more than one, workers are
    forked from the calling process, so call it with more than one only
    from a process that runs no other threads. With one, members run in
    the calling process. The averaged result is bit-identical for any
    worker count because member noise streams depend only on (seed,
    member index) and the reduction is a fixed-order mean over members.
    Averaged components are reported as-is, without re-sifting, so they
    need not be exact IMFs themselves.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1 (got {threads})")
    cfg = cfg if cfg is not None else EEMDSettings()
    num_imfs = cfg.num_imfs if cfg.num_imfs is not None else _default_num_imfs(len(s))
    # Zero noise: every member is identical, so the ensemble collapses to a
    # single EMD run of the input.
    ne = cfg.ne if _noise_scale(s, cfg) > 0.0 else 1
    # The spline's LAPACK wrapper, which the first member would load, is
    # loaded before any worker forks, so the workers inherit it instead of
    # each loading scipy and the wrapper itself (~20 ms each on a 2-core x86
    # host).
    _lapack()
    results = _forked_map(partial(_member, s, cfg, num_imfs), ne, threads)
    # Running sums of the zero-padded members in member order, started from
    # member 0's arrays, without holding the members. A member sends only
    # the IMF rows it found; adding 0.0 to the rows it lacks stands in for
    # its zero rows, which turn a -0.0 sum into 0.0. This equals np.mean
    # over the padded members bit for bit, except at a sample that is -0.0
    # in every member: the sum keeps -0.0 there, while numpy's sum over
    # axis 0 starts from +0.0 and gives 0.0.
    rows, residual, stats = next(results)
    imfs = np.zeros((num_imfs, len(s)))
    imfs[: len(rows)] = rows
    member_stats = [stats]
    for rows, member_residual, stats in results:
        imfs[: len(rows)] += rows
        imfs[len(rows) :] += 0.0
        residual += member_residual
        member_stats.append(stats)
    imfs /= ne
    residual /= ne

    meta = []
    for i in range(num_imfs):
        contrib = [st[i] for st in member_stats if len(st) > i]
        if contrib:
            iterations = max(it for it, _ in contrib)
            reason = (
                StopReason.DELTA_REACHED
                if all(r is StopReason.DELTA_REACHED for _, r in contrib)
                else StopReason.MAX_INNER_REACHED
            )
        else:
            iterations, reason = 0, StopReason.DELTA_REACHED
        meta.append(ImfMeta(inner_iterations=iterations, stop_reason=reason))

    return Decomposition(
        imfs=tuple(s.with_samples(imfs[i]) for i in range(num_imfs)),
        residual=s.with_samples(residual),
        meta=tuple(meta),
    )
