"""Ensemble EMD: noise-assisted averaging of EMD decompositions.

Each ensemble member decomposes the signal plus an independent white
Gaussian noise realization whose standard deviation is ``nstd`` times the
signal's. Member IMFs are aligned to a fixed component count and averaged
in member order, which makes the result independent of how many workers
computed the members.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import Decomposition, ImfMeta, Signal, StopReason, ZeroVarianceSignal
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
    reproducible and independent of evaluation order or thread count.
    """
    if not (0 <= k < cfg.ne):
        raise ValueError(f"member index {k} outside 0..{cfg.ne - 1}")
    scale = _noise_scale(s, cfg)
    if scale == 0.0:
        return s
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, k]))
    return s.with_samples(s.samples + scale * rng.standard_normal(len(s)))


def _aligned_member(
    member: Signal, cfg: EEMDSettings, num_imfs: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, StopReason]]]:
    """Decompose one member and align it to num_imfs components."""
    d = emd(member, cfg.emd)
    imfs = np.zeros((num_imfs, len(member)))
    residual = d.residual.samples.copy()
    stats = []
    for i, (imf, m) in enumerate(zip(d.imfs, d.meta)):
        if i < num_imfs:
            imfs[i] = imf.samples
            stats.append((m.inner_iterations, m.stop_reason))
        else:
            residual += imf.samples
    return imfs, residual, stats


def eemd(s: Signal, cfg: EEMDSettings | None = None, threads: int = 1) -> Decomposition:
    """Ensemble-averaged EMD decomposition.

    Members may be computed in parallel (``threads`` > 1); the averaged
    result is bit-identical for any worker count because member noise
    streams depend only on (seed, member index) and the reduction is a
    fixed-order pairwise mean. Averaged components are reported as-is,
    without re-sifting, so they need not be exact IMFs themselves.
    """
    cfg = cfg if cfg is not None else EEMDSettings()
    num_imfs = cfg.num_imfs if cfg.num_imfs is not None else _default_num_imfs(len(s))
    scale = _noise_scale(s, cfg)

    if scale == 0.0:
        # Zero noise: every member is identical, so the ensemble collapses
        # to a single EMD run (kept exact rather than averaged).
        imfs, residual, stats = _aligned_member(s, cfg, num_imfs)
        member_stats = [stats]
    else:
        def member(k: int):
            return _aligned_member(noise_member(s, cfg, k), cfg, num_imfs)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(member, range(cfg.ne)))
        else:
            results = [member(k) for k in range(cfg.ne)]

        # Fixed member order; np.mean reduces with pairwise summation.
        imfs = np.mean(np.stack([r[0] for r in results]), axis=0)
        residual = np.mean(np.stack([r[1] for r in results]), axis=0)
        member_stats = [r[2] for r in results]

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
