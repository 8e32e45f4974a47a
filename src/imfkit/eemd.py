"""Ensemble EMD: noise-assisted averaging of EMD decompositions.

Each ensemble member decomposes the signal plus an independent white
Gaussian noise realization whose standard deviation is ``nstd`` times the
signal's. The members form at most ``_BLOCKS`` contiguous blocks, whose
bounds depend on the member count alone. Blocks may run on worker
processes forked by :func:`imfkit.core._forked_map`, which inherit the
block task instead of being sent it. A block sums its members' IMFs in
member order, as if zero-padded to the fixed component count, and sends
back only the rows its members found, with the sum of their residuals;
the block sums are then added in block order. That makes the result
independent of how many worker processes computed the blocks, and with
at most ``_BLOCKS`` members every block is one member, so the mean is the
plain in-order mean over the members.
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

# The members are summed in at most this many contiguous blocks, one forked
# task each, so at most this many (K + 1) x n sums come back to the caller
# however many members there are.
_BLOCKS = 16


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


def _sum_parts(parts) -> tuple[np.ndarray, np.ndarray, list[tuple[int, StopReason]]]:
    """In-order sum of (IMF rows, residual, stats) parts, as if zero-padded.

    The sums start from the first part's arrays and grow to the most rows
    any part has. Rows a part lacks get 0.0 added, as its zero rows would
    have, which turns a -0.0 sum into 0.0. Row i's stats are the most
    inner iterations of the parts that have the row, and DELTA_REACHED only
    if all of them reached delta. Each part is added as it arrives and
    dropped before the next, so at most one part is held beside the sums.
    """
    parts = iter(parts)
    imfs, residual, first = next(parts)
    stats = list(first)
    for rows, part_residual, part_stats in parts:
        if len(rows) > len(imfs):
            grown = np.zeros(rows.shape)
            grown[: len(imfs)] = imfs
            imfs = grown
        imfs[: len(rows)] += rows
        imfs[len(rows) :] += 0.0
        residual += part_residual
        for i, (iterations, reason) in enumerate(part_stats):
            if i == len(stats):
                stats.append((iterations, reason))
            else:
                most, stop = stats[i]
                if reason is not StopReason.DELTA_REACHED:
                    stop = reason
                stats[i] = (max(most, iterations), stop)
        del rows, part_residual
    return imfs, residual, stats


def _block(
    s: Signal, cfg: EEMDSettings, num_imfs: int, ne: int, b: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, StopReason]]]:
    """The members ne*b//B .. ne*(b+1)//B - 1, summed by :func:`_sum_parts`,
    where B = min(ne, _BLOCKS); a one-member block is that member."""
    blocks = min(ne, _BLOCKS)
    members = range(ne * b // blocks, ne * (b + 1) // blocks)
    return _sum_parts(_member(s, cfg, num_imfs, k) for k in members)


def eemd(s: Signal, cfg: EEMDSettings | None = None, threads: int = 1) -> Decomposition:
    """Ensemble-averaged EMD decomposition.

    ``threads`` is the number of worker processes that compute blocks of
    members, capped at the block count ``min(cfg.ne, _BLOCKS)``. With more
    than one, workers are forked from the calling process, so call it with
    more than one only from a process that runs no other threads. With one,
    members run in the calling process. The averaged result is
    bit-identical for any worker count because member noise streams depend
    only on (seed, member index), the block bounds only on ``cfg.ne``, and
    the reduction sums members in member order within each block and the
    blocks in block order. With at most ``_BLOCKS`` members, each block is
    one member and this is the in-order mean over the members. Averaged
    components are reported as-is, without re-sifting, so they need not be
    exact IMFs themselves.
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
    # Block sums, added in block order, without holding the blocks. A block
    # sends back only the IMF rows its members found; the rows it lacks
    # add 0.0, as its zero rows would. This equals, bit for bit, np.mean
    # over the zero-padded members when there are at most _BLOCKS of them,
    # except at a sample that is -0.0 in every member: the sum keeps -0.0
    # there, while numpy's sum over axis 0 starts from +0.0 and gives 0.0.
    blocks = _forked_map(partial(_block, s, cfg, num_imfs, ne), min(ne, _BLOCKS), threads)
    imfs, residual, stats = _sum_parts(blocks)
    imfs /= ne
    residual /= ne
    # The components no member found are zero, as their mean would be.
    zeros = np.zeros((num_imfs - len(imfs), len(s)))
    meta = [ImfMeta(inner_iterations=it, stop_reason=reason) for it, reason in stats]
    meta += [ImfMeta(0, StopReason.DELTA_REACHED)] * len(zeros)
    return Decomposition(
        imfs=tuple(s.with_samples(row) for row in (*imfs, *zeros)),
        residual=s.with_samples(residual),
        meta=tuple(meta),
    )
