"""Ensembles of more than 16 members are summed in 16 blocks of members.

The blocks are contiguous, with bounds ne*b//16 that depend on ne alone. A
block sums its zero-padded members in member order; the block sums are
added in block order and divided by ne. These checks compare eemd with
that construction, written out here, bit for bit and at several worker
counts.
"""

import importlib

import numpy as np
import pytest

from imfkit import EEMDSettings, Signal, StopReason, eemd

# The package's ``eemd`` attribute is the function, not this module.
eemd_module = importlib.import_module("imfkit.eemd")

BLOCKS = 16


def short_signal():
    """The 600 samples of the CLI byte-identity fixture ``in_short.csv``."""
    rng = np.random.default_rng(2017)
    rng.standard_normal(2048)  # drawn for the fixture's longer signal first
    t = 0.25 + np.arange(600) / 512
    x = np.sin(2 * np.pi * 1.5 * t) + 0.5 * np.sin(2 * np.pi * 37 * t)
    return Signal(x + 0.1 * rng.standard_normal(600), dt=1 / 512, t0=0.25)


def bits(a):
    return np.asarray(a).view(np.int64).tolist()


def block_bounds(ne):
    count = min(ne, BLOCKS)
    return [(ne * b // count, ne * (b + 1) // count) for b in range(count)]


def blocked_oracle(members, num_imfs, n):
    """(IMFs, residual, meta) of the members' blocked mean, written out."""
    ne = len(members)

    def padded(rows):
        out = np.zeros((num_imfs, n))
        out[: len(rows)] = rows
        return out

    sums = []
    for lo, hi in block_bounds(ne):
        imfs, residual = padded(members[lo][0]), members[lo][1].copy()
        for rows, member_residual, _ in members[lo + 1 : hi]:
            imfs += padded(rows)
            residual += member_residual
        sums.append((imfs, residual))
    imfs, residual = sums[0]
    for block_imfs, block_residual in sums[1:]:
        imfs += block_imfs
        residual += block_residual
    meta = []
    for i in range(num_imfs):
        contrib = [stats[i] for _, _, stats in members if len(stats) > i]
        iterations = max((it for it, _ in contrib), default=0)
        reached = all(r is StopReason.DELTA_REACHED for _, r in contrib)
        meta.append((iterations, StopReason.DELTA_REACHED if reached
                     else StopReason.MAX_INNER_REACHED))
    return imfs / ne, residual / ne, meta


def assert_matches(d, oracle):
    imfs, residual, meta = oracle
    assert bits(np.stack([imf.samples for imf in d.imfs])) == bits(imfs)
    assert bits(d.residual.samples) == bits(residual)
    assert [(m.inner_iterations, m.stop_reason) for m in d.meta] == meta


def test_bounds_cover_the_members_in_order():
    assert block_bounds(17)[-2:] == [(14, 15), (15, 17)]
    for ne in (1, 16, 17, 40, 100):
        bounds = block_bounds(ne)
        assert bounds[0][0] == 0 and bounds[-1][1] == ne
        assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("ne", [17, 40])
def test_mean_equals_the_blocked_oracle(ne):
    s, cfg = short_signal(), EEMDSettings(ne=ne, seed=3)
    num_imfs = eemd_module._default_num_imfs(len(s))
    members = [eemd_module._member(s, cfg, num_imfs, k) for k in range(ne)]
    oracle = blocked_oracle(members, num_imfs, len(s))
    for threads in (1, 2, 3):
        assert_matches(eemd(s, cfg, threads=threads), oracle)


@pytest.mark.parametrize("threads", [1, 2])
def test_each_block_sends_back_the_rows_its_members_found(monkeypatch, threads):
    s, cfg = short_signal(), EEMDSettings(ne=40, seed=3)
    num_imfs = eemd_module._default_num_imfs(len(s))
    counts = [len(eemd_module._member(s, cfg, num_imfs, k)[0]) for k in range(cfg.ne)]
    forked_map = eemd_module._forked_map
    rows = []

    def recording_map(task, count, workers):
        assert count == BLOCKS
        for imfs, residual, stats in forked_map(task, count, workers):
            assert imfs.shape == (len(stats), len(s))
            assert residual.shape == (len(s),)
            rows.append(len(stats))
            yield imfs, residual, stats

    monkeypatch.setattr(eemd_module, "_forked_map", recording_map)
    eemd(s, cfg, threads=threads)
    assert rows == [max(counts[lo:hi]) for lo, hi in block_bounds(cfg.ne)]


@pytest.mark.parametrize(
    "counts",
    [
        # Member 16, the second of the last block, lacks row 1: the block
        # adds 0.0 there, and -0.0 + 0.0 is 0.0.
        [2] * 16 + [1],
        # Member 15, the first of the last block, lacks row 1: the block's
        # row 1 starts from a zero row, and 0.0 + -0.0 is 0.0.
        [2] * 15 + [1, 2],
    ],
)
@pytest.mark.parametrize("threads", [1, 2])
def test_rows_missing_inside_a_block_add_zero(monkeypatch, threads, counts):
    n, num_imfs = 6, 3

    def fake_member(s, cfg, num_imfs, k):
        imfs = np.full((counts[k], n), -0.0)
        imfs[:, k % 5] = 2.0 ** -k
        stats = [(k + 1, StopReason.DELTA_REACHED)] * counts[k]
        return imfs, np.full(n, -0.0), stats

    s = Signal(np.arange(float(n)))
    cfg = EEMDSettings(ne=len(counts), num_imfs=num_imfs)
    members = [fake_member(s, cfg, num_imfs, k) for k in range(cfg.ne)]
    oracle = blocked_oracle(members, num_imfs, n)
    # Every other member holds -0.0 at sample 5 of rows 0 and 1, so only the
    # one missing row makes row 1 +0.0 there; row 2 is missing everywhere.
    assert np.signbit(oracle[0][0, 5]) and not np.signbit(oracle[0][1, 5])

    monkeypatch.setattr(eemd_module, "_member", fake_member)
    assert_matches(eemd(s, cfg, threads=threads), oracle)
