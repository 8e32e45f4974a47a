"""EEMD members send back only the IMF rows they found, and the mean still
equals the mean of the zero-padded members, bit for bit."""

import importlib

import numpy as np
import pytest

from imfkit import EEMDSettings, Signal, StopReason, eemd

# The package's ``eemd`` attribute is the function, not this module.
eemd_module = importlib.import_module("imfkit.eemd")


def short_signal():
    """The 600 samples of the CLI byte-identity fixture ``in_short.csv``."""
    rng = np.random.default_rng(2017)
    rng.standard_normal(2048)  # drawn for the fixture's longer signal first
    t = 0.25 + np.arange(600) / 512
    x = np.sin(2 * np.pi * 1.5 * t) + 0.5 * np.sin(2 * np.pi * 37 * t)
    return Signal(x + 0.1 * rng.standard_normal(600), dt=1 / 512, t0=0.25)


def bits(a):
    return np.asarray(a).view(np.int64).tolist()


def padded_mean_oracle(s, cfg):
    """np.mean over every member's IMFs zero-padded to (num_imfs, n), and
    over the residuals."""
    num_imfs = eemd_module._default_num_imfs(len(s))
    members = [eemd_module._member(s, cfg, num_imfs, k) for k in range(cfg.ne)]
    padded = np.zeros((cfg.ne, num_imfs, len(s)))
    for k, (rows, _, _) in enumerate(members):
        padded[k, : len(rows)] = rows
    imfs = np.mean(padded, axis=0)
    residual = np.mean(np.stack([m[1] for m in members]), axis=0)
    return imfs, residual, [len(m[2]) for m in members]


@pytest.mark.parametrize("threads", [1, 2])
def test_each_member_sends_back_only_its_imf_rows(monkeypatch, threads):
    s, cfg = short_signal(), EEMDSettings(ne=6, seed=3)
    forked_map = eemd_module._forked_map
    rows = []

    def recording_map(task, count, workers):
        for imfs, residual, stats in forked_map(task, count, workers):
            assert imfs.shape == (len(stats), len(s))
            assert residual.shape == (len(s),)
            rows.append(len(stats))
            yield imfs, residual, stats

    monkeypatch.setattr(eemd_module, "_forked_map", recording_map)
    eemd(s, cfg, threads=threads)
    assert rows == padded_mean_oracle(s, cfg)[2]


def test_members_of_the_fixture_find_different_imf_counts():
    _, _, counts = padded_mean_oracle(short_signal(), EEMDSettings(ne=6, seed=3))
    assert len(set(counts)) > 1
    assert max(counts) < eemd_module._default_num_imfs(600)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_mean_equals_the_padded_oracle(threads):
    s, cfg = short_signal(), EEMDSettings(ne=6, seed=3)
    imfs, residual, _ = padded_mean_oracle(s, cfg)
    d = eemd(s, cfg, threads=threads)
    assert bits(np.stack([imf.samples for imf in d.imfs])) == bits(imfs)
    assert bits(d.residual.samples) == bits(residual)


@pytest.mark.parametrize("threads", [1, 2])
def test_missing_rows_add_zero_as_the_zero_rows_did(monkeypatch, threads):
    """A member's missing rows add 0.0, as its zero rows did: -0.0 + 0.0 is 0.0.

    The oracle is the running sum of the padded members, started from member
    0's arrays. (np.mean differs from it only at a sample where every member
    holds -0.0: numpy 2.4's sum starts from +0.0 there.)
    """
    n, num_imfs = 5, 3
    counts = [2, 3, 1, 2]  # IMF rows found by members 0..3

    def fake_member(s, cfg, num_imfs, k):
        imfs = np.full((counts[k], n), -0.0)
        imfs[:, k] = 2.0 ** -k
        stats = [(1, StopReason.DELTA_REACHED)] * counts[k]
        return imfs, np.full(n, -0.0), stats

    def padded(rows):
        out = np.zeros((num_imfs, n))
        out[: len(rows)] = rows
        return out

    s = Signal(np.arange(float(n)))
    cfg = EEMDSettings(ne=len(counts), num_imfs=num_imfs)
    members = [fake_member(s, cfg, num_imfs, k) for k in range(cfg.ne)]
    imfs, residual = padded(members[0][0]), members[0][1].copy()
    for member_imfs, member_residual, _ in members[1:]:
        imfs += padded(member_imfs)
        residual += member_residual
    imfs /= cfg.ne
    residual /= cfg.ne
    # Row 0, which every member found, keeps -0.0; member 2 lacks row 1.
    assert np.signbit(imfs[0, 4]) and not np.signbit(imfs[1, 4])

    monkeypatch.setattr(eemd_module, "_member", fake_member)
    d = eemd(s, cfg, threads=threads)
    assert bits(np.stack([imf.samples for imf in d.imfs])) == bits(imfs)
    assert bits(d.residual.samples) == bits(residual)
