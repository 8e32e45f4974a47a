"""The streamed EEMD mean equals np.mean over all zero-padded members, bit for bit.

The one exception is a sample that is -0.0 in every member: numpy's sum
over axis 0 starts from +0.0 and gives 0.0 there, while the running sum
keeps -0.0 (see ``tests/test_eemd_members.py``). These inputs have no such
sample.
"""

import importlib

import numpy as np
import pytest

from imfkit import EEMDSettings, Signal, eemd

# The package's ``eemd`` attribute is the function, not this module.
eemd_module = importlib.import_module("imfkit.eemd")


@pytest.mark.parametrize("ne", [1, 2, 7])
def test_streamed_mean_matches_np_mean(ne):
    n = 300
    t = np.arange(n) / n
    s = Signal(np.sin(2 * np.pi * (3 + 25 * t) * t) + 0.2 * np.cos(2 * np.pi * 2 * t))
    cfg = EEMDSettings(ne=ne, seed=41)
    num_imfs = eemd_module._default_num_imfs(n)
    members = [eemd_module._member(s, cfg, num_imfs, k) for k in range(ne)]
    padded = np.zeros((ne, num_imfs, n))
    for k, (rows, _, _) in enumerate(members):
        padded[k, : len(rows)] = rows
    imfs = np.mean(padded, axis=0)
    residual = np.mean(np.stack([m[1] for m in members]), axis=0)

    d = eemd(s, cfg)

    got = np.stack([imf.samples for imf in d.imfs])
    assert got.view(np.int64).tolist() == imfs.view(np.int64).tolist()
    assert d.residual.samples.view(np.int64).tolist() == residual.view(np.int64).tolist()
