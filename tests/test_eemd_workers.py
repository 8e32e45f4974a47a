"""EEMD members on forked worker processes: same bytes, errors, lazy imports."""

import concurrent.futures
import importlib
import subprocess
import sys

import numpy as np
import pytest

from imfkit import EEMDSettings, Signal, eemd

# The package's ``eemd`` attribute is the function, not this module.
eemd_module = importlib.import_module("imfkit.eemd")


def chirp(n=256):
    t = np.arange(n) / n
    x = np.sin(2 * np.pi * (4 + 20 * t) * t) + 0.3 * np.cos(2 * np.pi * 3 * t)
    return Signal(x)


def as_bytes(d):
    arrays = (*d.imfs, d.residual)
    return b"".join(a.samples.tobytes() for a in arrays) + repr(d.meta).encode()


class MemberFailed(Exception):
    pass


@pytest.mark.parametrize("ne", [1, 5])
def test_worker_count_does_not_change_bytes(ne):
    s = chirp()
    cfg = EEMDSettings(ne=ne, seed=23, num_imfs=4)
    blobs = {t: as_bytes(eemd(s, cfg, threads=t)) for t in (1, 2, 3, ne, ne + 3)}
    assert len(set(blobs.values())) == 1


@pytest.mark.parametrize(
    "ne, threads, workers", [(5, 3, 3), (3, 8, 3), (1, 4, None), (6, 1, None)]
)
def test_pool_size_is_capped_at_ne_and_forks(monkeypatch, ne, threads, workers):
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    eemd(chirp(128), EEMDSettings(ne=ne, seed=1, num_imfs=3), threads=threads)
    assert pools == ([] if workers is None else [(workers, "fork")])


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_exception_reaches_caller_with_its_type(monkeypatch, threads):
    def failing_emd(s, cfg):
        raise MemberFailed("member failed")

    # Forked workers inherit the patched module global.
    monkeypatch.setattr(eemd_module, "emd", failing_emd)
    with pytest.raises(MemberFailed, match="member failed"):
        eemd(chirp(), EEMDSettings(ne=4, seed=2), threads=threads)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads"):
        eemd(chirp(), EEMDSettings(ne=2), threads=threads)
    with pytest.raises(ValueError, match="threads"):
        eemd(chirp(), EEMDSettings(nstd=0.0), threads=threads)


def test_import_loads_no_process_or_thread_pool():
    # The process and thread pools load only when EEMD uses a pool; a
    # plain ``import imfkit`` loads neither, nor concurrent.futures at all.
    code = (
        "import sys, imfkit; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', "
        "'concurrent.futures.thread') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
