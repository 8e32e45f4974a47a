"""Seeded inputs for the benchmark workloads.

The same seed always gives the same arrays and the same CSV bytes. Only
the white-noise realisation depends on the seed. The deterministic
components, and with them the amount of work and the size of each IMF,
stay put, so the outputs can be checked against one stored reference.
"""

from __future__ import annotations

import numpy as np

IF_N, IF_DT = 65536, 1.0 / 4096
EEMD_N, EEMD_DT = 8192, 1.0 / 2048


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def if_signal(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Slow tone + linear chirp (2 -> 42 Hz) + white noise of std 0.1."""
    t = np.arange(IF_N) * IF_DT
    x = (
        np.sin(2 * np.pi * 0.5 * t)
        + 0.8 * np.sin(2 * np.pi * (2.0 * t + 1.25 * t * t))
        + 0.1 * _rng(seed, 1).standard_normal(IF_N)
    )
    return t, x


def eemd_signal(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two tones (3 Hz, 40 Hz), a linear chirp (10 -> 170 Hz), noise of std 0.02."""
    t = np.arange(EEMD_N) * EEMD_DT
    x = (
        np.sin(2 * np.pi * 3.0 * t)
        + 0.5 * np.sin(2 * np.pi * 40.0 * t)
        + 0.7 * np.sin(2 * np.pi * (10.0 * t + 20.0 * t * t))
        + 0.02 * _rng(seed, 2).standard_normal(EEMD_N)
    )
    return t, x


def csv_bytes(t: np.ndarray, x: np.ndarray) -> bytes:
    """``time,value`` CSV with shortest round-trip decimals."""
    rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, x))
    return ("time,value\n" + rows).encode()
