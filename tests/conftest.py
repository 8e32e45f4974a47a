import numpy as np
import pytest
from hypothesis import settings

from imfkit import Signal

# Every @given test draws the same examples on every machine and run (a
# hash of the test seeds the draws, and no example database is kept), so a
# failure found once fails everywhere. Each test's own settings keep their
# max_examples.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def central_correlation(a: np.ndarray, b: np.ndarray, frac: float = 0.8) -> float:
    """Pearson correlation restricted to the central `frac` of samples."""
    n = a.size
    k = int(round((1 - frac) / 2 * n))
    sl = slice(k, n - k)
    x = a[sl] - a[sl].mean()
    y = b[sl] - b[sl].mean()
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    return float(x @ y / denom) if denom else 0.0


def two_tone(n: int = 4096, f_slow: float = 2.0, f_fast: float = 40.0):
    """sin(2*pi*f_slow*t) + sin(2*pi*f_fast*t) on t in [0, 1)."""
    t = np.arange(n) / n
    slow = np.sin(2 * np.pi * f_slow * t)
    fast = np.sin(2 * np.pi * f_fast * t)
    return Signal(slow + fast, dt=1.0 / n), slow, fast


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
