"""Line downsampling of the decomposition plot against a per-bucket loop.

``_downsample_line`` keeps, per bucket, the first sample at the bucket's
minimum and the first at its maximum. The loop below, one ``argmin`` and
one ``argmax`` per bucket, is the oracle: the indices must be identical,
ties and plateaus included.
"""

import numpy as np
import pytest

from imfkit.svgplot import _MAX_LINE_POINTS, _downsample_line


def loop_indices(y):
    n = y.size
    edges = np.linspace(0, n, _MAX_LINE_POINTS // 2 + 1).astype(int)
    idx = []
    for a, b in zip(edges[:-1], edges[1:]):
        seg = y[a:b]
        idx += sorted((a + int(np.argmin(seg)), a + int(np.argmax(seg))))
    return np.array(idx)


def shapes(n, rng):
    k = np.arange(n)
    yield "noise", rng.standard_normal(n)
    yield "ties", np.round(rng.standard_normal(n) * 2.0)  # few distinct values
    yield "plateaus", np.repeat(rng.standard_normal(n // 37 + 1), 37)[:n]
    yield "constant", np.full(n, 1.5)
    yield "signed zeros", np.where(rng.random(n) < 0.5, 0.0, -0.0)
    yield "sawtooth", (k % 7).astype(float)
    yield "ramp", k * 1e-3


@pytest.mark.parametrize("n", [1025, 4097, 65536, 65537])
def test_indices_match_the_per_bucket_loop(n):
    rng = np.random.default_rng(n)
    t = np.arange(n) * 0.25
    for name, y in shapes(n, rng):
        want = loop_indices(y)
        td, yd = _downsample_line(t, y)
        assert np.array_equal(td, t[want]), name
        assert np.array_equal(yd, y[want]), name


def test_short_lines_are_kept_whole():
    t = np.arange(_MAX_LINE_POINTS) * 0.5
    y = np.sin(t)
    td, yd = _downsample_line(t, y)
    assert td is t and yd is y
