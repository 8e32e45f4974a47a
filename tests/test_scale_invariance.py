"""EMD and IF stopping rules do not depend on the scale of the input.

Both engines stop an inner loop on a ratio of squared norms. Scaling the
signal by a power of two must scale every IMF by the same factor and leave
iteration counts and stop reasons unchanged, even where the plain sums of
squares would overflow (2**1000) or underflow (2**-1000).
"""

import warnings

import numpy as np
import pytest

from imfkit import BoundaryExtension, IFSettings, emd, iterative_filtering

from conftest import two_tone

ENGINES = {
    "emd": lambda s: emd(s),
    "if-periodic": lambda s: iterative_filtering(s, IFSettings(xi=3.0, n_imfs=3)),
    "if-reflection": lambda s: iterative_filtering(
        s, IFSettings(xi=3.0, n_imfs=3, extension=BoundaryExtension.REFLECTION)
    ),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("exponent", [1000, -1000])
def test_power_of_two_scaling(engine, exponent):
    s, _, _ = two_tone(2048)
    c = 2.0**exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        ref = ENGINES[engine](s)
        out = ENGINES[engine](s.with_samples(c * s.samples))
    assert [(m.inner_iterations, m.stop_reason) for m in out.meta] == [
        (m.inner_iterations, m.stop_reason) for m in ref.meta
    ]
    assert len(ref.imfs) >= 2
    # Relative to the input's peak: a near-zero IMF is subnormal at 2**-1000.
    tol = 1e-12 * c * np.max(np.abs(s.samples))
    for a, b in zip(out.imfs, ref.imfs):
        assert np.max(np.abs(a.samples - c * b.samples)) <= tol
