"""Invariants of the decompositions.

Telescoping: the IMFs plus the residual give back what was decomposed, for
EMD under every boundary mode, IF under every extension mode, and EEMD,
whose components sum to the mean of its noisy members.

Filter bank: on white noise, EMD splits the spectrum into bands whose
mean frequencies fall by a roughly constant ratio from one IMF to the
next (Flandrin, Rilling & Goncalves, IEEE SPL 2004). The paper reports a
ratio near 2 for a fixed number of sifts; with this package's default
SD-threshold stop, 20 draws at n = 4096 give 2.43-2.45 on average over
IMFs 1-5 (twelve seeds tried), and 2.38-2.49 at each scale.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imfkit import (
    BoundaryExtension,
    EEMDSettings,
    EMDSettings,
    IFSettings,
    Signal,
    eemd,
    emd,
    iterative_filtering,
)
from imfkit.eemd import noise_member

# Arbitrary arrays find the edge cases (plateaus, too few extrema, signed
# zeros); seeded noise at a drawn scale makes sure most examples oscillate
# enough to give several IMFs.
samples = st.one_of(
    arrays(np.float64, st.integers(2, 160), elements=st.floats(-1e6, 1e6)),
    st.builds(
        lambda n, seed, exp: np.ldexp(np.random.default_rng(seed).standard_normal(n), exp),
        st.integers(8, 300),
        st.integers(0, 2**32),
        st.integers(-60, 60),
    ),
)
modes = pytest.mark.parametrize("mode", list(BoundaryExtension), ids=lambda m: m.value)


def assert_telescopes(d, x):
    tol = 1e-12 * np.max(np.abs(x))
    err = np.max(np.abs(d.reconstruct().samples - x))
    assert err <= tol, f"max error {err:.3g} over {tol:.3g}"


@modes
@settings(max_examples=60, deadline=None)
@given(x=samples)
def test_emd_telescopes(x, mode):
    assert_telescopes(emd(Signal(x), EMDSettings(boundary=mode)), x)


@modes
@settings(max_examples=60, deadline=None)
@given(x=samples, xi=st.sampled_from([1.6, 3.0]))
def test_if_telescopes(x, mode, xi):
    d = iterative_filtering(Signal(x), IFSettings(n_imfs=4, xi=xi, extension=mode))
    assert_telescopes(d, x)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, st.integers(16, 120), elements=st.floats(-1e3, 1e3)),
    st.integers(1, 4),
    st.integers(1, 6),
)
def test_eemd_telescopes_to_the_member_mean(x, ne, num_imfs):
    s = Signal(x)
    if np.std(x) == 0.0:
        s = Signal(x + np.arange(x.size))  # noise is scaled to the std
    cfg = EEMDSettings(ne=ne, seed=11, num_imfs=num_imfs)
    members = np.array([noise_member(s, cfg, k).samples for k in range(ne)])
    assert_telescopes(eemd(s, cfg), members.mean(axis=0))


def zero_crossings(x: np.ndarray) -> int:
    return int(np.count_nonzero(np.signbit(x[:-1]) != np.signbit(x[1:])))


def test_emd_is_a_filter_bank_on_white_noise():
    noise = np.random.default_rng(2004).standard_normal((20, 4096))
    # The first five IMFs: past them, a few dozen crossings make the ratio
    # too coarse to compare.
    counts = np.array(
        [[zero_crossings(imf.samples) for imf in emd(Signal(x)).imfs[:5]] for x in noise]
    )
    ratios = counts[:, :-1] / counts[:, 1:]
    assert 2.3 <= ratios.mean() <= 2.6, ratios.mean()
    # The same ratio at every scale: the bank's bands are self-similar.
    per_scale = ratios.mean(axis=0)
    assert np.all((per_scale >= 2.2) & (per_scale <= 2.7)), per_scale
    assert np.all((ratios >= 1.9) & (ratios <= 3.2)), (ratios.min(), ratios.max())
