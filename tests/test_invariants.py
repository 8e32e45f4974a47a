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

Time reversal: every engine treats both ends of the signal alike, so
decomposing the reversed signal gives the reversed IMFs and residual,
with the same IMF count, mask lengths and iteration counts.
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


def tone_chirp_noise(n: int, seed: int, exp: int) -> np.ndarray:
    t = np.arange(n) / n
    noise = np.random.default_rng(seed).standard_normal(n)
    x = np.sin(2 * np.pi * 7.3 * t) + 0.7 * np.sin(2 * np.pi * (3 * t + 40 * t * t))
    return np.ldexp(x + 0.3 * noise, exp)


# Continuous draws, so no two neighbours are equal: a plateau of even
# length has its extremum at the midpoint rounded down, which reversal
# moves by one sample, and the decomposition with it.
reversible = st.builds(
    tone_chirp_noise, st.integers(16, 600), st.integers(0, 2**32), st.integers(-60, 60)
)


@pytest.mark.parametrize(
    "decompose",
    [lambda s: emd(s)]
    + [
        lambda s, m=m: iterative_filtering(s, IFSettings(n_imfs=6, extension=m))
        for m in (BoundaryExtension.PERIODIC, BoundaryExtension.REFLECTION)
    ],
    ids=["emd", "if-periodic", "if-reflection"],
)
@settings(max_examples=40, deadline=None)
@given(x=reversible)
def test_time_reversal(x, decompose):
    d, r = decompose(Signal(x)), decompose(Signal(x[::-1]))
    assert [(m.inner_iterations, m.mask_half_length) for m in r.meta] == [
        (m.inner_iterations, m.mask_half_length) for m in d.meta
    ]
    # Only rounding differs between the two runs: the worst seen over 160
    # such signals was 1.9e-15 of max|x|.
    tol = 1e-13 * np.max(np.abs(x))
    for a, b in zip((*d.imfs, d.residual), (*r.imfs, r.residual)):
        assert np.max(np.abs(a.samples[::-1] - b.samples)) <= tol


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
