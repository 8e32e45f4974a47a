"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (plus a PASS print under ``-s``). Criteria 10a/10b depend on
external datasets and are skipped unless the IMFKIT_LOD_CSV /
IMFKIT_VOSTOK_CSV environment variables point at local CSV files.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import imfkit as ik
from imfkit.csvio import ingest_csv, read_meta
from imfkit.iterfilt import _circular_embed
from conftest import central_correlation, two_tone

SEED = 20260811


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}", flush=True)


def test_criterion_01_reconstruction_exactness():
    """EMD and IF reconstruct 200 random signals to 1e-10 relative max-norm."""
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(64, 4097))
        x = rng.standard_normal(n)
        s = ik.Signal(x)
        scale = np.abs(x).max()
        for d in (
            ik.emd(s),
            ik.iterative_filtering(s, ik.IFSettings(n_imfs=3)),
        ):
            err = np.abs(d.reconstruct().samples - x).max() / scale
            worst = max(worst, err)
            assert err <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_eemd_statistical_reconstruction():
    """EEMD RMS reconstruction error <= 0.06*std(s) over 20 seeds."""
    s, _, _ = two_tone(n=2048)
    sigma = float(np.std(s.samples))
    bound = 3 * 0.2 * sigma / math.sqrt(100)
    assert bound == pytest.approx(0.06 * sigma)
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        d = ik.eemd(s, ik.EEMDSettings(nstd=0.2, ne=100, seed=seed))
        err = d.reconstruct().samples - s.samples
        rms = float(np.linalg.norm(err)) / math.sqrt(len(s))
        worst = max(worst, rms)
        assert rms <= bound
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(2, f"worst RMS {worst:.4f} vs bound {bound:.4f}, {elapsed:.1f}s")


def test_criterion_03_eemd_thread_determinism():
    """Identical seed gives byte-identical output at 1, 4 and 8 threads."""
    s, _, _ = two_tone(n=2048)
    cfg = ik.EEMDSettings(nstd=0.2, ne=24, seed=123)

    def blob(threads):
        d = ik.eemd(s, cfg, threads=threads)
        return (
            b"".join(i.samples.tobytes() for i in d.imfs)
            + d.residual.samples.tobytes()
        )

    blobs = {t: blob(t) for t in (1, 4, 8)}
    assert blobs[1] == blobs[4] == blobs[8]
    report(3, "byte-identical at 1/4/8 threads")


def test_criterion_04_mask_validity():
    """Masks have unit sum, exact symmetry, nonnegative weights and DFT."""
    sizes = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 256]
    for l in sizes:
        w = ik.make_mask(l).weights
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert np.array_equal(w, w[::-1])
        assert np.all(w >= 0)
        spec = np.fft.fft(_circular_embed(w, l, 4 * l))
        assert spec.real.min() >= -1e-12
        assert np.abs(spec.imag).max() <= 1e-12
    report(4, f"all {len(sizes)} mask sizes valid")


def test_criterion_05_spectral_iteration_contract():
    """One IF inner iteration scales DFT mode k by (1 - gain_k), to 1e-10."""
    rng = np.random.default_rng(SEED + 5)
    for _ in range(50):
        n = int(rng.integers(256, 4097))
        l = int(rng.integers(1, max(2, n // 8)))
        x = rng.standard_normal(n)
        mask = ik.make_mask(l)
        imf, _, _ = ik.if_extract(
            ik.Signal(x), l, ik.IFSettings(max_inner=1)
        )
        # independent oracle: direct DFT of the centered mask weights
        k = np.arange(n // 2 + 1)[:, None]
        j = np.arange(-l, l + 1)[None, :]
        gain = (mask.weights[None, :] * np.exp(-2j * np.pi * k * j / n)).sum(axis=1)
        lhs = np.fft.rfft(imf.samples)
        rhs = (1.0 - gain) * np.fft.rfft(x)
        scale = np.abs(np.fft.rfft(x)).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale
    report(5, "50 random signals match the direct-DFT oracle")


def percentile30_oracle(values):
    v = sorted(float(x) for x in values)
    if len(v) == 1:
        return v[0]
    rank = 0.30 * (len(v) - 1)
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(v):
        return v[lo]
    return v[lo] + frac * (v[lo + 1] - v[lo])


def test_criterion_06_mask_length_formulas():
    """alpha=ave and alpha=almost_min match independent oracles, 500 cases."""
    rng = np.random.default_rng(SEED + 6)
    checked = 0
    while checked < 500:
        n = int(rng.integers(64, 1200))
        kind = checked % 3
        if kind == 0:
            x = rng.standard_normal(n)
        elif kind == 1:
            x = np.cumsum(rng.standard_normal(n))
        else:
            t = np.arange(n) / n
            f = float(rng.uniform(3, 40))
            x = np.sin(2 * np.pi * f * t) + 0.3 * rng.standard_normal(n)
        s = ik.Signal(x)
        merged = np.sort(np.concatenate(ik.extrema(s)))
        if merged.size < 2:
            continue
        xi = float(rng.uniform(1.1, 3.0))
        cap = (n - 1) // 2
        got = ik.mask_length(s, ik.IFSettings(xi=xi, alpha=ik.MaskLengthRule.AVE))
        want = min(max(int(math.floor(2 * xi * n / merged.size + 0.5)), 1), cap)
        assert got == want
        spacing = np.diff(merged)
        got = ik.mask_length(
            s, ik.IFSettings(xi=xi, alpha=ik.MaskLengthRule.ALMOST_MIN)
        )
        want = min(
            max(int(math.floor(2 * xi * percentile30_oracle(spacing) + 0.5)), 1), cap
        )
        assert got == want
        checked += 1
    report(6, "500 random extrema configurations match the oracles")


def test_criterion_07_two_tone_component_recovery():
    """EMD and IF each recover the 40 Hz and 2 Hz tones (r >= 0.95)."""
    s, slow, fast = two_tone(n=4096)
    budgets = {}
    for name, run in (
        ("emd", lambda: ik.emd(s)),
        # Integer xi parks the dominant tone on a mask DFT zero (published
        # geophysical runs raise xi to 3); 1.6 leaves it mid-sidelobe.
        (
            "if",
            lambda: ik.iterative_filtering(
                s, ik.IFSettings(n_imfs=8, xi=3.0, alpha=ik.MaskLengthRule.AVE)
            ),
        ),
    ):
        start = time.monotonic()
        d = run()
        budgets[name] = time.monotonic() - start
        assert budgets[name] < 10.0
        assert len(d.imfs) >= 2
        assert central_correlation(d.imfs[0].samples, fast) >= 0.95
        assert any(
            central_correlation(imf.samples, slow) >= 0.95 for imf in d.imfs[1:]
        )
    report(7, f"both methods recover both tones ({budgets})")


def test_criterion_08a_hilbert_if_linear_chirp():
    """hilbert_if recovers a linear chirp's frequency within 2% centrally.

    The edge continuation of ``specfreq._stabilized_analytic_arr`` sets
    the accuracy near the window's ends, where the error peaks. See the
    test output for the achieved accuracy.
    """
    n = 4096
    t = np.arange(n) / n
    s = ik.Signal(np.sin(2 * np.pi * (2 * t + 5 * t * t)), dt=1.0 / n)
    trace = ik.hilbert_if(s)
    target = 2 + 10 * t
    central = trace.valid_mask & (t >= 0.1) & (t <= 0.9)
    rel = np.abs(trace.frequency.samples[central] - target[central])
    rel /= target[central]
    achieved = float(rel.max())
    assert achieved < 0.02, f"achieved {achieved:.4f} on the central 80%"
    report("8a", f"chirp tracked to {achieved:.4f}")


def test_criterion_08b_derivative_if_pure_tone():
    """derivative_if recovers a pure tone's frequency within 2%."""
    n = 2048
    dt = 2.0 / n
    t = np.arange(n) * dt
    s = ik.Signal(np.sin(2 * np.pi * 5.0 * t), dt=dt)
    trace = ik.derivative_if(s)
    f = trace.frequency.samples[trace.valid_mask]
    worst = float(np.abs(f - 5.0).max() / 5.0)
    assert worst < 0.02
    report("8b", f"tone recovered to {worst:.4f}")


def test_criterion_08c_estimators_agree_on_tones():
    """hilbert_if and derivative_if agree within 5% on pure tones."""
    worst = 0.0
    for f0, n in ((5.0, 2048), (12.0, 4096), (40.0, 4096)):
        t = np.arange(n) / n
        s = ik.Signal(np.sin(2 * np.pi * f0 * t), dt=1.0 / n)
        th, td = ik.hilbert_if(s), ik.derivative_if(s)
        both = th.valid_mask & td.valid_mask
        diff = np.abs(th.frequency.samples[both] - td.frequency.samples[both])
        worst = max(worst, float(diff.max() / f0))
        assert diff.max() <= 0.05 * f0
    report("8c", f"estimators agree to {worst:.4f}")


def test_criterion_09_cli_defaults_match_documented_values(tmp_path):
    """A flagless CLI run reports the documented default parameters."""
    n = 256
    t = np.arange(n) / n
    x = np.sin(2 * np.pi * 3 * t) + 0.5 * np.sin(2 * np.pi * 25 * t)
    fixture = tmp_path / "sig.csv"
    fixture.write_text(
        "\n".join(f"{float(v)!r}" for v in x) + "\n"
    )

    def run(method, out):
        proc = subprocess.run(
            [
                sys.executable, "-m", "imfkit", "decompose",
                "--method", method, "--input", str(fixture), "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return read_meta(out / "meta.txt")

    meta = run("if", tmp_path / "if_run")
    assert float(meta["delta"]) == 0.001
    assert int(meta["ext_points"]) == 3
    assert int(meta["n_imfs"]) == 1
    assert int(meta["max_inner"]) == 200
    assert meta["alpha"] == "ave"
    assert float(meta["xi"]) == 1.6

    meta = run("eemd", tmp_path / "eemd_run")
    assert float(meta["nstd"]) == 0.2
    assert int(meta["ne"]) == 100
    report(9, "flagless runs record the documented defaults")


def _dataset_decomposition(path, cfg):
    s = ingest_csv(path)
    return ik.iterative_filtering(s, cfg)


@pytest.mark.skipif(
    "IMFKIT_LOD_CSV" not in os.environ,
    reason="set IMFKIT_LOD_CSV to a local length-of-day CSV (1983-1986)",
)
def test_criterion_10a_lod_dataset():
    """User-supplied LOD series: almost_min, xi=3 gives 4 IMFs + remainder."""
    d = _dataset_decomposition(
        os.environ["IMFKIT_LOD_CSV"],
        ik.IFSettings(alpha=ik.MaskLengthRule.ALMOST_MIN, xi=3.0, n_imfs=100),
    )
    assert len(d.imfs) == 4
    report("10a", "LOD decomposes into 4 IMFs + remainder")


@pytest.mark.skipif(
    "IMFKIT_VOSTOK_CSV" not in os.environ,
    reason="set IMFKIT_VOSTOK_CSV to a local Vostok temperature CSV (last 50kyr)",
)
def test_criterion_10b_vostok_dataset():
    """User-supplied Vostok series: ave, xi=3 gives 5 IMFs + remainder."""
    d = _dataset_decomposition(
        os.environ["IMFKIT_VOSTOK_CSV"],
        ik.IFSettings(alpha=ik.MaskLengthRule.AVE, xi=3.0, n_imfs=100),
    )
    assert len(d.imfs) == 5
    report("10b", "Vostok decomposes into 5 IMFs + remainder")
