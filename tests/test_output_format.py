"""The CLI's CSV files, cell by cell, against the library's arrays.

Every cell must be ``repr(float(v))`` of the value the library API
returns: the decomposition, the estimator table of ``imfkit.specfreq`` and
``hilbert_spectrum``. The expected text is built one cell at a time, the
plain way, so it is independent of how the CLI formats its output.
"""

import numpy as np
import pytest

from imfkit import (
    EEMDSettings,
    EMDSettings,
    IFSettings,
    csvio,
    eemd,
    emd,
    hilbert_spectrum,
    iterative_filtering,
    specfreq,
)
from imfkit.cli import ingest_csv, main, read_imfs_csv

N = 300  # not a multiple of any row-block size used below

RUNS = {
    "emd": (["--method", "emd"], lambda s: emd(s, EMDSettings())),
    "eemd": (
        ["--method", "eemd", "--ne", "3", "--seed", "4"],
        lambda s: eemd(s, EEMDSettings(ne=3, seed=4)),
    ),
    "if": (
        ["--method", "if", "--xi", "3", "--n-imfs", "3"],
        lambda s: iterative_filtering(s, IFSettings(xi=3.0, n_imfs=3)),
    ),
}


@pytest.fixture
def signal_csv(tmp_path):
    rng = np.random.default_rng(11)
    t = 0.5 + 0.01 * np.arange(N)
    x = np.sin(2 * np.pi * 1.5 * t) + 0.4 * np.sin(2 * np.pi * 21 * t)
    x += 0.05 * rng.standard_normal(N)
    path = tmp_path / "in.csv"
    path.write_text(
        "t,v\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, x))
    )
    return path


@pytest.fixture(params=[None, 64], ids=["default-block", "block-64"])
def row_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(csvio, "_ROW_BLOCK", request.param)


def assert_csv(path, names, columns):
    text = path.read_text()
    assert text.endswith("\n")
    header, *rows = text.split("\n")[:-1]
    assert header.split(",") == names
    n = len(columns[0])
    assert len(rows) == n
    for i, row in enumerate(rows):
        assert row.split(",") == [repr(float(col[i])) for col in columns], f"row {i}"


def assert_traces(out, d, estimator):
    trace_fn = specfreq._ESTIMATORS[estimator]
    for k, imf in enumerate(d.imfs, start=1):
        trace = trace_fn(imf)
        assert_csv(
            out / f"iftrace_{k}.csv",
            ["time", "amplitude", "frequency", "valid"],
            [
                d.residual.times,
                trace.amplitude.samples,
                trace.frequency.samples,
                trace.valid_mask.astype(np.float64),
            ],
        )
    assert not (out / f"iftrace_{len(d.imfs) + 1}.csv").exists()


def assert_spectrum(path, grid):
    centers = 0.5 * (grid.freqs[:-1] + grid.freqs[1:])
    assert_csv(
        path,
        ["time", *(repr(float(c)) for c in centers)],
        [grid.times, *grid.amplitude.T],
    )


@pytest.mark.parametrize(
    "method,estimator",
    [("emd", "hilbert"), ("eemd", "derivative"), ("if", "hilbert"), ("if", "derivative")],
)
def test_decompose_cells_match_library(signal_csv, tmp_path, row_block, method, estimator):
    flags, decompose = RUNS[method]
    out = tmp_path / "run"
    assert main(
        ["decompose", *flags, "--input", str(signal_csv), "--out", str(out),
         "--estimator", estimator, "--spectrum-bins", "24"]
    ) == 0
    s = ingest_csv(signal_csv)
    d = decompose(s)
    assert d.imfs
    assert_csv(
        out / "imfs.csv",
        ["time", *(f"imf{k}" for k in range(1, len(d.imfs) + 1)), "residual"],
        [s.times, *(imf.samples for imf in d.imfs), d.residual.samples],
    )
    assert_traces(out, d, estimator)
    grid = hilbert_spectrum(d, nbins=24, estimator=estimator)
    assert grid.amplitude.any() and not grid.amplitude.all()
    assert_spectrum(out / "spectrum.csv", grid)


def test_spectrum_command_rewrites_traces_and_grid(signal_csv, tmp_path, row_block):
    out = tmp_path / "run"
    assert main(
        ["decompose", *RUNS["if"][0], "--input", str(signal_csv), "--out", str(out)]
    ) == 0
    assert main(
        ["spectrum", "--in", str(out), "--bins", "16", "--estimator", "derivative",
         "--weight", "energy"]
    ) == 0
    d = read_imfs_csv(out / "imfs.csv")
    assert_traces(out, d, "derivative")
    grid = hilbert_spectrum(d, nbins=16, estimator="derivative", weight="energy")
    assert_spectrum(out / "spectrum.csv", grid)


def test_zero_imfs_give_all_zero_spectrum_rows(tmp_path, row_block):
    path = tmp_path / "ramp.csv"
    path.write_text("".join(f"{0.25 * i!r}\n" for i in range(N)))
    out = tmp_path / "run"
    assert main(
        ["decompose", "--method", "if", "--input", str(path), "--out", str(out),
         "--spectrum-bins", "10"]
    ) == 0
    s = ingest_csv(path)
    assert_csv(out / "imfs.csv", ["time", "residual"], [s.times, s.samples])
    assert not (out / "iftrace_1.csv").exists()
    edges = np.linspace(0.0, 0.5 / s.dt, 11)
    centers = 0.5 * (edges[:-1] + edges[1:])
    lines = (out / "spectrum.csv").read_text().split("\n")
    assert lines[0] == ",".join(["time", *(repr(float(c)) for c in centers)])
    assert lines[1:] == [repr(float(t)) + ",0.0" * 10 for t in s.times] + [""]
