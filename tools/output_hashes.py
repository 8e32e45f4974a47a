"""sha256 of every file a fixed set of imfkit CLI runs writes.

Usage::

    PYTHONPATH=src python3 tools/output_hashes.py > hashes.txt

The script writes a seeded fixture signal into a temporary directory and
runs a fixed list of configurations through ``imfkit.cli.main`` there,
with a relative input path, so ``meta.txt``'s ``input =`` line is the same
in every checkout. ``decompose --help`` and a few error messages are
captured into files of their own. It prints one ``sha256  relpath`` line
per file, sorted by path. Run it against two source trees and ``diff`` the
outputs to check that a change keeps the output bytes.

``tests/data/output_hashes.txt`` holds this listing under a header of
``# name version`` lines from :func:`versions`, the libraries and machine
the hashes depend on; ``tests/test_output_hashes.py`` reruns the script and
compares, and rewrites that file when run as a script.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

SETTINGS = (
    "IF.Xi = 3\nIF.NIMFs = 3\nIF.ExtensionType = Reflection\nIF.alpha = almost_min\n"
)
BAD_SETTINGS = "IF.NIMFs = 3\nIF.Xi = abc\n"
RANGE_SETTINGS = "IF.Xi = -1\n"
FOREIGN_SETTINGS = "IF.NIMFs = 3\nEEMD.Ne = 5\n"

EEMD = ["decompose", "--method", "eemd", "--input", "in_short.csv",
        "--ne", "6", "--seed", "3", "--plot"]
EEMD_40 = ["decompose", "--method", "eemd", "--input", "in_short.csv",
           "--ne", "40", "--seed", "3"]

# (output directory, CLI arguments); "in_long.csv" has 2048 samples, a power
# of two, and "in_short.csv" 600, which is not, so IF's transforms run on
# both kinds of length; "in_odd.csv" has 601, so the Hilbert traces of
# "if-odd" take the odd-length transform, which has no Nyquist bin, and
# "in_16.csv" has 16, the fewest samples whose Hilbert traces continue the
# signal's edges, so "if-16" runs the edge continuation on its shortest input.
# "in_9k.csv" has 9000 samples, more than two blocks of 4096 rows, so "if-9k"
# covers the block seams of parsing and writing, and on a host with more
# than one CPU, files written by several processes.
# "eemd", "eemd-1t" and "eemd-3t" differ only in --threads, so every file of
# theirs but meta.txt (its "threads =" line) must hash the same; "eemd-3t"
# runs 6 members on 3 workers, more than a 2-CPU host has. "eemd-40",
# "eemd-40-2t" and "eemd-40-3t" likewise differ only in --threads; their 40
# members form 16 blocks of 2 or 3, summed block by block. "emd" (reflection),
# "emd-constant" and "emd-deriv" (periodic) cover the three envelope
# boundary modes. "if-bins1" draws a one-bin heat map; "emd-tiny" runs on
# the 200 samples of "in_tiny.csv", so its heat map is drawn without pooling.
# "if-wide" has 3000 bins, so spectrum.csv has long zero runs and the pooled
# heat map many bins. "if-nano" and "emd-huge" run on "in_short.csv"'s values
# scaled by 1e-9 and 1e20, so their component and amplitude cells are below
# 1e-4 or at least 1e16 in magnitude, where the CSV writer takes a cell's
# text from repr.
RUNS = [
    ("emd", ["decompose", "--method", "emd", "--input", "in_short.csv", "--plot"]),
    ("emd-constant", ["decompose", "--method", "emd", "--input", "in_short.csv",
                      "--boundary", "constant"]),
    ("emd-deriv", ["decompose", "--method", "emd", "--input", "in_long.csv",
                   "--estimator", "derivative", "--max-imfs", "3",
                   "--boundary", "periodic"]),
    ("eemd", [*EEMD, "--threads", "2"]),
    ("eemd-1t", [*EEMD, "--threads", "1"]),
    ("eemd-3t", [*EEMD, "--threads", "3"]),
    ("eemd-40", [*EEMD_40, "--threads", "1"]),
    ("eemd-40-2t", [*EEMD_40, "--threads", "2"]),
    ("eemd-40-3t", [*EEMD_40, "--threads", "3"]),
    ("eemd-deriv", ["decompose", "--method", "eemd", "--input", "in_short.csv",
                    "--ne", "4", "--nstd", "0.1", "--num-imfs", "4",
                    "--estimator", "derivative", "--spectrum-bins", "40"]),
    ("if-long", ["decompose", "--method", "if", "--input", "in_long.csv",
                 "--xi", "3", "--n-imfs", "4", "--plot"]),
    ("if-long-deriv", ["decompose", "--method", "if", "--input", "in_long.csv",
                       "--xi", "3", "--n-imfs", "4", "--estimator", "derivative",
                       "--spectrum-bins", "40"]),
    ("if-periodic", ["decompose", "--method", "if", "--input", "in_short.csv",
                     "--n-imfs", "3", "--extension", "periodic", "--alpha", "0"]),
    ("if-reflection", ["decompose", "--method", "if", "--input", "in_short.csv",
                       "--n-imfs", "3", "--extension", "reflection", "--delta", "0.01"]),
    ("if-constant", ["decompose", "--method", "if", "--input", "in_short.csv",
                     "--n-imfs", "3", "--extension", "constant", "--max-inner", "50"]),
    ("if-masks", ["decompose", "--method", "if", "--input", "in_short.csv",
                  "--mask-lengths", "5,9", "--n-imfs", "3", "--ext-points", "4"]),
    ("if-settings", ["decompose", "--method", "if", "--input", "in_short.csv",
                     "--settings", "settings.cfg", "--plot"]),
    ("if-zero", ["decompose", "--method", "if", "--input", "ramp.csv", "--plot"]),
    ("if-bins1", ["decompose", "--method", "if", "--input", "in_short.csv",
                  "--n-imfs", "3", "--spectrum-bins", "1", "--plot"]),
    ("emd-tiny", ["decompose", "--method", "emd", "--input", "in_tiny.csv", "--plot"]),
    ("if-wide", ["decompose", "--method", "if", "--input", "in_short.csv",
                 "--n-imfs", "3", "--spectrum-bins", "3000", "--plot"]),
    ("spectrum-energy", ["decompose", "--method", "if", "--input", "in_short.csv",
                         "--xi", "3", "--n-imfs", "3"]),
    ("if-9k", ["decompose", "--method", "if", "--input", "in_9k.csv",
               "--xi", "3", "--n-imfs", "5", "--plot"]),
    ("if-nano", ["decompose", "--method", "if", "--input", "in_nano.csv",
                 "--n-imfs", "3"]),
    ("emd-huge", ["decompose", "--method", "emd", "--input", "in_huge.csv"]),
    ("if-odd", ["decompose", "--method", "if", "--input", "in_odd.csv",
                "--xi", "3", "--n-imfs", "3"]),
    ("if-16", ["decompose", "--method", "if", "--input", "in_16.csv",
               "--n-imfs", "2", "--plot"]),
]

# Commands whose stdout/stderr text is part of the compared output. "short"
# holds an imfs.csv of 7 samples, too few to trace; "ramp.csv" has one column.
IF_FAILS = ["decompose", "--method", "if", "--input", "in_short.csv", "--out", "x"]
TEXTS = [
    ("decompose-help.txt", ["decompose", "--help"]),
    ("error-foreign-flag.txt", ["decompose", "--method", "emd", "--input", "in_short.csv",
                                "--out", "x", "--xi", "3"]),
    ("error-alpha.txt", ["decompose", "--method", "if", "--input", "in_short.csv",
                         "--out", "x", "--alpha", "bogus"]),
    ("error-extension.txt", ["decompose", "--method", "if", "--input", "in_short.csv",
                             "--out", "x", "--extension", "bogus"]),
    ("error-column.txt", ["info", "--input", "in_short.csv", "--value-col", "x"]),
    ("error-short-spectrum.txt", ["spectrum", "--in", "short", "--bins", "4"]),
    ("error-settings-value.txt", ["decompose", "--method", "if", "--settings", "bad.cfg",
                                  "--input", "in_short.csv", "--out", "x"]),
    ("error-time-column.txt", ["info", "--input", "ramp.csv", "--time-col", "0"]),
    ("error-settings-range.txt", [*IF_FAILS, "--settings", "range.cfg"]),
    ("error-settings-foreign.txt", [*IF_FAILS, "--settings", "foreign.cfg"]),
    ("error-mask-lengths-empty.txt", [*IF_FAILS, "--mask-lengths", ","]),
]


def versions() -> dict[str, str]:
    """What the hashes depend on besides imfkit: FFT, CSV cell and float text."""
    found = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "orjson"):
        found[package] = importlib.metadata.version(package)
    found["machine"] = platform.machine()
    return found


def _write_inputs() -> None:
    rng = np.random.default_rng(2017)
    for name, n in (("in_long.csv", 2048), ("in_short.csv", 600), ("in_9k.csv", 9000),
                    ("in_odd.csv", 601), ("in_16.csv", 16)):
        t = 0.25 + np.arange(n) / 512
        x = np.sin(2 * np.pi * 1.5 * t) + 0.5 * np.sin(2 * np.pi * 37 * t)
        x += 0.1 * rng.standard_normal(n)
        rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, x))
        Path(name).write_text("t,v\n" + rows)
        if name == "in_short.csv":
            for scaled, scale in (("in_nano.csv", 1e-9), ("in_huge.csv", 1e20)):
                rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, scale * x))
                Path(scaled).write_text("t,v\n" + rows)
    t = np.arange(200) / 64
    x = np.sin(2 * np.pi * 2 * t) + 0.5 * np.sin(2 * np.pi * 11 * t)
    rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, x))
    Path("in_tiny.csv").write_text("t,v\n" + rows)
    Path("short").mkdir()
    rows = "".join(f"{0.5 * i!r},{(-1.0) ** i!r},0.25\n" for i in range(7))
    Path("short/imfs.csv").write_text("time,imf1,residual\n" + rows)
    Path("ramp.csv").write_text("".join(f"{0.5 * i!r}\n" for i in range(40)))
    Path("settings.cfg").write_text(SETTINGS)
    Path("bad.cfg").write_text(BAD_SETTINGS)
    Path("range.cfg").write_text(RANGE_SETTINGS)
    Path("foreign.cfg").write_text(FOREIGN_SETTINGS)


def _capture(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def main() -> int:
    os.environ["COLUMNS"] = "100"  # argparse wraps --help to the terminal width
    from imfkit.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_inputs()
        for out, argv in RUNS:
            code = cli_main([*argv, "--out", out])
            if code != 0:
                print(f"run {out} exited {code}", file=sys.stderr)
                return 1
        code = cli_main(["spectrum", "--in", "spectrum-energy", "--bins", "24",
                         "--weight", "energy", "--plot"])
        if code != 0:
            print(f"spectrum exited {code}", file=sys.stderr)
            return 1
        Path("texts").mkdir()
        for name, argv in TEXTS:
            (Path("texts") / name).write_text(_capture(cli_main, argv))
        inputs = {"in_long.csv", "in_short.csv", "in_9k.csv", "in_odd.csv", "in_16.csv",
                  "in_tiny.csv", "in_nano.csv", "in_huge.csv", "ramp.csv", "settings.cfg",
                  "bad.cfg", "range.cfg", "foreign.cfg", "short/imfs.csv"}
        for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
            if path.as_posix() not in inputs:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
