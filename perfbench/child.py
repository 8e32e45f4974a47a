"""Child-process entry points of the benchmark.

Everything that imports imfkit runs here, in a process of its own, so the
driver can take each operation's wall time, CPU time and peak RSS from
``os.wait4``. Subcommands:

    cli [--spans FILE] -- ARGS...   imfkit's CLI, optionally traced
    probes --workload W --seed N [--imfs-csv FILE]
                                    single-layer timings on workload inputs

``probes`` prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

import inputs
import tracer
from imfkit import (
    BoundaryExtension,
    EEMDSettings,
    IFSettings,
    Signal,
    eemd,
    envelope_mean,
    extrema,
    make_mask,
    mask_length,
    moving_average,
)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _workload_input(workload: str, seed: int) -> tuple[np.ndarray, float]:
    """The workload's input signal and its IF mask-length scale xi."""
    if workload == "eemd-8k":
        return inputs.eemd_signal(seed)[1], IFSettings().xi
    return inputs.if_signal(seed)[1], 3.0


def cmd_probes(args) -> dict:
    x, xi = _workload_input(args.workload, args.seed)
    sig = Signal(x)
    out = {
        "core.extrema_s": _median_time(lambda: extrema(sig), 7),
        "emd.envelope_mean_s": _median_time(
            lambda s=Signal(np.resize(x, 8192)): envelope_mean(s), 7
        ),
    }
    l = mask_length(sig, IFSettings(xi=xi))
    long_sig, short_sig = Signal(np.resize(x, 65536)), Signal(np.resize(x, 512))
    out["iterfilt.mask_half_length"] = l
    out["iterfilt.moving_average_s"] = _median_time(
        lambda m=make_mask(l): moving_average(long_sig, m, BoundaryExtension.PERIODIC), 7
    )
    # The short probe needs a mask that fits 512 samples.
    out["iterfilt.moving_average_short_s"] = _median_time(
        lambda m=make_mask(min(l, 255)): moving_average(short_sig, m, BoundaryExtension.REFLECTION),
        21,
    )
    out["errors"] = []
    if args.workload == "eemd-8k":
        s, cfg = sig, EEMDSettings()
        t0 = time.perf_counter()
        d1 = eemd(s, cfg, threads=1)
        t1 = time.perf_counter()
        d2 = eemd(s, cfg, threads=2)
        t2 = time.perf_counter()
        out["eemd.speedup_2t"] = (t1 - t0) / (t2 - t1)
        tracemalloc.start()
        eemd(s, cfg, threads=2)
        out["eemd.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        a1 = np.array([c.samples for c in (*d1.imfs, d1.residual)])
        a2 = np.array([c.samples for c in (*d2.imfs, d2.residual)])
        if a1.shape != a2.shape or not np.array_equal(a1, a2):
            out["errors"].append("eemd: threads=1 and threads=2 results differ")
        if args.imfs_csv:
            cli_out = np.loadtxt(args.imfs_csv, delimiter=",", skiprows=1)[:, 1:].T
            if cli_out.shape != a1.shape or not np.array_equal(cli_out, a1):
                out["errors"].append("eemd: CLI --threads 2 output differs from threads=1")
    return out


def cmd_cli(args) -> int:
    import imfkit.cli

    tr = None
    if args.spans:
        tr = tracer.Tracer()
        tr.install_globals(tracer.CLI_GLOBALS)
        tr.install_tables(tracer.ESTIMATOR_TABLES)
    try:
        return imfkit.cli.main(args.rest)
    finally:
        if tr is not None:
            tr.dump(args.spans)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="child.py")
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--spans")
    c.add_argument("rest", nargs=argparse.REMAINDER)
    pr = sub.add_parser("probes")
    pr.add_argument("--workload", required=True)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--imfs-csv")
    args = p.parse_args(argv)
    if args.cmd == "cli":
        if args.rest[:1] == ["--"]:
            args.rest = args.rest[1:]
        return cmd_cli(args)
    print(json.dumps(cmd_probes(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
