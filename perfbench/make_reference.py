"""Regenerate reference.json, the figures the output checks compare with.

    PYTHONPATH=src python3 perfbench/make_reference.py [--seeds 16]

For each workload the library is run on the inputs of seeds 100..100+N-1
(EEMD with one thread), so that low seeds stay free for validation runs.
The reference is the median over the seeds. Each absolute tolerance is
three times the largest seed-to-seed deviation, and at least 0.1 % of the
largest value and 5 % of the value itself.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

import checks
import inputs
from imfkit import EEMDSettings, IFSettings, Signal, eemd, iterative_filtering


def _summary(rows: list[np.ndarray], min_rel: float = 0.05) -> tuple[list[float], list[float]]:
    a = np.array(rows)
    ref = np.median(a, axis=0)
    dev = np.max(np.abs(a - ref), axis=0)
    tol = np.maximum(np.maximum(3.0 * dev, min_rel * ref), 1e-3 * ref.max())
    return ref.tolist(), tol.tolist()


def _imf_rms(d) -> np.ndarray:
    return checks.rms(np.array([imf.samples for imf in d.imfs]))


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=16)
    seeds = range(100, 100 + p.parse_args().seeds)
    out = {}
    for name, make in (
        ("if-64k", lambda x: iterative_filtering(Signal(x), IFSettings(n_imfs=6, xi=3.0))),
        ("eemd-8k", lambda x: eemd(Signal(x), EEMDSettings(), threads=1)),
    ):
        gen = inputs.if_signal if name == "if-64k" else inputs.eemd_signal
        ds = [make(gen(seed)[1]) for seed in seeds]
        counts = {len(d.imfs) for d in ds}
        if len(counts) != 1:
            raise SystemExit(f"{name}: IMF count depends on the seed: {counts}")
        ref, tol = _summary([_imf_rms(d) for d in ds])
        out[name] = {"imfs_extracted": counts.pop(), "rms": ref, "rms_tol": tol}
        print(name, out[name], flush=True)
    checks.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
