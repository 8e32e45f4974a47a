"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks that

1. the same seed gives byte-identical inputs (and another seed does not);
2. a corrupted ``imfs.csv`` or ``spectrum.csv`` fails the output checks,
   which is what makes the driver count the operation as failed;
3. the exact counts of two traced runs with the same seed are equal.

Exits with 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run

EXACT_COUNTS = ("iterfilt.inner_iters", "emd.calls", "emd.sifts",
                "specfreq.trace_calls", "cli.bytes_written")


def same_seed_same_bytes() -> list[str]:
    def blob(seed: int) -> bytes:
        return (run.inputs.csv_bytes(*run.inputs.if_signal(seed))
                + run.inputs.csv_bytes(*run.inputs.eemd_signal(seed)))

    a, b, c = blob(7), blob(7), blob(8)
    return ([] if a == b else ["same seed gave different inputs"]) + (
        [] if a != c else ["different seeds gave identical inputs"])


def _replace_cell(path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = value
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def corruption_is_caught() -> list[str]:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    errors = []
    try:
        runner = run.Runner(work, time.perf_counter())
        wl = run.CliWorkload(run.WORKLOADS["if-64k"], 7, runner)
        _, op_errors = wl.op()
        if op_errors:
            return [f"clean if-64k run failed its checks: {op_errors}"]
        pristine = {p.name: p.read_bytes() for p in wl.out.glob("*.csv")}
        cases = [
            ("one IMF cell changed", "imfs.csv", lambda p: _replace_cell(p, 1000, 2, "0.5")),
            ("two IMF columns swapped", "imfs.csv", lambda p: p.write_text("\n".join(
                ",".join([c[0], c[4], *c[2:4], c[1], *c[5:]])
                for c in (line.split(",") for line in p.read_text().splitlines())) + "\n")),
            ("file truncated", "imfs.csv", lambda p: p.write_bytes(p.read_bytes()[:100000])),
            ("one spectrum cell changed", "spectrum.csv",
             lambda p: _replace_cell(p, 5000, 40, "1.0")),
        ]
        for label, name, corrupt in cases:
            corrupt(wl.out / name)
            if not wl.check():
                errors.append(f"corruption not caught: {label}")
            (wl.out / name).write_bytes(pristine[name])
        if wl.check():
            errors.append("restored output fails its checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"traced {workload} run failed:\n{out.stdout}")
    return {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}


def counts_repeat() -> list[str]:
    errors = []
    for workload in run.WORKLOADS:
        a, b = traced_counts(workload, 5), traced_counts(workload, 5)
        print(f"  {workload}: {a}")
        if a != b:
            errors.append(f"{workload}: exact counts differ between traced runs: {a} vs {b}")
    return errors


def main() -> int:
    failed = False
    for check in (same_seed_same_bytes, corruption_is_caught, counts_repeat):
        errors = check()
        failed |= bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {check.__name__}")
        for e in errors:
            print(f"  {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
