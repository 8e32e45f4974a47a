"""imfkit benchmark: run one workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is run from the checkout's ``src/`` directory. Load is a closed
loop with one client: one operation at a time, each waiting for the
previous one to finish. ``--trace 0`` prints the end-to-end metrics named
in ``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics from a
separate traced pass. The last stdout line is the JSON result; a run
record with the machine, versions and raw figures is written under
``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import inputs
import tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
# Every run must end within 180 s: children still running this long after
# the start are killed, and no operation starts unless it can finish twice.
HARD_LIMIT_S = 165.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # input samples per operation
    argv: tuple[str, ...]  # imfkit CLI arguments
    nbins: int = 128
    svgs: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "if-64k",
            inputs.IF_N,
            ("decompose", "--method", "if", "--n-imfs", "6", "--xi", "3", "--plot"),
            svgs=("decomposition.svg", "spectrum.svg"),
        ),
        Workload(
            "eemd-8k",
            inputs.EEMD_N,
            ("decompose", "--method", "eemd", "--threads", "2",
             "--estimator", "derivative", "--spectrum-bins", "32"),
            nbins=32,
        ),
    )
}


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Spawns children one at a time and reaps each with ``os.wait4``."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.stop_at = started + HARD_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def remaining(self) -> float:
        return self.stop_at - time.perf_counter()

    def spawn(self, argv: list[str]) -> Child:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with out_path.open("w") as out, err_path.open("w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=ru.ru_utime + ru.ru_stime,
            # ru_maxrss is in KiB. For a process tree Linux reports the
            # largest single process, not the sum.
            rss_mb=ru.ru_maxrss * 1024 / 1e6,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def python(self, *args: str) -> Child:
        return self.spawn([sys.executable, *args])

    def child_json(self, *args: str) -> tuple[Child, dict]:
        c = self.python(str(HERE / "child.py"), *args)
        lines = c.stdout.strip().splitlines()
        if c.rc != 0 or not lines:
            raise RuntimeError(f"child.py {args[0]} failed (exit {c.rc}): {c.stderr[-800:]}")
        return c, json.loads(lines[-1])


def failure(c: Child) -> list[str]:
    return [] if c.rc == 0 else [f"exit {c.rc}: {c.stderr.strip()[-400:]}"]


# ---------------------------------------------------------------------------
# Workload set-up, operations and checks


class CliWorkload:
    """A workload run as ``python -m imfkit ...`` on generated files."""

    def __init__(self, w: Workload, seed: int, runner: Runner):
        self.w, self.runner = w, runner
        self.out = runner.work / "out"
        gen = inputs.eemd_signal if w.name == "eemd-8k" else inputs.if_signal
        t, self.x = gen(seed)
        self.input = runner.work / "input.csv"
        self.input.write_bytes(inputs.csv_bytes(t, self.x))
        self.ref = checks.reference("eemd-8k" if w.name == "eemd-8k" else "if-64k")
        self.expected = self._expected_sum()

    def _expected_sum(self) -> np.ndarray:
        if self.w.name != "eemd-8k":
            return self.x
        # EEMD components sum to the mean of the noisy members, i.e. the
        # input plus the mean of the added noise.
        sys.path.insert(0, str(SRC))
        from imfkit import EEMDSettings, Signal, noise_member

        s, cfg = Signal(self.x), EEMDSettings()
        return np.mean([noise_member(s, cfg, k).samples for k in range(cfg.ne)], axis=0)

    def check(self) -> list[str]:
        try:
            errors, k = checks.check_imfs_csv(self.out / "imfs.csv", self.expected, self.ref)
            errors += checks.check_meta_count(self.out / "meta.txt", k)
            errors += checks.check_spectrum_dir(self.out, k, self.w.n, self.w.nbins)
            errors += checks.check_svgs(self.out, self.w.svgs)
        except (OSError, ValueError) as exc:
            errors = [f"unreadable output: {exc}"]
        return errors

    def op(self, traced_spans: Path | None = None) -> tuple[Child, list[str]]:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [*self.w.argv, "--input", str(self.input), "--out", str(self.out)]
        if traced_spans is None:
            argv = ["-m", "imfkit", *argv]
        else:
            argv = [str(HERE / "child.py"), "cli", "--spans", str(traced_spans), "--", *argv]
        c = self.runner.python(*argv)
        return c, failure(c) or self.check()


# ---------------------------------------------------------------------------
# Measurement passes


def import_child(runner: Runner) -> float:
    c = runner.python("-c", "import imfkit")
    if c.rc != 0:
        raise RuntimeError(f"import imfkit failed: {c.stderr[-800:]}")
    return c.wall_s


def end_to_end(w: Workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    wl = CliWorkload(w, seed, runner)
    # Warm-up, untimed: fills the page cache and the bytecode cache.
    import_child(runner)
    # The set-up children alternate with the first operations, so a slow
    # stretch of the host does not fall on all of them at once.
    # Operations run until their own wall times add up to the run length;
    # set-up children and output checks do not count towards it.
    setup, ops = [], []
    while sum(o["wall_s"] for o in ops) < seconds:
        if len(setup) < SETUP_REPS:
            setup.append(import_child(runner))
        c, errors = wl.op()
        ops.append({"wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
                    "errors": errors[:5]})
        if runner.remaining() < 2.0 * c.wall_s:
            break
    while len(setup) < SETUP_REPS:
        setup.append(import_child(runner))
    good = [o["wall_s"] for o in ops if not o["errors"]] or [o["wall_s"] for o in ops]
    run_s = statistics.median(good)
    metrics = {
        "run_s": run_s,
        "samples_per_s": w.n / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(o["rss_mb"] for o in ops),
    }
    raw = {"setup_walls_s": setup, "operations": ops, "samples_per_operation": w.n}
    return metrics, raw


IMPORT_ROWS = {
    "import.total_s": "imfkit",
    "import.numpy_s": "numpy",
    "import.scipy_interpolate_s": "scipy.interpolate",
    "import.scipy_signal_s": "scipy.signal",
}


def import_times(runner: Runner) -> dict:
    """Cumulative import times from ``-X importtime`` (absent modules read 0)."""
    c = runner.python("-X", "importtime", "-c", "import imfkit")
    if c.rc != 0:
        raise RuntimeError(f"import imfkit failed: {c.stderr[-800:]}")
    self_us, cum_us = {}, {}
    for line in c.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        self_us[name] = int(parts[0])
        cum_us.setdefault(name, int(parts[1]))
    out = {metric: cum_us.get(mod, 0) / 1e6 for metric, mod in IMPORT_ROWS.items()}
    out["import.imfkit_self_s"] = sum(
        v for k, v in self_us.items() if k == "imfkit" or k.startswith("imfkit.")
    ) / 1e6
    return out


def traced(w: Workload, seed: int, runner: Runner) -> tuple[dict, dict]:
    metrics = import_times(runner)
    spans_path = runner.work / "spans.json"
    wl = CliWorkload(w, seed, runner)
    plain, errors = wl.op()
    ops = [{"traced": False, "wall_s": plain.wall_s, "errors": errors[:5]}]
    c, errors = wl.op(spans_path)
    ops.append({"traced": True, "wall_s": c.wall_s, "errors": errors[:5]})
    written = sum(p.stat().st_size for p in wl.out.iterdir())
    probe_args = ["--imfs-csv", str(wl.out / "imfs.csv")] if w.name == "eemd-8k" else []
    dump = json.loads(spans_path.read_text())
    _, probes = runner.child_json("probes", "--workload", w.name, "--seed", str(seed), *probe_args)
    if probes["errors"]:
        ops.append({"traced": False, "probe": True, "errors": probes["errors"]})
    metrics.update(tracer.summarize(dump["spans"]))
    metrics.update({k: v for k, v in probes.items() if k != "errors"})
    metrics.setdefault("eemd.speedup_2t", 0.0)
    metrics.setdefault("eemd.peak_alloc_mb", 0.0)
    emit_s = metrics["cli.write_imfs_s"] + metrics["cli.emit_s"] + metrics["svgplot.render_s"]
    metrics.update({
        "cli.bytes_written": written,
        "cli.emit_mb_per_s": written / 1e6 / emit_s if emit_s else 0.0,
        "proc.cpu_s": plain.cpu_s,
        "proc.cpu_util": plain.cpu_s / plain.wall_s,
        "trace.overhead_s": c.wall_s - plain.wall_s,
    })
    raw = {"operations": ops, "wrapped": dump["installed"], "not_found": dump["missing"],
           "spans": len(dump["spans"])}
    return metrics, raw


# ---------------------------------------------------------------------------
# Run record


def machine() -> dict:
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v, "unset") for v in thread_vars},
    }


NOTES = [
    "closed loop, one client: one operation at a time",
    "run_s: median wall time per operation; CLI operations run from spawn to exit",
    "peak_rss_mb: ru_maxrss from os.wait4 per child; Linux reports the largest "
    "process of the child's tree, not a sum",
    "specfreq.grid_mb is computed as rows * bins * 8 bytes, not measured",
    "eemd.peak_alloc_mb is a tracemalloc peak from a separate untimed eemd call",
    "per-layer figures of layers a workload does not call read 0",
]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    started = time.perf_counter()
    if not (SRC / "imfkit" / "__init__.py").is_file():
        print(f"perfbench: no imfkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(work, started)
    try:
        if args.trace:
            metrics, raw = traced(w, args.seed, runner)
        else:
            metrics, raw = end_to_end(w, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = raw["operations"]
    failed = sum(1 for o in ops if o["errors"])
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": {
            "argv": list(w.argv),
            "nbins": w.nbins,
            "input_lengths": [w.n],
        },
        "machine": machine(),
        "notes": NOTES,
        "metrics": metrics,
        "fail_frac": failed / len(ops),
        "raw": raw,
    }
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed")
    for o in ops:
        for e in o["errors"]:
            print(f"  error: {e}")
    result = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:30s} {value:.6g} {m['unit']}")
    print(f"  {'fail_frac':30s} {failed / len(ops):.6g} ratio")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
