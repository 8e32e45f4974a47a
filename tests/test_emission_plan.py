"""The emission plan: the same bytes on any number of writer processes,
failures reported by the CLI, and forked writers that leave no trace.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from imfkit import csvio
from imfkit import EMDSettings, Signal, emd, hilbert_if
from imfkit.cli import main

N = 9000  # more than two row blocks, so files are cut at block seams

RUNS = {
    "emd": ["--method", "emd", "--max-imfs", "4"],
    "eemd": ["--method", "eemd", "--ne", "3", "--seed", "5", "--num-imfs", "4"],
    "if": ["--method", "if", "--xi", "3", "--n-imfs", "4"],
}


def signal_rows(n, seed=3):
    t = 0.5 + np.arange(n) / 1024
    x = np.sin(2 * np.pi * 1.5 * t) + 0.5 * np.sin(2 * np.pi * (20 + 8 * t) * t)
    x += 0.05 * np.random.default_rng(seed).standard_normal(n)
    return "t,v\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, x))


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "in.csv"
    path.write_text(signal_rows(N))
    return path


def run_on_cpus(monkeypatch, cpus, argv):
    """(exit status, forks made) of main(argv) in a process allowed ``cpus`` CPUs."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", counting_fork)
        code = main(argv)
    return code, len(forks)


def file_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("method", sorted(RUNS))
def test_one_and_two_writers_write_the_same_bytes(monkeypatch, tmp_path, long_csv, method):
    outputs = {}
    for cpus in (1, 2, 3):
        out = tmp_path / f"cpus{cpus}"
        argv = ["decompose", *RUNS[method], "--input", str(long_csv), "--out", str(out),
                "--plot"]
        code, forks = run_on_cpus(monkeypatch, cpus, argv)
        outputs[cpus] = file_bytes(out)
        jobs = len(outputs[cpus])  # one job per file written
        assert (code, forks) == (0, 0 if cpus == 1 else min(cpus, jobs))
    assert "iftrace_4.csv" in outputs[1] and "spectrum.svg" in outputs[1]
    assert outputs[1] == outputs[2] == outputs[3]


def test_spectrum_command_on_two_writers(monkeypatch, tmp_path, long_csv):
    out = tmp_path / "run"
    argv = ["decompose", *RUNS["if"], "--input", str(long_csv), "--out", str(out)]
    assert run_on_cpus(monkeypatch, 1, argv) == (0, 0)
    jobs = 4 + 2  # iftrace_1..4.csv, spectrum.csv and spectrum.svg
    written = {}
    for cpus in (1, 2, 3):
        argv = ["spectrum", "--in", str(out), "--bins", "40", "--weight", "energy",
                "--plot"]
        forks = 0 if cpus == 1 else min(cpus, jobs)
        assert run_on_cpus(monkeypatch, cpus, argv) == (0, forks)
        written[cpus] = file_bytes(out)
    assert written[1] == written[2] == written[3]


def test_jobs_go_out_largest_first(monkeypatch, tmp_path):
    written = []

    def job(name, cells):
        return csvio._Job(tmp_path / name, cells, lambda p: written.append(p.name))

    plan = csvio.EmissionPlan(np.arange(4.0))
    plan._jobs = [job("a", 5), job("b", 9), job("c", 4), job("d", 0), job("e", 3)]
    calls = []

    def in_order(task, count, workers):
        calls.append((count, workers))
        return map(task, range(count))

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        m.setattr(csvio, "_forked_map", in_order)
        plan.run()
    # Index i of the map is the i-th largest job by table cells.
    assert calls == [(5, 2)]
    assert written == ["b", "a", "c", "e", "d"]
    # One CPU: the real map writes them in that order in this process (a
    # forked writer would not append to this process's list).
    written.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    plan.run()
    assert written == ["b", "a", "c", "e", "d"]


def run_python(code, timeout=120):
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=timeout,
    )
    return proc.stdout, proc.stderr


@pytest.mark.parametrize("cpus", [1, 2])
def test_unwritable_file_is_an_error_naming_it(tmp_path, cpus):
    (tmp_path / "in.csv").write_text(signal_rows(600))
    out = tmp_path / "run"
    (out / "iftrace_2.csv").mkdir(parents=True)
    argv = ["decompose", *RUNS["if"], "--input", str(tmp_path / "in.csv"),
            "--out", str(out)]
    stdout, stderr = run_python(f"""
        import os
        os.sched_getaffinity = lambda pid: set(range({cpus}))
        from imfkit.cli import main
        code = main({argv!r})
        try:
            os.waitpid(-1, os.WNOHANG)
            children = "left"
        except ChildProcessError:
            children = "none"
        print(code, children)
    """)
    assert stdout.split() == ["1", "none"], stderr
    assert stderr.startswith("imfkit: error: ")
    assert str(out / "iftrace_2.csv") in stderr


def test_writers_run_no_exit_handler_and_flush_nothing(tmp_path):
    (tmp_path / "in.csv").write_text(signal_rows(600))
    argv = ["decompose", *RUNS["if"], "--input", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "run"), "--plot"]
    stdout, stderr = run_python(f"""
        import atexit, os, sys
        os.sched_getaffinity = lambda pid: {{0, 1}}
        atexit.register(lambda: print("exit handler"))
        print("buffered before the run")  # stdout is a pipe: block-buffered
        from imfkit.cli import main
        print("exit", main({argv!r}))
    """)
    expected = ["buffered before the run", "exit 0", "exit handler"]
    assert stdout.splitlines() == expected, stderr


def test_writers_are_not_the_peak_of_a_long_run(tmp_path):
    # The if-64k benchmark input: 65,536 samples of tone, chirp and noise.
    n, dt = 65536, 1.0 / 4096
    t = np.arange(n) * dt
    x = np.sin(2 * np.pi * 0.5 * t) + 0.8 * np.sin(2 * np.pi * (2.0 * t + 1.25 * t * t))
    x += 0.1 * np.random.default_rng(7).standard_normal(n)
    path = tmp_path / "in.csv"
    path.write_text("time,value\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                             for a, b in zip(t, x)))
    argv = ["decompose", "--method", "if", "--n-imfs", "6", "--xi", "3", "--plot",
            "--input", str(path), "--out", str(tmp_path / "run")]
    stdout, stderr = run_python(f"""
        import os, resource
        os.sched_getaffinity = lambda pid: {{0, 1}}
        from imfkit.cli import main
        code = main({argv!r})
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        writers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(code, own, writers)
    """, timeout=300)
    code, own, writers = map(int, stdout.split())
    assert code == 0, stderr
    assert 0 < writers <= own, f"writers {writers} KiB, parent {own} KiB"


def test_table_jobs_weigh_rows_times_columns_and_time(monkeypatch, tmp_path):
    n = 600
    t = np.arange(n) / 512
    s = Signal(np.sin(2 * np.pi * 3 * t) + np.sin(2 * np.pi * 60 * t), dt=1 / 512)
    d = emd(s, EMDSettings(max_imfs=3))
    plan = csvio.EmissionPlan(s.times)
    plan.add_imfs(tmp_path / "imfs.csv", d)
    for k, imf in enumerate(d.imfs, start=1):
        plan.add_trace(tmp_path / f"iftrace_{k}.csv", hilbert_if(imf))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    plan.run()
    cells = {job.path.name: job.cells for job in plan._jobs}
    expected = {"imfs.csv": n * (len(d.imfs) + 2)}  # time, the IMFs, residual
    expected.update((f"iftrace_{k}.csv", n * 4) for k in range(1, len(d.imfs) + 1))
    assert cells == expected
    for name, weight in cells.items():  # every cell written, the time column too
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert len(rows) * len(header.split(",")) == weight
