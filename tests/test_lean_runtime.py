"""What a run loads and holds: no scipy unless a spline is fitted, no orjson
on ``import imfkit``, no BLAS threads in the stopping ratios, and EEMD
members received one at a time.
"""

import ast
import importlib.machinery
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

from imfkit import EEMDSettings, Signal, eemd
from imfkit.core import _natural_spline


def run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_and_if_run_load_no_scipy(tmp_path):
    t = np.arange(600) / 100.0
    x = np.sin(2 * np.pi * 1.5 * t) + 0.5 * np.sin(2 * np.pi * 17 * t)
    (tmp_path / "in.csv").write_text("".join(f"{float(v)!r}\n" for v in x))
    argv = ["decompose", "--method", "if", "--input", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "run"), "--n-imfs", "3", "--estimator", "hilbert",
            "--plot"]
    code = (
        "import sys, imfkit\n"
        f"print({SCIPY_MODULES}, 'orjson' in sys.modules)\n"
        "from imfkit.cli import main\n"
        f"print(main({argv!r}), {SCIPY_MODULES})\n"
    )
    assert run_python(code).splitlines() == ["[] False", "0 []"]
    assert (tmp_path / "run" / "spectrum.svg").exists()


def test_eemd_loads_the_spline_solver_before_forking():
    # With two workers this process fits no spline itself, so the wrapper
    # it holds afterwards was loaded for the workers to inherit.
    code = (
        "import sys, numpy as np\n"
        "from imfkit import EEMDSettings, Signal, eemd\n"
        "before = 'scipy.linalg._flapack' in sys.modules\n"
        "x = np.sin(np.arange(256) / 5.0) + np.cos(np.arange(256) / 17.0)\n"
        "eemd(Signal(x), EEMDSettings(ne=4, seed=1, num_imfs=3), threads=2)\n"
        "print(before, 'scipy.linalg._flapack' in sys.modules, 'scipy.linalg' in sys.modules)\n"
    )
    assert run_python(code) == "False True False"


def test_emd_run_loads_only_the_lapack_wrapper(tmp_path):
    # The scipy modules of an EMD run: scipy's own set-up, which
    # ``import scipy`` loads, and the LAPACK wrapper, without the
    # scipy.linalg package around it.
    t = np.arange(600) / 100.0
    x = np.sin(2 * np.pi * 1.5 * t) + 0.5 * np.sin(2 * np.pi * 17 * t)
    (tmp_path / "in.csv").write_text("".join(f"{float(v)!r}\n" for v in x))
    argv = ["decompose", "--method", "emd", "--input", str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "run"), "--estimator", "derivative"]
    code = (
        "import sys\n"
        "from imfkit.cli import main\n"
        f"print(main({argv!r}), {SCIPY_MODULES})\n"
    )
    rc, modules = run_python(code).split(" ", 1)
    assert rc == "0"
    scipy_alone = run_python(f"import sys, numpy, scipy; print({SCIPY_MODULES})")
    expected = sorted([*ast.literal_eval(scipy_alone), "scipy.linalg._flapack"])
    assert ast.literal_eval(modules) == expected
    assert (tmp_path / "run" / "spectrum.csv").exists()


def test_lapack_wrapper_is_the_one_scipy_linalg_uses():
    # In either load order there is one wrapper module, and one dgtsv.
    first = (
        "from imfkit.core import _lapack\n"
        "wrapper = _lapack()\n"
        "import scipy.linalg.lapack as lapack\n"
    )
    second = (
        "import scipy.linalg.lapack as lapack\n"
        "from imfkit.core import _lapack\n"
        "wrapper = _lapack()\n"
    )
    check = "print(wrapper is lapack._flapack, wrapper.dgtsv is lapack.dgtsv)\n"
    assert run_python(first + check) == "True True"
    assert run_python(second + check) == "True True"


def test_missing_lapack_wrapper_names_the_directory(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    directory = Path(scipy.__file__).parent / "linalg"
    with pytest.raises(ImportError, match=re.escape(str(directory))):
        _natural_spline(np.array([0.0, 4.0]), np.array([1.0, 2.0]), 5)


def test_eemd_caller_holds_few_members_at_a_time():
    n, num_imfs, ne = 8192, 6, 40
    t = np.arange(n) / n
    s = Signal(np.sin(2 * np.pi * (4 + 60 * t) * 8 * t) + 0.3 * np.cos(2 * np.pi * 3 * t))
    cfg = EEMDSettings(ne=ne, seed=4, num_imfs=num_imfs)
    # Load the lazily imported modules before tracing.
    eemd(s.with_samples(s.samples[:256]), EEMDSettings(ne=2, num_imfs=2), threads=2)
    member_bytes = (num_imfs + 1) * n * 8
    tracemalloc.start()
    try:
        eemd(s, cfg, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Results received in chunks of 5 members peaked at ~16 member sizes.
    assert peak < 8 * member_bytes, f"peak {peak / member_bytes:.1f} member sizes"


def test_if_stopping_ratio_runs_no_blas_threads():
    # np.linalg.norm on 65536 samples hands ddot to an OpenBLAS worker
    # thread that spins after it, which made CPU time about twice wall time.
    # numpy's own worker also spins for ~0.1 s after import, so the IF work
    # is repeated for a second of wall time to keep that spin a small share.
    code = (
        "import resource, time, numpy as np\n"
        "from imfkit import IFSettings, Signal, iterative_filtering\n"
        "s = Signal(np.random.default_rng(5).standard_normal(65536))\n"
        "cfg = IFSettings(n_imfs=1, xi=3, max_inner=100)\n"
        "def cpu():\n"
        "    r = resource.getrusage(resource.RUSAGE_SELF)\n"
        "    return r.ru_utime + r.ru_stime\n"
        "c0, w0 = cpu(), time.perf_counter()\n"
        "while time.perf_counter() - w0 < 1.0:\n"
        "    iterative_filtering(s, cfg)\n"
        "print(cpu() - c0, time.perf_counter() - w0)\n"
    )
    cpu_s, wall_s = map(float, run_python(code).split())
    assert cpu_s <= 1.5 * wall_s, f"cpu {cpu_s:.3f} s over wall {wall_s:.3f} s"
