"""The demos and the README's library example run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
    )


def readme_library_block() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library in five lines", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # The demos write their SVG plots into the working directory.
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_block_runs(tmp_path):
    proc = run_python(["-c", readme_library_block()], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
