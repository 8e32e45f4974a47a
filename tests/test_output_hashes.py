"""Byte identity of the CLI's output files, checked against a recorded listing.

``tools/output_hashes.py`` runs a fixed set of CLI configurations and prints
one ``sha256  relpath`` line per file written. ``data/output_hashes.txt``
holds that listing under a header of the versions it was made with. A change
that moves output bytes on purpose rewrites the file in the same diff::

    PYTHONPATH=src python3 tests/test_output_hashes.py
"""

import difflib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_hashes.py"
RECORD = Path(__file__).resolve().parent / "data" / "output_hashes.txt"


def _tool_versions() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.versions()


def _listing() -> list[str]:
    """The tool's output lines, run on this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _read_record() -> tuple[dict[str, str], list[str]]:
    """(versions, hash lines) of the recorded listing."""
    recorded, lines = {}, []
    for line in RECORD.read_text().splitlines():
        if line.startswith("# "):
            name, version = line[2:].split(" ", 1)
            recorded[name] = version
        else:
            lines.append(line)
    return recorded, lines


def test_output_bytes_match_the_recorded_listing():
    recorded, expected = _read_record()
    running = _tool_versions()
    differ = [
        f"{name} {recorded.get(name)} recorded, {version} running"
        for name, version in running.items()
        if recorded.get(name) != version
    ]
    if differ:
        pytest.skip("hashes recorded on another stack: " + "; ".join(differ))
    actual = _listing()
    diff = difflib.unified_diff(expected, actual, "recorded", "now", lineterm="")
    assert actual == expected, "\n".join(diff)


if __name__ == "__main__":
    header = "".join(f"# {name} {v}\n" for name, v in _tool_versions().items())
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(header + "".join(line + "\n" for line in _listing()))
