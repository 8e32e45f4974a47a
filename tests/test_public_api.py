"""The public names that the benchmark, the demos and the tools import."""

import ast
from pathlib import Path

import pytest

import imfkit
from imfkit import TimeFrequencyGrid

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted(
    path
    for folder in ("perfbench", "demos", "tools")
    for path in (ROOT / folder).glob("*.py")
)


def imported_from_imfkit(path: Path) -> set[str]:
    """Names a script imports with ``from imfkit import ...``, at any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "imfkit"
        for alias in node.names
    }


def test_all_names_resolve_once():
    assert len(imfkit.__all__) == len(set(imfkit.__all__))
    for name in imfkit.__all__:
        assert hasattr(imfkit, name), name


def test_callers_found():
    # perfbench/run.py imports noise_member inside a function.
    assert "noise_member" in imported_from_imfkit(ROOT / "perfbench" / "run.py")


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_caller_imports_are_exported(path):
    assert imported_from_imfkit(path) <= set(imfkit.__all__)


def test_grid_keeps_dense_amplitude():
    # perfbench/tracer.py reads grid.amplitude.shape on every traced pass.
    assert isinstance(TimeFrequencyGrid.__dict__["amplitude"], property)
