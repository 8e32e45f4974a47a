"""The public names that the benchmark, the demos and the tools import."""

import ast
import importlib
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


# Lookups that perfbench/tracer.py still lists but no module has any more:
# the CLI writes imfs.csv through csvio.EmissionPlan, and dispatches traces
# through specfreq._ESTIMATORS. The tracer may drop them.
TRACER_KNOWN_MISSING = {
    ("imfkit.cli", "write_imfs_csv"),
    ("imfkit.cli", "_ESTIMATOR_FNS"),
}


def tracer_lookups() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of tracer.py's wrapper tables."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
        and target.id in ("CLI_GLOBALS", "ESTIMATOR_TABLES")
    }
    assert set(tables) == {"CLI_GLOBALS", "ESTIMATOR_TABLES"}
    return [(module, attr) for table in tables.values() for _, module, attr in table]


def test_tracer_lookups_resolve():
    # The tracer skips a lookup it cannot find, so a renamed global would
    # silently read as zero time (specfreq.trace_s, the emd.* spans).
    lookups = tracer_lookups()
    missing = {
        (module, attr)
        for module, attr in lookups
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing <= TRACER_KNOWN_MISSING
    assert ("imfkit.specfreq", "_ESTIMATORS") in lookups
    assert isinstance(imfkit.specfreq._ESTIMATORS, dict)


def test_grid_keeps_dense_amplitude():
    # perfbench/tracer.py reads grid.amplitude.shape on every traced pass.
    assert isinstance(TimeFrequencyGrid.__dict__["amplitude"], property)
