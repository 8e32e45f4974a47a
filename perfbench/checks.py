"""Output checks; a run whose outputs fail any of them counts as failed.

- Telescoping: the IMFs plus the residual sum back to the expected signal
  within 1e-10 relative max-norm (the criterion-01 tolerance).
- Reference: the number of IMFs and each IMF's RMS match ``reference.json``
  within the stored absolute tolerance. The tolerances come from the
  seed-to-seed spread (``make_reference.py``), far above rounding-level
  changes and far below what a wrong or missing component does.
- Spectrum mass: the cells of ``spectrum.csv`` sum to the mass deposited
  from the IF traces (the amplitude of their valid samples).

There is deliberately no byte-hash check.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TELESCOPE_TOL = 1e-10
MASS_TOL = 1e-9

REFERENCE_PATH = Path(__file__).parent / "reference.json"


def reference(workload: str) -> dict:
    """The stored reference figures of one workload."""
    return json.loads(REFERENCE_PATH.read_text())[workload]


def telescoping_error(parts: np.ndarray, expected: np.ndarray) -> float:
    """Relative max-norm error of sum(parts) against the expected signal."""
    scale = float(np.max(np.abs(expected))) or 1.0
    return float(np.max(np.abs(parts.sum(axis=0) - expected))) / scale


def rms(a: np.ndarray) -> np.ndarray:
    """Root mean square along the last axis."""
    return np.sqrt(np.mean(a * a, axis=-1))


def check_rms(label: str, got: np.ndarray, ref: list[float], tol: list[float]) -> list[str]:
    errors = []
    for k, (g, r, t) in enumerate(zip(got, ref, tol), start=1):
        if not abs(g - r) <= t:
            errors.append(f"{label} {k}: rms {g:.6g} vs reference {r:.6g} (tol {t:.3g})")
    return errors


def _load_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_imfs_csv(path: Path, expected: np.ndarray, ref: dict) -> tuple[list[str], int]:
    """Check an imfs.csv; returns (errors, number of IMFs in the file)."""
    header, data = _load_csv(path)
    k = len(header) - 2
    errors = []
    if header[0] != "time" or header[-1] != "residual" or data.shape[1] != k + 2:
        return [f"{path.name}: unexpected header {header[:3]}..."], k
    if data.shape[0] != expected.size:
        return [f"{path.name}: {data.shape[0]} rows, expected {expected.size}"], k
    err = telescoping_error(data[:, 1:].T, expected)
    if not err <= TELESCOPE_TOL:
        errors.append(f"{path.name}: reconstruction error {err:.3g} > {TELESCOPE_TOL}")
    if k != ref["imfs_extracted"]:
        errors.append(f"{path.name}: {k} IMFs, reference {ref['imfs_extracted']}")
    else:
        errors += check_rms("imf", rms(data[:, 1:-1].T), ref["rms"], ref["rms_tol"])
    return errors, k


def check_spectrum_dir(out: Path, k: int, n: int, nbins: int) -> list[str]:
    """Check iftrace_1..k.csv and spectrum.csv against each other."""
    errors = []
    mass = 0.0
    for i in range(1, k + 1):
        header, tr = _load_csv(out / f"iftrace_{i}.csv")
        if header != ["time", "amplitude", "frequency", "valid"] or tr.shape[0] != n:
            errors.append(f"iftrace_{i}.csv: unexpected shape or header")
            continue
        mass += float(np.sum(tr[tr[:, 3] != 0.0, 1]))
    _, spec = _load_csv(out / "spectrum.csv")
    if spec.shape != (n, nbins + 1):
        return errors + [f"spectrum.csv: shape {spec.shape}, expected {(n, nbins + 1)}"]
    total = float(spec[:, 1:].sum())
    if not abs(total - mass) <= MASS_TOL * max(abs(mass), 1.0):
        errors.append(f"spectrum.csv: mass {total!r} != trace mass {mass!r}")
    return errors


def check_svgs(out: Path, names: tuple[str, ...]) -> list[str]:
    errors = []
    for name in names:
        path = out / name
        if not path.is_file() or not path.read_text().rstrip().endswith("</svg>"):
            errors.append(f"{name}: missing or truncated")
    return errors


def check_meta_count(path: Path, k: int) -> list[str]:
    for line in path.read_text().splitlines():
        if line.startswith("imfs_extracted = "):
            got = int(line.split(" = ", 1)[1])
            return [] if got == k else [f"meta.txt: imfs_extracted {got} != {k} columns"]
    return ["meta.txt: no imfs_extracted line"]
