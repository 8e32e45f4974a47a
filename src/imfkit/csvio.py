"""Files of the imfkit CLI: CSV input, and the plan that writes a run's output.

Reading: :func:`ingest_csv` and :func:`read_imfs_csv` pass a file's data
rows from the open file to one ``np.loadtxt`` call, and read it again only
to find the line an error names.

Writing: the files of a run (CSV tables, meta.txt and SVG plots) form one
:class:`EmissionPlan`, a job per file, which runs the jobs on a pool of
forked worker processes, one per CPU the process may use. A CSV table is
a dict of 1-D arrays, its columns, formatted to text in the process that
writes it, a block of rows at a time; the time column, which every CSV
file of a run shares, is formatted once per process. Cells are shortest
round-trip decimals, ``repr(float(v))``, written by orjson's compiled
formatter (see :func:`_format_column`), so the bytes do not depend on
which process writes which file. orjson is imported here, and ``import
imfkit`` does not load this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Callable

import numpy as np
import orjson

from .core import Decomposition, ImfMeta, Signal, StopReason, _forked_map
from .specfreq import IFTrace, TimeFrequencyGrid


class IngestError(Exception):
    """Base class for input-file problems."""


class ParseError(IngestError):
    """A cell could not be parsed; the message names the offending line."""


class TooShort(IngestError):
    """Fewer than two data rows."""


class NonUniformSampling(IngestError):
    """Time column is not a uniform grid; the message names the bad row."""


# CSV text is formatted a block of this many rows at a time, so the memory
# a long signal takes beyond its arrays stays bounded.
_ROW_BLOCK = 4096
# spectrum.csv blocks hold at most this many cells (about 2 MB of text), so
# a grid with many bins writes fewer rows per block.
_BLOCK_CELLS = 1 << 19

# ---------------------------------------------------------------------------
# Reading


def _data_lines(path, header: list[str] | None):
    """(line number, text) of each data row: a non-blank line after the header."""
    with open(path) as fh:
        numbered = ((n, line) for n, line in enumerate(fh, 1) if line.strip())
        yield from islice(numbered, header is not None, None)


def _lineno(path, header: list[str] | None, row: int) -> int:
    return next(islice(_data_lines(path, header), row, None))[0]


def _parses(text: str, ncols: int) -> bool:
    """Whether numpy's reader takes ``text`` as a row of ``ncols`` floats."""
    try:
        return np.loadtxt([text], delimiter=",", comments=None).size == ncols
    except ValueError:
        return False


def _raise_bad_line(path, header: list[str] | None, ncols: int) -> None:
    """Raise the ParseError of the first data row numpy's reader rejects."""
    for lineno, line in _data_lines(path, header):
        if not _parses(line, ncols):
            cells = line.split(",")
            for c in cells:
                if not (c.strip() and _parses(c, 1)):
                    msg = f"could not convert string to float: {c.strip()!r}"
                    raise ParseError(f"{path}: line {lineno}: {msg}")
            raise ParseError(
                f"{path}: line {lineno}: expected {ncols} columns, got {len(cells)}"
            )


def _read_table(path: str | Path) -> tuple[list[str] | None, np.ndarray]:
    """(header or None, the data rows as a (rows, columns) float64 array).

    Blank lines are skipped; a first non-blank line that does not parse as
    numbers is the header.
    """
    with open(path) as fh:
        lines = filter(str.strip, fh)
        first = next(lines, None)
        header: list[str] | None = None
        if first is not None:
            cells = [c.strip() for c in first.split(",")]
            try:
                list(map(float, cells))
            except ValueError:
                header, first = cells, next(lines, None)
        try:
            data = np.empty((0, 0)) if first is None else np.loadtxt(
                chain([first], lines), delimiter=",", comments=None, ndmin=2
            )
        except ValueError:
            _raise_bad_line(path, header, first.count(",") + 1)
            raise
    if len(data) < 2:
        raise TooShort(f"{path}: need at least 2 data rows, found {len(data)}")
    return header, data


def _check_finite(path, header, data: np.ndarray, cols: list[int]) -> None:
    bad_rows, bad_cols = np.nonzero(~np.isfinite(data[:, cols]))
    if bad_rows.size:
        r, c = bad_rows[0], cols[bad_cols[0]]
        raise ParseError(
            f"{path}: line {_lineno(path, header, r)}: column {c} is {data[r, c]}"
        )


def _uniform_step(path, header, t: np.ndarray) -> float:
    """The step of a uniform time column, to within a 1e-6 relative spread."""
    steps = np.diff(t)
    dt = float(np.median(steps))
    if dt <= 0:
        raise NonUniformSampling(f"{path}: time column must be strictly increasing")
    bad = np.flatnonzero(np.abs(steps - dt) > 1e-6 * abs(dt))
    if bad.size:
        raise NonUniformSampling(
            f"{path}: line {_lineno(path, header, bad[0] + 1)}: time step "
            f"{float(steps[bad[0]])!r} deviates from dt={dt!r}"
        )
    return dt


def _resolve_column(
    path, selector: str | None, header: list[str] | None, ncols: int, default: int
) -> int:
    if selector is None:
        return default
    try:
        idx = int(selector)
    except ValueError:
        if header is None or selector not in header:
            raise ParseError(f"{path}: unknown column {selector!r}") from None
        idx = header.index(selector)
    if not (0 <= idx < ncols):
        raise ParseError(f"{path}: column index {idx} out of range (file has {ncols})")
    return idx


def ingest_csv(
    path: str | Path,
    value_col: str | None = None,
    time_col: str | None = None,
) -> Signal:
    """Load a uniformly sampled signal from a CSV file.

    One column: values with dt = 1. Two or more: the first column is the
    time axis and the second the values, unless overridden by index or
    header name; pass ``time_col="none"`` to ignore the time column. The
    time grid must be uniform to within a 1e-6 relative spread. Naming a
    time column in a one-column file, or the value column as the time
    column, is an error.
    """
    header, data = _read_table(path)
    ncols = data.shape[1]
    no_time = time_col is not None and time_col.lower() == "none"
    if ncols == 1 and time_col is not None and not no_time:
        raise ParseError(f"{path}: a file of 1 column has no time column {time_col!r}")
    use_time = ncols >= 2 and not no_time
    t_idx = _resolve_column(path, time_col, header, ncols, 0) if use_time else None
    v_idx = _resolve_column(path, value_col, header, ncols, 1 if use_time else 0)
    if t_idx == v_idx:
        raise ParseError(f"{path}: column {v_idx} cannot be both time and value")
    _check_finite(path, header, data, [v_idx] if t_idx is None else [t_idx, v_idx])
    values = data[:, v_idx]
    if t_idx is None:
        return Signal(values, dt=1.0, t0=0.0)
    t = data[:, t_idx]
    return Signal(values, dt=_uniform_step(path, header, t), t0=float(t[0]))


def read_imfs_csv(path: str | Path) -> Decomposition:
    """Rebuild the decomposition an imfs.csv file holds.

    Every cell must be finite and the time column uniform, as for
    :func:`ingest_csv`.
    """
    header, data = _read_table(path)
    if header is None or header[0] != "time" or header[-1] != "residual":
        raise ParseError(f"{path}: not an imfs.csv file")
    _check_finite(path, header, data, list(range(data.shape[1])))
    t = data[:, 0]
    dt = _uniform_step(path, header, t)
    residual = Signal(data[:, -1], dt=dt, t0=float(t[0]))
    imfs = tuple(
        Signal(data[:, j], dt=dt, t0=float(t[0])) for j in range(1, data.shape[1] - 1)
    )
    meta = tuple(ImfMeta(0, StopReason.DELTA_REACHED) for _ in imfs)
    return Decomposition(imfs=imfs, residual=residual, meta=meta)


# ---------------------------------------------------------------------------
# Writing

# ``repr(float(v))`` of False and True, indexed by the bool's byte.
_BOOL_TEXT = np.array(["0.0", "1.0"], dtype=object)


def _format_column(values) -> list[str]:
    """``repr(float(v))`` of every value of a 1-D array, as float64.

    orjson writes the shortest round-trip decimal of each value in compiled
    code, with ``repr``'s digits. For zero and magnitudes in [1e-4, 1e16)
    both use positional notation, so the text is the same. orjson writes
    other magnitudes in another style (``0.00001``, ``4.6e-6`` and ``1e16``
    for ``repr``'s ``1e-05``, ``4.6e-06`` and ``1e+16``), and nan and inf
    as ``null``; those cells, rare in practice, are formatted by ``repr``.
    A bool array, such as a trace's valid mask, takes its cells from the
    two texts of 0.0 and 1.0.
    """
    values = np.asarray(values)
    if values.dtype == bool:
        return _BOOL_TEXT[values.view(np.uint8)].tolist()
    a = np.ascontiguousarray(values, dtype=np.float64)
    if not a.size:
        return []
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    other = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (a != 0))
    for i, v in zip(other.tolist(), a[other].tolist()):
        text[i] = repr(v)
    return text


def _write_csv(path, time_text: list[str], columns: dict[str, np.ndarray]) -> None:
    """A time column of ``time_text``'s cells, then a column per 1-D array."""
    with path.open("w") as fh:
        fh.write(",".join(["time", *columns]) + "\n")
        for lo in range(0, len(time_text), _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            cells = [_format_column(column[rows]) for column in columns.values()]
            fh.write("\n".join(map(",".join, zip(time_text[rows], *cells))) + "\n")


def _write_spectrum_csv(
    path: Path, grid: TimeFrequencyGrid, time_text: list[str]
) -> None:
    """time plus one column per bin center; zero cells are written "0.0".

    ``time_text`` is ``grid.times``, already formatted.

    Only the grid's cells are formatted. A block of rows is written as one
    sequence of pieces: each row's time, then for each of its cells the
    run of zero cells before it and its text, then the zero run that ends
    the row. Runs of equal length are one string. A block holds at most
    ``_BLOCK_CELLS`` cells, so its text stays small however wide the grid.
    """
    centers = 0.5 * (grid.freqs[:-1] + grid.freqs[1:])
    nbins = centers.size
    # A run of z zero cells is the last 4 * z + 1 characters of one of these:
    # the zeros, then the comma before a cell or the line end.
    runs = (",0.0" * nbins + ",", ",0.0" * nbins + "\n")
    kind = len(runs[0]) + 1  # run codes are 4 * z + 1 + kind * (line end)
    step = max(1, min(_ROW_BLOCK, _BLOCK_CELLS // nbins))
    with path.open("w") as fh:
        fh.write(",".join(["time", *_format_column(centers)]) + "\n")
        for lo in range(0, grid.times.size, step):
            hi = min(lo + step, grid.times.size)
            a, b = np.searchsorted(grid.rows, (lo, hi))
            rows, m = grid.rows[a:b] - lo, hi - lo
            ends = np.searchsorted(rows, np.arange(1, m + 1))  # cells to each row's end
            # Pieces alternate text and run; text slot j is piece 2j, run slot
            # j piece 2j + 1. Row i opens at slot i + (cells before row i):
            # its time and the run before its first cell (or its end). Cell k
            # has run slot rows[k] + k and the next text slot; row i ends
            # with run slot i + ends[i].
            close = np.arange(m) + ends
            opening = close - np.diff(ends, prepend=0)
            cell = rows + np.arange(b - a)
            # Each run ends at a column, its cell's bin or nbins at the line
            # end, and covers the zero cells since the previous run's end.
            end_col = np.empty(m + b - a, dtype=np.intp)
            end_col[cell] = grid.bins[a:b]
            end_col[close] = nbins
            zeros = np.diff(end_col, prepend=-1) - 1
            zeros[opening] = end_col[opening]
            codes, which = np.unique(
                4 * zeros + 1 + kind * (end_col == nbins), return_inverse=True
            )
            table = [runs[c // kind][-(c % kind) :] for c in codes.tolist()]
            pieces = np.empty(2 * (m + b - a), dtype=object)
            pieces[1::2] = np.array(table, dtype=object)[which]
            texts = pieces[0::2]
            texts[opening] = time_text[lo:hi]
            texts[cell + 1] = _format_column(grid.values[a:b])
            fh.write("".join(pieces.tolist()))


# ---------------------------------------------------------------------------
# The emission plan


@dataclass(frozen=True)
class _Job:
    path: Path
    cells: int  # table cells the job writes: its share of the work
    write: Callable[[Path], None]


class EmissionPlan:
    """The output files of a run, one job each, written on every CPU.

    ``times`` is the time axis every CSV file of the run starts with; its
    text is formatted once in each process that writes a table. A table's
    columns are 1-D arrays, and its job's weight is the cells it writes:
    rows x (columns + the time column). Add the jobs, then :meth:`run`
    them: largest first, by weight, through :func:`imfkit.core._forked_map`
    on ``min(jobs, CPUs this process may run on)`` worker processes forked
    from this one, each job going to the first free worker; with one CPU,
    in this process. The workers inherit the jobs, and the run's arrays
    with them, instead of being sent them, and send back only a failed
    job's exception, which :meth:`run` raises. Run the plan from a process
    that runs no other Python threads.
    """

    def __init__(self, times: np.ndarray):
        self._times = times
        self._text: list[str] | None = None
        self._jobs: list[_Job] = []

    def _time_text(self) -> list[str]:
        """The time column, formatted on first use in each process."""
        if self._text is None:
            self._text = _format_column(self._times)
        return self._text

    def _add_csv(self, path: Path, columns: dict[str, np.ndarray]) -> None:
        write = lambda p: _write_csv(p, self._time_text(), columns)
        self._jobs.append(_Job(path, self._times.size * (len(columns) + 1), write))

    def add_imfs(self, path: Path, d: Decomposition) -> None:
        """imfs.csv: time, imf1..imfK, residual."""
        columns = {f"imf{i}": imf.samples for i, imf in enumerate(d.imfs, start=1)}
        columns["residual"] = d.residual.samples
        self._add_csv(path, columns)

    def add_trace(self, path: Path, trace: IFTrace) -> None:
        """iftrace_k.csv: time, amplitude, frequency, valid."""
        self._add_csv(path, {"amplitude": trace.amplitude.samples,
                             "frequency": trace.frequency.samples,
                             "valid": trace.valid_mask})

    def add_spectrum(self, path: Path, grid: TimeFrequencyGrid) -> None:
        """spectrum.csv: time, then the grid's row over the bin centers."""
        write = lambda p: _write_spectrum_csv(p, grid, self._time_text())
        self._jobs.append(_Job(path, self._times.size + grid.values.size, write))

    def add_meta(self, path: Path, pairs: list[tuple[str, object]]) -> None:
        """meta.txt: a ``key = value`` line per pair, an enum by its value."""
        text = "".join(
            f"{key} = {value.value if isinstance(value, Enum) else value}\n"
            for key, value in pairs
        )
        self.add_text(path, lambda: text)

    def add_text(self, path: Path, render: Callable[[], str]) -> None:
        """A file of ``render()``'s text, such as an SVG plot.

        It formats no table cells, so it counts as no work: it goes out
        after every table.
        """
        self._jobs.append(_Job(path, 0, lambda p: p.write_text(render())))

    def paths(self) -> list[Path]:
        """The files the plan writes, in the order their jobs were added."""
        return [job.path for job in self._jobs]

    def run(self) -> None:
        """Write every file."""
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        jobs = sorted(self._jobs, key=lambda job: -job.cells)
        for _ in _forked_map(lambda i: jobs[i].write(jobs[i].path), len(jobs), cpus):
            pass
