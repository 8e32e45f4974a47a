"""Command-line front end: CSV ingestion, decomposition runs, spectra.

Subcommands::

    imfkit decompose --method {emd|eemd|if} --input FILE --out DIR ...
    imfkit spectrum --in DIR --bins N --estimator {hilbert|derivative}
    imfkit info --input FILE

``decompose`` writes imfs.csv, meta.txt, one iftrace_k.csv per IMF,
spectrum.csv and (with --plot) decomposition.svg / spectrum.svg into the
output directory. Numbers are serialized as shortest round-trip decimals,
so rerunning an identical configuration reproduces the files byte for
byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    BoundaryExtension,
    Decomposition,
    DecompositionError,
    ImfMeta,
    Signal,
    StopReason,
    _extrema_indices,
)
from .eemd import EEMDSettings, eemd
from .emd import EMDSettings, emd
from .iterfilt import IFSettings, MaskLengthRule, iterative_filtering
from . import specfreq
from .specfreq import TimeFrequencyGrid, hilbert_spectrum
from .svgplot import render_decomposition_svg, render_spectrum_svg


class IngestError(Exception):
    """Base class for input-file problems."""


class ParseError(IngestError):
    """A cell could not be parsed; the message names the offending line."""


class TooShort(IngestError):
    """Fewer than two data rows."""


class NonUniformSampling(IngestError):
    """Time column is not a uniform grid; the message names the bad row."""


# ---------------------------------------------------------------------------
# CSV ingestion / emission


def _read_rows(path: str | Path) -> tuple[list[str] | None, list[list[float]], list[int]]:
    """Rows of a CSV file as floats, plus the auto-detected header.

    Returns (header or None, rows, 1-based file line number per row).
    """
    lines = Path(path).read_text().splitlines()
    header: list[str] | None = None
    rows: list[list[float]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        cells = [c.strip() for c in stripped.split(",")]
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            if header is None and not rows:
                header = cells  # first row is non-numeric: a header
                continue
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if rows and len(values) != len(rows[0]):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(rows[0])} columns, "
                f"got {len(values)}"
            )
        rows.append(values)
        linenos.append(lineno)
    if len(rows) < 2:
        raise TooShort(f"{path}: need at least 2 data rows, found {len(rows)}")
    return header, rows, linenos


def _resolve_column(
    selector: str | None, header: list[str] | None, ncols: int, default: int
) -> int:
    if selector is None:
        return default
    try:
        idx = int(selector)
    except ValueError:
        if header is None or selector not in header:
            raise ParseError(f"unknown column {selector!r}") from None
        idx = header.index(selector)
    if not (0 <= idx < ncols):
        raise ParseError(f"column index {idx} out of range (file has {ncols})")
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
    time grid must be uniform to within a 1e-6 relative spread.
    """
    header, rows, linenos = _read_rows(path)
    ncols = len(rows[0])
    data = np.asarray(rows)
    use_time = ncols >= 2 and (time_col is None or time_col.lower() != "none")
    t_idx = _resolve_column(time_col, header, ncols, 0) if use_time else None
    v_idx = _resolve_column(value_col, header, ncols, 1 if use_time else 0)
    used = [v_idx] if t_idx is None else [t_idx, v_idx]
    bad_rows, bad_cols = np.nonzero(~np.isfinite(data[:, used]))
    if bad_rows.size:
        r, c = bad_rows[0], used[bad_cols[0]]
        raise ParseError(f"{path}: line {linenos[r]}: column {c} is {data[r, c]}")
    values = data[:, v_idx]
    if t_idx is None:
        return Signal(values, dt=1.0, t0=0.0)
    t = data[:, t_idx]
    steps = np.diff(t)
    dt = float(np.median(steps))
    if dt <= 0:
        raise NonUniformSampling(f"{path}: time column must be strictly increasing")
    bad = np.flatnonzero(np.abs(steps - dt) > 1e-6 * abs(dt))
    if bad.size:
        raise NonUniformSampling(
            f"{path}: line {linenos[bad[0] + 1]}: time step "
            f"{steps[bad[0]]!r} deviates from dt={dt!r}"
        )
    return Signal(values, dt=dt, t0=float(t[0]))


# CSV text is formatted column by column for a block of this many rows at
# a time, so the text held in memory stays bounded on long signals. The one
# exception is the time column, which a run formats once for all its files.
_ROW_BLOCK = 4096


def _format_column(values) -> list[str]:
    """Shortest round-trip decimal of every value, as float64."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _write_csv(path: Path, columns: list[tuple[str, np.ndarray | list[str]]]) -> None:
    """Named columns of floats, or of their text already formatted."""
    names = [name for name, _ in columns]
    cols = [col for _, col in columns]
    with path.open("w") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(cols[0]), _ROW_BLOCK):
            cells = [
                c[lo : lo + _ROW_BLOCK]
                if isinstance(c, list)
                else _format_column(c[lo : lo + _ROW_BLOCK])
                for c in cols
            ]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _write_spectrum_csv(
    path: Path, grid: TimeFrequencyGrid, time_text: list[str]
) -> None:
    """time plus one column per bin center; zero cells are written "0.0".

    ``time_text`` is ``grid.times``, already formatted.

    Only the grid's cells are formatted, a block of rows at a time, and the
    zero runs between them are spliced in. Each line is written as soon as
    it is built, so the text held in memory is one line, however wide.
    """
    centers = 0.5 * (grid.freqs[:-1] + grid.freqs[1:])
    nbins = centers.size
    zeros = ",0.0" * nbins  # a run of k zero cells is zeros[: 4 * k]
    with path.open("w") as fh:
        fh.write(",".join(["time", *_format_column(centers)]) + "\n")
        for lo in range(0, grid.times.size, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, grid.times.size)
            a, b = np.searchsorted(grid.rows, (lo, hi))
            # The cells of row lo + i are ends[i] .. ends[i + 1] - 1 of the block's.
            ends = np.searchsorted(grid.rows[a:b], np.arange(lo, hi + 1)).tolist()
            cols = grid.bins[a:b].tolist()
            texts = _format_column(grid.values[a:b])
            for i, t in enumerate(time_text[lo:hi]):
                parts = [t]
                last = -1  # column of the row's latest cell
                for k in range(ends[i], ends[i + 1]):
                    parts.append(zeros[: 4 * (cols[k] - last - 1)] + "," + texts[k])
                    last = cols[k]
                parts.append(zeros[: 4 * (nbins - 1 - last)] + "\n")
                fh.write("".join(parts))


def write_imfs_csv(
    path: str | Path,
    source: Signal,
    d: Decomposition,
    *,
    time_text: list[str] | None = None,
) -> None:
    """time, imf1..imfK, residual, as shortest round-trip decimals.

    ``time_text``, when given, holds ``source.times`` already formatted
    (see ``_format_column``), so a run formats its time axis only once.
    """
    times = time_text if time_text is not None else source.times
    cols: list[tuple[str, np.ndarray | list[str]]] = [("time", times)]
    cols += [(f"imf{i + 1}", imf.samples) for i, imf in enumerate(d.imfs)]
    cols.append(("residual", d.residual.samples))
    _write_csv(Path(path), cols)


def read_imfs_csv(path: str | Path) -> tuple[Signal, Decomposition]:
    """Rebuild (input signal, decomposition) from an imfs.csv file."""
    header, rows, _ = _read_rows(path)
    if header is None or header[0] != "time" or header[-1] != "residual":
        raise ParseError(f"{path}: not an imfs.csv file")
    data = np.asarray(rows)
    t = data[:, 0]
    dt = float(np.median(np.diff(t)))
    residual = Signal(data[:, -1], dt=dt, t0=float(t[0]))
    imfs = tuple(
        Signal(data[:, j], dt=dt, t0=float(t[0])) for j in range(1, data.shape[1] - 1)
    )
    meta = tuple(ImfMeta(0, StopReason.DELTA_REACHED) for _ in imfs)
    d = Decomposition(imfs=imfs, residual=residual, meta=meta)
    return d.reconstruct(), d


# ---------------------------------------------------------------------------
# Method options and settings files (Settings_IF style key = value)

_ALPHA_ALIASES = {"0": "fixed0", "1": "fixed1", "almostmin": "almost_min"}


def _parse_alpha(text: str) -> MaskLengthRule:
    key = text.strip().lower()
    try:
        return MaskLengthRule(_ALPHA_ALIASES.get(key, key))
    except ValueError:
        raise ValueError(
            f"alpha must be one of 0, 1, ave, almost_min (got {text!r})"
        ) from None


def _parse_extension(text: str) -> BoundaryExtension:
    try:
        return BoundaryExtension(text.strip().lower())
    except ValueError:
        raise ValueError(
            f"extension must be constant, periodic or reflection (got {text!r})"
        ) from None


def _parse_mask_lengths(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


# Every setting of the three methods: key -> (parser, help), in --help order.
# The key names a field of EMDSettings, EEMDSettings or IFSettings (see
# _FIELD_KEYS); "--" plus the key with dashes is its flag, and the key without
# underscores its settings-file spelling. "seed" is the general --seed flag,
# accepted by every method.
_OPTIONS = {
    "seed": (int, "EEMD noise seed"),
    "delta": (float, "IF inner-loop stopping ratio (default 0.001)"),
    "ext_points": (int, "IF outer-loop extrema threshold (default 3)"),
    "n_imfs": (int, "IF maximum number of IMFs (default 1)"),
    "extension": (_parse_extension, "IF boundary extension (default periodic)"),
    "max_inner": (int, "maximum inner iterations (default 200)"),
    "alpha": (_parse_alpha, "IF mask-length rule: 0, 1, ave, almost_min (default ave)"),
    "xi": (float, "IF mask-length scale (default 1.6)"),
    "mask_lengths": (_parse_mask_lengths, "IF comma-separated mask half-lengths"),
    "max_imfs": (int, "EMD maximum number of IMFs (default 50)"),
    "sd_threshold": (float, "EMD sifting threshold (default 0.2)"),
    "min_extrema": (int, "EMD outer-loop extrema threshold (default 2)"),
    "boundary": (_parse_extension, "EMD envelope boundary mode (default reflection)"),
    "nstd": (float, "EEMD noise-to-signal std ratio (default 0.2)"),
    "ne": (int, "EEMD ensemble size (default 100)"),
    "num_imfs": (int, "EEMD fixed component count (default round(log2 n)-1)"),
}

_FIELD_KEYS = {"mask_lengths_override": "mask_lengths"}  # field -> key, if not equal
_FILE_KEYS = {key.replace("_", ""): key for key in _OPTIONS}
_FILE_KEYS["extensiontype"] = "extension"  # the Settings_IF name
_METHOD_SETTINGS = {"emd": EMDSettings, "eemd": EEMDSettings, "if": IFSettings}


def read_settings_file(path: str | Path) -> dict[str, str]:
    """Parse a key = value settings file mirroring the Settings_IF names.

    Keys are case-insensitive; an ``IF.``/``EEMD.`` prefix and underscores
    are ignored (``IF.Xi``, ``xi`` and ``IF.ExtPoints`` all work). Unknown
    keys, and a key set twice under any spelling, are rejected.
    """
    result: dict[str, str] = {}
    seen: dict[str, int] = {}  # option key -> line that set it
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}: line {lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        norm = key.lower()
        for prefix in ("if.", "eemd.", "emd."):
            if norm.startswith(prefix):
                norm = norm[len(prefix) :]
                break
        norm = norm.replace("_", "")
        if norm not in _FILE_KEYS:
            raise ParseError(f"{path}: line {lineno}: unknown setting {key!r}")
        name = _FILE_KEYS[norm]
        if name in seen:
            raise ParseError(
                f"{path}: line {lineno}: {name!r} already set on line {seen[name]}"
            )
        seen[name] = lineno
        result[name] = value
    return result


def _settings_fields(settings) -> list:
    """(option key, field) per field of a settings class or object, in order."""
    return [(_FIELD_KEYS.get(f.name, f.name), f) for f in fields(settings)]


def _method_keys(cls) -> set[str]:
    keys = set()
    for key, f in _settings_fields(cls):
        nested = f.default_factory  # EEMDSettings.emd
        keys |= _method_keys(nested) if is_dataclass(nested) else {key}
    return keys


def build_options(method: str, raw: dict[str, str]) -> dict:
    """Type-check raw option strings and reject ones foreign to the method."""
    allowed = _method_keys(_METHOD_SETTINGS[method]) | {"seed"}
    options: dict = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ValueError(f"option {key!r} is not valid for method {method!r}")
        try:
            options[key] = _OPTIONS[key][0](value)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {exc}") from None
    return options


def _build_settings(cls, options: dict):
    """A validated ``cls`` from build_options' values; EEMD nests EMDSettings."""
    kwargs = {}
    for key, f in _settings_fields(cls):
        if is_dataclass(f.default_factory):
            kwargs[f.name] = _build_settings(f.default_factory, options)
        elif key in options:
            kwargs[f.name] = options[key]
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Run configuration


@dataclass
class RunConfig:
    """Everything one `decompose` invocation needs."""

    method: str
    input_path: str
    output_dir: str
    settings: EMDSettings | EEMDSettings | IFSettings  # from _build_settings
    value_col: str | None = None
    time_col: str | None = None
    plot: bool = False
    threads: int = 1
    spectrum_bins: int = 128
    estimator: str = "hilbert"


# ---------------------------------------------------------------------------
# Output emission

def _write_meta(path: Path, pairs: list[tuple[str, object]]) -> None:
    with path.open("w") as fh:
        for key, value in pairs:
            if isinstance(value, Enum):
                value = value.value
            fh.write(f"{key} = {value}\n")


def read_meta(path: str | Path) -> dict[str, str]:
    """Parse a meta.txt back into a key -> value-string mapping."""
    result = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            result[key.strip()] = value.strip()
    return result


def _settings_pairs(settings, threads: int) -> list[tuple[str, object]]:
    """meta.txt lines of a settings object, fields in declaration order."""
    pairs: list[tuple[str, object]] = []
    for key, f in _settings_fields(settings):
        value = getattr(settings, f.name)
        if is_dataclass(value):
            pairs += _settings_pairs(value, threads)
            continue
        if key == "mask_lengths":
            if not value:
                continue
            value = ",".join(str(v) for v in value)
        elif value is None:  # num_imfs
            value = "auto"
        pairs.append((key, value))
        if key == "seed":
            pairs.append(("threads", threads))
    return pairs


def _meta_pairs(cfg: RunConfig, d: Decomposition, n: int, dt: float, t0: float):
    pairs: list[tuple[str, object]] = [
        ("method", cfg.method),
        ("input", cfg.input_path),
        ("n", n),
        ("dt", dt),
        ("t0", t0),
    ]
    pairs += _settings_pairs(cfg.settings, cfg.threads)
    pairs.append(("imfs_extracted", len(d.imfs)))
    for i, m in enumerate(d.meta, start=1):
        pairs.append((f"imf{i}.iterations", m.inner_iterations))
        pairs.append((f"imf{i}.stop_reason", m.stop_reason))
        if m.mask_half_length is not None:
            pairs.append((f"imf{i}.mask_half_length", m.mask_half_length))
    return pairs


def _write_traces_and_spectrum(
    out: Path,
    d: Decomposition,
    time_text: list[str],
    estimator: str,
    nbins: int,
    plot: bool,
    weight: str = "amplitude",
) -> None:
    """iftrace_k.csv per IMF and spectrum.csv; ``time_text`` is
    ``d.residual.times``, formatted."""
    traces = [specfreq._ESTIMATORS[estimator](imf) for imf in d.imfs]
    for i, trace in enumerate(traces, start=1):
        _write_csv(
            out / f"iftrace_{i}.csv",
            [
                ("time", time_text),
                ("amplitude", trace.amplitude.samples),
                ("frequency", trace.frequency.samples),
                ("valid", trace.valid_mask.astype(np.float64)),
            ],
        )
    if d.imfs:
        grid = hilbert_spectrum(
            d, nbins=nbins, estimator=estimator, weight=weight, traces=traces
        )
    else:
        edges = specfreq._bin_edges(d.residual.dt, nbins)
        grid = TimeFrequencyGrid.from_cells(d.residual.times, edges, [], [], [])
    _write_spectrum_csv(out / "spectrum.csv", grid, time_text)
    if plot:
        (out / "spectrum.svg").write_text(render_spectrum_svg(grid))


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1 (got {value})")


def run(cfg: RunConfig) -> int:
    """Execute a decomposition run; returns a process exit status."""
    _require_positive("--spectrum-bins", cfg.spectrum_bins)
    _require_positive("--threads", cfg.threads)
    s = ingest_csv(cfg.input_path, value_col=cfg.value_col, time_col=cfg.time_col)
    if cfg.method == "emd":
        d = emd(s, cfg.settings)
    elif cfg.method == "eemd":
        d = eemd(s, cfg.settings, threads=cfg.threads)
    elif cfg.method == "if":
        d = iterative_filtering(s, cfg.settings)
    else:
        raise ValueError(f"unknown method {cfg.method!r}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Every component shares the input's time grid, so d.residual.times
    # equals s.times and one formatted copy serves every CSV file.
    time_text = _format_column(s.times)
    write_imfs_csv(out / "imfs.csv", s, d, time_text=time_text)
    _write_meta(out / "meta.txt", _meta_pairs(cfg, d, len(s), s.dt, s.t0))
    if len(s) >= 8:
        _write_traces_and_spectrum(
            out, d, time_text, cfg.estimator, cfg.spectrum_bins, cfg.plot
        )
    if cfg.plot:
        (out / "decomposition.svg").write_text(render_decomposition_svg(s, d))
    return 0


def run_spectrum(in_dir: str, bins: int, estimator: str, weight: str, plot: bool) -> int:
    """Recompute IF traces and the spectrum from a previous run's imfs.csv."""
    _require_positive("--bins", bins)
    out = Path(in_dir)
    _, d = read_imfs_csv(out / "imfs.csv")
    time_text = _format_column(d.residual.times)
    _write_traces_and_spectrum(out, d, time_text, estimator, bins, plot, weight=weight)
    return 0


def run_info(input_path: str, value_col: str | None, time_col: str | None) -> int:
    s = ingest_csv(input_path, value_col=value_col, time_col=time_col)
    idx_max, idx_min = _extrema_indices(s.samples)
    print(f"length = {len(s)}")
    print(f"dt = {s.dt!r}")
    print(f"t0 = {s.t0!r}")
    print(f"extrema = {idx_max.size + idx_min.size}")
    print(f"std = {float(np.std(s.samples))!r}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imfkit",
        description="Decompose nonstationary signals into intrinsic mode functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    estimators = tuple(specfreq._ESTIMATORS)

    dec = sub.add_parser("decompose", help="run a decomposition on a CSV signal")
    dec.add_argument("--method", required=True, choices=("emd", "eemd", "if"))
    dec.add_argument("--input", required=True, help="input CSV file")
    dec.add_argument("--out", required=True, help="output directory")
    dec.add_argument("--settings", help="key = value settings file (Settings_IF names)")
    dec.add_argument("--value-col", help="value column (index or header name)")
    dec.add_argument("--time-col", help="time column (index, name, or 'none')")
    dec.add_argument("--plot", action="store_true", help="emit SVG plots")
    dec.add_argument("--seed", type=int, help=_OPTIONS["seed"][1])
    dec.add_argument("--threads", type=int, default=1, help="EEMD worker processes")
    dec.add_argument("--spectrum-bins", type=int, default=128)
    dec.add_argument("--estimator", choices=estimators, default="hilbert")
    for key, (_, help_text) in _OPTIONS.items():
        if key != "seed":
            flag = "--" + key.replace("_", "-")
            dec.add_argument(flag, dest=key, metavar="V", help=help_text)

    spec = sub.add_parser("spectrum", help="recompute spectrum from a run directory")
    spec.add_argument("--in", dest="in_dir", required=True, help="run directory")
    spec.add_argument("--bins", type=int, default=128)
    spec.add_argument("--estimator", choices=estimators, default="hilbert")
    spec.add_argument("--weight", choices=("amplitude", "energy"), default="amplitude")
    spec.add_argument("--plot", action="store_true")

    info = sub.add_parser("info", help="summarize a CSV signal")
    info.add_argument("--input", required=True)
    info.add_argument("--value-col")
    info.add_argument("--time-col")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "decompose":
            raw = read_settings_file(args.settings) if args.settings else {}
            # A flag beats the same key from the settings file.
            raw.update((k, v) for k in _OPTIONS if (v := getattr(args, k)) is not None)
            options = build_options(args.method, raw)
            cfg = RunConfig(
                method=args.method,
                input_path=args.input,
                output_dir=args.out,
                settings=_build_settings(_METHOD_SETTINGS[args.method], options),
                value_col=args.value_col,
                time_col=args.time_col,
                plot=args.plot,
                threads=args.threads,
                spectrum_bins=args.spectrum_bins,
                estimator=args.estimator,
            )
            return run(cfg)
        if args.command == "spectrum":
            return run_spectrum(
                args.in_dir, args.bins, args.estimator, args.weight, args.plot
            )
        if args.command == "info":
            return run_info(args.input, args.value_col, args.time_col)
        raise ValueError(f"unknown command {args.command!r}")
    except (IngestError, DecompositionError, ValueError, OSError) as exc:
        print(f"imfkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
