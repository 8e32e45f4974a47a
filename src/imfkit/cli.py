"""Command-line front end: options, argument parsing and runs.

Subcommands::

    imfkit decompose --method {emd|eemd|if} --input FILE --out DIR ...
    imfkit spectrum --in DIR --bins N --estimator {hilbert|derivative}
    imfkit info --input FILE

``decompose`` writes imfs.csv, meta.txt, one iftrace_k.csv per IMF,
spectrum.csv and (with --plot) decomposition.svg / spectrum.svg into the
output directory; ``spectrum`` rewrites the traces, spectrum.csv and (with
--plot) spectrum.svg. Each first removes the files of those names that an
earlier run left there and it will not rewrite. A run computes the
decomposition, the IF traces and the spectrum grid, then hands one job per
file to an :class:`imfkit.csvio.EmissionPlan`, which writes them on every
CPU the process may use. Numbers are serialized as shortest round-trip
decimals, so rerunning an identical configuration reproduces the files
byte for byte, whatever the number of CPUs.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .core import BoundaryExtension, Decomposition, DecompositionError, _extrema_indices
from .csvio import EmissionPlan, IngestError, ParseError, ingest_csv, read_imfs_csv
from .eemd import EEMDSettings, eemd
from .emd import EMDSettings, emd
from .iterfilt import IFSettings, MaskLengthRule, iterative_filtering
from . import specfreq
from .specfreq import hilbert_spectrum
from .svgplot import render_decomposition_svg, render_spectrum_svg


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
    lengths = tuple(int(v) for v in text.split(",") if v.strip())
    if not lengths:
        raise ValueError(f"expected at least one mask length (got {text!r})")
    return lengths


# Every setting of the three methods: key -> (parser, help), in --help order.
# The key is the name of a field of EMDSettings, EEMDSettings or IFSettings
# and of its meta.txt line; "--" plus the key with dashes is its flag, and the
# key without underscores its settings-file spelling. "seed" is the general
# --seed flag, accepted by every method.
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

_FILE_KEYS = {key.replace("_", ""): key for key in _OPTIONS}
_FILE_KEYS["extensiontype"] = "extension"  # the Settings_IF name
_METHOD_SETTINGS = {"emd": EMDSettings, "eemd": EEMDSettings, "if": IFSettings}


def read_settings_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """Read a key = value settings file mirroring the Settings_IF names.

    Keys are case-insensitive; an ``IF.``/``EEMD.`` prefix and underscores
    are ignored (``IF.Xi``, ``xi`` and ``IF.ExtPoints`` all work). Unknown
    keys and a key set twice under any spelling are errors that name the
    line. Returns option key -> (value as the file spells it, line number);
    the values are checked by :func:`build_options`.
    """
    result: dict[str, tuple[str, int]] = {}
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
        if name in result:
            raise ParseError(f"{path}: line {lineno}: {name!r} already set on "
                             f"line {result[name][1]}")
        result[name] = (value, lineno)
    return result


def _method_keys(cls) -> set[str]:
    keys = set()
    for f in fields(cls):
        nested = f.default_factory  # EEMDSettings.emd
        keys |= _method_keys(nested) if is_dataclass(nested) else {f.name}
    return keys


def build_options(method: str, raw: dict[str, str]) -> dict:
    """Parse and check option strings for ``method``; errors name the key.

    A value is range-checked by the method's settings class built with its
    key alone, which suffices because each field's check reads that field.
    """
    cls = _METHOD_SETTINGS[method]
    allowed = _method_keys(cls) | {"seed"}
    options: dict = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ValueError(f"option {key!r} is not valid for method {method!r}")
        try:
            options[key] = _OPTIONS[key][0](value)
            _build_settings(cls, {key: options[key]})
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {exc}") from None
    return options


def _build_settings(cls, options: dict):
    """A validated ``cls`` from build_options' values; EEMD nests EMDSettings."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            kwargs[f.name] = _build_settings(f.default_factory, options)
        elif f.name in options:
            kwargs[f.name] = options[f.name]
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# Runs


def _settings_pairs(settings, threads: int) -> list[tuple[str, object]]:
    """meta.txt lines of a settings object, fields in declaration order."""
    pairs: list[tuple[str, object]] = []
    for f in fields(settings):
        key, value = f.name, getattr(settings, f.name)
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


def _meta_pairs(args: argparse.Namespace, settings, d: Decomposition, s) -> list:
    """meta.txt lines of a decompose run of ``s`` with ``settings``."""
    pairs = [("method", args.method), ("input", args.input), ("n", len(s))]
    pairs += [("dt", s.dt), ("t0", s.t0), *_settings_pairs(settings, args.threads)]
    pairs.append(("imfs_extracted", len(d.imfs)))
    for i, m in enumerate(d.meta, start=1):
        pairs.append((f"imf{i}.iterations", m.inner_iterations))
        pairs.append((f"imf{i}.stop_reason", m.stop_reason))
        if m.mask_half_length is not None:
            pairs.append((f"imf{i}.mask_half_length", m.mask_half_length))
    return pairs


def _add_traces_and_spectrum(
    plan: EmissionPlan, out: Path, d: Decomposition, estimator: str, nbins: int,
    plot: bool, weight: str = "amplitude",
) -> None:
    """iftrace_k.csv per IMF, spectrum.csv and, with ``plot``, spectrum.svg."""
    traces = [specfreq._ESTIMATORS[estimator](imf) for imf in d.imfs]
    for i, trace in enumerate(traces, start=1):
        plan.add_trace(out / f"iftrace_{i}.csv", trace)
    grid = hilbert_spectrum(
        d, nbins=nbins, estimator=estimator, weight=weight, traces=traces
    )
    plan.add_spectrum(out / "spectrum.csv", grid)
    if plot:
        plan.add_text(out / "spectrum.svg", lambda: render_spectrum_svg(grid))


# Output names a run may skip: an IF trace per IMF, the spectrum, the plots.
_TRACE_NAME = re.compile(r"iftrace_[1-9][0-9]*\.csv")
_DECOMPOSE_EXTRAS = ("spectrum.csv", "spectrum.svg", "decomposition.svg")
_SPECTRUM_EXTRAS = ("spectrum.svg",)


def _remove_stale(out: Path, plan: EmissionPlan, extras: tuple[str, ...]) -> None:
    """Remove the files in ``out`` that an earlier run wrote and ``plan``
    will not rewrite: those named iftrace_<k>.csv or in ``extras``.

    Only those exact names are matched; every other file and every
    directory is left alone.
    """
    rewritten = {path.name for path in plan.paths()}
    for path in out.iterdir():
        name = path.name
        if name in rewritten or path.is_dir():
            continue
        if name in extras or _TRACE_NAME.fullmatch(name):
            path.unlink()


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1 (got {value})")


def run(args: argparse.Namespace, settings) -> int:
    """Run ``decompose`` with the method's settings; returns an exit status."""
    _require_positive("--spectrum-bins", args.spectrum_bins)
    _require_positive("--threads", args.threads)
    s = ingest_csv(args.input, value_col=args.value_col, time_col=args.time_col)
    # An --out that cannot be a directory fails here, before the decomposition.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.method == "emd":
        d = emd(s, settings)
    elif args.method == "eemd":
        d = eemd(s, settings, threads=args.threads)
    elif args.method == "if":
        d = iterative_filtering(s, settings)
    else:
        raise ValueError(f"unknown method {args.method!r}")
    # Every component shares the input's time grid, so d.residual.times
    # equals s.times, the time column of every CSV file.
    plan = EmissionPlan(s.times)
    plan.add_meta(out / "meta.txt", _meta_pairs(args, settings, d, s))
    plan.add_imfs(out / "imfs.csv", d)
    if len(s) >= specfreq.MIN_IF_SAMPLES:
        _add_traces_and_spectrum(
            plan, out, d, args.estimator, args.spectrum_bins, args.plot
        )
    if args.plot:
        plan.add_text(out / "decomposition.svg", lambda: render_decomposition_svg(s, d))
    _remove_stale(out, plan, _DECOMPOSE_EXTRAS)
    plan.run()
    return 0


def run_spectrum(args: argparse.Namespace) -> int:
    """Recompute IF traces and the spectrum from a previous run's imfs.csv."""
    _require_positive("--bins", args.bins)
    out = Path(args.in_dir)
    d = read_imfs_csv(out / "imfs.csv")
    if (n := len(d.residual)) < specfreq.MIN_IF_SAMPLES:
        raise ValueError(f"{out / 'imfs.csv'}: {n} samples; instantaneous frequency "
                         f"needs at least {specfreq.MIN_IF_SAMPLES}")
    plan = EmissionPlan(d.residual.times)
    _add_traces_and_spectrum(
        plan, out, d, args.estimator, args.bins, args.plot, weight=args.weight
    )
    _remove_stale(out, plan, _SPECTRUM_EXTRAS)
    plan.run()
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
            options = {}
            file = read_settings_file(args.settings) if args.settings else {}
            for key, (value, line) in file.items():
                try:
                    options |= build_options(args.method, {key: value})
                except ValueError as exc:
                    raise ParseError(f"{args.settings}: line {line}: {exc}") from None
            # A flag beats the same key from the settings file.
            flags = {k: v for k in _OPTIONS if (v := getattr(args, k)) is not None}
            options |= build_options(args.method, flags)
            return run(args, _build_settings(_METHOD_SETTINGS[args.method], options))
        if args.command == "spectrum":
            return run_spectrum(args)
        if args.command == "info":
            return run_info(args.input, args.value_col, args.time_col)
        raise ValueError(f"unknown command {args.command!r}")
    except (IngestError, DecompositionError, ValueError, OSError) as exc:
        print(f"imfkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
