"""Outside-in span tracer for the imfkit benchmark.

Spans are recorded around calls into imfkit's public functions, at the
places where imfkit itself looks them up: module globals of ``imfkit.cli``
and ``imfkit.eemd``, and the estimator tables through which the trace
functions are dispatched. Nothing under ``src/`` is modified; the
wrappers are installed into the running process only.

Each span is ``{id, name, start, end, parent, thread, counts}``. Spans are
kept in memory and written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (span name, module, attribute) for every global lookup that gets wrapped.
# Missing attributes are skipped and reported, so the tracer keeps working
# when a later version of the package renames or removes a lookup.
CLI_GLOBALS = [
    ("cli.run", "imfkit.cli", "run"),
    ("cli.ingest", "imfkit.cli", "ingest_csv"),
    ("cli.write_imfs", "imfkit.cli", "write_imfs_csv"),
    ("emd.emd", "imfkit.cli", "emd"),
    ("eemd.eemd", "imfkit.cli", "eemd"),
    ("iterfilt.iterative_filtering", "imfkit.cli", "iterative_filtering"),
    ("specfreq.hilbert_spectrum", "imfkit.cli", "hilbert_spectrum"),
    ("svgplot.render", "imfkit.cli", "render_decomposition_svg"),
    ("svgplot.render", "imfkit.cli", "render_spectrum_svg"),
    # EEMD members: imfkit.eemd calls its module-global ``emd``.
    ("emd.emd", "imfkit.eemd", "emd"),
]

# (span name, module, dict attribute): every value in the dict is wrapped.
ESTIMATOR_TABLES = [
    ("specfreq.trace", "imfkit.cli", "_ESTIMATOR_FNS"),
    ("specfreq.trace", "imfkit.specfreq", "_ESTIMATORS"),
]


def _decomposition_counts(d) -> dict:
    iters = [m.inner_iterations for m in d.meta]
    max_inner = sum(1 for m in d.meta if m.stop_reason.value == "max_inner_reached")
    return {"imfs": len(iters), "iterations": sum(iters), "max_inner": max_inner}


def _count_rows(sig) -> dict:
    return {"rows": len(sig)}


def _count_grid(grid) -> dict:
    rows, nbins = grid.amplitude.shape
    return {"rows": rows, "nbins": nbins}


COUNTERS = {
    "emd.emd": _decomposition_counts,
    "eemd.eemd": _decomposition_counts,
    "iterfilt.iterative_filtering": _decomposition_counts,
    "cli.ingest": _count_rows,
    "specfreq.hilbert_spectrum": _count_grid,
}


class Tracer:
    """Records nested spans with a per-thread parent stack.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost span open on the main thread at that
    moment, which is the call that started the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                span = {
                    "id": len(self.spans),
                    "name": name,
                    "parent": parent,
                    "thread": threading.get_ident(),
                    "counts": {},
                }
                self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"].update(counter(result))
            return result

        return traced

    def install_globals(self, points) -> None:
        for name, module, attr in points:
            mod = sys.modules.get(module)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(name, fn))
            self.installed.append(f"{module}.{attr}")

    def install_tables(self, tables) -> None:
        for name, module, attr in tables:
            mod = sys.modules.get(module)
            table = getattr(mod, attr, None) if mod is not None else None
            if not isinstance(table, dict):
                self.missing.append(f"{module}.{attr}")
                continue
            for key in list(table):
                table[key] = self.wrap(name, table[key])
            self.installed.append(f"{module}.{attr}")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "installed": self.installed, "missing": self.missing},
                fh,
            )


# ---------------------------------------------------------------------------
# Span analysis (runs in the benchmark driver, on the dumped spans)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    a, b = span["start"], span["end"]
    covered = [(max(a, c["start"]), min(b, c["end"])) for c in children]
    covered = [(x, y) for x, y in covered if y > x]
    return (b - a) - _union_length(covered)


def summarize(spans: list[dict]) -> dict:
    """Per-layer figures from one traced operation's spans.

    Durations are summed per span name, so spans that ran in parallel
    worker threads count their thread time (``eemd.member_sum_s``), while
    the enclosing span's duration is the wall time (``eemd.busy_s``).
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in of(name))

    def self_sum(*names):
        return sum(self_time(s, children.get(s["id"], [])) for n in names for s in of(n))

    by_id = {s["id"]: s for s in spans}
    members = [
        s for s in of("emd.emd")
        if s["parent"] is not None and by_id[s["parent"]]["name"] == "eemd.eemd"
    ]
    member_sum = sum(s["end"] - s["start"] for s in members)
    emd_busy = busy("emd.emd")
    sifts = count("emd.emd", "iterations")
    eemd_busy = busy("eemd.eemd")
    if_busy = busy("iterfilt.iterative_filtering")
    if_iters = count("iterfilt.iterative_filtering", "iterations")
    if_imfs = count("iterfilt.iterative_filtering", "imfs")
    ingest_s = busy("cli.ingest")
    rows = count("cli.ingest", "rows")
    grids = of("specfreq.hilbert_spectrum")
    return {
        "emd.calls": len(of("emd.emd")),
        "emd.sifts": sifts,
        "emd.busy_s": emd_busy,
        "emd.s_per_sift": emd_busy / sifts if sifts else 0.0,
        "eemd.busy_s": eemd_busy,
        "eemd.self_s": self_sum("eemd.eemd"),
        "eemd.member_sum_s": member_sum,
        "eemd.parallelism": member_sum / eemd_busy if eemd_busy else 0.0,
        "iterfilt.busy_s": if_busy,
        "iterfilt.inner_iters": if_iters,
        "iterfilt.s_per_iter": if_busy / if_iters if if_iters else 0.0,
        "iterfilt.max_inner_frac": (
            count("iterfilt.iterative_filtering", "max_inner") / if_imfs if if_imfs else 0.0
        ),
        "specfreq.trace_calls": len(of("specfreq.trace")),
        "specfreq.trace_s": busy("specfreq.trace"),
        "specfreq.spectrum_self_s": self_sum("specfreq.hilbert_spectrum"),
        # Computed from the grid shape (rows * bins * 8 bytes), not measured.
        "specfreq.grid_mb": max(
            (s["counts"]["rows"] * s["counts"]["nbins"] * 8 / 1e6 for s in grids),
            default=0.0,
        ),
        "svgplot.render_s": busy("svgplot.render"),
        "cli.ingest_s": ingest_s,
        "cli.ingest_rows_per_s": rows / ingest_s if ingest_s else 0.0,
        "cli.write_imfs_s": busy("cli.write_imfs"),
        "cli.emit_s": self_sum("cli.run"),
    }
