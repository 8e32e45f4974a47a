import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from imfkit.cli import build_options, main, read_settings_file
from imfkit.csvio import (
    EmissionPlan,
    NonUniformSampling,
    ParseError,
    TooShort,
    ingest_csv,
    read_imfs_csv,
)
from imfkit import Signal, iterative_filtering, IFSettings
from imfkit import cli, specfreq

from helpers import read_meta


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


@pytest.fixture
def two_tone_csv(tmp_path):
    n = 1024
    t = np.arange(n) / n
    x = np.sin(2 * np.pi * 2 * t) + np.sin(2 * np.pi * 40 * t)
    lines = ["t,v"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, x)]
    return write(tmp_path / "twotone.csv", "\n".join(lines) + "\n")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "imfkit", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestIngest:
    def test_single_column(self, tmp_path):
        p = write(tmp_path / "a.csv", "0\n1\n0\n-1\n")
        s = ingest_csv(p)
        assert len(s) == 4 and s.dt == 1.0 and s.t0 == 0.0
        assert s.samples.tolist() == [0, 1, 0, -1]

    def test_two_columns_with_header(self, tmp_path):
        p = write(tmp_path / "a.csv", "t,v\n0,1\n0.5,2\n1.0,3\n")
        s = ingest_csv(p)
        assert len(s) == 3 and s.dt == 0.5 and s.t0 == 0.0
        assert s.samples.tolist() == [1, 2, 3]

    def test_gap_in_time_column_names_row(self, tmp_path):
        rows = ["t,v"] + [f"{0.1 * i:.1f},1.0" for i in range(5)]
        rows.append("0.7,1.0")  # 2x step after line 6
        p = write(tmp_path / "a.csv", "\n".join(rows) + "\n")
        with pytest.raises(NonUniformSampling) as err:
            ingest_csv(p)
        assert str(err.value) == (
            f"{p}: line 7: time step 0.29999999999999993 deviates from dt=0.1"
        )

    def test_parse_error_names_line(self, tmp_path):
        p = write(tmp_path / "a.csv", "1\n2\nbogus\n4\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(p)
        assert "line 3" in str(err.value)

    def test_too_short(self, tmp_path):
        with pytest.raises(TooShort):
            ingest_csv(write(tmp_path / "a.csv", "1.5\n"))

    def test_column_selection_by_name(self, tmp_path):
        p = write(tmp_path / "a.csv", "a,b,c\n0,10,7\n1,20,8\n2,30,9\n")
        s = ingest_csv(p, value_col="c", time_col="a")
        assert s.samples.tolist() == [7, 8, 9]
        s = ingest_csv(p, value_col="1", time_col="none")
        assert s.samples.tolist() == [10, 20, 30] and s.dt == 1.0


class TestBlockParser:
    """Long files: the data rows go from the open file to one ``np.loadtxt``
    call, and an error's line is found by reading the file again."""

    N = 9000

    def rows(self, n):
        t = 0.25 + np.arange(n) / 64
        x = np.sin(t) * 10.0 ** np.random.default_rng(4).uniform(-300, 300, n)
        return [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, x)]

    def test_samples_and_blank_lines_across_blocks(self, tmp_path):
        rows = self.rows(self.N)
        lines = ["t,v", *rows[:4000], "", "  ", *rows[4000:6000], *[""] * 5000,
                 *rows[6000:], "\t", *[" "] * 4100]
        s = ingest_csv(write(tmp_path / "a.csv", "\n".join(lines) + "\n"))
        expected = [float(r.split(",")[1]) for r in rows]
        assert s.samples.tobytes() == np.array(expected).tobytes()
        assert s.t0 == 0.25 and s.dt == 1 / 64

    @pytest.mark.parametrize("bad, message", [
        ("bogus", "could not convert string to float: 'bogus'"),
        ("1.0,2.0,3.0", "expected 2 columns, got 3"),
        ("5.0", "expected 2 columns, got 1"),
        ("1_000,2.0", "could not convert string to float: '1_000'"),
    ])
    def test_error_in_a_later_block_names_its_line(self, tmp_path, bad, message):
        lines = ["t,v", *self.rows(self.N)]
        lines[6000] = bad  # file line 6001
        lines[7000] = "also bad"
        path = write(tmp_path / "a.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert str(err.value) == f"{path}: line 6001: {message}"

    def test_nonuniform_step_in_a_later_block_names_its_line(self, tmp_path):
        lines = ["t,v", "", *self.rows(self.N)]
        lines[8002] = "1000.0,1.0"  # file line 8003
        path = write(tmp_path / "a.csv", "\n".join(lines) + "\n")
        with pytest.raises(NonUniformSampling) as err:
            ingest_csv(path)
        assert str(err.value).startswith(f"{path}: line 8003: time step")

    def test_peak_memory_of_a_long_file(self, tmp_path):
        path = write(tmp_path / "a.csv", "time,value\n" + "\n".join(self.rows(65536)))
        ingest_csv(path)
        tracemalloc.start()
        try:
            s = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 65536
        # The parsed 65536 x 2 float64 array is 1 MiB. The reader holds it,
        # the buffer np.loadtxt grows it in and a copied column, 2.5 MiB, so
        # 4 MiB bounds it. A list of the file's lines (about 90 bytes each)
        # would add 5.9 MB; rows held as Python lists of floats peaked at
        # 17.8 MB.
        assert peak <= 4 * 65536 * 2 * 8, f"tracemalloc peak {peak / 1e6:.1f} MB"

    @staticmethod
    def read(path):
        """(samples' bytes, dt, t0) of ``path``, or its error after the name."""
        try:
            s = ingest_csv(path)
        except ParseError as err:
            return str(err).removeprefix(f"{path}: ")
        return s.samples.tobytes(), s.dt, s.t0

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("bad, message", [
        (None, None),
        ("bogus,1.0", "line 9: could not convert string to float: 'bogus'"),
        ("2.0,nan", "line 9: column 1 is nan"),
    ])
    def test_line_endings_read_as_newlines(self, tmp_path, end, bad, message):
        lines = ["t,v", *self.rows(12)]
        lines[3:3] = ["", " \t "]  # file lines 4 and 5
        if bad is not None:
            lines[8] = bad  # file line 9
        twin, path = tmp_path / "lf.csv", tmp_path / "other.csv"
        twin.write_bytes(("\n".join(lines) + "\n").encode())
        path.write_bytes((end.join(lines) + end).encode())
        assert self.read(path) == self.read(twin)
        if bad is None:
            assert len(ingest_csv(path)) == 12
        else:
            assert self.read(path) == message


class TestSettingsFile:
    def test_settings_if_names_case_insensitive(self, tmp_path):
        p = write(
            tmp_path / "s.cfg",
            "IF.Xi = 3\nif.nimfs = 100\nIF.alpha = Almost_min\n# comment\n",
        )
        raw = read_settings_file(p)
        assert raw == {"xi": ("3", 1), "n_imfs": ("100", 2), "alpha": ("Almost_min", 3)}

    def test_unknown_key_rejected(self, tmp_path):
        p = write(tmp_path / "s.cfg", "IF.bogus = 1\n")
        with pytest.raises(ParseError):
            read_settings_file(p)

    def test_build_options_rejects_foreign_flags(self):
        with pytest.raises(ValueError):
            build_options("emd", {"xi": "3"})
        opts = build_options("if", {"xi": "3", "alpha": "0"})
        assert opts["xi"] == 3.0

    def test_alpha_spellings(self):
        for text, value in [("0", "fixed0"), ("1", "fixed1"), ("AVE", "ave")]:
            assert build_options("if", {"alpha": text})["alpha"].value == value


class TestRoundTrip:
    def test_imfs_csv_bit_for_bit(self, tmp_path, rng):
        n = 257
        s = Signal(rng.standard_normal(n), dt=0.125, t0=-3.0)
        d = iterative_filtering(s, IFSettings(n_imfs=3))
        path = tmp_path / "imfs.csv"
        plan = EmissionPlan(s.times)  # the writer `imfkit decompose` uses
        plan.add_imfs(path, d)
        plan.run()
        d2 = read_imfs_csv(path)
        assert len(d2.imfs) == len(d.imfs)
        for a, b in zip(d.imfs, d2.imfs):
            assert a.samples.tobytes() == b.samples.tobytes()
        assert d2.residual.samples.tobytes() == d.residual.samples.tobytes()


class TestDecomposeCommand:
    def test_if_run_reconstructs_per_row(self, two_tone_csv, tmp_path):
        out = tmp_path / "run"
        code, _, err = run_cli(
            "decompose", "--method", "if", "--input", str(two_tone_csv),
            "--out", str(out), "--xi", "3", "--n-imfs", "4",
        )
        assert code == 0, err
        header, *rows = (out / "imfs.csv").read_text().splitlines()
        cols = header.split(",")
        assert cols[0] == "time" and cols[-1] == "residual"
        src = ingest_csv(two_tone_csv)
        for i, row in enumerate(rows):
            vals = [float(v) for v in row.split(",")]
            assert abs(sum(vals[1:]) - src.samples[i]) <= 1e-9

    def test_eemd_meta_records_parameters(self, two_tone_csv, tmp_path):
        out = tmp_path / "run"
        code, _, err = run_cli(
            "decompose", "--method", "eemd", "--input", str(two_tone_csv),
            "--out", str(out), "--ne", "4", "--seed", "7",
        )
        assert code == 0, err
        meta = read_meta(out / "meta.txt")
        assert meta["method"] == "eemd"
        assert float(meta["nstd"]) == 0.2
        assert int(meta["ne"]) == 4
        assert int(meta["seed"]) == 7

    def test_byte_identical_reruns(self, two_tone_csv, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, _ = run_cli(
                "decompose", "--method", "eemd", "--input", str(two_tone_csv),
                "--out", str(out), "--ne", "3", "--seed", "5",
            )
            assert code == 0
            blobs.append(
                (out / "imfs.csv").read_bytes() + (out / "meta.txt").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_method_specific_flags_rejected(self, two_tone_csv, tmp_path):
        code, _, err = run_cli(
            "decompose", "--method", "emd", "--input", str(two_tone_csv),
            "--out", str(tmp_path / "x"), "--xi", "3",
        )
        assert code == 1
        assert "xi" in err and "emd" in err

    def test_settings_file_applies_and_flags_override(self, two_tone_csv, tmp_path):
        cfg = write(tmp_path / "s.cfg", "IF.Xi = 2.5\nIF.NIMFs = 2\n")
        out = tmp_path / "run"
        code, _, _ = run_cli(
            "decompose", "--method", "if", "--input", str(two_tone_csv),
            "--out", str(out), "--settings", str(cfg), "--xi", "3",
        )
        assert code == 0
        meta = read_meta(out / "meta.txt")
        assert float(meta["xi"]) == 3.0  # flag wins
        assert int(meta["n_imfs"]) == 2  # file applies

    def test_plot_emits_wellformed_svg(self, two_tone_csv, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            "decompose", "--method", "if", "--input", str(two_tone_csv),
            "--out", str(out), "--xi", "3", "--n-imfs", "2", "--plot",
        )
        assert code == 0
        for name in ("decomposition.svg", "spectrum.svg"):
            root = ET.fromstring((out / name).read_text())
            assert root.tag.endswith("svg")

    def test_missing_input_fails_cleanly(self, tmp_path):
        code, _, err = run_cli(
            "decompose", "--method", "emd", "--input", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1 and err.strip()


class TestFailFast:
    @pytest.mark.parametrize(
        "args,flag",
        [
            (["--method", "emd", "--spectrum-bins", "0"], "--spectrum-bins"),
            (["--method", "if", "--spectrum-bins", "-3"], "--spectrum-bins"),
            (["--method", "eemd", "--threads", "0"], "--threads"),
            (["--method", "eemd", "--threads", "-1"], "--threads"),
        ],
    )
    def test_bad_count_rejected_before_any_work(
        self, two_tone_csv, tmp_path, capsys, args, flag
    ):
        out = tmp_path / "run"
        code = main(["decompose", *args, "--input", str(two_tone_csv), "--out", str(out)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("blocked", ["file", "file/run"])
    def test_bad_out_rejected_before_decomposing(
        self, two_tone_csv, tmp_path, capsys, monkeypatch, blocked
    ):
        (tmp_path / "file").write_text("not a directory\n")
        out = tmp_path / blocked

        def engine(*args, **kwargs):
            raise AssertionError("the decomposition ran")

        monkeypatch.setattr(cli, "iterative_filtering", engine)
        code = main(["decompose", "--method", "if", "--input", str(two_tone_csv),
                     "--out", str(out)])
        assert code == 1
        assert str(out) in capsys.readouterr().err

    def test_spectrum_bins_rejected_before_reading(self, tmp_path, capsys):
        run_dir = tmp_path / "no-such-run"
        assert main(["spectrum", "--in", str(run_dir), "--bins", "0"]) == 1
        assert "--bins" in capsys.readouterr().err
        assert not run_dir.exists()


class TestSpectrumCommand:
    def test_recomputes_from_run_dir(self, two_tone_csv, tmp_path):
        out = tmp_path / "run"
        assert main(
            ["decompose", "--method", "if", "--input", str(two_tone_csv),
             "--out", str(out), "--xi", "3", "--n-imfs", "2"]
        ) == 0
        before = (out / "spectrum.csv").read_text()
        assert main(
            ["spectrum", "--in", str(out), "--bins", "32",
             "--estimator", "derivative"]
        ) == 0
        after = (out / "spectrum.csv").read_text()
        assert after != before
        header = after.splitlines()[0].split(",")
        assert header[0] == "time" and len(header) == 33
        assert (out / "iftrace_1.csv").exists()

    @pytest.mark.parametrize("cell, message", [
        ("99.0", "line 10: time step"),
        ("nan", "line 10: column 2 is nan"),
    ])
    def test_damaged_imfs_csv_names_file_and_line(
        self, two_tone_csv, tmp_path, capsys, cell, message
    ):
        out = tmp_path / "run"
        assert main(["decompose", "--method", "if", "--input", str(two_tone_csv),
                     "--out", str(out), "--xi", "3", "--n-imfs", "2"]) == 0
        path = out / "imfs.csv"
        lines = path.read_text().splitlines()
        cells = lines[9].split(",")
        cells[0 if cell == "99.0" else 2] = cell
        lines[9] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["spectrum", "--in", str(out), "--bins", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"imfkit: error: {path}: {message}"), err

    def test_energy_weight_flag(self, two_tone_csv, tmp_path):
        out = tmp_path / "run"
        main(["decompose", "--method", "if", "--input", str(two_tone_csv),
              "--out", str(out), "--xi", "3", "--n-imfs", "2"])
        assert main(
            ["spectrum", "--in", str(out), "--bins", "16",
             "--estimator", "hilbert", "--weight", "energy"]
        ) == 0


class TestInfoCommand:
    def test_reports_summary(self, two_tone_csv, capsys):
        assert main(["info", "--input", str(two_tone_csv)]) == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split(" = ") for line in out.strip().splitlines()
        )
        assert int(fields["length"]) == 1024
        assert float(fields["dt"]) == pytest.approx(1 / 1024)
        assert int(fields["extrema"]) > 0
        assert float(fields["std"]) > 0


@pytest.mark.parametrize("selector, message", [
    ({"value_col": "x"}, "unknown column 'x'"),
    ({"time_col": "5"}, "column index 5 out of range (file has 2)"),
    ({"time_col": "1", "value_col": "1"}, "column 1 cannot be both time and value"),
    ({"value_col": "t"}, "column 0 cannot be both time and value"),
])
def test_column_selector_error_names_the_file(tmp_path, selector, message):
    p = write(tmp_path / "a.csv", "t,v\n0,1\n1,2\n2,3\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(p, **selector)
    assert str(err.value) == f"{p}: {message}"


def test_time_column_of_a_one_column_file_is_rejected(tmp_path):
    p = write(tmp_path / "a.csv", "1\n2\n3\n")
    for selector in ("0", "5"):
        with pytest.raises(ParseError) as err:
            ingest_csv(p, time_col=selector)
        assert str(err.value) == f"{p}: a file of 1 column has no time column {selector!r}"
    assert ingest_csv(p, time_col="none").samples.tolist() == [1, 2, 3]


@pytest.mark.parametrize("n", [7, 8])
def test_runs_below_the_trace_minimum(tmp_path, capsys, monkeypatch, n):
    """decompose skips the traces below 8 samples; spectrum names the file."""
    rows = "".join(f"{0.1 * i!r},{(-1.0) ** i + 0.1 * i!r}\n" for i in range(n))
    inp = write(tmp_path / "in.csv", "t,v\n" + rows)
    out = tmp_path / "run"
    assert main(["decompose", "--method", "emd", "--input", str(inp),
                 "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    traced = []
    for name, estimator in list(specfreq._ESTIMATORS.items()):
        monkeypatch.setitem(specfreq._ESTIMATORS, name,
                            lambda s, f=estimator: traced.append(s) or f(s))
    capsys.readouterr()
    code = main(["spectrum", "--in", str(out), "--bins", "4"])
    if n < specfreq.MIN_IF_SAMPLES:
        assert written == ["imfs.csv", "meta.txt"]
        assert code == 1 and not traced
        assert capsys.readouterr().err == (
            f"imfkit: error: {out / 'imfs.csv'}: {n} samples; "
            "instantaneous frequency needs at least 8\n"
        )
        assert sorted(p.name for p in out.iterdir()) == written
    else:
        assert "spectrum.csv" in written and "iftrace_1.csv" in written
        assert code == 0 and traced


def test_reruns_into_one_directory_leave_no_earlier_output(two_tone_csv, tmp_path):
    """Each run removes the output names it does not rewrite, and only those."""
    out = tmp_path / "run"
    out.mkdir()
    others = ["notes.txt", "iftrace_03.csv", "iftrace_x.csv", "iftrace_5.csv.bak",
              "spectrum.csv.old"]
    for name in others:
        write(out / name, "kept\n")
    (out / "iftrace_9.csv").mkdir()  # a directory, not an output file
    kept = sorted([*others, "iftrace_9.csv"])

    def names():
        return sorted(p.name for p in out.iterdir() if p.name not in kept)

    def decompose(*args):
        return main(["decompose", "--out", str(out), *args])

    if_run = ["--method", "if", "--input", str(two_tone_csv), "--xi", "3"]
    assert decompose(*if_run, "--n-imfs", "4", "--plot") == 0
    assert names() == ["decomposition.svg", "iftrace_1.csv", "iftrace_2.csv",
                       "iftrace_3.csv", "iftrace_4.csv", "imfs.csv", "meta.txt",
                       "spectrum.csv", "spectrum.svg"]
    assert decompose(*if_run, "--n-imfs", "2") == 0
    assert names() == ["iftrace_1.csv", "iftrace_2.csv", "imfs.csv", "meta.txt",
                       "spectrum.csv"]
    rows = "".join(f"{0.1 * i!r},{(-1.0) ** i + 0.1 * i!r}\n" for i in range(7))
    short = write(tmp_path / "short.csv", "t,v\n" + rows)
    assert decompose("--method", "emd", "--input", str(short)) == 0
    assert names() == ["imfs.csv", "meta.txt"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*kept, "imfs.csv", "meta.txt"])
    assert all((out / name).read_text() == "kept\n" for name in others)


def test_spectrum_rerun_removes_only_its_own_stale_outputs(two_tone_csv, tmp_path):
    out = tmp_path / "run"
    assert main(["decompose", "--method", "if", "--input", str(two_tone_csv),
                 "--out", str(out), "--xi", "3", "--n-imfs", "2", "--plot"]) == 0
    write(out / "iftrace_3.csv", "earlier\n")
    write(out / "notes.txt", "kept\n")
    assert main(["spectrum", "--in", str(out), "--bins", "16"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "decomposition.svg", "iftrace_1.csv", "iftrace_2.csv", "imfs.csv",
        "meta.txt", "notes.txt", "spectrum.csv",
    ]
