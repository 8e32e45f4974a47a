"""The decompose options: flags, settings-file keys and meta.txt lines.

Every field of EMDSettings, EEMDSettings and IFSettings is one option. It
has a flag, a settings-file key and a meta.txt line, and bad values are
rejected before the input file is read.
"""

from dataclasses import fields

import numpy as np
import pytest

from imfkit import EEMDSettings, EMDSettings, IFSettings
from imfkit.cli import ParseError, ingest_csv, main, read_settings_file

N = 256

# A non-default value for every settings field, by method. The option key
# is the field name.
NON_DEFAULT = {
    "emd": {
        "max_imfs": "2",
        "max_inner": "7",
        "sd_threshold": "0.3",
        "min_extrema": "3",
        "boundary": "periodic",
    },
    "eemd": {"nstd": "0.1", "ne": "3", "seed": "9", "num_imfs": "3"},
    "if": {
        "delta": "0.01",
        "ext_points": "4",
        "n_imfs": "2",
        "extension": "reflection",
        "max_inner": "50",
        "alpha": "almost_min",
        "xi": "3",
        "mask_lengths": "5,9",
    },
}
SETTINGS_CLASSES = {"emd": EMDSettings, "eemd": EEMDSettings, "if": IFSettings}
# Keeps EEMD runs small when the option under test is not ``ne``.
BASE_FLAGS = {"emd": [], "eemd": ["--ne", "2"], "if": []}


def option_keys(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.name != "emd"]


@pytest.fixture
def signal_csv(tmp_path):
    rng = np.random.default_rng(5)
    t = np.arange(N) / 64
    x = np.sin(2 * np.pi * 0.7 * t) + 0.5 * np.sin(2 * np.pi * 9 * t)
    x += 0.05 * rng.standard_normal(N)
    path = tmp_path / "in.csv"
    rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, x))
    path.write_text("t,v\n" + rows)
    return path


def decompose(csv, out, method, *args):
    argv = ["decompose", "--method", method, "--input", str(csv), "--out", str(out)]
    assert main([*argv, *args]) == 0
    return (out / "meta.txt").read_text()


def meta_keys(text: str) -> list[str]:
    return [line.split(" = ", 1)[0] for line in text.splitlines()]


def test_non_default_table_covers_every_settings_field():
    for method, cls in SETTINGS_CLASSES.items():
        assert option_keys(cls) == list(NON_DEFAULT[method])


EMD_KEYS = ["max_imfs", "max_inner", "sd_threshold", "min_extrema", "boundary"]
IF_KEYS = ["delta", "ext_points", "n_imfs", "extension", "max_inner", "alpha", "xi"]


@pytest.mark.parametrize(
    "method,args,settings_keys",
    [
        ("emd", [], EMD_KEYS),
        ("eemd", [], ["nstd", "ne", "seed", "threads", "num_imfs", *EMD_KEYS]),
        ("if", [], IF_KEYS),
        ("if", ["--mask-lengths", "5,9"], [*IF_KEYS, "mask_lengths"]),
    ],
)
def test_meta_key_order(signal_csv, tmp_path, method, args, settings_keys):
    text = decompose(signal_csv, tmp_path / "run", method, *args)
    keys = meta_keys(text)
    head = ["method", "input", "n", "dt", "t0", *settings_keys, "imfs_extracted"]
    k = int(dict(line.split(" = ", 1) for line in text.splitlines())["imfs_extracted"])
    per_imf = ["iterations", "stop_reason"]
    if method == "if":
        per_imf.append("mask_half_length")
    expected = head + [f"imf{i}.{name}" for i in range(1, k + 1) for name in per_imf]
    assert k >= 1
    assert keys == expected
    if args:
        assert "mask_lengths = 5,9\n" in text


def test_flagless_eemd_meta_values(signal_csv, tmp_path):
    text = decompose(signal_csv, tmp_path / "run", "eemd", "--ne", "2")
    assert "seed = 0\nthreads = 1\nnum_imfs = auto\n" in text


def test_help_lists_a_flag_for_every_field(capsys):
    with pytest.raises(SystemExit):
        main(["decompose", "--help"])
    help_text = capsys.readouterr().out
    for cls in SETTINGS_CLASSES.values():
        for key in option_keys(cls):
            assert f"--{key.replace('_', '-')} " in help_text, key


@pytest.mark.parametrize(
    "method,key",
    [(method, key) for method, table in NON_DEFAULT.items() for key in table],
)
def test_flag_and_settings_file_agree(signal_csv, tmp_path, method, key):
    value = NON_DEFAULT[method][key]
    base = [] if key == "ne" else BASE_FLAGS[method]
    default = decompose(signal_csv, tmp_path / "default", method, *base)
    flag = f"--{key.replace('_', '-')}"
    by_flag = decompose(signal_csv, tmp_path / "flag", method, *base, flag, value)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"{key.replace('_', '')} = {value}\n")
    by_file = decompose(
        signal_csv, tmp_path / "file", method, *base, "--settings", str(cfg)
    )
    assert by_flag == by_file
    assert by_flag != default


class TestBadSettingBeforeInput:
    @pytest.mark.parametrize(
        "args,message",
        [
            (["--method", "eemd", "--ne", "0"], "ne must be"),
            (["--method", "if", "--xi", "-1"], "xi must be"),
            (["--method", "eemd", "--seed", "-1"], "seed must be"),
            (["--method", "if", "--mask-lengths", "0"], "mask lengths must be"),
            (["--method", "if", "--mask-lengths", ","], "at least one mask length"),
        ],
    )
    def test_rejected_before_the_input_is_read(self, tmp_path, capsys, args, message):
        missing = tmp_path / "no-such-input.csv"
        out = tmp_path / "run"
        code = main(["decompose", *args, "--input", str(missing), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "no-such-input" not in err
        assert not out.exists()

    def test_flag_range_error_names_the_option(self, tmp_path, capsys):
        code = main(["decompose", "--method", "if", "--xi", "-1", "--input",
                     str(tmp_path / "no-such-input.csv"), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            "imfkit: error: bad value for 'xi': xi must be positive\n"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("IF.Xi = -1\n", "line 1: bad value for 'xi': xi must be positive"),
            ("IF.NIMFs = 2\nEEMD.Ne = 5\n",
             "line 2: option 'ne' is not valid for method 'if'"),
            ("IF.MaskLengths = ,\n", "line 1: bad value for 'mask_lengths': "
             "expected at least one mask length (got ',')"),
        ],
        ids=["range", "foreign", "empty-mask-lengths"],
    )
    def test_file_value_names_file_and_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "s.cfg"
        path.write_text(text)
        out = tmp_path / "run"
        code = main(["decompose", "--method", "if", "--settings", str(path), "--input",
                     str(tmp_path / "no-such-input.csv"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"imfkit: error: {path}: {message}\n"
        assert not out.exists()


class TestSettingsFileRepeats:
    @pytest.mark.parametrize(
        "text",
        [
            "xi = 3\nXi = 2\n",
            "IF.MaxInner = 10\n# comment\nEMD.MaxInner = 20\n",
            "Extension = periodic\n\nIF.ExtensionType = reflection\n",
            "n_imfs = 2\nIF.NIMFs = 3\n",
        ],
    )
    def test_same_key_twice_names_both_lines(self, tmp_path, text):
        path = tmp_path / "s.cfg"
        path.write_text(text)
        lines = [i for i, line in enumerate(text.splitlines(), 1) if "=" in line]
        with pytest.raises(ParseError) as err:
            read_settings_file(path)
        message = str(err.value)
        assert f"line {lines[1]}" in message and f"line {lines[0]}" in message
        assert str(path) in message

    @pytest.mark.parametrize("flags", [[], ["--xi", "3"]], ids=["file", "flag-too"])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, flags):
        """Checked as the file is read, before the input, even if a flag
        sets the same key."""
        path = tmp_path / "s.cfg"
        path.write_text("IF.NIMFs = 2\n# comment\nIF.Xi = abc\n")
        missing = tmp_path / "no-such-input.csv"
        code = main(["decompose", "--method", "if", "--settings", str(path), *flags,
                     "--input", str(missing), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"imfkit: error: {path}: line 3: bad value for 'xi': "
            "could not convert string to float: 'abc'\n"
        )

    def test_distinct_keys_still_accepted(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("IF.ExtensionType = Reflection\nIF.MaxInner = 10\nIF.Xi = 3\n")
        assert read_settings_file(path) == {
            "extension": ("Reflection", 1),
            "max_inner": ("10", 2),
            "xi": ("3", 3),
        }


class TestNonFiniteCells:
    @pytest.mark.parametrize("column", [0, 1], ids=["time", "value"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_names_file_and_line(self, tmp_path, column, cell):
        rows = [[f"{0.5 * i!r}", f"{float(np.sin(i))!r}"] for i in range(6)]
        rows[3][column] = cell
        path = tmp_path / "a.csv"
        path.write_text("t,v\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert str(err.value).startswith(f"{path}: line 5: ")

    def test_single_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1\n2\n\nnan\n4\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert str(err.value).startswith(f"{path}: line 4: ")

    def test_unused_column_is_not_checked(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,v,w\n0,1,nan\n1,2,nan\n2,3,nan\n")
        assert ingest_csv(path).samples.tolist() == [1, 2, 3]
