import json
import os
import stat

import numpy as np
import pytest

from splr import matrixio
from splr.matrices import RandomStream
from splr.matrixio import (
    MatrixIOError,
    format_float,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
    write_text_atomic,
)

from .helpers import probe_seed


def test_format_float_round_trips():
    probes = [0.1, 1.0 / 3.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308,
              123456789.123456789, 2.0, -7.25]
    probes += list(RandomStream(probe_seed("fmt")).gaussian(20, 1).ravel())
    for x in probes:
        assert float(format_float(x)) == float(x)


def test_matrix_round_trip_exact(tmp_path):
    M = RandomStream(probe_seed("rt")).gaussian(7, 5)
    M[0, 0] = 0.1
    M[1, 1] = -1.0 / 3.0
    M[2, 2] = 1e-300
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back = read_matrix_csv(path)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


def test_read_accepts_scientific_notation_and_blank_lines(tmp_path):
    path = tmp_path / "sci.csv"
    path.write_text("1e3,-2.5E-2\n\n4,5\n")
    M = read_matrix_csv(path)
    assert np.array_equal(M, np.array([[1000.0, -0.025], [4.0, 5.0]]))


def test_read_rejects_ragged_rows_with_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixIOError) as err:
        read_matrix_csv(path)
    assert "line 2" in str(err.value)


def test_read_rejects_non_numeric_with_line_number(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("1,2\n3,four\n")
    with pytest.raises(MatrixIOError) as err:
        read_matrix_csv(path)
    assert "line 2" in str(err.value) and "four" in str(err.value)


def test_read_rejects_non_finite_values(tmp_path):
    for bad in ("inf", "-inf", "nan"):
        path = tmp_path / f"{bad.strip('-')}.csv"
        path.write_text(f"1,{bad}\n")
        with pytest.raises(MatrixIOError) as err:
            read_matrix_csv(path)
        assert "line 1" in str(err.value)


@pytest.mark.parametrize("data, where", [
    (b"\xef\xbb\xbf1,2\n3,4\n", "line 1: non-ASCII byte 0xef at column 1"),
    ("1,2\n4\u00e9,5\n".encode("utf-8"), "line 2: non-ASCII byte 0xc3 at column 2"),
], ids=["bom", "line2"])
def test_read_rejects_non_ascii_with_line_number(tmp_path, data, where):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    with pytest.raises(MatrixIOError) as err:
        read_matrix_csv(path)
    assert str(err.value) == f"{path}: {where}"


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(MatrixIOError) as err:
        read_matrix_csv(path)
    assert "empty" in str(err.value)


def written_bytes_reference(M):
    rows = np.asarray(M, dtype=float)
    return ("\n".join(",".join(format_float(x) for x in row) for row in rows)
            + "\n").encode("ascii")


EXTREMES = np.array([[-0.0, 5e-324, 1e-5], [1e16, 1.7976931348623157e308, -1e-5]])


@pytest.mark.parametrize("M", [
    EXTREMES,
    -EXTREMES,
    np.asfortranarray(RandomStream(probe_seed("fortran")).gaussian(4, 3)),
    np.arange(-6, 6).reshape(3, 4),
    RandomStream(probe_seed("row")).gaussian(1, 9),
    RandomStream(probe_seed("col")).gaussian(9, 1),
], ids=["extremes", "negated", "fortran", "integer", "row", "column"])
def test_write_matrix_bytes_match_format_float(tmp_path, M):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert path.read_bytes() == written_bytes_reference(M)
    assert read_matrix_csv(path).tobytes() == np.asarray(M, dtype=float).tobytes()


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,inf\n4,5\n6\n", "line 2: non-finite value 'inf'"),
    ("1,2\n3,4\n5\n6,nan\n", "line 3: expected 2 fields, got 1"),
    ("1,2\n3,four\n5,nan\n", "line 2: 'four' is not a number"),
    ("1,2\ninf,four\n", "line 2: non-finite value 'inf'"),
    ("1,2\nfour,inf\n", "line 2: 'four' is not a number"),
    ("1,2\n\n3,-inf\n", "line 3: non-finite value '-inf'"),
    ("\n \n", "empty matrix file"),
])
def test_read_names_the_first_bad_line_and_field(tmp_path, text, message):
    # The first offending line wins, and within it the first bad field,
    # whichever kind of error comes later in the file.
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixIOError) as err:
        read_matrix_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_read_accepts_finite_values_whose_row_sum_overflows(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1.7976931348623157e308,1.7976931348623157e308\n-1e308,-1e308\n")
    M = read_matrix_csv(path)
    assert np.array_equal(M, [[1.7976931348623157e308] * 2, [-1e308] * 2])


def test_write_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        write_matrix_csv(tmp_path / "bad.csv", np.zeros(3))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "first\n")
    write_text_atomic(path, "second\n")
    assert path.read_text() == "second\n"
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


def test_failed_atomic_write_leaves_destination_and_no_temp_file(tmp_path):
    # Text outside ASCII fails at the write, after the temp file exists.
    path = tmp_path / "out.txt"
    write_text_atomic(path, "first\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "caf\u00e9\n")
    assert path.read_text() == "first\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_report_write_preserves_existing_file(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"ok": 1})
    with pytest.raises(TypeError):
        write_json(path, {"bad": object()})
    assert json.loads(path.read_text()) == {"ok": 1}


def test_json_sanitizes_non_finite_and_numpy_scalars(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {
        "pos": float("inf"),
        "neg": float("-inf"),
        "undef": float("nan"),
        "npf": np.float64(2.5),
        "npi": np.int64(3),
        "npb": np.bool_(True),
        "seq": (1, np.float64(0.5)),
        "nested": {"x": float("inf")},
    })
    back = json.loads(path.read_text())
    assert back["pos"] == "inf" and back["neg"] == "-inf" and back["undef"] == "nan"
    assert back["npf"] == 2.5 and back["npi"] == 3 and back["npb"] is True
    assert back["seq"] == [1, 0.5]
    assert back["nested"] == {"x": "inf"}


# Spellings on which numpy's parser and the line scan were compared: each
# must read as the scan reads it, to the bit or to the error text.
SPELLINGS = {
    "spaces": " 1 , 2 \n3,  4\n",
    "tabs": "1\t,\t2\n3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "no_final_newline": "1,2\n3,4",
    "signs_and_dots": "+1,.5\n5.,-0.0\n",
    "leading_zeros": "007,1E3\n1e-320,4\n",
    "long_digits": "0.1000000000000000055511151231257827,2.4703282292062328e-324\n",
    "whitespace_only_line": "1,2\n   \n3,4\n",
    "underscore": "1_0,2\n3,4\n",
    "overflow": "1e400,2\n3,4\n",
    "nan": "nan,2\n3,4\n",
    "minus_inf": "1,-inf\n3,4\n",
    "Infinity": "Infinity,2\n3,4\n",
    "empty_file": "",
    "empty_field": "1,,2\n3,4,5\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "ragged": "1,2\n3\nx,y\n",
    "quotes": '"1",2\n3,4\n',
    "hash": "1,2 # note\n3,4\n",
    "hex": "0x10,2\n3,4\n",
    "non_ascii": "1,2\n3,é4\n",
    "bom": "\ufeff1,2\n3,4\n",
    "cr_then_non_ascii": "1,2\r3,4\ré,5\n",
    "single_column": "1\n2\n3\n",
    "single_row": "1,2,3\n",
}


def read_outcome(read, path):
    try:
        M = read(path)
    except MatrixIOError as exc:
        return type(exc), str(exc)
    return M.shape, M.tobytes()


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_read_matches_line_scan(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(SPELLINGS[name].encode("utf-8"))
    assert (read_outcome(read_matrix_csv, path)
            == read_outcome(matrixio._scan_matrix_csv, path))


def test_read_skips_line_scan_on_plain_files(tmp_path, monkeypatch):
    # A file numpy parses to finite values never reaches the line scan.
    path = tmp_path / "m.csv"
    M = RandomStream(probe_seed("plain")).gaussian(6, 4)
    write_matrix_csv(path, M)
    monkeypatch.setattr(matrixio, "_scan_matrix_csv", None)
    assert read_matrix_csv(path).tobytes() == M.tobytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_atomic_write_gets_the_mode_of_a_plain_create(tmp_path, umask):
    old = os.umask(umask)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x\n")
        write_text_atomic(tmp_path / "atomic.txt", "x\n")
        write_matrix_csv(tmp_path / "m.csv", np.eye(2))
        write_json(tmp_path / "r.json", {"ok": 1})
    finally:
        os.umask(old)
    expected = 0o666 & ~umask
    assert stat.S_IMODE(plain.stat().st_mode) == expected
    for name in ("atomic.txt", "m.csv", "r.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == expected
