import json
import os

import numpy as np
import pytest

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
