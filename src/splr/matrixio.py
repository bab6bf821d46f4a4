"""File I/O for the CLI: headerless CSV matrices with shortest-round-trip
decimals, JSON reports, and atomic writes (temp file + rename) so partial
output never lands at the destination path.
"""

import json
import math
import os
import warnings

import numpy as np

__all__ = [
    "MatrixIOError",
    "read_matrix_csv",
    "write_matrix_csv",
    "write_json",
    "write_text_atomic",
    "format_float",
]


class MatrixIOError(ValueError):
    """A matrix file failed to parse; the message carries the line number."""


def format_float(x):
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _scan_matrix_csv(path):
    """read_matrix_csv's line scan: the authority on which files parse, and
    on the message, line number and precedence of every MatrixIOError. It
    parses one field at a time, so that the first that is not a finite
    number is named. A byte outside ASCII decodes to a lone surrogate, so
    the scan reaches its line and names it."""
    rows = []
    width = None
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                col, ch = next((i, ch) for i, ch in enumerate(line, start=1)
                               if not ch.isascii())
                raise MatrixIOError(
                    f"{path}: line {lineno}: non-ASCII byte "
                    f"0x{ord(ch) - 0xDC00:02x} at column {col}"
                )
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise MatrixIOError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
            row = []
            for field in fields:
                try:
                    value = float(field)
                except ValueError:
                    raise MatrixIOError(
                        f"{path}: line {lineno}: {field!r} is not a number"
                    ) from None
                if not math.isfinite(value):
                    raise MatrixIOError(
                        f"{path}: line {lineno}: non-finite value {field!r}"
                    )
                row.append(value)
            rows.append(row)
    if not rows:
        raise MatrixIOError(f"{path}: empty matrix file")
    return np.array(rows, dtype=float)


def read_matrix_csv(path):
    """Parse a headerless CSV of numbers into a matrix.

    Ragged rows, non-numeric fields, non-finite values and bytes outside
    ASCII raise MatrixIOError naming the offending line; an empty file
    raises it too.

    numpy's parser reads the file in one pass, without a Python float per
    entry. It accepts a subset of what the line scan accepts, with the same
    values, so the scan runs only when that parse raises, finds no data or
    yields a non-finite entry: the scan then raises the error or, for the
    spellings only it accepts (whitespace-only lines, digits grouped with
    underscores), returns the matrix.
    """
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            M = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        M = None
    if M is None or M.size == 0 or not np.isfinite(M).all():
        return _scan_matrix_csv(path)
    return M


def _create_temp(directory):
    """A new file in directory, open for writing: (fd, path). It gets the
    mode a plain open() gives a new file, 0o666 less the umask, where
    tempfile.mkstemp gives 0o600; the umask is applied by the kernel, so no
    call reads or sets the process umask."""
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def write_text_atomic(path, text):
    """Write text to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = _create_temp(directory)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, M):
    """Write a matrix as headerless CSV, one row per line."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    # repr of a Python float is format_float's text; tolist() converts a
    # row's entries to floats in one call, a row at a time so that only one
    # row of float objects is alive at once.
    lines = [",".join(map(repr, row.tolist())) for row in M]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def write_json(path, payload):
    """Write a JSON report atomically; non-finite floats become strings so
    the output stays standard JSON."""
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    write_text_atomic(path, text + "\n")
