"""Plain-text matrix and vector exchange formats.

CSV matrices are header-free numeric grids, one row per line, ``.`` decimal
point, scientific notation accepted; vectors are single-column CSVs.  The
sparse triplet format starts with a header line ``m n nnz`` followed by one
``row col value`` line per structural nonzero.  Values are written with 17
significant digits so a write/read round trip reproduces every float bit.
"""

from __future__ import annotations

import io
import warnings

import numpy as np

__all__ = [
    "write_matrix_csv",
    "read_matrix_csv",
    "write_vector_csv",
    "read_vector_csv",
    "write_triplet",
    "read_triplet",
]


def write_matrix_csv(path, A) -> None:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def _lines(path, sep):
    """Yield ``(line number, line, fields)`` for each non-blank line, stripped and split."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line := line.strip():
                yield lineno, line, line.split(sep)


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    for lineno, _, fields in _lines(path, ","):
        if rows and len(fields) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} columns, found {len(fields)}")
        row = []
        for col, tok in enumerate(fields, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: column {col}: not a number: {tok.strip()!r}") from None
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return np.asarray(rows, dtype=float)


def write_vector_csv(path, v) -> None:
    write_matrix_csv(path, np.asarray(v, dtype=float).reshape(-1, 1))


def read_vector_csv(path) -> np.ndarray:
    arr = read_matrix_csv(path)
    if arr.shape[1] == 1:
        return arr[:, 0]
    if arr.shape[0] == 1:
        return arr[0, :]
    raise ValueError(f"{path}: expected a single-column vector, got shape {arr.shape}")


def write_triplet(path, A) -> None:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    rows, cols = np.nonzero(A)
    entries = "".join(map("{} {} {:.17g}\n".format, rows.tolist(), cols.tolist(), A[rows, cols].tolist()))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{m} {n} {rows.size}\n")
        handle.write(entries)


_TRIPLET_ENTRY = [("row", np.intp), ("col", np.intp), ("value", float)]


def read_triplet(path) -> np.ndarray:
    """Parse a triplet file in one numpy pass.  A file that pass or its checks
    refuse is read again line by line, which raises the error naming the line.

    numpy before 2.0 parses an index such as ``1.7`` into an integer field by
    truncation, with only a ``DeprecationWarning``; that warning is made an
    error here, so such a file is refused whatever the caller's filters."""
    with open(path, "r", encoding="utf-8") as handle:
        header, body = handle.readline(), handle.read()
    try:
        m, n, nnz = (int(p) for p in header.split())
        if m >= 1 and n >= 1 and nnz >= 1 and body.strip():
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                entries = np.loadtxt(io.StringIO(body), dtype=_TRIPLET_ENTRY, comments=None, ndmin=1)
            i, j = entries["row"], entries["col"]
            if entries.size == nnz and i.min() >= 0 and i.max() < m and j.min() >= 0 and j.max() < n:
                A = np.zeros((m, n))
                A[i, j] = entries["value"]
                return A
    except (ValueError, DeprecationWarning):
        pass
    return _read_triplet_by_line(path)


def _read_triplet_by_line(path) -> np.ndarray:
    lines = list(_lines(path, None))
    if not lines:
        raise ValueError(f"{path}: empty triplet file")
    (header_no, _, parts), entries = lines[0], lines[1:]
    if len(parts) != 3:
        raise ValueError(f"{path}:{header_no}: header must be 'm n nnz'")
    try:
        m, n, nnz = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{path}:{header_no}: header must hold three integers") from None
    if m < 1 or n < 1 or nnz < 0:
        raise ValueError(f"{path}:{header_no}: bad dimensions {m} {n} {nnz}")
    if len(entries) != nnz:
        raise ValueError(f"{path}: header promises {nnz} entries, file has {len(entries)}")
    A = np.zeros((m, n))
    for lineno, line, fields in entries:
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'row col value'")
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed entry {line!r}") from None
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"{path}:{lineno}: index ({i}, {j}) outside {m}x{n}")
        A[i, j] = v
    return A
