"""Plain-text matrix and vector exchange formats.

CSV matrices are header-free numeric grids, one row per line, ``.`` decimal
point, scientific notation accepted; vectors are single-column CSVs.  The
sparse triplet format starts with a header line ``m n nnz`` followed by one
``row col value`` line per structural nonzero, no ``(row, col)`` twice.
Values are written with 17 significant digits so a write/read round trip
reproduces every float bit.  CSV matrices are read, and triplet files written
and read, by numpy passes.  A file the reading pass refuses (any error or
warning in it; for a triplet file also a wrong entry count, an index outside
the matrix, a repeated entry) is read again line by line, which raises the
error naming the line.
"""

from __future__ import annotations

import json
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
    """Read a CSV matrix by one ``np.loadtxt`` pass, warnings as errors (its warning on an empty file
    among them); a file that pass refuses is read again line by line, which raises the error naming the line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except Exception:
        pass
    return _read_matrix_csv_by_line(path)


def _read_matrix_csv_by_line(path) -> np.ndarray:
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
    if 1 in arr.shape:
        return arr.ravel()
    raise ValueError(f"{path}: expected a single-column vector, got shape {arr.shape}")


def write_triplet(path, A) -> None:
    """Write the nonzeros row by row (NaN kept, ±0.0 dropped).  Each row, column and distinct
    value (by bit pattern) is formatted once; lines are gathered from NUL-padded byte rows."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    flat = np.flatnonzero(A != 0)
    bits, which = np.unique(A.ravel()[flat].view(np.int64), return_inverse=True)
    texts = [np.array([f"{k} " for k in range(size)], "S")[at] for size, at in zip((m, n), np.divmod(flat, n))]
    texts.append(np.array(list(map("{:.17g}\n".format, bits.view(float).tolist())), "S")[which])
    lines = np.concatenate([t.view(np.uint8).reshape(flat.size, t.itemsize) for t in texts], axis=1)
    with open(path, "wb") as handle:
        handle.write(f"{m} {n} {flat.size}\n".encode())
        handle.write(lines[lines != 0])


_TRIPLET_ENTRY = [("row", np.intp), ("col", np.intp), ("value", float)]


def read_triplet(path) -> np.ndarray:
    """Read a triplet file: the header here, the body by ``np.loadtxt`` from the path.

    Warnings are errors in that pass, so neither loadtxt's warning on an empty
    body nor numpy < 2.0's ``DeprecationWarning`` on truncating an index such
    as ``1.7`` lets a file through, whatever the caller's filters."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open(path, "r", encoding="utf-8") as handle:
                m, n, nnz = (int(p) for p in handle.readline().split())
            entries = np.loadtxt(path, dtype=_TRIPLET_ENTRY, comments=None, skiprows=1, ndmin=1, encoding="utf-8")
            flat = np.ravel_multi_index((entries["row"], entries["col"]), (m, n))
        if entries.size == nnz and (np.all(np.diff(flat) > 0) or np.diff(np.sort(flat)).all()):
            A = np.zeros(m * n)
            A[flat] = entries["value"]
            return A.reshape(m, n)
    except Exception:
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
    A, seen = np.zeros((m, n)), {}
    for lineno, line, fields in entries:
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'row col value'")
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed entry {line!r}") from None
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"{path}:{lineno}: index ({i}, {j}) outside {m}x{n}")
        if (i, j) in seen:
            raise ValueError(f"{path}:{lineno}: entry ({i}, {j}) repeats line {seen[i, j]}")
        A[i, j], seen[i, j] = v, lineno
    return A


def strict_json(obj) -> str:
    """``obj`` as indented JSON with sorted keys, numpy values as lists and each NaN and +-Infinity as null."""
    text = json.dumps(obj, default=lambda v: v.tolist())  # numpy values; read back with NaN and +-Infinity as null
    return json.dumps(json.loads(text, parse_constant=lambda _: None), indent=2, sort_keys=True, allow_nan=False)
