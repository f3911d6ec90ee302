"""The one CSV writer behind every data file.

write_columns formats a block of rows at a time in C (format_rows in
_kernel.c) when the compiled library loads and every field is one it knows:
``{}`` of an integer or bytes column, ``{:.10g}`` or ``{:.12g}`` of a
float64 column.  Otherwise it runs the row loop, which gives the same bytes
and is the reference the compiled formatter is tested against.
"""
from __future__ import annotations

from itertools import starmap

import numpy as np

from . import _native

# rows formatted per block, so few Python floats are alive at once in the
# row loop and the compiled formatter's buffer stays small
_CSV_ROWS = 2048
# format_rows' column kinds, and FIELD_MAX of _kernel.c, the bytes a number
# field can take at most; format_rows refuses a row that might not fit
_COL_INT, _COL_BYTES = 0, 1
_COL_G = {"{:.10g}": 10, "{:.12g}": 12}
_FIELD_MAX = 24


def write_columns(path, header: str, row: str, cols) -> None:
    """Write header, then row.format over the equal-length columns.

    header and row carry no newline.  Each column is an array or a list; a
    bytes array is written as its ASCII text.
    """
    table = _column_table(row, cols)
    lib = None if table is None else _native.library()
    if lib is not None:
        _write_compiled(lib, path, header, *table)
        return
    fmt = (row + "\n").format
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for a in range(0, len(cols[0]), _CSV_ROWS):
            block = [c[a:a + _CSV_ROWS] for c in cols]
            block = [(b.astype(str) if b.dtype.kind == "S" else b).tolist()
                     if isinstance(b, np.ndarray) else b for b in block]
            fh.writelines(starmap(fmt, zip(*block)))


def _column_table(row: str, cols):
    """format_rows' (kind, width, address, stride) rows for cols and the
    arrays they point into, or None when the row loop must write them."""
    fields = row.split(",")
    if (len(fields) != len(cols)
            or not all(isinstance(c, np.ndarray) and c.ndim == 1 for c in cols)
            or len({len(c) for c in cols}) != 1):
        return None
    rows, arrays = [], []
    for field, c in zip(fields, cols):
        if field == "{}" and c.dtype.kind in "iu" and np.can_cast(c.dtype, np.int64):
            kind, c = _COL_INT, c.astype(np.int64, copy=False)
        elif field == "{}" and c.dtype.kind == "S":
            kind = _COL_BYTES
        elif field in _COL_G and c.dtype == np.float64:
            kind = _COL_G[field]
        else:
            return None
        arrays.append(c)
        rows.append((kind, c.itemsize, c.ctypes.data, c.strides[0]))
    return np.array(rows, dtype=np.int64), arrays


def _write_compiled(lib, path, header: str, table: np.ndarray, arrays) -> None:
    # the arrays stay referenced here while C reads them
    n = len(arrays[0])
    row_max = sum(w if k == _COL_BYTES else _FIELD_MAX
                  for k, w in table[:, :2].tolist()) + len(arrays)
    buf = np.empty(min(n, _CSV_ROWS) * row_max, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for a in range(0, n, _CSV_ROWS):
            used = lib.format_rows(buf.ctypes.data, buf.size, len(arrays), table.ctypes.data,
                                   a, min(a + _CSV_ROWS, n))
            if used < 0:
                raise RuntimeError("format_rows: a row does not fit in its buffer")
            fh.write(buf[:used])
