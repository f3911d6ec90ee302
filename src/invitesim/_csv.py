"""The one CSV writer behind every data file."""
from __future__ import annotations

from itertools import starmap

import numpy as np

# rows formatted per block, so few Python floats are alive at once
_CSV_ROWS = 2048


def write_columns(path, header: str, row: str, cols) -> None:
    """Write header, then row.format over the equal-length columns.

    header and row carry no newline.  Each column is an array or a list; a
    block of array rows goes through tolist(), so format sees Python numbers.
    """
    fmt = (row + "\n").format
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for a in range(0, len(cols[0]), _CSV_ROWS):
            block = [c[a:a + _CSV_ROWS] for c in cols]
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            fh.writelines(starmap(fmt, zip(*block)))
