"""Streaming CSV writer shared by every CSV side file the package writes."""
from __future__ import annotations

import numpy as np

BLOCK_ROWS = 1 << 14    # rows formatted and written at a time


def write_csv(path, header: str, row_format: str, columns) -> None:
    """Write ``header`` and one ``row_format`` line per row of ``columns``.

    Each block of rows is formatted with a single ``%`` on the row format
    repeated once per row, and written as soon as it is made, so the text
    of the whole file never sits in memory.  The columns are stacked as
    float64: an integer column printed with ``%d`` must be exact in it.
    """
    cols = [np.asarray(c) for c in columns]
    line = row_format + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(cols[0]), BLOCK_ROWS):
            block = np.column_stack([c[start:start + BLOCK_ROWS] for c in cols])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
