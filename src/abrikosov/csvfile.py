"""Streaming CSV writer shared by every CSV side file the package writes."""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK_ROWS = 1 << 14    # rows formatted and written at a time


def _field_table(spec: str, column: np.ndarray):
    """(table, where): ``spec`` applied to each distinct value of ``column``
    once, as NUL-padded ASCII rows of ``table``, and the row of each value.

    Values are told apart by bit pattern, not by ``==``: -0.0 and 0.0 are
    equal but print as ``-0`` and ``0``.
    """
    bits, where = np.unique(column.view(np.int64), return_inverse=True)
    values = tuple(bits.view(np.float64).tolist())
    text = ((spec + "\0") * len(values) % values).encode()
    ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == 0)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    width = int(lengths.max())
    padded = np.frombuffer(text + bytes(width), dtype=np.uint8)
    table = sliding_window_view(padded, width)[starts]
    table *= np.arange(width) < lengths[:, None]
    return table, where


def write_csv(path, header: str, row_format: str, blocks) -> None:
    """Write ``header`` and one ``row_format`` line per row of ``blocks``.

    ``row_format`` is comma-joined % conversions, one per column, such as
    ``"%.9g,%.9g,%d"``.  ``blocks`` yields tuples of equal-length columns,
    the rows of one block after those of the one before, so a caller
    holding whole columns passes ``[columns]``.  The file is byte for byte
    ``header`` and ``row_format % row`` for each row, with the columns read
    as float64: an integer column printed with ``%d`` must be exact in it.
    Rows go out at most BLOCK_ROWS at a time.  In each such run every
    distinct value of a column is formatted once, and the lines are
    assembled as bytes in numpy (dropping the NUL padding), so the text of
    the whole file never sits in memory.
    """
    specs = row_format.split(",")
    comma, newline = (np.frombuffer(c, dtype=np.uint8) for c in (b",", b"\n"))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for columns in blocks:
            cols = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
            if len(specs) != len(cols):
                raise ValueError(f"{row_format!r} formats {len(specs)} "
                                 f"columns, not {len(cols)}")
            for start in range(0, len(cols[0]), BLOCK_ROWS):
                block = slice(start, start + BLOCK_ROWS)
                rows = len(cols[0][block])
                parts = []
                for spec, col in zip(specs, cols):
                    table, where = _field_table(spec, col[block])
                    parts += [table[where], np.broadcast_to(comma, (rows, 1))]
                parts[-1] = np.broadcast_to(newline, (rows, 1))
                lines = np.concatenate(parts, axis=1)
                fh.write(lines.tobytes().replace(b"\0", b""))
