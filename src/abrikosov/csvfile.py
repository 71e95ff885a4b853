"""Streaming CSV writer shared by every CSV side file the package writes."""
from __future__ import annotations

import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK_ROWS = 1 << 14    # rows formatted and written at a time
_CONVERSION = r"(%%|%[^%a-zA-Z]*[a-zA-Z])"   # compiled on first use, not at import


def _split_format(row_format: str):
    """(literals, specs): the % conversions of ``row_format`` and the text
    around them, with ``len(literals) == len(specs) + 1``."""
    pieces = re.split(_CONVERSION, row_format)
    literals, specs = [pieces[0]], []
    for match, text in zip(pieces[1::2], pieces[2::2]):
        if match == "%%":
            literals[-1] += "%" + text
        else:
            specs.append(match)
            literals.append(text)
    return literals, specs


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

    ``blocks`` yields tuples of equal-length columns, the rows of one block
    after those of the one before, so a caller holding whole columns passes
    ``[columns]``.  The file is byte for byte ``header`` and
    ``row_format % row`` for each row, with the columns read as float64: an
    integer column printed with ``%d`` must be exact in it.  Rows go out at
    most BLOCK_ROWS at a time.  In each such run every distinct value of a
    column is formatted once, and the lines are assembled as bytes in numpy
    (dropping the NUL padding, so ``row_format`` must hold no NUL), so the
    text of the whole file never sits in memory.
    """
    literals, specs = _split_format(row_format + "\n")
    literals = [np.frombuffer(t.encode(), dtype=np.uint8) for t in literals]
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
                parts = [np.broadcast_to(literals[0], (rows, literals[0].size))]
                for spec, col, lit in zip(specs, cols, literals[1:]):
                    table, where = _field_table(spec, col[block])
                    parts += [table[where], np.broadcast_to(lit, (rows, lit.size))]
                lines = np.concatenate(parts, axis=1)
                fh.write(lines.tobytes().replace(b"\0", b""))
