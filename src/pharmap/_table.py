"""Header-checked text tables: the one write path and one read path of the file formats.

A table file is a header line followed by rows of numbers.  Writers give each
column a %-format; ``%.17g`` round-trips every float64 exactly.  A block of
rows is a 2d array, or a ``GridRows`` product grid whose axis values are
formatted once each and only the value column per row.  The writer streams
each block to the file in fixed slices of rows, so no text of the whole
table is held at once; the bytes written do not depend on the slice.  The
reader checks the header against a pattern, skips blank lines, and raises
``UsageError`` naming the file and line of the first malformed row.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

_SLICE_ROWS = 2048  # rows formatted per write of ``write_table``


@dataclass(frozen=True)
class GridRows:
    """The rows (x_i, y_k, values[i, k]) of the product grid x by y, x slowest, every field in ``%.17g``.

    ``values`` has shape (len(x), len(y)).  The file bytes are those of the
    2d-array block of these rows; each x_i and y_k is formatted once.
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray

    def write(self, fh, delimiter: str) -> None:
        """Write the rows to the open file ``fh``, whole x_i at a time, about ``_SLICE_ROWS`` rows per write."""
        def fields(axis):  # formatted once; "%.17g" gives no "%" to escape in the row template
            return ["%.17g" % v for v in np.asarray(axis).tolist()]

        # the rows of x_i are x_i + tail_0 + x_i + tail_1 + ..., which is x_i.join(["", tail_0, tail_1, ...])
        ys = fields(self.y)
        tails = [""] + [delimiter + y + delimiter + "%.17g\n" for y in ys]
        values = np.asarray(self.values)
        xs = fields(self.x)
        step = max(1, _SLICE_ROWS // max(1, len(ys)))
        for start in range(0, len(xs), step):
            template = "".join(x.join(tails) for x in xs[start:start + step])
            fh.write(template % tuple(values[start:start + step].ravel().tolist()))


def write_table(path, header: str, *blocks, delimiter: str = ",") -> None:
    """Write ``header``, then each block: a ``GridRows``, or ``(rows, fmt)`` of a 2d array.

    ``fmt`` is a sequence of one %-format per column, or one format for all.
    Rows are formatted and written ``_SLICE_ROWS`` at a time.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for block in blocks:
            if isinstance(block, GridRows):
                block.write(fh, delimiter)
                continue
            rows, fmt = block
            rows = np.asarray(rows)
            if isinstance(fmt, str):
                fmt = [fmt] * rows.shape[1]
            line = delimiter.join(fmt) + "\n"
            for start in range(0, rows.shape[0], _SLICE_ROWS):
                part = rows[start:start + _SLICE_ROWS]
                fh.write((line * part.shape[0]) % tuple(part.ravel().tolist()))


def read_table(path, what: str, header: str, columns: int | None = None,
               delimiter: str | None = ","):
    """Read a table whose header line matches the regular expression ``header``.

    ``what`` names the format in messages; ``columns`` is the number of
    fields every row must have, by default that of the header; ``delimiter``
    None splits on whitespace.  Returns the header line, the rows as a float
    array of shape (rows, fields), and ``error(row, message)``, which makes
    the ``UsageError`` for the file line of a row (blank lines are not rows).

    The body is parsed by one ``np.loadtxt`` call on the open file.  Only if
    that call fails (on a malformed row, or on a whitespace-only line, which
    ``loadtxt`` takes for a row) are the lines stripped and scanned one by
    one, which skips such lines and finds the first malformed row.
    """
    lines = None  # the stripped lines of the file, read only when needed
    try:
        with open(path, encoding="ascii") as fh:
            head = fh.readline().strip()
            try:
                rows = _parse(fh, delimiter)
            except ValueError:
                rows = None
        if rows is None:
            lines = _stripped_lines(path)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {what} file is not ASCII ({exc})") from None

    def error(row, message):
        body = (lines if lines is not None else _stripped_lines(path))[1:]
        filled = np.flatnonzero([bool(line) for line in body])
        return UsageError(f"{path}, line {filled[row] + 2}: {message}")

    if re.fullmatch(header, head) is None:
        raise UsageError(f"{path}, line 1: bad {what} header {head!r}")
    if rows is None:
        try:
            rows = _parse(lines[1:], delimiter)
        except ValueError as exc:
            raise error(*_first_bad_row(lines[1:], delimiter, str(exc))) from None
    if columns is None:
        columns = len(head.split(delimiter))
    if not rows.size:
        rows = rows.reshape(0, columns)
    if rows.shape[1] != columns:
        raise error(0, f"{what} rows need {columns} fields, found {rows.shape[1]}")
    return head, rows, error


def _parse(source, delimiter):
    """``np.loadtxt`` of an open file or a list of lines, as a 2d array; raises ``ValueError``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty table is the caller's to judge
        return np.loadtxt(source, delimiter=delimiter, ndmin=2, comments=None)


def _stripped_lines(path):
    with open(path, encoding="ascii") as fh:
        return [line.strip() for line in fh]


def _first_bad_row(lines, delimiter, reason):
    """The first row ``loadtxt`` rejects, as (index among non-blank lines, why)."""
    body = [line for line in lines if line]
    width = len(body[0].split(delimiter))
    for row, line in enumerate(body):
        fields = len(line.split(delimiter))
        if fields != width:
            return row, f"{fields} fields where the first row has {width}"
        try:
            np.loadtxt([line], delimiter=delimiter, comments=None)
        except ValueError:
            return row, f"cannot read {line!r} as numbers"
    return 0, reason
