"""Deterministic JSON and CSV emission for reports, states and tables.

The JSON emitter is hand-rolled so that float formatting is pinned:
numbers are written with 17 significant digits (enough to round-trip a
double exactly), keys are sorted, and the byte stream depends only on
the values.  An ndarray is written as nested lists, and a complex entry
as its [re, im] pair.  CSV values use 9 significant digits, '.' decimal
points, and LF line endings; a missing value (None) is an empty cell.

`format_floats` is the one float-to-text rule, a column at a time: a
report's single float is its one-value case.  `Table` writes long tables
(the CLI sweep) in blocks of rows: each distinct cell is formatted once
into a pool of words, and a block's text is gathered from the pool by
index and joined once.
"""

from __future__ import annotations

import json

import numpy as np

JSON_DIGITS = 17
CSV_DIGITS = 9


def format_floats(values, digits: int) -> list:
    """The text of every float in `values`, flattened, at `digits` significant digits.

    NaN never belongs in a report, so a column holding one is refused
    whole; zero of either sign prints as "0", so identical values emit
    identical bytes.
    """
    column = np.asarray(values, dtype=float)
    if np.isnan(column).any():
        raise ValueError("refusing to serialize NaN")
    spec = f".{digits}g"
    return [format(v, spec) if v else "0" for v in column.ravel().tolist()]


def _emit(value, digits: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_floats(value, digits)[0]
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = (
            f"{json.dumps(str(k))}: {_emit(v, digits)}"
            for k, v in sorted(value.items())
        )
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v, digits) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist(), digits)
    if isinstance(value, (complex, np.complexfloating)):
        return _emit([value.real, value.imag], digits)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def dump_json(value, digits: int = JSON_DIGITS) -> str:
    """One-line-per-call JSON string with pinned float formatting, LF-terminated."""
    return _emit(value, digits) + "\n"


def csv_cell(value) -> str:
    """Single CSV cell: floats at 9 significant digits, ints and flags as-is, None empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_floats(value, CSV_DIGITS)[0]
    return str(value)


def csv_lines(header, rows):
    """Yield CSV lines (no trailing newline per line) for a header and row iterable."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(csv_cell(v) for v in row)


class Table:
    """A table's text in one format, written a block of rows at a time.

    CSV is the header line, then one line per row with flags as 0/1.
    JSON is `dump_json({**head, "header": header, "rows": rows})`, with
    flags as false/true.  A block is (pool, index): `pool` an object
    array of words, `index` the integer positions of the words that, in
    order, spell the block's rows, so its text is one gather and one
    join.  A word is cell text with the separator that follows it:
    `cells` ends each float cell with the cell separator, and
    `row_frame` gives the words that open a row and that end one.
    """

    def __init__(self, fmt: str, header, head: dict):
        if fmt == "csv":
            self._digits, self._flag_words = CSV_DIGITS, ("0", "1")
            self._start, self._end = ",".join(header) + "\n", ""
            self._cell, self._open, self._close, self._between = ",", "", "\n", ""
        else:
            head = {**head, "header": list(header)}
            assert all(k < "rows" for k in head), "rows must close the object"
            self._digits, self._flag_words = JSON_DIGITS, ("false", "true")
            self._start, self._end = _emit(head, JSON_DIGITS)[:-1] + ', "rows": [', "]}\n"
            self._cell, self._open, self._close, self._between = ", ", "[", "]", ", "

    def floats(self, values) -> list:
        """Cell text of every float in `values`, flattened."""
        return format_floats(values, self._digits)

    def cells(self, values) -> list:
        """`floats`, each followed by the cell separator."""
        return [c + self._cell for c in self.floats(values)]

    def row_frame(self, lead: str, tail: str):
        """Words for rows that open on the cell `lead` and end on a flag
        cell and `tail`: the opening word, and `ends[close][flag]`, which
        ends a row and then opens the next one on `lead` (close 0) or
        closes the block (close 1)."""
        first = lead + self._cell
        ends = [f + self._cell + tail for f in self._flag_words]
        row_break = self._close + self._between + self._open + first
        return first, [[e + row_break for e in ends], [e + self._close for e in ends]]

    def chunks(self, blocks):
        """The table's text: the start, one chunk per (pool, index) block, the end."""
        yield self._start
        between = ""
        for pool, index in blocks:
            yield between + self._open + "".join(pool[index].tolist())
            between = self._between
        yield self._end
