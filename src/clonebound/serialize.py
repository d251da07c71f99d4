"""Deterministic JSON and CSV emission for reports and states.

The JSON emitter is hand-rolled so that float formatting is pinned:
numbers are written with 17 significant digits (enough to round-trip a
double exactly), keys are sorted, and the byte stream depends only on
the values.  CSV values use 9 significant digits, '.' decimal points,
and LF line endings; complex matrices serialize as nested arrays of
[re, im] pairs.
"""

from __future__ import annotations

import json

import numpy as np

JSON_DIGITS = 17
CSV_DIGITS = 9


def _format_float(value: float, digits: int) -> str:
    if value != value:  # NaN never belongs in a report
        raise ValueError("refusing to serialize NaN")
    text = format(float(value), f".{digits}g")
    # normalize negative zero so identical values emit identical bytes
    if text == "-0":
        text = "0"
    return text


def _emit(value, digits: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(value, digits)
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
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def dump_json(value, digits: int = JSON_DIGITS) -> str:
    """One-line-per-call JSON string with pinned float formatting, LF-terminated."""
    return _emit(value, digits) + "\n"


def json_chunks(head: dict, key: str, items):
    """`dump_json({**head, key: list(items)})` in pieces, one per item.

    `key` sorts after every key of `head`, so the list closes the object
    and the items are never all in memory.
    """
    assert all(k < key for k in head), f"{key!r} must sort after the other keys"
    yield _emit(head, JSON_DIGITS)[:-1] + (", " if head else "") + json.dumps(key) + ": ["
    for i, item in enumerate(items):
        yield (", " if i else "") + _emit(item, JSON_DIGITS)
    yield "]}\n"


def complex_matrix_to_json(matrix) -> list:
    """Nested lists of [re, im] pairs for a complex matrix."""
    arr = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def csv_cell(value) -> str:
    """Single CSV cell: floats at 9 significant digits, ints and flags as-is."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(value, CSV_DIGITS)
    return str(value)


def csv_lines(header, rows):
    """Yield CSV lines (no trailing newline per line) for a header and row iterable."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(csv_cell(v) for v in row)
