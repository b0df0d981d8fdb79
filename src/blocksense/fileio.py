"""Plain-text matrix I/O: full-precision CSV and a JSON wrapper that carries
block sizes alongside the matrix."""

from __future__ import annotations

import json
import numbers

import numpy as np


def save_matrix_csv(path, matrix) -> None:
    """Write a matrix as CSV, one row per line, %.17g precision. A 1-D input
    is one signal and is written as a column."""
    arr = np.asarray(matrix, dtype=float)
    arr = arr.reshape(-1, 1) if arr.ndim == 1 else np.atleast_2d(arr)
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _fmt(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else "%.17g" % value


def save_table_csv(path, header, rows) -> None:
    """Write a header line, then one line per row: numbers at %.17g, strings
    as given, None as an empty field."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(value) for value in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _number(key: str, value, kind: type):
    """``value`` as ``kind`` (int or float). Anything else, including bools,
    strings and non-integral numbers where an int is wanted, raises a
    ValueError naming the JSON key."""
    wanted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ValueError(f"{key} must hold {kind.__name__} values, got {value!r}")
    return kind(value)


def _numbers(key: str, value, kind: type) -> list:
    """A JSON list of ``kind`` values, checked as :func:`_number` does."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return [_number(key, v, kind) for v in value]


def save_block_matrix_json(path, matrix, block_sizes) -> None:
    """Write a matrix plus its block sizes as
    {"rows": .., "cols": .., "block_sizes": [..], "data": [row-major floats]}."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    payload = {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "block_sizes": [int(s) for s in block_sizes],
        "data": [float(v) for v in arr.ravel(order="C")],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_block_matrix_json(path) -> tuple[np.ndarray, tuple[int, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    for key in ("rows", "cols", "block_sizes", "data"):
        if key not in payload:
            raise ValueError(f"block matrix JSON is missing the key {key!r}")
    rows, cols = (_number(key, payload[key], int) for key in ("rows", "cols"))
    for key, value in (("rows", rows), ("cols", cols)):
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
    sizes = tuple(_numbers("block_sizes", payload["block_sizes"], int))
    data = np.asarray(_numbers("data", payload["data"], float))
    if data.size != rows * cols:
        raise ValueError(
            f"data length {data.size} does not match rows*cols = {rows * cols}"
        )
    if sum(sizes) != cols:
        raise ValueError(f"block sizes sum to {sum(sizes)}, expected {cols}")
    return data.reshape(rows, cols), sizes
