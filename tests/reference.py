"""Reference implementations that the fast paths are checked against.

``read_results_csv`` is the row-at-a-time reader: one ImputationResult per
row, each checked as it is built.  ``miplan.read_results_csv`` parses and
checks the same file by column, and must return the same values or raise
the same message.
"""

from __future__ import annotations

import csv

from miplan.pooling import RESULTS_CSV_HEADER, ImputationResult


def read_results_csv(path: str) -> list[ImputationResult]:
    """Read per-imputation results from CSV, one row at a time.

    The header must be ``imputation,estimate,variance`` (whitespace around
    each name ignored), after an optional UTF-8 byte-order mark; extra
    columns are rejected.  Rows may appear in any order; the indices must be
    1..m, each once: a duplicate or a gap is an error.  Returns results
    ordered by index.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"invalid input: {path}: {exc}") from None
    if not lines:
        raise ValueError(f"invalid input: {path}: empty file")
    header = lines[0]
    if tuple(h.strip() for h in header) != RESULTS_CSV_HEADER:
        raise ValueError(
            f"invalid input: {path}: header must be "
            f"{','.join(RESULTS_CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    rows: dict[int, ImputationResult] = {}
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"invalid input: {path}:{lineno}: expected 3 columns")
        try:
            index = int(row[0])
            result = ImputationResult(float(row[1]), float(row[2]))
        except ValueError as exc:
            message = str(exc).removeprefix("invalid input: ")
            raise ValueError(f"invalid input: {path}:{lineno}: {message}") from None
        if index < 1:
            raise ValueError(
                f"invalid input: {path}:{lineno}: imputation index must be >= 1"
            )
        if index in rows:
            raise ValueError(
                f"invalid input: {path}:{lineno}: duplicate imputation index {index}"
            )
        rows[index] = result
    # The indices are unique and >= 1, so they are 1..m exactly when the largest is m.
    if rows and max(rows) != len(rows):
        missing = next(i for i in range(1, len(rows) + 1) if i not in rows)
        raise ValueError(f"invalid input: {path}: missing imputation index {missing}")
    return [rows[i] for i in sorted(rows)]
