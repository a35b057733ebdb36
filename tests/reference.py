"""Reference implementations that the fast paths are checked against.

``read_results_csv`` is the row-at-a-time reader: one ImputationResult per
row, each checked as it is built.  ``miplan.read_results_csv`` parses and
checks the same file by column, and must return the same values or raise
the same message.

``mean_analyses`` is the engine's closed form as one expression per
quantity, a new array per operator.  ``miplan.imputer.mean_analyses``
evaluates the same operations with its temporaries reused in place, and
must return the same bits.

``crossing_m`` is the truth that the search estimates: the m at which a
dataset's CV(SE) curve, pooled at many replications per m, crosses the
goal.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from miplan.imputer import IncompleteBivariate, MeanStats
from miplan.montecarlo import empirical_cv
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


def mean_analyses(s: MeanStats, chi2, u, v, rest):
    """The estimates and within variances of completed data, in closed form."""
    n = s.n
    if s.k == 0:
        shape = np.shape(chi2)
        return np.full(shape, s.y_mean), np.full(shape, s.syy / ((n - 1) * n))
    sigma2 = s.rss / chi2
    sigma = np.sqrt(sigma2)
    g = sigma * u + math.sqrt(s.k) * s.shift * s.slope
    h = sigma * v + math.sqrt(s.sdd) * s.slope
    within = (s.syy + (1.0 - s.k / n) * (g * g) + h * h + sigma2 * rest) / ((n - 1) * n)
    return s.y_mean + g * (math.sqrt(s.k) / n), within


def crossing_m(
    data: IncompleteBivariate, cv_target: float, m_start: int, reps: int = 40_000, seed: int = 0
) -> float:
    """The m at which the dataset's CV of the SE, measured over reps
    replications per m, crosses cv_target.

    Walks m from about where CV(m_start) * sqrt(m_start - 1) held constant
    puts the crossing to the adjacent pair with CV(m) > cv_target >=
    CV(m + 1), then holds CV * sqrt(m - 1) at its mean over that pair and
    solves for m.  At 40,000 replications a CV has relative SE .0035.
    """
    cvs: dict[int, float] = {}

    def cv(m: int) -> float:
        if m not in cvs:
            cvs[m] = empirical_cv(data, m, reps, seed).cv_se
        return cvs[m]

    m = max(2, math.floor(1 + (cv(m_start) / cv_target) ** 2 * (m_start - 1)))
    while cv(m) <= cv_target:
        if m == 2:
            return 2.0
        m -= 1
    while cv(m + 1) > cv_target:
        m += 1
    c = (cv(m) * math.sqrt(m - 1) + cv(m + 1) * math.sqrt(m)) / 2
    return 1 + (c / cv_target) ** 2
