"""Rubin's rules: combine per-imputation analyses into one pooled estimate.

Each completed dataset yields a point estimate and its squared standard
error.  Pooling averages the estimates, splits the variance into within-
and between-imputation parts, and derives the fraction of missing
information and the degrees of freedom of the variance estimate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fmi import GAMMA_EPS, GammaInterval, check_level, gamma_ci
from .quantiles import t_quantile

RESULTS_CSV_HEADER = ("imputation", "estimate", "variance")


@dataclass(frozen=True)
class ImputationResult:
    """One analysis of one completed dataset.

    ``estimate`` is the point estimate; ``within_variance`` is its squared
    standard error, both computed as though the dataset were complete.
    """

    estimate: float
    within_variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.estimate):
            raise ValueError(f"invalid input: estimate must be finite, got {self.estimate!r}")
        if not math.isfinite(self.within_variance) or self.within_variance < 0.0:
            raise ValueError(
                "invalid input: within_variance must be finite and >= 0, "
                f"got {self.within_variance!r}"
            )


@dataclass(frozen=True)
class PooledAnalysis:
    """Pooled output across m imputations.

    v_total = w_bar + (1 + 1/m) * b; se = sqrt(v_total).
    gamma_hat = (1 + 1/m) * b / v_total, clamped into [eps, 1-eps];
    gamma_raw keeps the unclamped value for diagnostics.
    df_hat = (m - 1) / gamma_hat**2 is the large-sample df of v_total.
    """

    m: int
    theta: float
    w_bar: float
    b: float
    v_total: float
    se: float
    gamma_hat: float
    gamma_raw: float
    df_hat: float
    gamma_interval: GammaInterval
    theta_interval: tuple[float, float]
    level: float


def pool(
    results: Iterable[ImputationResult | Sequence[float]],
    level: float = 0.95,
) -> PooledAnalysis:
    """Pool per-imputation results with Rubin's rules.

    Parameters
    ----------
    results : iterable of ImputationResult (or (estimate, variance) pairs)
        One entry per imputation; at least two are required.  Each is
        checked as an ImputationResult, then the arrays go to pool_arrays.
    level : float
        Confidence level for both the gamma interval and the interval
        for the pooled estimate.

    Returns
    -------
    PooledAnalysis
    """
    items = [r if isinstance(r, ImputationResult) else ImputationResult(*r) for r in results]
    return pool_arrays(
        np.array([r.estimate for r in items], dtype=np.float64),
        np.array([r.within_variance for r in items], dtype=np.float64),
        level,
    )


@dataclass(frozen=True, eq=False)
class PooledReplicates:
    """Rubin's rules over many poolings of m imputations each, by column.

    Entry i of every array is pooling i's field of PooledAnalysis; the
    intervals, which no measurement uses, are left out.  ``pool_rows`` of
    one 1-d pooling gives numpy scalars instead of arrays.
    """

    m: int
    theta: np.ndarray
    w_bar: np.ndarray
    b: np.ndarray
    v_total: np.ndarray
    se: np.ndarray
    gamma_hat: np.ndarray
    gamma_raw: np.ndarray
    df_hat: np.ndarray


def pool_rows(estimates: np.ndarray, withins: np.ndarray) -> PooledReplicates:
    """Rubin's rules along the last axis: one pooling per row of m imputations.

    The callers vouch for the entries (finite estimates, finite variances
    >= 0): ``pool`` checks them, and the Monte Carlo engine draws them.
    An overflowing or non-positive pooled variance is still rejected; among
    many rows, the first bad row raises what pooling it alone would.
    """
    m = estimates.shape[-1]
    if m < 2:
        raise ValueError(f"insufficient imputations: need at least 2, got {m}")

    # Canonical ordering makes the result bit-identical under permutation
    # of the inputs.  (Plain indexing is the same for one row, and cheaper.)
    order = np.lexsort((withins, estimates), axis=-1)
    if order.ndim == 1:
        estimates, withins = estimates[order], withins[order]
    else:
        estimates = np.take_along_axis(estimates, order, axis=-1)
        withins = np.take_along_axis(withins, order, axis=-1)

    # np.mean and np.var(ddof=1) as numpy computes them, sharing one sum.
    # Finite inputs near the float64 limit can overflow; that is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.add.reduce(estimates, axis=-1) / m
        dev = estimates - theta[..., None]
        b = np.add.reduce(dev * dev, axis=-1) / (m - 1)
        w_bar = np.add.reduce(withins, axis=-1) / m
        v_total = w_bar + (1.0 + 1.0 / m) * b
    usable = np.isfinite(theta) & np.isfinite(v_total) & (v_total > 0.0)
    if not usable.all():
        i = np.argmin(usable, axis=None)
        if not (math.isfinite(np.ravel(theta)[i]) and math.isfinite(np.ravel(v_total)[i])):
            raise ValueError("invalid input: pooled estimate or variance overflows float64")
        raise ValueError("invalid input: pooled variance must be positive")

    gamma_raw = (1.0 + 1.0 / m) * b / v_total
    # clamp_gamma's clamp; with withins >= 0, gamma_raw is already in [0, 1]
    gamma_hat = np.minimum(np.maximum(gamma_raw, GAMMA_EPS), 1.0 - GAMMA_EPS)
    return PooledReplicates(
        m=m,
        theta=theta,
        w_bar=w_bar,
        b=b,
        v_total=v_total,
        se=np.sqrt(v_total),
        gamma_hat=gamma_hat,
        gamma_raw=gamma_raw,
        df_hat=(m - 1) / (gamma_hat * gamma_hat),
    )


def pool_arrays(estimates: np.ndarray, withins: np.ndarray, level: float = 0.95) -> PooledAnalysis:
    """Rubin's rules over the m estimates and within variances of one
    pooling, with its gamma and theta intervals (``pool_rows`` for one row)."""
    check_level(level)
    r = pool_rows(estimates, withins)
    theta, se, gamma_hat, df_hat = float(r.theta), float(r.se), float(r.gamma_hat), float(r.df_hat)
    interval = gamma_ci(gamma_hat, r.m, level)
    half = t_quantile(0.5 * (1.0 + level), df_hat) * se
    return PooledAnalysis(
        m=r.m,
        theta=theta,
        w_bar=float(r.w_bar),
        b=float(r.b),
        v_total=float(r.v_total),
        se=se,
        gamma_hat=gamma_hat,
        gamma_raw=float(r.gamma_raw),
        df_hat=df_hat,
        gamma_interval=interval,
        theta_interval=(theta - half, theta + half),
        level=level,
    )


def read_results_csv(path: str) -> list[ImputationResult]:
    """Read per-imputation results from CSV.

    The header must be exactly ``imputation,estimate,variance``, after an optional
    UTF-8 byte-order mark; extra columns are rejected.  Rows may appear in any order;
    the indices must be 1..m, each once: a duplicate or a gap is an error.
    Returns results ordered by index.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = list(csv.reader(fh))
        except csv.Error as exc:
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
            raise ValueError(f"invalid input: {path}:{lineno}: {exc}") from None
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
