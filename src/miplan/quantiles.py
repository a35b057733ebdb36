"""Normal and Student-t quantiles and CDFs from scipy.special's exact routines."""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.special import ndtr, ndtri, stdtr, stdtrit


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return float(ndtr(x))


def t_cdf(x: float, df: float) -> float:
    """CDF of a Student-t variate with ``df`` degrees of freedom; accepts non-integer df."""
    if df <= 0:
        raise ValueError("invalid quantile request: df must be > 0")
    return float(stdtr(df, x))


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise ValueError(f"invalid quantile request: p must be in (0, 1), got {p!r}")


def t_quantile(p: float, df: float) -> float:
    """Quantile of the t distribution with ``df`` degrees of freedom.

    Returns x with t_cdf(x, df) = p.  Raises ValueError for p outside
    (0, 1) or df <= 0.
    """
    _check_p(p)
    if not df > 0:
        raise ValueError(f"invalid quantile request: df must be > 0, got {df!r}")
    return float(stdtrit(df, p))


# Cached: pooling loops request the same handful of levels millions of times.
@lru_cache(maxsize=256)
def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    _check_p(p)
    return float(ndtri(p))
