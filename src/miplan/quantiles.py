"""Normal and Student-t quantiles from scipy.special's exact routines.

scipy.special, most of a short command's start-up, is imported at the first
quantile, so a command that computes none (README) never loads it.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise ValueError(f"invalid quantile request: p must be in (0, 1), got {p!r}")


def _check_df(df: float) -> None:
    if not df > 0:
        raise ValueError(f"invalid quantile request: df must be > 0, got {df!r}")


def t_quantile(p: float, df: float) -> float:
    """Quantile of the t distribution with ``df`` degrees of freedom.

    Returns x with P(T <= x) = p for T ~ t(df); df need not be an integer.
    Raises ValueError for p outside (0, 1) or df not > 0 (NaN included).
    """
    _check_p(p)
    _check_df(df)
    from scipy.special import stdtrit
    return float(stdtrit(df, p))


# Cached: pooling loops request the same handful of levels millions of times.
@lru_cache(maxsize=256)
def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    _check_p(p)
    from scipy.special import ndtri
    return float(ndtri(p))
