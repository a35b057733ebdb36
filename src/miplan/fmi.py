"""Point and interval inference for the fraction of missing information.

The fraction of missing information gamma is the share of information
about a parameter that is lost to missingness.  Its point estimate from
a pooled analysis gets a large-sample confidence interval on the logit
scale, with standard error sqrt(2/m) in logit units, mapped back through
the inverse logit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .quantiles import normal_quantile

# Estimates of exactly 0 or 1 are clamped this far inside (0, 1) so the
# logit transform stays defined; zero between-imputation variance happens
# in practice.
GAMMA_EPS = 1e-6

TABLE1_GAMMAS = (0.1, 0.3, 0.5, 0.7, 0.9)
TABLE1_MS = (5, 10, 15, 20)


def logit(p: float) -> float:
    """Log-odds ln(p / (1 - p)) for p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"domain error: logit needs p in (0, 1), got {p!r}")
    return math.log(p / (1.0 - p))


def inv_logit(x: float) -> float:
    """Inverse of logit; numerically stable for large |x|."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def clamp_gamma(gamma: float) -> float:
    """Pull a fraction-of-missing-information estimate into [eps, 1-eps]."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"domain error: gamma must be in [0, 1], got {gamma!r}")
    return min(max(gamma, GAMMA_EPS), 1.0 - GAMMA_EPS)


def check_level(level: float) -> None:
    if not (0.0 < level < 1.0):
        raise ValueError(f"domain error: level must be in (0, 1), got {level!r}")


@dataclass(frozen=True)
class GammaInterval:
    """Confidence interval for the fraction of missing information."""

    point: float
    lower: float
    upper: float
    level: float
    m: int


def gamma_ci(gamma_hat: float, m: int, level: float = 0.95) -> GammaInterval:
    """Logit-scale confidence interval for the fraction of missing information.

    Endpoints are inv_logit(logit(gamma_hat) -/+ z * sqrt(2/m)) where z is
    the standard normal quantile at (1 + level) / 2.  ``m`` is the number
    of imputations behind the point estimate.
    """
    if m < 2:
        raise ValueError(f"insufficient imputations: need m >= 2, got {m}")
    check_level(level)
    point = clamp_gamma(gamma_hat)
    z = normal_quantile(0.5 * (1.0 + level))
    half = z * math.sqrt(2.0 / m)
    center = logit(point)
    return GammaInterval(
        point=point,
        lower=inv_logit(center - half),
        upper=inv_logit(center + half),
        level=level,
        m=int(m),
    )


def table1(
    gammas: Sequence[float] = TABLE1_GAMMAS,
    ms: Sequence[int] = TABLE1_MS,
    level: float = 0.95,
) -> list[GammaInterval]:
    """Grid of gamma confidence intervals, one per (gamma, m), row-major.

    Every gamma must lie in (0, 1); unlike a pooled estimate, it is not clamped."""
    for g in gammas:
        if not 0.0 < g < 1.0:
            raise ValueError(f"domain error: table1 gammas must be in (0, 1), got {g!r}")
    return [gamma_ci(g, m, level) for g in gammas for m in ms]


def round_half_away(x: float, ndigits: int = 2) -> float:
    """Round half away from zero, the convention used for display tables."""
    scale = 10.0 ** ndigits
    return math.copysign(math.floor(abs(x) * scale + 0.5), x) / scale
