"""Turn a replicability goal into a required number of imputations.

The core rule: to hold the coefficient of variation of the pooled SE
(across re-imputations of the same data) at ``cv``, you need about
m = 1 + (gamma / cv)^2 / 2 imputations, where gamma is the fraction of
missing information.  Equivalent forms target the CV of the pooled
variance or the degrees of freedom of the variance estimate.

Because gamma is unknown before imputing, ``recommend`` drives the rule
from a small pilot analysis, conservatively plugging in the upper bound
of the pilot's gamma confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pooling import PooledAnalysis

TARGET_KINDS = ("sd_of_se", "cv_of_se", "cv_of_variance", "df")

DEFAULT_M_MAX = 10_000

# Relative slack applied before the ceiling so values that are integers
# up to float rounding (e.g. 100 * 0.1) do not get bumped up a step.
_CEIL_SLACK = 1e-9


@dataclass(frozen=True)
class ReplicabilityTarget:
    """A user goal for how stable the pooled SE should be.

    kind is one of ``sd_of_se`` (SD of the pooled SE across
    re-imputations, in parameter units), ``cv_of_se``, ``cv_of_variance``
    (dimensionless), or ``df`` (degrees of freedom of the pooled
    variance).
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ValueError(
                f"invalid target: kind must be one of {TARGET_KINDS}, got {self.kind!r}"
            )
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(f"invalid target: value must be positive, got {self.value!r}")
        if self.kind in ("cv_of_se", "cv_of_variance") and not self.value < 1.0:
            raise ValueError(f"invalid target: cv targets must be in (0, 1), got {self.value!r}")
        if self.kind == "df" and self.value < 1.0:
            raise ValueError(f"invalid target: df target must be >= 1, got {self.value!r}")


@dataclass(frozen=True)
class Recommendation:
    """Required number of imputations and how it was obtained."""

    m_required: int
    gamma_used: float
    cv_target: float
    df_implied: float
    pilot_sufficient: bool
    pilot_m: int
    m_uncapped: float  # the rule's count before the m_max cap; math.inf on overflow
    capped: bool  # m_required was cut to m_max


def _capped_count(raw: float, m_max: int) -> tuple[int, float]:
    """(count, uncapped): the ceiling of raw floored at 2, with and without the m_max cap.

    The package's only cap on an imputation count; it never warns."""
    if m_max < 2:
        raise ValueError(f"domain error: m_max must be >= 2, got {m_max!r}")
    if math.isinf(raw):
        return m_max, math.inf
    m = math.ceil(raw - _CEIL_SLACK * max(1.0, abs(raw)))
    return (m_max if m > m_max else max(m, 2)), max(m, 2)


def _check_unit_interval(name: str, value: float) -> None:
    if not (0.0 < value < 1.0) or not math.isfinite(value):
        raise ValueError(f"domain error: {name} must be in (0, 1), got {value!r}")


def _se_cv_rule(gamma: float, cv: float) -> float:
    _check_unit_interval("gamma", gamma)
    _check_unit_interval("cv", cv)
    ratio = gamma / cv
    return 1.0 + 0.5 * ratio * ratio


def m_for_se_cv(gamma: float, cv: float, m_max: int = DEFAULT_M_MAX) -> int:
    """Imputations needed so the pooled SE has CV cv, capped at m_max without a warning."""
    return _capped_count(_se_cv_rule(gamma, cv), m_max)[0]


def m_for_var_cv(gamma: float, cv_v: float, m_max: int = DEFAULT_M_MAX) -> int:
    """Imputations needed so the pooled variance has CV cv_v, capped at m_max without a warning."""
    _check_unit_interval("gamma", gamma)
    _check_unit_interval("cv_v", cv_v)
    ratio = gamma / cv_v
    return _capped_count(1.0 + 2.0 * ratio * ratio, m_max)[0]


def m_for_df(gamma: float, df: float, m_max: int = DEFAULT_M_MAX) -> int:
    """Imputations needed so the pooled variance has df degrees of freedom, capped at m_max
    without a warning."""
    _check_unit_interval("gamma", gamma)
    if not (math.isfinite(df) and df >= 1.0):
        raise ValueError(f"domain error: df must be >= 1, got {df!r}")
    return _capped_count(1.0 + df * gamma * gamma, m_max)[0]


def cv_df_convert(x: float, direction: str) -> float:
    """Convert between the CV of the pooled SE and the df of the pooled variance.

    df = 1 / (2 * cv^2) and cv = sqrt(1 / (2 * df)); the two directions
    are mutual inverses.
    """
    if direction == "cv_to_df":
        _check_unit_interval("cv", x)
        return 1.0 / (2.0 * x * x)
    if direction == "df_to_cv":
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"domain error: df must be > 0, got {x!r}")
        return math.sqrt(1.0 / (2.0 * x))
    raise ValueError(f"domain error: direction must be 'cv_to_df' or 'df_to_cv', got {direction!r}")


def variance_inflation(gamma: float, m: int) -> tuple[float, float]:
    """Variance and SE inflation of the pooled point estimate at m imputations.

    Relative to infinitely many imputations the variance is larger by the
    factor 1 + gamma/m; the SE by its square root.
    """
    _check_unit_interval("gamma", gamma)
    if m < 1:
        raise ValueError(f"domain error: m must be >= 1, got {m}")
    factor = 1.0 + gamma / m
    return factor, math.sqrt(factor)


def cv_for_sd_goal(sd_goal: float, se_pilot: float) -> float:
    """CV target implied by an SD-of-SE goal, using the pilot SE as plug-in mean."""
    if not (math.isfinite(sd_goal) and sd_goal > 0.0):
        raise ValueError(f"invalid target: sd goal must be positive, got {sd_goal!r}")
    if not (math.isfinite(se_pilot) and se_pilot > 0.0):
        raise ValueError(f"invalid target: pilot se must be positive, got {se_pilot!r}")
    return sd_goal / se_pilot


def _resolve_cv_target(pilot: PooledAnalysis, target: ReplicabilityTarget) -> float:
    if target.kind == "sd_of_se":
        return cv_for_sd_goal(target.value, pilot.se)
    if target.kind == "cv_of_se":
        return target.value
    if target.kind == "cv_of_variance":
        # The variance CV is about twice the SE CV (delta method).
        return 0.5 * target.value
    return cv_df_convert(target.value, "df_to_cv")


def recommend(
    pilot: PooledAnalysis,
    target: ReplicabilityTarget,
    m_max: int = DEFAULT_M_MAX,
) -> Recommendation:
    """Recommend the number of imputations from a pilot analysis.

    Uses the upper bound of the pilot's gamma confidence interval, at the
    level the pilot was pooled at, as a conservative plug-in: the true
    gamma exceeds it with probability only (1 - level) / 2, so the
    recommended m falls short equally rarely.  The caller decides whether
    to stop (pilot_sufficient) or run a final analysis with m_required
    fresh imputations.

    A rule count above m_max is cut to m_max without a warning; the
    result reports it through capped and m_uncapped.  pilot_sufficient
    compares the pilot's m with the capped m_required.  m_max must be at
    least 2.
    """
    gamma_used = pilot.gamma_interval.upper
    cv_target = _resolve_cv_target(pilot, target)
    # A cv target of 1 or more is looser than any useful goal; the floor of 2 applies.
    raw = 2.0 if cv_target >= 1.0 else _se_cv_rule(gamma_used, cv_target)
    m_required, m_uncapped = _capped_count(raw, m_max)
    # 2 cv^2 underflows to zero for cv below about 1e-162.
    two_cv_sq = 2.0 * cv_target * cv_target
    return Recommendation(
        m_required=m_required,
        gamma_used=gamma_used,
        cv_target=cv_target,
        df_implied=1.0 / two_cv_sq if two_cv_sq > 0.0 else math.inf,
        pilot_sufficient=pilot.m >= m_required,
        pilot_m=pilot.m,
        m_uncapped=m_uncapped,
        capped=m_required != m_uncapped,
    )
