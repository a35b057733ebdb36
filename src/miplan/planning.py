"""Turn a replicability goal into a required number of imputations.

The one rule: to hold the coefficient of variation of the pooled SE
(across re-imputations of the same data) at ``cv``, you need about
m = 1 + (gamma / cv)^2 / 2 imputations, where gamma is the fraction of
missing information.  A goal stated another way (the SD of the SE, the
CV of the pooled variance, or the degrees of freedom of the variance
estimate) is first expressed as a CV of the SE by
``ReplicabilityTarget.cv_of_se``.

Because gamma is unknown before imputing, ``recommend`` drives the rule
from a small pilot analysis, conservatively plugging in the upper bound
of the pilot's gamma confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fmi import gamma_upper_bounds
from .pooling import PooledAnalysis, PooledReplicates

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
            raise ValueError(f"invalid target: value must be positive and finite, got {self.value!r}")
        if self.kind in ("cv_of_se", "cv_of_variance") and not self.value < 1.0:
            raise ValueError(f"invalid target: cv targets must be in (0, 1), got {self.value!r}")
        if self.kind == "df" and self.value < 1.0:
            raise ValueError(f"invalid target: df target must be >= 1, got {self.value!r}")

    def cv_of_se(self, se: float) -> float:
        """The goal as a CV of the pooled SE; se, the pilot's pooled SE, is
        read only by an sd_of_se goal."""
        if self.kind == "sd_of_se":
            if not (math.isfinite(se) and se > 0.0):
                raise ValueError(f"invalid target: pilot se must be positive and finite, got {se!r}")
            return self.value / se
        if self.kind == "cv_of_se":
            return self.value
        if self.kind == "cv_of_variance":
            # The variance CV is about twice the SE CV (delta method).
            return 0.5 * self.value
        # df = 1 / (2 cv^2), inverted; 0.5 / df, unlike 1 / (2 df), cannot overflow.
        return math.sqrt(0.5 / self.value)


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

    uncapped is an exact int up to 2**53 and the float it already is above
    that, so it prints as a number that a 64-bit JSON reader accepts.  The
    package's only cap on an imputation count; it never warns."""
    _check_m_max(m_max)
    if math.isinf(raw):
        return m_max, math.inf
    m = math.ceil(raw - _CEIL_SLACK * max(1.0, abs(raw)))
    return (m_max if m > m_max else max(m, 2)), (float(m) if m > 2**53 else max(m, 2))


def _check_m_max(m_max: int) -> None:
    if m_max < 2:
        raise ValueError(f"domain error: m_max must be >= 2, got {m_max!r}")


def _check_unit_interval(name: str, value: float) -> None:
    if not (0.0 < value < 1.0) or not math.isfinite(value):
        raise ValueError(f"domain error: {name} must be in (0, 1), got {value!r}")


def _se_cv_rule(gamma: float, cv: float) -> float:
    _check_unit_interval("gamma", gamma)
    _check_unit_interval("cv", cv)
    ratio = gamma / cv
    return 1.0 + 0.5 * ratio * ratio


def m_for_se_cv(gamma: float, cv: float, m_max: int = DEFAULT_M_MAX) -> int:
    """Imputations needed so the pooled SE has CV cv, capped at m_max without a warning.

    The rule is first order: it inverts cv = gamma / sqrt(2 (m - 1)).  To
    second order the achieved CV is nearer gamma_m / sqrt(2 (m - 1)), where
    gamma_m = gamma * (1 + 1/m) / (1 + gamma/m); the factor exceeds 1, so
    at small m the achieved CV runs above cv.  In simulation at n = 2000
    the second-order form comes within about 5% of the achieved CV at
    m >= 5 and overshoots it at m = 3.
    """
    return _capped_count(_se_cv_rule(gamma, cv), m_max)[0]


def df_for_cv(cv: float) -> float:
    """Degrees of freedom 1 / (2 cv^2) of the pooled variance when its SE has
    CV cv; math.inf when 2 cv^2 underflows (cv below about 1e-162)."""
    two_cv_sq = 2.0 * cv * cv
    return 1.0 / two_cv_sq if two_cv_sq > 0.0 else math.inf


def df_cv_curve(cvs: Sequence[float]) -> list[tuple[float, float]]:
    """(cv, df) pairs tracing df = 1 / (2 cv^2), the SE-stability tradeoff:
    ``df_for_cv`` over a grid, the table that ``miplan df-curve`` prints."""
    if len(cvs) == 0:
        raise ValueError("domain error: df curve needs at least one cv")
    for cv in cvs:
        _check_unit_interval("cv", cv)
    return [(float(cv), df_for_cv(cv)) for cv in cvs]


@dataclass(frozen=True)
class CurveRow:
    gamma: float
    m_quadratic: int
    m_linear: int
    capped: bool = False  # m_quadratic or m_linear was cut to m_max


def curve_data(
    gammas: Sequence[float],
    cv_target: float = 0.05,
    m_max: int = DEFAULT_M_MAX,
) -> list[CurveRow]:
    """The table of ``miplan curve``: quadratic rule vs the linear rule
    m = 100 * gamma; montecarlo.simulated_required_m gives the m that checks
    which rule tracks reality.  Both rule columns are capped at m_max without
    a warning; a row's capped field says whether either was cut."""
    if len(gammas) == 0:
        raise ValueError("domain error: curve needs at least one gamma")
    rows = []
    for gamma in gammas:
        m_quadratic, quadratic_uncapped = _capped_count(_se_cv_rule(gamma, cv_target), m_max)
        m_linear, linear_uncapped = _capped_count(100.0 * gamma, m_max)
        rows.append(
            CurveRow(
                gamma=float(gamma),
                m_quadratic=m_quadratic,
                m_linear=m_linear,
                capped=(m_quadratic, m_linear) != (quadratic_uncapped, linear_uncapped),
            )
        )
    return rows


def recommend(
    pilot: PooledAnalysis,
    target: ReplicabilityTarget,
    m_max: int = DEFAULT_M_MAX,
) -> Recommendation:
    """Recommend the number of imputations from a pilot analysis.

    Uses the upper bound of the pilot's gamma confidence interval, at the
    level the pilot was pooled at, as a conservative plug-in.  Nominally
    the true gamma exceeds it with probability (1 - level) / 2, 2.5% at
    the default level, but at pilot sizes the bound is too low more often
    (see fmi.gamma_ci): in simulation it fell below the truth 14.0-15.2%
    of the time at m = 3, 8.3-9.3% at m = 5, 4.4-6.6% at m = 10 and
    3.3-5.2% at m = 20.  Use a pilot of m >= 20 when the bound matters.
    The caller decides whether to stop (pilot_sufficient) or run a final
    analysis with m_required fresh imputations.

    A rule count above m_max is cut to m_max without a warning; the
    result reports it through capped and m_uncapped.  pilot_sufficient
    compares the pilot's m with the capped m_required.  m_max must be at
    least 2.
    """
    gamma_used, se, pilot_m = pilot.gamma_interval.upper, pilot.se, pilot.m
    cv_target = target.cv_of_se(se)
    m_required, m_uncapped = _required(gamma_used, cv_target, m_max)
    return Recommendation(
        m_required=m_required,
        gamma_used=gamma_used,
        cv_target=cv_target,
        # A df goal is echoed as given, not as the df of its CV.
        df_implied=target.value if target.kind == "df" else df_for_cv(cv_target),
        pilot_sufficient=pilot_m >= m_required,
        pilot_m=pilot_m,
        m_uncapped=m_uncapped,
        capped=m_required != m_uncapped,
    )


def _required(gamma_used: float, cv_target: float, m_max: int) -> tuple[int, float]:
    """``_capped_count`` of the rule's count for a pilot's gamma bound and cv target."""
    # A cv target of 1 or more is looser than any useful goal; the floor of 2
    # applies.  One that underflowed to 0 is stricter than any m can meet.
    raw = (2.0 if cv_target >= 1.0 else math.inf if cv_target == 0.0
           else _se_cv_rule(gamma_used, cv_target))
    return _capped_count(raw, m_max)


@dataclass(frozen=True, eq=False)
class RecommendationColumns:
    """Recommendations for many pilots of one m, by column: entry r of
    each is pilot r's field of ``Recommendation``.  df_implied, pilot_m and
    m_uncapped, which no reader of the columns uses, are left out."""

    gamma_used: np.ndarray
    cv_target: np.ndarray
    m_required: np.ndarray
    pilot_sufficient: np.ndarray
    capped: np.ndarray


def recommend_replicates(
    pilots: PooledReplicates,
    target: ReplicabilityTarget,
    level: float = 0.95,
    m_max: int = DEFAULT_M_MAX,
) -> RecommendationColumns:
    """``recommend`` of every pilot in pilots, pooled at level, by column.

    Entry r holds, bit for bit, the fields of ``recommend`` of
    ``pool_arrays`` of pilot r's imputations at level: the upper bounds
    come from ``fmi.gamma_upper_bounds``, and each count from
    ``recommend``'s own rule and cap.  A count past int64 leaves
    m_required an array of Python ints.
    """
    gamma_used = gamma_upper_bounds(pilots.gamma_hat.tolist(), pilots.m, level)
    cv_target = [target.cv_of_se(se) for se in pilots.se.tolist()]
    counts = [_required(g, cv, m_max) for g, cv in zip(gamma_used, cv_target)]
    m_required = np.array([m for m, _ in counts])
    return RecommendationColumns(
        gamma_used=np.array(gamma_used),
        cv_target=np.array(cv_target),
        m_required=m_required,
        pilot_sufficient=np.asarray(m_required <= pilots.m, dtype=bool),
        capped=np.array([m != uncapped for m, uncapped in counts]),
    )
