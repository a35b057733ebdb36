"""Independent reference answers for the benchmark's correctness checks.

Everything here is computed from the inputs with numpy and scipy.stats
alone; nothing imports miplan.  The formulas are the documented ones:
Rubin's rules, the logit-scale interval for the fraction of missing
information gamma, the t interval for the pooled estimate, and the
quadratic rule m = max(2, ceil(1 + (gamma_upper / cv)^2 / 2)).

Each ``check_*`` function returns a list of mismatch messages; an empty
list means the program's output agrees with the oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# Documented clamp of a gamma estimate of exactly 0 or 1.
GAMMA_EPS = 1e-6

# Relative tolerances.  Pooled moments differ from the oracle only by the
# order of floating-point summation; the interval endpoints also carry the
# error of the program's own quantile solver, documented as below 1e-8.
REL_MOMENTS = 1e-9
REL_INTERVAL = 1e-8

POOLED_FIELDS = (
    "m", "theta", "w_bar", "b", "v_total", "se", "gamma_hat", "gamma_raw", "df_hat",
    "gamma_lower", "gamma_upper", "theta_lower", "theta_upper",
)


def gamma_interval(gamma_hat: float, m: int, level: float = 0.95) -> tuple[float, float]:
    """Logit-scale interval: expit(logit(g) -/+ z * sqrt(2/m)), z from norm.ppf."""
    g = min(max(gamma_hat, GAMMA_EPS), 1.0 - GAMMA_EPS)
    half = stats.norm.ppf(0.5 * (1.0 + level)) * math.sqrt(2.0 / m)
    centre = math.log(g / (1.0 - g))
    return 1.0 / (1.0 + math.exp(half - centre)), 1.0 / (1.0 + math.exp(-centre - half))


def pooled(estimates, variances, level: float = 0.95) -> dict:
    """Rubin's rules for one set of per-imputation (estimate, variance) pairs."""
    q = np.asarray(estimates, dtype=np.float64)
    u = np.asarray(variances, dtype=np.float64)
    m = int(q.size)
    inflate = 1.0 + 1.0 / m
    theta = float(q.mean())
    b = float(q.var(ddof=1))
    w_bar = float(u.mean())
    v_total = w_bar + inflate * b
    gamma_raw = inflate * b / v_total
    gamma_hat = min(max(gamma_raw, GAMMA_EPS), 1.0 - GAMMA_EPS)
    df_hat = (m - 1) / gamma_hat**2
    lower, upper = gamma_interval(gamma_hat, m, level)
    half = float(stats.t.ppf(0.5 * (1.0 + level), df_hat)) * math.sqrt(v_total)
    return {
        "m": m, "theta": theta, "w_bar": w_bar, "b": b, "v_total": v_total,
        "se": math.sqrt(v_total), "gamma_hat": gamma_hat, "gamma_raw": gamma_raw,
        "df_hat": df_hat, "gamma_lower": lower, "gamma_upper": upper,
        "theta_lower": theta - half, "theta_upper": theta + half,
    }


def cv_target(kind: str, value: float, se: float) -> float:
    """CV of the pooled SE implied by a target of the given kind."""
    if kind == "sd_of_se":
        return value / se
    if kind == "cv_of_se":
        return value
    if kind == "cv_of_variance":
        return 0.5 * value
    if kind == "df":
        return math.sqrt(1.0 / (2.0 * value))
    raise ValueError(f"unknown target kind {kind!r}")


def m_rule(gamma_upper: float, cv: float) -> float:
    """The quadratic rule before rounding: 1 + (gamma_upper / cv)^2 / 2."""
    return 1.0 + 0.5 * (gamma_upper / cv) ** 2


def allowed_m(gamma_upper: float, cv: float, rel: float = REL_INTERVAL) -> set[int]:
    """Counts the quadratic rule allows: max(2, ceil(rule)).

    When the rule's value lies within ``rel`` (relative) of an integer,
    the quantile error the program is allowed can put it on either side,
    so both neighbouring counts are accepted.
    """
    if cv >= 1.0:
        return {2}
    raw = m_rule(gamma_upper, cv)
    return {max(2, math.ceil(raw * (1.0 - rel))), max(2, math.ceil(raw * (1.0 + rel)))}


def _close(got: float, want: float, rel: float) -> bool:
    return math.isclose(got, want, rel_tol=rel)


def check_pooled(got: dict, want: dict) -> list[str]:
    """Compare a program's pooled fields with the oracle's."""
    bad = []
    if got["m"] != want["m"]:
        bad.append(f"m {got['m']} != {want['m']}")
    for field in POOLED_FIELDS[1:9]:
        if not _close(got[field], want[field], REL_MOMENTS):
            bad.append(f"{field} {got[field]!r} != {want[field]!r}")
    for field in ("gamma_lower", "gamma_upper"):
        if not _close(got[field], want[field], REL_INTERVAL):
            bad.append(f"{field} {got[field]!r} != {want[field]!r}")
    # interval half-widths, so a large theta cannot hide an error in them
    for field in ("theta_lower", "theta_upper"):
        if not _close(got[field] - got["theta"], want[field] - want["theta"], REL_INTERVAL):
            bad.append(f"{field} {got[field]!r} != {want[field]!r}")
    return bad


def check_plan(pooled_fields: dict, kind: str, value: float, m_required: int,
               pilot_sufficient: bool, level: float = 0.95) -> list[str]:
    """Check one recommendation against the oracle, given the pilot's pooled fields."""
    upper = gamma_interval(pooled_fields["gamma_hat"], pooled_fields["m"], level)[1]
    cv = cv_target(kind, value, pooled_fields["se"])
    bad = []
    allowed = allowed_m(upper, cv)
    if m_required not in allowed:
        bad.append(f"m_required {m_required} not in {sorted(allowed)} ({kind}={value!r})")
    if pilot_sufficient != (pooled_fields["m"] >= m_required):
        bad.append(f"pilot_sufficient {pilot_sufficient} with pilot m {pooled_fields['m']}")
    return bad


def field_summary(values) -> dict:
    """mean / sd (n - 1 divisor) / min / max, as the simulate summary reports them."""
    a = np.asarray(values, dtype=np.float64)
    return {"mean": float(a.mean()), "sd": float(a.std(ddof=1)),
            "min": float(a.min()), "max": float(a.max())}


def chi2_cv_of_se(gamma: float, ms) -> float:
    """Predicted CV of the pooled SE across re-imputations at the given m's.

    The pooled variance is about chi-square with df = (m - 1) / gamma^2,
    so the SE has CV gamma / sqrt(2 (m - 1)); reps with different m mix
    their squared CVs.
    """
    ms = np.asarray(ms, dtype=np.float64)
    return float(math.sqrt(np.mean(gamma**2 / (2.0 * (ms - 1.0)))))


def cv_relative_se(reps: int) -> float:
    """Relative standard error of a sample CV from ``reps`` near-normal draws."""
    return 1.0 / math.sqrt(2.0 * (reps - 1))
