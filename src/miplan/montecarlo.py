"""Monte Carlo harness: check the planning rules on synthetic data.

Experiments run on bivariate-normal data with MCAR deletion of the
outcome.  Every replication draws its randomness from a stream derived
deterministically from (seed, tag, index) via numpy's SeedSequence spawn
keys, so a replication's result depends only on the seed and its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .imputer import IncompleteBivariate, draw_mean_analyses
from .planning import (
    DEFAULT_M_MAX,
    Recommendation,
    ReplicabilityTarget,
    _capped_count,
    _se_cv_rule,
    m_for_se_cv,
    recommend,
)
from .pooling import PooledAnalysis, pool_arrays

# Spawn-key tags keep the dataset, the replications, the search probes,
# and the calibration sweeps on disjoint streams of one seed.
TAG_DATA = 0
TAG_REP = 1
TAG_PROBE = 2
TAG_CONFIRM = 3
TAG_CALIBRATE = 4

# Every simulated pooling draws its m analyses through this name, once per
# pooling; the benchmark counts imputations by wrapping it.
impute_m = draw_mean_analyses


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for (seed, *key), independent across keys."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit child seed for a nested experiment stage."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Setup for one synthetic experiment.

    Only the expected number of complete cases, n * (1 - missing_fraction),
    is checked against the floor of 4.  The dataset's realized count is
    binomial and can still fall below 4, most often at small n; then the
    run fails with ``insufficient complete cases``.  For example
    ``miplan simulate --experiment two-stage --n 6 --missing 0.3`` exits 1
    with that one-line message on some seeds.
    """

    n: int
    rho: float
    missing_fraction: float
    pilot_m: int
    target: ReplicabilityTarget
    reps: int
    seed: int
    level: float = 0.95
    m_max: int = DEFAULT_M_MAX

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"domain error: n must be >= 1, got {self.n}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"domain error: rho must be in [0, 1), got {self.rho!r}")
        if not (0.0 < self.missing_fraction < 1.0):
            raise ValueError(
                f"domain error: missing_fraction must be in (0, 1), got {self.missing_fraction!r}"
            )
        if self.n * (1.0 - self.missing_fraction) < 4:
            raise ValueError("domain error: expected complete cases below 4")
        if self.pilot_m < 2:
            raise ValueError(f"insufficient imputations: pilot_m must be >= 2, got {self.pilot_m}")
        if self.reps < 1:
            raise ValueError(f"domain error: reps must be >= 1, got {self.reps}")
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"domain error: level must be in (0, 1), got {self.level!r}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"domain error: seed must be an unsigned 64-bit integer, got {self.seed}")


def gen_incomplete(
    n: int,
    rho: float,
    missing_fraction: float,
    rng: np.random.Generator,
) -> IncompleteBivariate:
    """Standard bivariate normal (x, y) with correlation rho; each y is
    deleted independently with probability missing_fraction (MCAR)."""
    if n < 1:
        raise ValueError(f"domain error: n must be >= 1, got {n}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"domain error: rho must be in [0, 1), got {rho!r}")
    if not (0.0 < missing_fraction < 1.0):
        raise ValueError(f"domain error: missing_fraction must be in (0, 1), got {missing_fraction!r}")
    z = rng.standard_normal((2, n))
    x = z[0]
    y = rho * x + math.sqrt(1.0 - rho * rho) * z[1]
    y[rng.random(n) < missing_fraction] = np.nan
    return IncompleteBivariate(x=x, y=y)


def _pool_once(
    data: IncompleteBivariate,
    m: int,
    rng: np.random.Generator,
    level: float,
) -> PooledAnalysis:
    return pool_arrays(*impute_m(data, m, rng), level)


@dataclass(frozen=True)
class TwoStageRecord:
    """One pilot -> recommendation -> final pass over a fixed dataset."""

    rep_index: int
    pilot: PooledAnalysis
    recommendation: Recommendation
    final: PooledAnalysis


def run_two_stage(
    config: ExperimentConfig,
    rng: np.random.Generator,
    data: IncompleteBivariate | None = None,
    rep_index: int = 0,
) -> TwoStageRecord:
    """Run the two-stage procedure once.

    Stage 1 pools pilot_m imputations and converts the pilot into a
    recommendation.  If the pilot already used enough imputations the
    pilot pooling doubles as the final answer; otherwise stage 2
    re-imputes with m_required fresh imputations.  When ``data`` is None
    a dataset is generated from ``rng`` first.
    """
    if data is None:
        data = gen_incomplete(config.n, config.rho, config.missing_fraction, rng)
    pilot = _pool_once(data, config.pilot_m, rng, config.level)
    rec = recommend(pilot, config.target, config.level, config.m_max)
    if rec.pilot_sufficient:
        final = pilot
    else:
        final = _pool_once(data, rec.m_required, rng, config.level)
    return TwoStageRecord(rep_index=rep_index, pilot=pilot, recommendation=rec, final=final)


def run_two_stage_experiment(
    config: ExperimentConfig,
    data: IncompleteBivariate | None = None,
) -> list[TwoStageRecord]:
    """config.reps replications of the two-stage procedure on one dataset.

    The dataset is held fixed across replications (generated from the
    dedicated data stream when not supplied), so the spread of the final
    SEs estimates their re-imputation variability on this data.
    """
    if data is None:
        data = gen_incomplete(
            config.n, config.rho, config.missing_fraction, stream(config.seed, TAG_DATA)
        )
    return [
        run_two_stage(config, stream(config.seed, TAG_REP, r), data=data, rep_index=r)
        for r in range(config.reps)
    ]


@dataclass(frozen=True)
class FieldSummary:
    mean: float
    sd: float
    min: float
    max: float

    @classmethod
    def of(cls, values: np.ndarray) -> "FieldSummary":
        return cls(
            mean=float(np.mean(values)),
            sd=float(np.std(values, ddof=1)),
            min=float(np.min(values)),
            max=float(np.max(values)),
        )


@dataclass(frozen=True)
class TwoStageSummary:
    """Across-replication summary of two-stage records."""

    reps: int
    m_required: FieldSummary
    final_m: FieldSummary
    final_estimate: FieldSummary
    final_se: FieldSummary
    final_df_hat: FieldSummary
    final_gamma_hat: FieldSummary
    achieved_sd_of_se: float


def summarize_two_stage(records: Sequence[TwoStageRecord]) -> TwoStageSummary:
    """Componentwise mean/sd/min/max of the final-stage results."""
    if len(records) < 2:
        raise ValueError(f"insufficient replications: need at least 2, got {len(records)}")
    ses = np.array([r.final.se for r in records])
    return TwoStageSummary(
        reps=len(records),
        m_required=FieldSummary.of(np.array([r.recommendation.m_required for r in records])),
        final_m=FieldSummary.of(np.array([r.final.m for r in records])),
        final_estimate=FieldSummary.of(np.array([r.final.theta for r in records])),
        final_se=FieldSummary.of(ses),
        final_df_hat=FieldSummary.of(np.array([r.final.df_hat for r in records])),
        final_gamma_hat=FieldSummary.of(np.array([r.final.gamma_hat for r in records])),
        achieved_sd_of_se=float(np.std(ses, ddof=1)),
    )


def pool_replicates(
    data: IncompleteBivariate,
    m: int,
    reps: int,
    seed: int,
    level: float = 0.95,
) -> list[PooledAnalysis]:
    """Re-impute a fixed dataset reps times, pooling m imputations each time."""
    if reps < 1:
        raise ValueError(f"domain error: reps must be >= 1, got {reps}")
    return [_pool_once(data, m, stream(seed, TAG_REP, r), level) for r in range(reps)]


def _check_measurement_reps(reps: int) -> None:
    """Measured CVs and exceedance rates rest on 100 or more replications."""
    if reps < 100:
        raise ValueError(f"insufficient replications: need at least 100, got {reps}")


def pool_fixed_dataset(
    n: int, rho: float, missing_fraction: float, m: int, reps: int, seed: int, level: float = 0.95
) -> list[PooledAnalysis]:
    """Draw one dataset on the seed's data stream, then pool m fresh
    imputations of it in each of reps (at least 100) replications."""
    _check_measurement_reps(reps)
    data = gen_incomplete(n, rho, missing_fraction, stream(seed, TAG_DATA))
    return pool_replicates(data, m, reps, seed, level)


@dataclass(frozen=True)
class EmpiricalCv:
    """Measured re-imputation variability of the pooled variance and SE."""

    cv_v: float
    cv_se: float
    mean_gamma_hat: float
    m: int
    reps: int


def empirical_cv_of(pooled: Sequence[PooledAnalysis]) -> EmpiricalCv:
    """Coefficients of variation of v_total and se across pooled replicates."""
    if len(pooled) < 2:
        raise ValueError(f"insufficient replications: need at least 2, got {len(pooled)}")
    v = np.array([p.v_total for p in pooled])
    se = np.array([p.se for p in pooled])
    gammas = np.array([p.gamma_hat for p in pooled])
    return EmpiricalCv(
        cv_v=float(np.std(v, ddof=1) / np.mean(v)),
        cv_se=float(np.std(se, ddof=1) / np.mean(se)),
        mean_gamma_hat=float(np.mean(gammas)),
        m=int(pooled[0].m),
        reps=len(pooled),
    )


def empirical_cv(
    data: IncompleteBivariate,
    m: int,
    reps: int,
    seed: int,
) -> EmpiricalCv:
    """Hold the observed data fixed and measure how the pooled variance
    and SE vary across independent sets of m imputations."""
    _check_measurement_reps(reps)
    return empirical_cv_of(pool_replicates(data, m, reps, seed))


def required_m(
    data: IncompleteBivariate,
    cv_target: float,
    m_lo: int = 2,
    m_hi: int = 512,
    reps: int = 200,
    seed: int = 0,
) -> int:
    """Smallest m in [m_lo, m_hi] whose measured SE coefficient of
    variation on this dataset is at or below cv_target.

    Bisects on m (the CV is monotone decreasing in m); probe noise is
    controlled by a fixed number of replications per probe plus a
    confirmation probe on an independent stream at the returned m.
    """
    if not (0.0 < cv_target < 1.0):
        raise ValueError(f"domain error: cv_target must be in (0, 1), got {cv_target!r}")
    if not (2 <= m_lo < m_hi):
        raise ValueError(f"domain error: need 2 <= m_lo < m_hi, got ({m_lo}, {m_hi})")

    def probe(m: int, tag: int) -> float:
        return empirical_cv(data, m, reps, derive_seed(seed, tag, m)).cv_se

    if probe(m_lo, TAG_PROBE) <= cv_target:
        candidate = m_lo
    elif probe(m_hi, TAG_PROBE) > cv_target:
        raise ValueError(
            f"search exhausted: cv_se stays above {cv_target} at m_hi={m_hi}"
        )
    else:
        lo, hi = m_lo, m_hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid, TAG_PROBE) <= cv_target:
                hi = mid
            else:
                lo = mid
        candidate = hi

    while True:
        if probe(candidate, TAG_CONFIRM) <= cv_target:
            return candidate
        if candidate >= m_hi:
            raise ValueError(
                f"search exhausted: cv_se stays above {cv_target} up to m_hi={m_hi}"
            )
        candidate = min(m_hi, candidate + max(1, candidate // 10))


def df_reliability(
    config: ExperimentConfig,
    df_threshold: float,
    reps: int | None = None,
) -> float:
    """Fraction of pilot poolings whose estimated df exceeds the threshold.

    The estimated df is a noisy transform of the estimated fraction of
    missing information, so this fraction shows how often a df-based
    stopping criterion would be triggered by chance.
    """
    pooled = pool_fixed_dataset(
        config.n, config.rho, config.missing_fraction, config.pilot_m,
        config.reps if reps is None else reps, config.seed, config.level,
    )
    return float(np.mean([p.df_hat > df_threshold for p in pooled]))


@dataclass(frozen=True)
class CurveRow:
    gamma: float
    m_quadratic: int
    m_linear: int
    m_simulated: int | None = None
    capped: bool = False  # m_quadratic or m_linear was cut to m_max


def curve_data(
    gammas: Sequence[float],
    cv_target: float = 0.05,
    m_max: int = DEFAULT_M_MAX,
    simulated: Callable[[float], int] | None = None,
) -> list[CurveRow]:
    """Required-m comparison table: quadratic rule vs the linear rule
    m = 100 * gamma, with an optional simulated column (see
    simulated_required_m) for checking which rule tracks reality.  Both
    rule columns are capped at m_max without a warning; a row's capped
    field says whether either was cut."""
    rows = []
    for gamma in gammas:
        m_quadratic, quadratic_uncapped = _capped_count(_se_cv_rule(gamma, cv_target), m_max)
        m_linear, linear_uncapped = _capped_count(100.0 * gamma, m_max)
        rows.append(
            CurveRow(
                gamma=float(gamma),
                m_quadratic=m_quadratic,
                m_linear=m_linear,
                m_simulated=None if simulated is None else int(simulated(gamma)),
                capped=(m_quadratic, m_linear) != (quadratic_uncapped, linear_uncapped),
            )
        )
    return rows


def df_cv_curve(cvs: Sequence[float]) -> list[tuple[float, float]]:
    """(cv, df) pairs tracing df = 1 / (2 cv^2), the SE-stability tradeoff."""
    out = []
    for cv in cvs:
        if not (0.0 < cv < 1.0):
            raise ValueError(f"domain error: cv must be in (0, 1), got {cv!r}")
        out.append((float(cv), 1.0 / (2.0 * cv * cv)))
    return out


@lru_cache(maxsize=128)
def calibrate_gamma(
    n: int,
    rho: float,
    missing_fraction: float,
    m: int = 60,
    reps: int = 24,
    seed: int = 0,
) -> float:
    """Mean pooled gamma_hat for a (rho, missing_fraction) cell.

    Averages high-m poolings over fresh synthetic datasets; cached per
    argument set (seed included) since calibration sweeps revisit cells.
    """
    values = []
    for r in range(reps):
        rng = stream(seed, TAG_CALIBRATE, r)
        data = gen_incomplete(n, rho, missing_fraction, rng)
        values.append(_pool_once(data, m, rng, 0.95).gamma_hat)
    return float(np.mean(values))


def calibrate_missing_fraction(
    gamma_target: float,
    rho: float = 0.0,
    n: int = 2000,
    seed: int = 0,
    m: int = 60,
    reps: int = 24,
    tol: float = 0.01,
    max_iter: int = 24,
) -> float:
    """MCAR deletion probability whose mean pooled gamma_hat hits gamma_target.

    Bisects on the missing fraction; the mean gamma_hat is monotone
    increasing in it at fixed rho.
    """
    if not (0.0 < gamma_target < 1.0):
        raise ValueError(f"domain error: gamma_target must be in (0, 1), got {gamma_target!r}")
    # upper bracket keeps >= ~30 expected complete cases so binomial noise
    # cannot push a probe dataset below the 4-case floor
    lo, hi = 0.005, min(0.95, 1.0 - 30.0 / max(n, 1))
    if hi <= lo:
        raise ValueError(f"domain error: n={n} too small to calibrate")
    g_lo = calibrate_gamma(n, rho, lo, m, reps, seed)
    g_hi = calibrate_gamma(n, rho, hi, m, reps, seed)
    if not (g_lo <= gamma_target <= g_hi):
        raise ValueError(
            f"search exhausted: gamma_target {gamma_target} outside achievable "
            f"range [{g_lo:.3f}, {g_hi:.3f}] at rho={rho}"
        )
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        g_mid = calibrate_gamma(n, rho, mid, m, reps, seed)
        if abs(g_mid - gamma_target) <= tol:
            return mid
        if g_mid < gamma_target:
            lo = mid
        else:
            hi = mid
    return mid


def simulated_required_m(
    gamma: float,
    cv_target: float,
    n: int = 2000,
    reps: int = 200,
    seed: int = 0,
    rho: float = 0.0,
    m_hi: int | None = None,
) -> int:
    """Empirical required m for a setup calibrated to the given gamma.

    Calibrates the missing fraction to hit gamma, generates one dataset,
    and searches for the smallest m meeting cv_target on it.
    """
    p = calibrate_missing_fraction(gamma, rho=rho, n=n, seed=derive_seed(seed, TAG_CALIBRATE))
    data = gen_incomplete(n, rho, p, stream(seed, TAG_DATA))
    if m_hi is None:
        predicted = m_for_se_cv(gamma, cv_target)
        m_hi = min(DEFAULT_M_MAX, 3 * predicted + 16)
    return required_m(data, cv_target, m_lo=2, m_hi=m_hi, reps=reps, seed=seed)
