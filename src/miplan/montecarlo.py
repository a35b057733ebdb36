"""Monte Carlo harness: check the planning rules on synthetic data.

Experiments run on bivariate-normal data with MCAR deletion of the
outcome.  Every replication draws its randomness from a stream derived
deterministically from (seed, tag, index) via numpy's SeedSequence spawn
keys, so a replication's result depends only on the seed and its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .fmi import check_level
from .imputer import IncompleteBivariate, draw_mean_variates, mean_analyses
from .planning import (
    DEFAULT_M_MAX,
    Recommendation,
    ReplicabilityTarget,
    _capped_count,
    _se_cv_rule,
    cv_df_convert,
    m_for_se_cv,
    recommend,
)
from .pooling import PooledAnalysis, PooledReplicates, pool_arrays, pool_rows

# Spawn-key tags keep the dataset, the replications, the search probes,
# and calibrate_gamma's datasets on disjoint streams of one seed.
TAG_DATA = 0
TAG_REP = 1
TAG_PROBE = 2
TAG_CONFIRM = 3
TAG_CALIBRATE = 4

# Every simulated pooling draws the variates of its m imputations through
# this name, once per pooling; the benchmark counts imputations by wrapping it.
impute_m = draw_mean_variates

# pool_replicates pools whole replications in blocks of about this many
# imputations, so its variates take a few MB whatever reps and m are.
BLOCK_IMPUTATIONS = 2**16


def _check_seed(seed: int) -> None:
    if not (0 <= seed < 2**64):
        raise ValueError(f"domain error: seed must be an unsigned 64-bit integer, got {seed}")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for (seed, *key), independent across keys."""
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit child seed for a nested experiment stage."""
    _check_seed(seed)
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _check_rho(rho: float) -> None:
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"domain error: rho must be in [0, 1), got {rho!r}")


def _check_setup(n: int, rho: float, missing_fraction: float) -> None:
    """The checks of a synthetic dataset's size, correlation and missing fraction."""
    if n < 1:
        raise ValueError(f"domain error: n must be >= 1, got {n}")
    _check_rho(rho)
    if not (0.0 < missing_fraction < 1.0):
        raise ValueError(f"domain error: missing_fraction must be in (0, 1), got {missing_fraction!r}")


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
        _check_setup(self.n, self.rho, self.missing_fraction)
        if self.n * (1.0 - self.missing_fraction) < 4:
            raise ValueError("domain error: expected complete cases below 4")
        if self.pilot_m < 2:
            raise ValueError(f"insufficient imputations: pilot_m must be >= 2, got {self.pilot_m}")
        if self.reps < 1:
            raise ValueError(f"domain error: reps must be >= 1, got {self.reps}")
        check_level(self.level)
        _check_seed(self.seed)


def gen_incomplete(
    n: int,
    rho: float,
    missing_fraction: float,
    rng: np.random.Generator,
) -> IncompleteBivariate:
    """Standard bivariate normal (x, y) with correlation rho; each y is
    deleted independently with probability missing_fraction (MCAR)."""
    _check_setup(n, rho, missing_fraction)
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
    return pool_arrays(*mean_analyses(data.mean_stats, *impute_m(data, m, rng)), level)


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
    data: IncompleteBivariate,
    rep_index: int = 0,
) -> TwoStageRecord:
    """Run the two-stage procedure once on data, drawing from rng.

    Stage 1 pools pilot_m imputations at config.level and converts the
    pilot into a recommendation.  If the pilot already used enough
    imputations the pilot pooling doubles as the final answer; otherwise
    stage 2 re-imputes with m_required fresh imputations.
    """
    pilot = _pool_once(data, config.pilot_m, rng, config.level)
    rec = recommend(pilot, config.target, config.m_max)
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
        run_two_stage(config, stream(config.seed, TAG_REP, r), data, rep_index=r)
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
) -> PooledReplicates:
    """Re-impute a fixed dataset reps times, pooling m imputations each time.

    Returns the reps poolings by column, entry r for replication r, each
    field as ``_pool_once`` on stream(seed, TAG_REP, r) would give it.
    Replication r draws its variates on that stream, through one
    ``impute_m`` call; whole replications, about BLOCK_IMPUTATIONS
    imputations at a time, then go through one closed-form call and one
    ``pool_rows`` call.  No interval is computed, so there is no level.
    """
    if reps < 1:
        raise ValueError(f"domain error: reps must be >= 1, got {reps}")
    s = data.mean_stats
    per_block = max(1, BLOCK_IMPUTATIONS // max(m, 2))  # the draw rejects m < 2
    blocks = []
    for start in range(0, reps, per_block):
        variates = [impute_m(data, m, stream(seed, TAG_REP, r))
                    for r in range(start, min(start + per_block, reps))]
        blocks.append(pool_rows(*mean_analyses(s, *np.stack(variates, axis=1))))
    if len(blocks) == 1:
        return blocks[0]
    columns = {f.name: np.concatenate([getattr(b, f.name) for b in blocks])
               for f in fields(PooledReplicates) if f.name != "m"}
    return PooledReplicates(m=m, **columns)


def _check_measurement_reps(reps: int) -> None:
    """Measured CVs and exceedance rates rest on 100 or more replications."""
    if reps < 100:
        raise ValueError(f"insufficient replications: need at least 100, got {reps}")


def pool_fixed_dataset(
    n: int, rho: float, missing_fraction: float, m: int, reps: int, seed: int
) -> PooledReplicates:
    """Draw one dataset on the seed's data stream, then pool m fresh
    imputations of it in each of reps (at least 100) replications; the
    poolings come by column, as from ``pool_replicates``."""
    _check_measurement_reps(reps)
    data = gen_incomplete(n, rho, missing_fraction, stream(seed, TAG_DATA))
    return pool_replicates(data, m, reps, seed)


@dataclass(frozen=True)
class EmpiricalCv:
    """Measured re-imputation variability of the pooled variance and SE."""

    cv_v: float
    cv_se: float
    mean_gamma_hat: float
    m: int
    reps: int


def empirical_cv_of(pooled: PooledReplicates) -> EmpiricalCv:
    """Coefficients of variation of the v_total and se columns of pooled
    replicates (as ``pool_replicates`` returns them)."""
    reps = len(pooled.se)
    if reps < 2:
        raise ValueError(f"insufficient replications: need at least 2, got {reps}")
    v, se = pooled.v_total, pooled.se
    return EmpiricalCv(
        cv_v=float(np.std(v, ddof=1) / np.mean(v)),
        cv_se=float(np.std(se, ddof=1) / np.mean(se)),
        mean_gamma_hat=float(np.mean(pooled.gamma_hat)),
        m=pooled.m,
        reps=reps,
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
    m_hi: int = 512,
    reps: int = 200,
    seed: int = 0,
) -> int:
    """Smallest m in [2, m_hi] whose measured SE coefficient of
    variation on this dataset is at or below cv_target.

    Bisects on m (the CV is monotone decreasing in m); probe noise is
    controlled by a fixed number of replications per probe plus a
    confirmation probe on an independent stream at the returned m.
    """
    if not (0.0 < cv_target < 1.0):
        raise ValueError(f"domain error: cv_target must be in (0, 1), got {cv_target!r}")
    if not m_hi > 2:
        raise ValueError(f"domain error: need m_hi > 2, got {m_hi}")

    def probe(m: int, tag: int) -> float:
        return empirical_cv(data, m, reps, derive_seed(seed, tag, m)).cv_se

    if probe(2, TAG_PROBE) <= cv_target:
        candidate = 2
    elif probe(m_hi, TAG_PROBE) > cv_target:
        raise ValueError(
            f"search exhausted: cv_se stays above {cv_target} at m_hi={m_hi}"
        )
    else:
        lo, hi = 2, m_hi
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
) -> float:
    """Fraction of pilot poolings whose estimated df exceeds the threshold.

    The estimated df is a noisy transform of the estimated fraction of
    missing information, so this fraction shows how often a df-based
    stopping criterion would be triggered by chance.
    """
    pooled = pool_fixed_dataset(
        config.n, config.rho, config.missing_fraction, config.pilot_m, config.reps, config.seed
    )
    return float(np.mean(pooled.df_hat > df_threshold))


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
    return [(float(cv), cv_df_convert(cv, "cv_to_df")) for cv in cvs]


# The cache never hits, since no caller revisits a cell; it stays because
# the benchmark's tracer reads calibrate_gamma.cache_info().
@lru_cache(maxsize=128)
def calibrate_gamma(
    n: int,
    rho: float,
    missing_fraction: float,
    m: int = 60,
    reps: int = 24,
    seed: int = 0,
) -> float:
    """Mean pooled gamma_hat over reps fresh datasets of one
    (rho, missing_fraction) cell.

    The Monte Carlo check of calibrate_missing_fraction's closed form: at
    large n and m it approaches p (1 - rho^2) / (1 - p rho^2).
    """
    values = []
    for r in range(reps):
        rng = stream(seed, TAG_CALIBRATE, r)
        data = gen_incomplete(n, rho, missing_fraction, rng)
        values.append(_pool_once(data, m, rng, 0.95).gamma_hat)
    return float(np.mean(values))


def calibrate_missing_fraction(gamma_target: float, rho: float = 0.0) -> float:
    """MCAR deletion probability p whose large-sample fraction of missing
    information is gamma_target.

    For a standard bivariate normal (x, y) with correlation rho, y deleted
    with probability p and imputed by regression on x, n times the
    variance of the mean is (1 - rho^2) / (1 - p) + rho^2, against 1 for
    complete data (Rubin 1987).  So gamma = p (1 - rho^2) / (1 - p rho^2),
    and p = gamma / (1 - rho^2 + gamma rho^2).
    """
    if not (0.0 < gamma_target < 1.0):
        raise ValueError(f"domain error: gamma_target must be in (0, 1), got {gamma_target!r}")
    _check_rho(rho)
    rho2 = rho * rho
    return gamma_target / (1.0 - rho2 + gamma_target * rho2)


def simulated_required_m(
    gamma: float,
    cv_target: float,
    n: int = 2000,
    reps: int = 200,
    seed: int = 0,
    rho: float = 0.0,
) -> int:
    """Empirical required m at the true fraction of missing information gamma.

    Sets the missing fraction from gamma by calibrate_missing_fraction's
    closed form, draws one dataset on the seed's data stream, and searches
    for the smallest m meeting cv_target on it (see required_m), up to
    three times the quadratic rule's m plus 16, at most DEFAULT_M_MAX.
    """
    p = calibrate_missing_fraction(gamma, rho)
    data = gen_incomplete(n, rho, p, stream(seed, TAG_DATA))
    m_hi = min(DEFAULT_M_MAX, 3 * m_for_se_cv(gamma, cv_target) + 16)
    return required_m(data, cv_target, m_hi=m_hi, reps=reps, seed=seed)
