"""Monte Carlo harness: check the planning rules on synthetic data.

Experiments run on bivariate-normal data with MCAR deletion of the
outcome.  Randomness comes from streams derived deterministically from
(seed, tag, *key) via numpy's SeedSequence spawn keys.  ``pool_replicates``
draws a block of replications from one stream, keyed by the block's index
and m, so a replication's result depends on the seed, its index and m (and,
in the last, partial block, on reps).  Calls with one seed at different m
share no streams, so their errors are not correlated.  The two-stage
experiment takes its pilots from ``pool_replicates`` at pilot_m, and draws
the finals of the replications whose pilot falls short in chunks, chunk c
from stream(seed, TAG_FINAL, c); so a replication's final depends on the
seed, its own m_required and the m_required of each short replication
before it.  Every experiment returns its replications by column
(``PooledReplicates``, ``TwoStageRuns``), and a two-stage experiment
plans and summarises by column too; of the intervals, only the upper
bound of each pilot's gamma interval is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .fmi import check_level
from .imputer import IncompleteBivariate, draw_mean_variates, mean_analyses
from .planning import (
    DEFAULT_M_MAX,
    Recommendation,
    RecommendationColumns,
    ReplicabilityTarget,
    _capped_count,
    _check_m_max,
    recommend,
    recommend_replicates,
)
from .pooling import (
    PooledAnalysis,
    PooledReplicates,
    _mean_ssd,
    pool_arrays,
    pool_rows,
    pool_segments,
)

# Spawn-key tags keep the dataset, the replications, the search probes,
# calibrate_gamma's datasets and the two-stage finals on disjoint streams
# of one seed.  Tag 3 is unused, so that no other stream moved.
TAG_DATA = 0
TAG_REP = 1
TAG_PROBE = 2
TAG_CALIBRATE = 4
TAG_FINAL = 5

# Every simulated pooling draws the variates of its imputations through this
# name: once per block of pool_replicates, once per chunk of two-stage
# finals, once per pooling of run_two_stage, and always exactly the
# imputations that get pooled.  The benchmark counts imputations by
# wrapping it.
impute_m = draw_mean_variates

# pool_replicates and the two-stage finals draw and pool whole replications
# in blocks of about this many imputations, so their variates take a few MB
# whatever reps and m are.
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
        _check_m_max(self.m_max)
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


def run_two_stage(
    config: ExperimentConfig,
    rng: np.random.Generator,
    data: IncompleteBivariate,
) -> tuple[PooledAnalysis, Recommendation, PooledAnalysis]:
    """Run the two-stage procedure once on data, drawing from rng, and
    return (pilot, recommendation, final).

    Stage 1 pools pilot_m imputations at config.level and converts the
    pilot into a recommendation.  If the pilot already used enough
    imputations the pilot pooling doubles as the final answer; otherwise
    stage 2 re-imputes with m_required fresh imputations.
    """
    pilot = _pool_once(data, config.pilot_m, rng, config.level)
    rec = recommend(pilot, config.target, config.m_max)
    if rec.pilot_sufficient:
        return pilot, rec, pilot
    return pilot, rec, _pool_once(data, rec.m_required, rng, config.level)


@dataclass(frozen=True, eq=False)
class TwoStageRuns:
    """A two-stage experiment by column: entry r of each, replication r's.
    Where a pilot sufficed, its final entries are its pilot entries, so
    final_m is max(pilot_m, m_required)."""

    pilots: PooledReplicates
    recommendations: RecommendationColumns
    final_m: np.ndarray
    final_theta: np.ndarray
    final_se: np.ndarray
    final_gamma_hat: np.ndarray
    final_df_hat: np.ndarray


def run_two_stage_experiment(
    config: ExperimentConfig,
    data: IncompleteBivariate | None = None,
) -> TwoStageRuns:
    """config.reps replications of the two-stage procedure on one dataset.

    The dataset is held fixed across replications (generated from the
    dedicated data stream when not supplied), so the spread of the final
    SEs estimates their re-imputation variability on this data.

    Each replication has the distribution of ``run_two_stage`` on a fresh
    stream, but the draws go a block at a time and the work after them by
    column.  The pilots are ``pool_replicates(data, pilot_m, reps, seed)``,
    and ``recommend_replicates`` gives them, at config.level, the columns
    of what ``recommend`` gives each: only the upper bound of each pilot's
    gamma interval is computed, since nothing reads the rest of it or a
    theta interval.  A sufficient pilot doubles as the final and draws
    nothing.  The other replications, in rep order, are grouped into chunks
    of at most BLOCK_IMPUTATIONS final imputations (a replication is never
    split, so a chunk holding one replication can be larger).  Chunk c
    draws all its imputations from stream(seed, TAG_FINAL, c) in one
    ``impute_m`` call, gives them one closed-form call, and pools each
    replication's contiguous run of m_required of them in one
    ``pool_segments`` call, with no interval, since no reader of a final
    uses one.
    """
    if data is None:
        data = gen_incomplete(
            config.n, config.rho, config.missing_fraction, stream(config.seed, TAG_DATA)
        )
    pilots = pool_replicates(data, config.pilot_m, config.reps, config.seed)
    recs = recommend_replicates(pilots, config.target, config.level, config.m_max)
    final_m = np.full(config.reps, config.pilot_m)
    finals = {name: getattr(pilots, name).copy() for name in ("theta", "se", "gamma_hat", "df_hat")}
    m_required = recs.m_required.tolist()
    chunks: list[list[int]] = []
    size = math.inf  # the first short replication opens the first chunk
    for r in np.flatnonzero(~recs.pilot_sufficient).tolist():
        if size + m_required[r] > BLOCK_IMPUTATIONS:
            chunks.append([])
            size = 0
        chunks[-1].append(r)
        size += m_required[r]
    for c, chunk in enumerate(chunks):
        ms = [m_required[r] for r in chunk]
        variates = impute_m(data, sum(ms), stream(config.seed, TAG_FINAL, c))
        final = pool_segments(*mean_analyses(data.mean_stats, *variates), ms)
        final_m[chunk] = ms  # after the draw, which rejects an m past int64
        for name, column in finals.items():
            column[chunk] = getattr(final, name)
    return TwoStageRuns(pilots, recs, final_m, **{f"final_{k}": v for k, v in finals.items()})


@dataclass(frozen=True)
class FieldSummary:
    mean: float
    sd: float
    min: float
    max: float

    @classmethod
    def each(cls, *columns: np.ndarray) -> list["FieldSummary"]:
        """Mean, SD (ddof 1), min and max of each column: the package's only
        column summary.  The columns are stacked as the rows of one 2-d
        float block and summed along them by ``pooling._mean_ssd``, the
        pass ``pool_rows`` makes: np.mean and np.std as numpy computes
        them, sharing one sum.  A row's sums run along it as a lone
        column's do, so a column's figures do not depend on the others,
        and ``each(x)[0]`` summarises x alone.  A constant column gives
        exactly its value and SD 0; numpy's sums can round a few ulps off
        both, and one value or a run of infs has no SD to compute."""
        block = np.stack(columns, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean, ssd = _mean_ssd(block)
            sd = np.sqrt(ssd / (block.shape[1] - 1))
        lo, hi = block.min(axis=1), block.max(axis=1)
        constant = lo == hi
        mean[constant] = block[constant, 0]
        sd[constant] = 0.0
        return list(map(cls, mean.tolist(), sd.tolist(), lo.tolist(), hi.tolist()))


@dataclass(frozen=True)
class TwoStageSummary:
    """Across-replication summary of a two-stage experiment."""

    m_required: FieldSummary
    final_m: FieldSummary
    final_estimate: FieldSummary
    final_se: FieldSummary
    final_df_hat: FieldSummary
    final_gamma_hat: FieldSummary
    achieved_sd_of_se: float

    def as_dict(self) -> dict:
        """``dataclasses.asdict`` of the summary, without its deep copy."""
        return {name: vars(value).copy() if isinstance(value, FieldSummary) else value
                for name, value in vars(self).items()}


def summarize_two_stage(runs: TwoStageRuns) -> TwoStageSummary:
    """Componentwise mean/sd/min/max of the final-stage results, in one
    ``FieldSummary.each`` call."""
    if len(runs.final_se) < 2:
        raise ValueError(f"insufficient replications: need at least 2, got {len(runs.final_se)}")
    m_required, final_m, final_estimate, final_se, final_df_hat, final_gamma_hat = (
        FieldSummary.each(runs.recommendations.m_required, runs.final_m, runs.final_theta,
                          runs.final_se, runs.final_df_hat, runs.final_gamma_hat))
    return TwoStageSummary(m_required, final_m, final_estimate, final_se, final_df_hat,
                           final_gamma_hat, achieved_sd_of_se=final_se.sd)


def pool_replicates(
    data: IncompleteBivariate,
    m: int,
    reps: int,
    seed: int,
) -> PooledReplicates:
    """Re-impute a fixed dataset reps times, pooling m imputations each time.

    Returns the reps poolings by column, entry r for replication r.
    Replications go in blocks of max(1, BLOCK_IMPUTATIONS // m).  Block b,
    holding count replications from start, draws count * m imputations
    on stream(seed, TAG_REP, b, m) through one ``impute_m`` call; the
    variates are read as count rows of m, row i for replication start + i,
    and go through one closed-form call and one ``pool_rows`` call.  So
    rows in full blocks depend only on (seed, m, b), and the last block
    is drawn at its own size.  Each row has the distribution of
    ``_pool_once`` on a fresh stream.  No interval is computed, so there
    is no level.
    """
    if reps < 1:
        raise ValueError(f"domain error: reps must be >= 1, got {reps}")
    if m < 2:  # before the block draw, which sees count * m imputations
        raise ValueError(f"insufficient imputations: need m >= 2, got {m}")
    s = data.mean_stats
    per_block = max(1, BLOCK_IMPUTATIONS // m)
    blocks = []
    for block, start in enumerate(range(0, reps, per_block)):
        count = min(per_block, reps - start)
        variates = impute_m(data, count * m, stream(seed, TAG_REP, block, m))
        blocks.append(pool_rows(*mean_analyses(s, *(v.reshape(count, m) for v in variates))))
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
    replicates (as ``pool_replicates`` returns them), and the mean of their
    gamma_hat column, all from one ``FieldSummary.each`` call: a constant
    column's mean is exactly its value."""
    reps = len(pooled.se)
    if reps < 2:
        raise ValueError(f"insufficient replications: need at least 2, got {reps}")
    v_total, se, gamma_hat = FieldSummary.each(pooled.v_total, pooled.se, pooled.gamma_hat)
    return EmpiricalCv(
        cv_v=v_total.sd / v_total.mean,
        cv_se=se.sd / se.mean,
        mean_gamma_hat=gamma_hat.mean,
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


# The m at which required_m measures the CV of the SE, those at or below
# its cap; a cap below the first is probed alone.
PROBE_MS = (20, 40, 80)


def required_m(
    data: IncompleteBivariate,
    cv_target: float,
    m_hi: int = 512,
    reps: int = 200,
    seed: int = 0,
) -> int:
    """The m in [2, m_hi] at which the SE's coefficient of variation on
    this dataset falls to cv_target, fitted from at most three probes.

    The fit assumes CV(m) = C / sqrt(m - 1) on this dataset, the form
    behind the quadratic rule.  A probe at m measures the CV over reps
    replications on its own stream, derive_seed(seed, TAG_PROBE, m), at
    each m of PROBE_MS up to m_hi, or at m_hi alone when m_hi is below 20.
    C is the mean of CV(m) * sqrt(m - 1) over the probes, and the answer
    is the ceiling of 1 + (C / cv_target)^2, at least 2 and cut to m_hi
    (``planning._capped_count``).  A probe's CV has relative SE about
    1 / sqrt(2 (reps - 1)) whatever its m, so the fit answers beyond the
    largest probe too.  Near the floor, where CV * sqrt(m - 1) is not yet
    constant, it can answer one below the first m that meets the goal
    (README).
    """
    if not (0.0 < cv_target < 1.0):
        raise ValueError(f"domain error: cv_target must be in (0, 1), got {cv_target!r}")
    if not m_hi >= 2:
        raise ValueError(f"domain error: need m_hi >= 2, got {m_hi}")
    ms = [m for m in PROBE_MS if m <= m_hi] or [m_hi]
    c = np.mean([empirical_cv(data, m, reps, derive_seed(seed, TAG_PROBE, m)).cv_se
                 * math.sqrt(m - 1) for m in ms])
    # A goal so strict that (c / cv_target)^2 overflows reads inf: m_hi, with no warning.
    with np.errstate(over="ignore"):
        return _capped_count(1.0 + (c / cv_target) ** 2, m_hi)[0]


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
    m_max: int = DEFAULT_M_MAX,
) -> int:
    """Empirical required m at the true fraction of missing information gamma.

    Sets the missing fraction from gamma by calibrate_missing_fraction's
    closed form, draws one dataset on the seed's data stream, and fits the
    m that meets cv_target on it (see required_m), cut to m_max.  The
    quadratic rule is not read: C is measured on each gamma's own data,
    so the answers across gammas test the rule's shape in gamma.
    """
    p = calibrate_missing_fraction(gamma, rho)
    data = gen_incomplete(n, rho, p, stream(seed, TAG_DATA))
    return required_m(data, cv_target, m_hi=m_max, reps=reps, seed=seed)
