"""miplan: pool multiply-imputed estimates and plan how many imputations you need.

The package pools per-imputation analyses with Rubin's rules, infers the
fraction of missing information with a confidence interval, converts a
replicability goal for the pooled standard error into a required number
of imputations, and verifies the planning rules by Monte Carlo
simulation on synthetic incomplete data.
"""

from .fmi import (
    GAMMA_EPS,
    GammaInterval,
    clamp_gamma,
    gamma_ci,
    inv_logit,
    logit,
    round_half_away,
    table1,
)
from .imputer import (
    CompletedDataset,
    IncompleteBivariate,
    PosteriorDraw,
    analyze_mean,
    fit_and_draw,
    impute_m,
    impute_once,
)
from .montecarlo import (
    EmpiricalCv,
    ExperimentConfig,
    FieldSummary,
    TwoStageRuns,
    TwoStageSummary,
    calibrate_missing_fraction,
    derive_seed,
    empirical_cv,
    empirical_cv_of,
    gen_incomplete,
    pool_fixed_dataset,
    pool_replicates,
    required_m,
    run_two_stage,
    run_two_stage_experiment,
    simulated_required_m,
    stream,
    summarize_two_stage,
)
from .planning import (
    CurveRow,
    DEFAULT_M_MAX,
    Recommendation,
    ReplicabilityTarget,
    curve_data,
    df_cv_curve,
    df_for_cv,
    m_for_se_cv,
    recommend,
)
from .pooling import (
    ImputationResult,
    ImputationResults,
    PooledAnalysis,
    PooledReplicates,
    pool,
    read_results_csv,
)
from .quantiles import normal_quantile, t_quantile

__version__ = "0.1.0"

__all__ = [
    "GAMMA_EPS",
    "GammaInterval",
    "clamp_gamma",
    "gamma_ci",
    "inv_logit",
    "logit",
    "round_half_away",
    "table1",
    "CompletedDataset",
    "IncompleteBivariate",
    "PosteriorDraw",
    "analyze_mean",
    "fit_and_draw",
    "impute_m",
    "impute_once",
    "EmpiricalCv",
    "ExperimentConfig",
    "FieldSummary",
    "TwoStageRuns",
    "TwoStageSummary",
    "calibrate_missing_fraction",
    "derive_seed",
    "empirical_cv",
    "empirical_cv_of",
    "gen_incomplete",
    "pool_fixed_dataset",
    "pool_replicates",
    "required_m",
    "run_two_stage",
    "run_two_stage_experiment",
    "simulated_required_m",
    "stream",
    "summarize_two_stage",
    "CurveRow",
    "DEFAULT_M_MAX",
    "Recommendation",
    "ReplicabilityTarget",
    "curve_data",
    "df_cv_curve",
    "df_for_cv",
    "m_for_se_cv",
    "recommend",
    "ImputationResult",
    "ImputationResults",
    "PooledAnalysis",
    "PooledReplicates",
    "pool",
    "read_results_csv",
    "normal_quantile",
    "t_quantile",
    "__version__",
]
