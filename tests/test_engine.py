"""The sufficient-statistic engine behind every simulated pooling.

The engine draws the (estimate, within variance) pairs of m imputations
without building them: ``imputer.draw_mean_variates`` (bound as
``montecarlo.impute_m``) draws their variates, and ``mean_analyses`` turns
them into analyses.
These tests hold it to the reference path, ``impute_m`` + ``analyze_mean``:
its closed form exactly, its variates in distribution, and its call pattern.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from miplan import (
    CompletedDataset,
    ExperimentConfig,
    IncompleteBivariate,
    ReplicabilityTarget,
    analyze_mean,
    fit_and_draw,
    gen_incomplete,
    impute_m,
    impute_once,
    pool,
    pool_replicates,
    run_two_stage_experiment,
    stream,
)
from miplan import montecarlo
from miplan.imputer import draw_mean_variates, mean_analyses
from miplan.montecarlo import TAG_DATA, TAG_REP


def shifted(data: IncompleteBivariate, dx: float, dy: float) -> IncompleteBivariate:
    return IncompleteBivariate(data.x + dx, data.y + dy)


def with_missing_rows(n: int, rows: list[int], x_at_rows: float | None = None) -> IncompleteBivariate:
    """(x, y) with correlation .5 and y missing at the given rows, where x is
    set to x_at_rows when given."""
    rng = stream(5, TAG_DATA)
    x = rng.standard_normal(n)
    y = 0.5 * x + rng.standard_normal(n)
    if x_at_rows is not None:
        x[rows] = x_at_rows
    y[rows] = np.nan
    return IncompleteBivariate(x, y)


DATASETS = {
    "regular": lambda: shifted(gen_incomplete(300, 0.5, 0.4, stream(3, TAG_DATA)), 3.0, 100.0),
    "large_mean": lambda: shifted(gen_incomplete(200, 0.8, 0.5, stream(4, TAG_DATA)), -2.0, 1e6),
    # k = 1: the fill normals span one dimension
    "one_missing": lambda: with_missing_rows(30, [4]),
    # k = 3 missing rows at one x, so Sdd = 0
    "equal_missing_x": lambda: with_missing_rows(40, [0, 1, 2], x_at_rows=0.7),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_closed_form_matches_the_completed_data(name):
    """Given the same posterior variates and fill normals, the closed form
    gives analyze_mean(impute_once(...)) up to rounding."""
    data = DATASETS[name]()
    s = data.mean_stats
    mask = data.missing_mask
    d = data.x[mask] - np.mean(data.x[mask])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        reference = analyze_mean(impute_once(data, fit_and_draw(data, rng), rng))
        # the same variates, in the order fit_and_draw and impute_once draw them
        rng = np.random.default_rng(seed)
        chi2 = rng.chisquare(s.n_obs - 2)
        z0, z1 = rng.standard_normal(2)
        z = rng.standard_normal(s.k)
        estimate, within = mean_analyses(
            s, *(np.array([v]) for v in (chi2, z0, z1, z.sum(), d @ z, z @ z))
        )
        assert estimate[0] == pytest.approx(reference.estimate, rel=1e-12)
        assert within[0] == pytest.approx(reference.within_variance, rel=1e-9)


def test_no_missing_values_give_the_observed_analysis():
    d = gen_incomplete(50, 0.3, 0.2, stream(8, TAG_DATA))
    obs = ~d.missing_mask
    complete = IncompleteBivariate(d.x[obs], d.y[obs])
    observed = analyze_mean(CompletedDataset(complete.x, complete.y, np.zeros(complete.n, bool)))
    variates = draw_mean_variates(complete, 4, np.random.default_rng(0))
    estimates, withins = mean_analyses(complete.mean_stats, *variates)
    assert np.all(estimates == observed.estimate)
    assert withins == pytest.approx(np.full(4, observed.within_variance), rel=1e-12)


def test_errors_match_the_reference_path():
    line = IncompleteBivariate(np.ones(6), [1.0, 2.0, 3.0, 4.0, None, None])
    with pytest.raises(ValueError, match="singular design"):
        draw_mean_variates(line, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="insufficient imputations"):
        draw_mean_variates(DATASETS["regular"](), 1, np.random.default_rng(0))


def reference_replicates(data, m, reps, seed):
    """pool_replicates on the reference path: every completed dataset built."""
    return [
        pool([analyze_mean(c) for c in impute_m(data, m, stream(seed, TAG_REP, r))])
        for r in range(reps)
    ]


# Each KS comparison rejects at ALPHA; 15 comparisons keep the family-wise
# false-alarm rate under 1.5%.
ALPHA = 0.001


@pytest.mark.parametrize("name, m, reps", [
    ("regular", 5, 1000),
    ("regular", 20, 2000),
    ("regular", 200, 200),
    ("one_missing", 5, 1000),
    ("equal_missing_x", 5, 1000),
])
def test_engine_matches_reference_in_distribution(name, m, reps):
    """Two-sample KS on se, gamma_hat and theta: engine poolings against
    reference poolings of the same dataset, on independent seeds.

    Power against a 5% shift in CV(SE) (the se values spread 5% wider
    about their mean), worked out before this test was run, by simulating
    the KS test on resamples of a 20,000-pooling engine sample of the
    criterion-5 dataset (1,000 trials per cell): at ALPHA it rejects in
    0.2% of trials at (m, reps) = (5, 1000), 0.2% at (20, 2000) and 0% at
    (200, 200).  So this test cannot see a 5% CV(SE) shift.  It sees a
    20% shift 30% and 47% of the time at (5, 1000) and (20, 2000), and a
    30% shift 93% and 99% of the time; at (200, 200), 1% even for 30%.
    It guards the variates (chi-square degrees of freedom, which normals
    enter where); the closed form itself is held exactly by
    test_closed_form_matches_the_completed_data.
    """
    data = DATASETS[name]()
    engine = pool_replicates(data, m, reps, seed=101)
    reference = reference_replicates(data, m, reps, seed=202)
    for field in ("se", "gamma_hat", "theta"):
        a = getattr(engine, field)
        b = np.array([getattr(p, field) for p in reference])
        p_value = stats.ks_2samp(a, b).pvalue
        assert p_value > ALPHA, f"{field}: KS p = {p_value:.2g}"


def test_engine_called_once_per_pooling_with_its_m(monkeypatch):
    """The benchmark counts imputations by wrapping montecarlo.impute_m, so
    each pooling calls it once, with that pooling's m, looked up per call,
    on its replication's stream."""
    calls = []

    def counting(data, m, rng):
        calls.append((m, rng))
        return draw_mean_variates(data, m, rng)

    monkeypatch.setattr(montecarlo, "impute_m", counting)
    config = ExperimentConfig(
        n=200, rho=0.0, missing_fraction=0.35, pilot_m=5,
        target=ReplicabilityTarget("cv_of_se", 0.2), reps=12, seed=7,
    )
    records = run_two_stage_experiment(config)
    sufficient = [r.recommendation.pilot_sufficient for r in records]
    assert any(sufficient) and not all(sufficient)
    expected = []
    for r in records:
        expected += [r.pilot.m] if r.recommendation.pilot_sufficient else [r.pilot.m, r.final.m]
    assert [m for m, _ in calls] == expected
    assert len({id(rng) for _, rng in calls}) == config.reps

    calls.clear()
    data = gen_incomplete(200, 0.0, 0.35, stream(3, TAG_DATA))
    pool_replicates(data, 7, 12, seed=3)
    assert [m for m, _ in calls] == [7] * 12
    assert len({id(rng) for _, rng in calls}) == 12

