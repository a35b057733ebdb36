"""The sufficient-statistic engine behind every simulated pooling.

The engine draws the (estimate, within variance) pairs of m imputations
without building them: ``imputer.draw_mean_variates`` (bound as
``montecarlo.impute_m``) draws their variates, and ``mean_analyses`` turns
them into analyses.
These tests hold it to the reference path, ``impute_m`` + ``analyze_mean``:
its closed form exactly, its variates in distribution, and its call pattern;
and its in-place kernel to ``reference.mean_analyses`` bit for bit.
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
    gen_incomplete,
    impute_m,
    pool,
    pool_replicates,
    run_two_stage,
    run_two_stage_experiment,
    stream,
)
from miplan import montecarlo
from miplan.imputer import draw_mean_variates, fit_and_draw, impute_once, mean_analyses
from miplan.montecarlo import BLOCK_IMPUTATIONS, TAG_DATA, TAG_REP, _pool_once

import reference


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
        # the same variates, in the order fit_and_draw and impute_once draw
        # them, mapped to what draw_mean_variates draws
        rng = np.random.default_rng(seed)
        chi2 = rng.chisquare(s.n_obs - 2)
        z0, z1 = rng.standard_normal(2)
        z = rng.standard_normal(s.k)
        e0 = z.sum() / np.sqrt(s.k)
        e1 = d @ z / np.sqrt(s.sdd) if s.sdd > 0 else 0.0
        u = np.sqrt(s.k) * s.shift * z1 / np.sqrt(s.sxx) + np.sqrt(s.k / s.n_obs) * z0 + e0
        v = np.sqrt(s.sdd) * z1 / np.sqrt(s.sxx) + e1
        rest = z @ z - e0 * e0 - e1 * e1
        estimate, within = mean_analyses(s, *(np.array([x]) for x in (chi2, u, v, rest)))
        assert estimate[0] == pytest.approx(reference.estimate, rel=1e-12)
        assert within[0] == pytest.approx(reference.within_variance, rel=1e-9)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_mean_stats_match_a_direct_fit(name):
    """The one complete-case fit, which both paths read, against np.polyfit
    and plain sums."""
    data = DATASETS[name]()
    s = data.mean_stats
    obs = ~data.missing_mask
    xo, yo, xm = data.x[obs], data.y[obs], data.x[~obs]
    slope, intercept = np.polyfit(xo, yo, 1)
    residuals = yo - (intercept + slope * xo)
    assert (s.n, s.n_obs, s.k) == (data.n, xo.size, xm.size)
    assert (s.x_mean, s.y_mean) == pytest.approx((xo.mean(), yo.mean()), rel=1e-12)
    assert s.sxx == pytest.approx(np.sum((xo - xo.mean()) ** 2), rel=1e-12)
    assert s.syy == pytest.approx(np.sum((yo - yo.mean()) ** 2), rel=1e-12)
    assert s.slope == pytest.approx(slope, rel=1e-9)
    assert s.rss == pytest.approx(np.sum(residuals**2), rel=1e-9)
    assert s.shift == pytest.approx(xm.mean() - xo.mean(), rel=1e-9)
    assert s.sdd == pytest.approx(np.sum((xm - xm.mean()) ** 2), rel=1e-12, abs=1e-24)


def test_mean_stats_reject_a_constant_x():
    line = IncompleteBivariate(np.full(6, 2.5), [1.0, 2.0, 3.0, 4.0, None, None])
    with pytest.raises(ValueError, match="^singular design: auxiliary x is constant"):
        line.mean_stats


def test_no_missing_values_give_the_observed_analysis():
    d = gen_incomplete(50, 0.3, 0.2, stream(8, TAG_DATA))
    obs = ~d.missing_mask
    complete = IncompleteBivariate(d.x[obs], d.y[obs])
    observed = analyze_mean(CompletedDataset(complete.x, complete.y, np.zeros(complete.n, bool)))
    variates = draw_mean_variates(complete, 4, np.random.default_rng(0))
    estimates, withins = mean_analyses(complete.mean_stats, *variates)
    assert np.all(estimates == observed.estimate)
    assert withins == pytest.approx(np.full(4, observed.within_variance), rel=1e-12)


@pytest.mark.parametrize("name", sorted(DATASETS) + ["no_missing"])
def test_in_place_kernel_matches_the_expression_form(name):
    """mean_analyses reuses its temporaries in place; reference.mean_analyses
    makes a new array per operator.  Same operations, so the same bits, on
    one pooling's variates and on a block's (reps, m) view of them."""
    if name == "no_missing":
        d = gen_incomplete(50, 0.3, 0.2, stream(8, TAG_DATA))
        data = IncompleteBivariate(d.x[~d.missing_mask], d.y[~d.missing_mask])
    else:
        data = DATASETS[name]()
    s = data.mean_stats
    for seed in range(5):
        variates = draw_mean_variates(data, 6 * 35, np.random.default_rng(seed))
        for shape in [(6 * 35,), (6, 35)]:
            args = [v.reshape(shape) for v in variates]
            for fast, slow in zip(mean_analyses(s, *args), reference.mean_analyses(s, *args)):
                assert fast.shape == slow.shape == shape
                assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_variates_have_their_covariance(name):
    """Over 10^6 draws in 100 batches, the mean and covariance of (u, v)
    are 0 and the Sigma that draw_mean_variates documents, and rest has
    mean max(k - 2, 0), each within 4 batch-means SEs.  For k = 1, v and
    rest are 0; for k = 2, rest is 0; with every missing x equal (Sdd = 0),
    u and v are uncorrelated and v has unit variance."""
    data = DATASETS[name]()
    s = data.mean_stats
    sigma_uu = 1 + s.k / s.n_obs + s.k * s.shift**2 / s.sxx
    sigma_uv = np.sqrt(s.k * s.sdd) * s.shift / s.sxx
    sigma_vv = 1 + s.sdd / s.sxx
    if name == "equal_missing_x":
        assert (sigma_uv, sigma_vv) == pytest.approx((0.0, 1.0), abs=1e-12)
    batches = []
    for batch in range(100):
        u, v, rest = draw_mean_variates(data, 10_000, stream(707, TAG_REP, batch))[1:]
        if s.k == 1:
            assert not v.any()
        if s.k <= 2:
            assert not rest.any()
        cov = np.cov(u, v)
        batches.append([u.mean(), v.mean(), cov[0, 0], cov[0, 1], cov[1, 1], rest.mean()])
    batches = np.array(batches)
    means = batches.mean(axis=0)
    ses = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    targets = [0.0, 0.0, sigma_uu, sigma_uv, sigma_vv, max(s.k - 2, 0)]
    if s.k == 1:  # v is 0, not a normal of variance 1
        targets[3:5] = [0.0, 0.0]
    for label, mean, se, target in zip(["E u", "E v", "Var u", "Cov uv", "Var v", "E rest"],
                                       means, ses, targets):
        assert abs(mean - target) <= 4 * se, f"{label}: {mean:.6g} vs {target:.6g} (SE {se:.2g})"


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_withins_are_not_below_the_observed_part(name):
    """Each within variance is (Syy + terms that are not negative) /
    ((n - 1) n), so over a (200, 169) block it is finite and at least
    Syy / ((n - 1) n) >= 0, on large_mean's y shifted by 10^6 too."""
    data = DATASETS[name]()
    s = data.mean_stats
    variates = draw_mean_variates(data, 200 * 169, stream(808, TAG_REP))
    estimates, withins = mean_analyses(s, *(v.reshape(200, 169) for v in variates))
    assert np.all(np.isfinite(estimates)) and np.all(np.isfinite(withins))
    assert np.all(withins >= s.syy / ((s.n - 1) * s.n)) and s.syy > 0


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


# Each KS comparison rejects at ALPHA; 30 comparisons keep the family-wise
# false-alarm rate under 3%.
ALPHA = 0.001


def assert_same_distribution(columns, poolings):
    """Two-sample KS at ALPHA on se, gamma_hat and theta: a PooledReplicates
    against a list of single poolings."""
    for field in ("se", "gamma_hat", "theta"):
        a = getattr(columns, field)
        b = np.array([getattr(p, field) for p in poolings])
        p_value = stats.ks_2samp(a, b).pvalue
        assert p_value > ALPHA, f"{field}: KS p = {p_value:.2g}"


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
    assert_same_distribution(engine, reference)


@pytest.mark.parametrize("m, reps", [(5, 1000), (20, 2000), (1000, 150)])
def test_block_draw_matches_per_replication_draw_in_distribution(m, reps):
    """Two-sample KS on se, gamma_hat and theta: pool_replicates, which draws
    a block of replications from one stream, against one _pool_once per
    replication on its own stream, on independent seeds.

    (1000, 150) spans three blocks with a partial tail.  Like the test
    above, this cannot see a 5% CV(SE) shift.  It guards the block layout
    (reshape order, block keys) against errors that change a row's
    distribution, such as rows or columns of a block that share draws.  A
    permuted reshape or a key reused across blocks leaves every row's
    distribution as it is; TestPoolReplicates in test_montecarlo.py pins
    the exact layout.
    """
    data = DATASETS["regular"]()
    block = pool_replicates(data, m, reps, seed=303)
    single = [_pool_once(data, m, stream(404, TAG_REP, r), 0.95) for r in range(reps)]
    assert_same_distribution(block, single)


@pytest.mark.parametrize("pilot_m, cv", [(5, 0.04), (20, 0.075)])
def test_block_two_stage_matches_per_replication_two_stage_in_distribution(pilot_m, cv):
    """Two-sample KS on final_se, final_gamma_hat and m_required:
    run_two_stage_experiment, which draws pilots and finals a block at a
    time, against run_two_stage once per replication on its own stream, on
    independent seeds.

    At pilot_m 5 the finals span two chunks; at pilot_m 20 about half the
    pilots are sufficient and double as the final.  m_required is discrete,
    and ties make the KS test conservative.  Like the tests above, this
    guards the block layout against errors that change a replication's
    distribution (a final drawn from its pilot's variates, or finals that
    share draws); TestTwoStage in test_montecarlo.py pins the exact layout.
    """
    data = DATASETS["regular"]()
    config = ExperimentConfig(
        n=data.n, rho=0.5, missing_fraction=0.4, pilot_m=pilot_m,
        target=ReplicabilityTarget("cv_of_se", cv), reps=1000, seed=505,
    )
    block = run_two_stage_experiment(config, data=data)
    _, recs, finals = zip(*(run_two_stage(config, stream(606, TAG_REP, r), data)
                            for r in range(config.reps)))
    for name, block_column, single_column in [
        ("final_se", block.final_se, [final.se for final in finals]),
        ("final_gamma_hat", block.final_gamma_hat, [final.gamma_hat for final in finals]),
        ("m_required", block.recommendations.m_required, [rec.m_required for rec in recs]),
    ]:
        p_value = stats.ks_2samp(block_column, single_column).pvalue
        assert p_value > ALPHA, f"{name}: KS p = {p_value:.2g}"


def test_engine_called_once_per_pooling_with_its_m(monkeypatch):
    """The benchmark counts imputations by wrapping montecarlo.impute_m, so
    every call draws exactly the imputations that get pooled, looked up per
    call.  pool_replicates calls it once per block of replications, each
    block on its own stream, with at most max(BLOCK_IMPUTATIONS, m)
    imputations.  The two-stage experiment calls it once per pilot block,
    as pool_replicates does at pilot_m, then once per chunk of finals, each
    chunk on its own stream, holding whole replications and at most
    max(BLOCK_IMPUTATIONS, its largest m) imputations; with every pilot
    sufficient it draws no final."""
    calls = []

    def counting(data, m, rng):
        calls.append((m, rng))
        return draw_mean_variates(data, m, rng)

    monkeypatch.setattr(montecarlo, "impute_m", counting)
    # some pilots sufficient and one final chunk; strict targets spread over
    # several chunks, the last with finals above 2^16 that fill a chunk
    # alone; pilots of 40,000, one a block, all of them sufficient
    for pilot_m, cv, reps, m_max, pilot_sizes, sufficient, final_calls in [
        (5, 0.2, 12, 10_000, [60], 4, 1),
        (5, 0.006, 12, 10_000, [60], 0, 2),
        (5, 0.0015, 6, 200_000, [30], 0, 6),
        (40_000, 0.05, 3, 10_000, [40_000] * 3, 3, 0),
    ]:
        config = ExperimentConfig(
            n=200, rho=0.0, missing_fraction=0.35, pilot_m=pilot_m,
            target=ReplicabilityTarget("cv_of_se", cv), reps=reps, seed=7, m_max=m_max,
        )
        calls.clear()
        runs = run_two_stage_experiment(config)
        sizes = [size for size, _ in calls]
        assert sizes[:len(pilot_sizes)] == pilot_sizes
        pilot_sufficient = runs.recommendations.pilot_sufficient
        finals = runs.final_m[~pilot_sufficient].tolist()
        assert sum(sizes) == reps * pilot_m + sum(finals)
        assert len({id(rng) for _, rng in calls}) == len(calls)
        # each chunk is a run of whole replications' finals, in rep order
        for size in sizes[len(pilot_sizes):]:
            chunk = []
            while sum(chunk) < size:
                chunk.append(finals.pop(0))
            assert sum(chunk) == size and size <= max(BLOCK_IMPUTATIONS, max(chunk))
        assert finals == []
        assert pilot_sufficient.sum() == sufficient
        assert len(sizes) == len(pilot_sizes) + final_calls
        # only the third case draws a chunk above 2^16
        assert (max(sizes) > BLOCK_IMPUTATIONS) == (m_max > BLOCK_IMPUTATIONS)

    data = gen_incomplete(200, 0.0, 0.35, stream(3, TAG_DATA))
    # one block; three blocks with a partial tail; m > 2^16, one replication a block
    for m, reps, sizes in [(7, 12, [84]), (1000, 150, [65000, 65000, 20000]),
                           (70000, 3, [70000] * 3)]:
        calls.clear()
        pooled = pool_replicates(data, m, reps, seed=3)
        assert len(pooled.se) == reps
        assert [size for size, _ in calls] == sizes
        assert all(size % m == 0 and size <= max(BLOCK_IMPUTATIONS, m) for size in sizes)
        assert sum(sizes) == reps * m
        assert len({id(rng) for _, rng in calls}) == len(sizes)
