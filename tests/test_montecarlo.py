"""Experiment harness: determinism and MC properties."""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest

import miplan.montecarlo as montecarlo
import miplan.planning as planning
import miplan.pooling as pooling
from miplan import (
    ExperimentConfig,
    FieldSummary,
    ReplicabilityTarget,
    TwoStageRuns,
    calibrate_missing_fraction,
    derive_seed,
    empirical_cv,
    gen_incomplete,
    pool_fixed_dataset,
    pool_replicates,
    recommend,
    required_m,
    run_two_stage,
    run_two_stage_experiment,
    simulated_required_m,
    stream,
    summarize_two_stage,
)
import miplan.fmi as fmi
from miplan.imputer import draw_mean_variates, mean_analyses
from miplan.montecarlo import (
    BLOCK_IMPUTATIONS,
    TAG_DATA,
    TAG_FINAL,
    TAG_PROBE,
    TAG_REP,
    calibrate_gamma,
)
from miplan.planning import (
    DEFAULT_M_MAX,
    RecommendationColumns,
    m_for_se_cv,
    recommend_replicates,
)
from miplan.pooling import PooledReplicates, pool_arrays, pool_rows
from miplan.quantiles import t_quantile

import reference
from conftest import make_pilot_results


def small_config(**overrides):
    base = dict(
        n=400,
        rho=0.0,
        missing_fraction=0.5,
        pilot_m=5,
        target=ReplicabilityTarget("cv_of_se", 0.2),
        reps=10,
        seed=1234,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_data(config):
    return gen_incomplete(config.n, config.rho, config.missing_fraction, stream(config.seed, TAG_DATA))


class TestStreams:
    def test_deterministic(self):
        assert stream(7, 1, 3).random() == stream(7, 1, 3).random()
        assert derive_seed(7, 2, 5) == derive_seed(7, 2, 5)

    def test_distinct_keys_distinct_streams(self):
        a = stream(7, 1, 0).random(4)
        b = stream(7, 1, 1).random(4)
        assert not np.array_equal(a, b)
        assert derive_seed(7, 0) != derive_seed(7, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        message = f"domain error: seed must be an unsigned 64-bit integer, got {seed}"
        for make in (stream, derive_seed):
            with pytest.raises(ValueError) as exc:
                make(seed, 1)
            assert str(exc.value) == message


class TestGenIncomplete:
    def test_reproducible(self):
        a = gen_incomplete(300, 0.4, 0.3, stream(5, TAG_DATA))
        b = gen_incomplete(300, 0.4, 0.3, stream(5, TAG_DATA))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y, equal_nan=True)

    def test_missing_count_binomial(self):
        d = gen_incomplete(10_000, 0.0, 0.5, stream(6, TAG_DATA))
        observed = d.n_obs
        assert abs(observed - 5000) <= 3 * math.sqrt(10_000 * 0.25)

    def test_uncorrelated_when_rho_zero(self):
        d = gen_incomplete(10_000, 0.0, 0.2, stream(7, TAG_DATA))
        obs = ~d.missing_mask
        corr = np.corrcoef(d.x[obs], d.y[obs])[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(d.n_obs)

    def test_correlation_tracks_rho(self):
        d = gen_incomplete(20_000, 0.8, 0.2, stream(8, TAG_DATA))
        obs = ~d.missing_mask
        corr = np.corrcoef(d.x[obs], d.y[obs])[0, 1]
        assert corr == pytest.approx(0.8, abs=0.02)

    def test_domain_errors(self):
        rng = stream(1, TAG_DATA)
        with pytest.raises(ValueError, match="domain error"):
            gen_incomplete(100, 1.0, 0.5, rng)
        with pytest.raises(ValueError, match="domain error"):
            gen_incomplete(100, 0.0, 0.0, rng)
        with pytest.raises(ValueError, match="domain error"):
            gen_incomplete(0, 0.0, 0.5, rng)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="domain error"):
            small_config(rho=-0.1)
        with pytest.raises(ValueError, match="domain error"):
            small_config(missing_fraction=1.0)
        with pytest.raises(ValueError, match="insufficient imputations"):
            small_config(pilot_m=1)
        with pytest.raises(ValueError, match="domain error"):
            small_config(reps=0)
        with pytest.raises(ValueError, match="domain error"):
            small_config(n=6, missing_fraction=0.9)
        with pytest.raises(ValueError, match="domain error: m_max must be >= 2, got 1"):
            small_config(m_max=1)
        with pytest.raises(ValueError, match="domain error"):
            small_config(seed=-1)


def bits(column) -> bytes:
    return np.asarray(column).tobytes()


# Each pooling's fields but m, which a pilot holds as one int.
POOLED_COLUMNS = [f.name for f in fields(PooledReplicates) if f.name != "m"]


def assert_same_runs(a: TwoStageRuns, b: TwoStageRuns) -> None:
    for f in fields(PooledReplicates):
        assert bits(getattr(a.pilots, f.name)) == bits(getattr(b.pilots, f.name)), f.name
    for f in fields(RecommendationColumns):
        column_a, column_b = getattr(a.recommendations, f.name), getattr(b.recommendations, f.name)
        assert column_a.dtype == column_b.dtype and bits(column_a) == bits(column_b), f.name
    for f in fields(PooledReplicates):
        assert bits(getattr(a.finals, f.name)) == bits(getattr(b.finals, f.name)), f.name


def assert_final_is_pilot(runs: TwoStageRuns, r: int) -> None:
    """Replication r's final entries are its pilot entries, bit for bit."""
    assert runs.finals.m[r] == runs.pilots.m
    for name in POOLED_COLUMNS:
        final, pilot = getattr(runs.finals, name)[r], getattr(runs.pilots, name)[r]
        assert bits(final) == bits(pilot), (r, name)


class TestTwoStage:
    def test_fixed_seed_identical_record(self):
        config = small_config()
        data = small_data(config)
        a = run_two_stage(config, stream(config.seed, 1, 0), data)
        b = run_two_stage(config, stream(config.seed, 1, 0), data)
        assert a == b

    def test_loose_target_reuses_pilot(self):
        config = small_config(target=ReplicabilityTarget("cv_of_se", 0.9))
        pilot, rec, final = run_two_stage(config, stream(config.seed, 1, 0), small_data(config))
        assert rec.pilot_sufficient
        assert final is pilot
        assert final.m == config.pilot_m
        runs = run_two_stage_experiment(config)
        assert runs.recommendations.pilot_sufficient.all()
        for r in range(config.reps):
            assert_final_is_pilot(runs, r)

    def test_final_m_invariant(self):
        config = small_config(reps=6, target=ReplicabilityTarget("cv_of_se", 0.12))
        runs = run_two_stage_experiment(config)
        expected = [max(config.pilot_m, m) for m in runs.recommendations.m_required.tolist()]
        assert runs.finals.m.tolist() == expected

    def test_experiment_reproducible(self):
        config = small_config()
        assert_same_runs(run_two_stage_experiment(config), run_two_stage_experiment(config))

    @pytest.mark.parametrize("cv, sufficient, chunks", [(0.2, True, 1), (0.005, False, 2)])
    def test_blocks_match_hand_drawn_stages(self, cv, sufficient, chunks):
        """The pilots are pool_replicates(data, pilot_m, reps, seed), bit for
        bit.  The replications whose pilot falls short take, in rep order,
        consecutive runs of m_required variates from chunk c's one draw on
        stream(seed, TAG_FINAL, c); a chunk closes before the replication
        that would take it past BLOCK_IMPUTATIONS."""
        config = small_config(target=ReplicabilityTarget("cv_of_se", cv), reps=12, level=0.9)
        data = small_data(config)
        runs = run_two_stage_experiment(config)
        pilots = pool_replicates(data, config.pilot_m, config.reps, config.seed)
        for f in fields(PooledReplicates):
            assert repr(getattr(runs.pilots, f.name)) == repr(getattr(pilots, f.name)), f.name
        # the pilot rows by hand: one block, replication r in row r
        variates = draw_mean_variates(data, config.reps * config.pilot_m,
                                      stream(config.seed, TAG_REP, 0, config.pilot_m))
        rows = mean_analyses(data.mean_stats,
                             *(v.reshape(config.reps, config.pilot_m) for v in variates))
        recs = [recommend(pool_arrays(e, w, config.level), config.target, config.m_max)
                for e, w in zip(*rows)]
        for f in fields(RecommendationColumns):
            column = getattr(runs.recommendations, f.name).tolist()
            assert [repr(v) for v in column] == [repr(getattr(rec, f.name)) for rec in recs], f.name
        assert any(rec.pilot_sufficient for rec in recs) == sufficient
        short = [r for r, rec in enumerate(recs) if not rec.pilot_sufficient]
        assert short
        layout = [[]]
        for r in short:
            if sum(runs.finals.m[layout[-1]]) + runs.finals.m[r] > BLOCK_IMPUTATIONS:
                layout.append([])
            layout[-1].append(r)
        assert len(layout) == chunks
        for c, chunk in enumerate(layout):
            variates = draw_mean_variates(
                data, int(sum(runs.finals.m[chunk])), stream(config.seed, TAG_FINAL, c))
            end = 0
            for r in chunk:
                start, end = end, end + recs[r].m_required
                segment = (v[start:end] for v in variates)
                final = pool_arrays(*mean_analyses(data.mean_stats, *segment))
                assert runs.finals.m[r] == final.m
                for name in POOLED_COLUMNS:
                    got = getattr(runs.finals, name)[r].item()
                    assert repr(got) == repr(getattr(final, name)), (r, name)
        for r, rec in enumerate(recs):
            if rec.pilot_sufficient:
                assert_final_is_pilot(runs, r)

    def test_one_gamma_interval_per_pilot_and_none_per_final(self, monkeypatch):
        """Each pilot's recommendation reads the upper bound of its gamma
        interval, so each pilot gets one inverse logit, and no lower bound;
        no reader of a final uses an interval, so a final pooling builds
        none, and no reader of either uses a theta interval, so none is
        built: nothing calls gamma_ci or t_quantile.  Nothing is planned or
        pooled one replication at a time either: the pilots' one block is
        the only pool_rows call, and no Recommendation is built."""
        bounds, calls, t_calls, pooled, recs = [], [], [], [], []
        inv_logit, gamma_ci = fmi.inv_logit, fmi.gamma_ci
        pool_rows, recommendation = montecarlo.pool_rows, planning.Recommendation

        def counting_bound(x):
            bounds.append(x)
            return inv_logit(x)

        def counting(gamma_hat, m, level=0.95):
            calls.append(m)
            return gamma_ci(gamma_hat, m, level)

        def counting_t(p, df):
            t_calls.append(df)
            return t_quantile(p, df)

        monkeypatch.setattr(fmi, "inv_logit", counting_bound)
        monkeypatch.setattr(fmi, "gamma_ci", counting)
        monkeypatch.setattr(pooling, "gamma_ci", counting)
        monkeypatch.setattr(pooling, "t_quantile", counting_t)
        monkeypatch.setattr(montecarlo, "pool_rows", lambda *a: pooled.append(a) or pool_rows(*a))
        monkeypatch.setattr(planning, "Recommendation",
                            lambda **k: recs.append(k) or recommendation(**k))
        config = small_config(target=ReplicabilityTarget("cv_of_se", 0.05), reps=12)
        runs = run_two_stage_experiment(config)
        assert not runs.recommendations.pilot_sufficient.any()
        assert len(bounds) == config.reps
        assert calls == []
        assert t_calls == []
        assert len(pooled) == 1 and pooled[0][0].shape == (config.reps, config.pilot_m)
        assert recs == []

    def test_max_m_below_two_is_refused_before_any_draw(self, monkeypatch):
        draws = []
        draw = montecarlo.impute_m
        monkeypatch.setattr(montecarlo, "impute_m", lambda *a: draws.append(a[1]) or draw(*a))
        with pytest.raises(ValueError, match=r"^domain error: m_max must be >= 2, got 1$"):
            run_two_stage_experiment(small_config(m_max=1))
        assert draws == []


def pilot_runs(*ses: float, gamma: float = 0.3) -> TwoStageRuns:
    """Two-stage runs whose pilots pool make_pilot_results(5, gamma, se), one
    per se, each sufficient for its loose target and so its own final."""
    rows = [make_pilot_results(5, gamma, se) for se in ses]
    estimates = np.array([[r.estimate for r in row] for row in rows])
    withins = np.array([[r.within_variance for r in row] for row in rows])
    pilots = pool_rows(estimates, withins)
    recs = recommend_replicates(pilots, ReplicabilityTarget("cv_of_se", 0.5))
    assert recs.pilot_sufficient.all()
    return TwoStageRuns(pilots, recs, replace(pilots, m=np.full(len(ses), pilots.m)))


SUMMARY_COLUMNS = {  # TwoStageSummary's field: the TwoStageRuns stage and column it summarises
    "m_required": ("recommendations", "m_required"),
    "final_m": ("finals", "m"),
    "final_estimate": ("finals", "theta"),
    "final_se": ("finals", "se"),
    "final_df_hat": ("finals", "df_hat"),
    "final_gamma_hat": ("finals", "gamma_hat"),
}


def column_summary(values: np.ndarray) -> FieldSummary:
    """The summary of one column alone, the reference for FieldSummary.each:
    numpy's mean, SD (ddof 1), min and max of the column, except that a
    constant column gives exactly its value and SD 0."""
    first = values[0]
    if (values == first).all():
        mean, sd = float(first), 0.0
    else:
        mean, sd = float(np.mean(values)), float(np.std(values, ddof=1))
    return FieldSummary(mean, sd, float(np.min(values)), float(np.max(values)))


def column_runs(m_required: np.ndarray, **finals: np.ndarray) -> TwoStageRuns:
    """Two-stage runs that hold the given summarised columns; the summary reads no other."""
    recs = RecommendationColumns(*([None] * 2), m_required, *([None] * 2))
    return TwoStageRuns(None, recs, PooledReplicates(v_total=None, **finals))


class TestSummaries:
    def test_identical_records_have_zero_sd(self):
        summary = summarize_two_stage(pilot_runs(0.02, 0.02))
        assert summary.final_se.sd == 0.0
        assert summary.achieved_sd_of_se == 0.0
        assert summary.final_m.min == summary.final_m.max

    def test_two_record_sd_hand_value(self):
        summary = summarize_two_stage(pilot_runs(0.021, 0.023))
        assert summary.achieved_sd_of_se == pytest.approx(0.001414, abs=1e-6)
        assert summary.final_se.mean == pytest.approx(0.022, rel=1e-9)

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="insufficient replications"):
            summarize_two_stage(pilot_runs(0.02))

    @pytest.mark.parametrize("reps", [2, 7, 20, 9000, 20000])
    def test_block_summary_is_field_summary_of_each_column(self, reps):
        """Each row of the 2-d block summarises, bit for bit, as its column
        alone does in column_summary, and so does each(column)[0]: with
        constant columns, integer columns, and more replications than
        numpy's 8192-element buffer."""
        rng = np.random.default_rng(reps)
        m_required = rng.integers(2, 5000, reps)
        runs = column_runs(
            m_required=m_required,
            m=np.full(reps, 40),
            theta=16.642 + 0.01 * rng.standard_normal(reps),
            se=np.full(reps, 0.20533040718753454),
            df_hat=rng.lognormal(8.0, 2.0, reps),
            gamma_hat=rng.random(reps),
        )
        summary = summarize_two_stage(runs)
        for name, (stage, column) in SUMMARY_COLUMNS.items():
            source = getattr(runs, stage)
            expected = column_summary(getattr(source, column))
            assert repr(astuple(getattr(summary, name))) == repr(astuple(expected)), name
            assert repr(astuple(FieldSummary.each(getattr(source, column))[0])) == repr(
                astuple(expected)), name
        assert repr(summary.achieved_sd_of_se) == repr(summary.final_se.sd)
        assert summary.as_dict() == asdict(summary)
        assert list(summary.as_dict()) == [f.name for f in fields(summary)]

    def test_constant_column_is_exact(self):
        # chosen because numpy's mean of seven copies of this value came out
        # one ulp above it; the summary must not depend on that summation
        value = 0.20533040718753454
        column = np.full(7, value)
        assert FieldSummary.each(column)[0] == FieldSummary(mean=value, sd=0.0, min=value, max=value)

    @pytest.mark.parametrize("value, count", [(0.25, 1), (math.inf, 3), (-math.inf, 2)])
    def test_constant_column_without_an_sd_is_exact(self, value, count):
        """One value, or a run of infs, is a constant column too: exactly its
        value and SD 0, with no warning (pytest turns one into an error)."""
        column = np.full(count, value)
        assert FieldSummary.each(column)[0] == FieldSummary(mean=value, sd=0.0, min=value, max=value)


class TestEmpiricalCv:
    def test_rejects_few_reps(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(3, TAG_DATA))
        with pytest.raises(ValueError, match="insufficient replications"):
            empirical_cv(d, 5, 99, seed=3)

    def test_deterministic(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(3, TAG_DATA))
        assert empirical_cv(d, 5, 120, seed=3) == empirical_cv(d, 5, 120, seed=3)

    @pytest.mark.parametrize("reps", [120, 9000])
    def test_cvs_are_those_of_each_column_alone(self, reps):
        """empirical_cv_of summarises v_total, se and gamma_hat in one block:
        each CV is, bit for bit, column_summary's SD over mean of its column,
        and mean_gamma_hat is column_summary's mean of gamma_hat."""
        pooled = pool_replicates(gen_incomplete(300, 0.0, 0.5, stream(3, TAG_DATA)), 5, reps, 3)
        cv = montecarlo.empirical_cv_of(pooled)
        for got, column in ((cv.cv_v, pooled.v_total), (cv.cv_se, pooled.se)):
            expected = column_summary(column)
            assert repr(got) == repr(expected.sd / expected.mean)
        assert repr(cv.mean_gamma_hat) == repr(column_summary(pooled.gamma_hat).mean)

    def test_large_m_shrinks_cv(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(9, TAG_DATA))
        few = empirical_cv(d, 5, 100, seed=9)
        many = empirical_cv(d, 500, 100, seed=9)
        assert many.cv_v < 0.06
        assert many.cv_v < 0.25 * few.cv_v

    def test_more_reps_track_prediction_better(self):
        d = gen_incomplete(1000, 0.0, 0.5, stream(41, TAG_DATA))

        def rel_err(reps):
            r = empirical_cv(d, 20, reps, seed=41)
            predicted = r.mean_gamma_hat * math.sqrt(2.0 / (r.m - 1))
            return abs(r.cv_v - predicted) / predicted

        assert rel_err(2000) < rel_err(200)


@pytest.fixture
def probed(monkeypatch):
    """The m of each probe that required_m makes, in order."""
    ms = []
    real = montecarlo.empirical_cv
    monkeypatch.setattr(montecarlo, "empirical_cv",
                        lambda data, m, *rest: ms.append(m) or real(data, m, *rest))
    return ms


class TestRequiredM:
    def test_floor_when_target_loose(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(12, TAG_DATA))
        assert required_m(d, 0.9, m_hi=16, reps=100, seed=12) == 2

    def test_search_exhausted(self, probed):
        """A goal that no m up to the cap meets: the fit is cut to the cap,
        which, below 20, is probed alone."""
        d = gen_incomplete(300, 0.0, 0.5, stream(13, TAG_DATA))
        assert required_m(d, 0.011, m_hi=6, reps=100, seed=13) == 6
        assert probed == [6]

    def test_search_exhausted_when_m_hi_fails(self):
        """When the one probe, at m_hi, misses the goal on its TAG_PROBE
        stream, the fit lies above m_hi and the search answers m_hi."""
        d = gen_incomplete(300, 0.0, 0.5, stream(9200, TAG_DATA))
        assert empirical_cv(d, 14, 100, derive_seed(9200, TAG_PROBE, 14)).cv_se > 0.1
        assert required_m(d, 0.1, m_hi=14, reps=100, seed=9200) == 14

    @pytest.mark.parametrize("m_hi, expected", [
        (2, [2]), (19, [19]), (20, [20]), (39, [20]), (40, [20, 40]), (79, [20, 40]),
        (80, [20, 40, 80]), (DEFAULT_M_MAX, [20, 40, 80]),
    ])
    def test_probes_the_fixed_ms_up_to_the_cap(self, probed, m_hi, expected):
        """A search probes each of m = 20, 40, 80 at or below m_hi once, or
        m_hi alone when it is below 20, and its C is the mean of their
        CV * sqrt(m - 1)."""
        d = gen_incomplete(300, 0.0, 0.5, stream(15, TAG_DATA))
        m = required_m(d, 0.05, m_hi=m_hi, reps=100, seed=15)
        assert probed == expected
        c = np.mean([empirical_cv(d, k, 100, derive_seed(15, TAG_PROBE, k)).cv_se * math.sqrt(k - 1)
                     for k in expected])
        assert m == min(m_hi, max(2, math.ceil(1 + (c / 0.05) ** 2)))

    def test_simulated_search_reads_no_rule_bracket(self, probed):
        """simulated_required_m searches its dataset up to m_max alone: at
        gamma .5, cv .2 the rule's m is 5 and its old bracket 31, but the
        search still probes 20, 40 and 80."""
        gamma, cv, n, reps, seed = 0.5, 0.2, 300, 100, 16
        m = simulated_required_m(gamma, cv, n=n, reps=reps, seed=seed)
        assert probed == [20, 40, 80]
        d = gen_incomplete(n, 0.0, calibrate_missing_fraction(gamma), stream(seed, TAG_DATA))
        assert m == required_m(d, cv, m_hi=DEFAULT_M_MAX, reps=reps, seed=seed)

    def test_mean_answer_is_near_the_crossing(self):
        """Over 200 probe seeds on one dataset (n = 300, gamma = .5, cv .1,
        100 replications a probe, simulated_required_m's bracket), the mean
        answer is within 5% of the m at which the dataset's CV(SE) curve,
        pooled at 40,000 replications per m, crosses the goal."""
        gamma, cv, n, reps = 0.5, 0.1, 300, 100
        d = gen_incomplete(n, 0.0, calibrate_missing_fraction(gamma), stream(31415, TAG_DATA))
        rule = m_for_se_cv(gamma, cv)
        truth = reference.crossing_m(d, cv, rule, seed=31415)
        found = [required_m(d, cv, m_hi=3 * rule + 16, reps=reps, seed=seed)
                 for seed in range(61000, 61200)]
        assert abs(np.mean(found) / truth - 1) < 0.05, (np.mean(found), truth)

    @pytest.mark.parametrize("gamma, cv, n, seeds, bound", [
        # m* 50.27; over seeds 5000-5199 the answers had mean 49.85 (-.8%)
        # and SD 2.69, so 200 answers have an SE of .4%: 1% + 4 SEs.
        pytest.param(0.9, 0.1, 200, range(62000, 62200), 0.025, id="gamma.9-n200"),
        # m* 133.2, above the largest probe; over seeds 5000-5199 the mean
        # was 132.7 (-.4%) and the SD 7.37, so 100 answers have an SE of
        # .55%: .5% + 4 SEs.
        pytest.param(0.8, 0.05, 2000, range(63000, 63100), 0.03, id="gamma.8-past-the-probes"),
    ])
    def test_fit_tracks_the_crossing(self, gamma, cv, n, seeds, bound):
        """On probe seeds of its own, at 200 replications a probe, the mean
        answer is within a bound set from the answers' spread on other seeds
        of the crossing m, including where the fit extrapolates past m = 80."""
        d = gen_incomplete(n, 0.0, calibrate_missing_fraction(gamma), stream(31415, TAG_DATA))
        truth = reference.crossing_m(d, cv, m_for_se_cv(gamma, cv), seed=31415)
        found = [required_m(d, cv, reps=200, seed=seed) for seed in seeds]
        assert abs(np.mean(found) / truth - 1) < bound, (np.mean(found), truth)

    def test_domain_errors(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(14, TAG_DATA))
        with pytest.raises(ValueError, match="domain error"):
            required_m(d, 1.2, seed=14)
        with pytest.raises(ValueError, match="domain error"):
            required_m(d, 0.05, m_hi=1, seed=14)

    @pytest.mark.parametrize("cv_target, expected", [(0.5, 2), (0.05, 2)])
    def test_m_hi_of_two_probes_only_the_floor(self, probed, cv_target, expected):
        """At m_hi = 2 the search is its probe at 2: a loose goal that the
        fit meets at 2 and a strict one that it puts above the cap both
        answer 2, and nothing is probed twice."""
        d = gen_incomplete(300, 0.0, 0.5, stream(14, TAG_DATA))
        assert required_m(d, cv_target, m_hi=2, reps=100, seed=14) == expected
        assert probed == [2]


class TestPoolReplicates:
    def test_blocks_match_per_replication_poolings(self):
        """Row start + i of a block is the pooling of the i-th run of m
        variates in that block's one draw, stream(seed, TAG_REP, block, m);
        the last, partial block is drawn at its own size."""
        data = gen_incomplete(300, 0.3, 0.4, stream(21, TAG_DATA))
        m, reps, seed = 1000, 150, 22
        per_block = BLOCK_IMPUTATIONS // m
        assert reps * m > BLOCK_IMPUTATIONS and reps % per_block != 0
        pooled = pool_replicates(data, m, reps, seed)
        assert pooled.m == m
        for b, start in enumerate(range(0, reps, per_block)):
            count = min(per_block, reps - start)
            variates = draw_mean_variates(data, count * m, stream(seed, TAG_REP, b, m))
            for i in range(count):
                row = (v[i * m:(i + 1) * m] for v in variates)
                single = pool_arrays(*mean_analyses(data.mean_stats, *row), 0.9)
                for f in fields(PooledReplicates):
                    if f.name != "m":
                        value = getattr(pooled, f.name)[start + i].item()
                        assert repr(value) == repr(getattr(single, f.name)), (start + i, f.name)

    def test_full_blocks_do_not_depend_on_reps(self):
        """Rows in full blocks depend only on (seed, m, block): two full
        blocks are the first rows of a run with a partial third, bit for
        bit, and the same call twice gives the same columns."""
        data = gen_incomplete(300, 0.3, 0.4, stream(21, TAG_DATA))
        m, seed = 1000, 22
        assert 2 * (BLOCK_IMPUTATIONS // m) == 130
        longer = pool_replicates(data, m, 150, seed)
        prefix = pool_replicates(data, m, 130, seed)
        again = pool_replicates(data, m, 150, seed)
        for f in fields(PooledReplicates):
            if f.name != "m":
                column = getattr(longer, f.name)
                assert np.array_equal(getattr(prefix, f.name), column[:130]), f.name
                assert np.array_equal(getattr(again, f.name), column), f.name

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_m_below_two_rejected(self, m):
        """The block draw sees count * m imputations, so pool_replicates
        checks m itself."""
        data = gen_incomplete(300, 0.3, 0.4, stream(21, TAG_DATA))
        with pytest.raises(ValueError, match=rf"^insufficient imputations: need m >= 2, got {m}$"):
            pool_replicates(data, m, 100, 3)


class TestDfReliability:
    """The fraction of pilot poolings whose df_hat exceeds a threshold, as
    the df-reliability experiment measures it."""

    def test_threshold_zero_is_certain(self):
        pooled = pool_fixed_dataset(500, 0.0, 0.5, 5, 100, seed=1234)
        assert np.mean(pooled.df_hat > 0.0) == 1.0

    def test_tiny_gamma_always_exceeds(self):
        pooled = pool_fixed_dataset(500, 0.0, 0.05, 40, 100, seed=1234)
        assert np.mean(pooled.df_hat > 100.0) == 1.0

    def test_rejects_few_reps(self):
        with pytest.raises(ValueError, match="insufficient replications"):
            pool_fixed_dataset(400, 0.0, 0.5, 5, 10, seed=1234)

    def test_fixed_dataset_comes_from_the_data_stream(self):
        data = gen_incomplete(300, 0.0, 0.5, stream(3, TAG_DATA))
        pooled = pool_fixed_dataset(300, 0.0, 0.5, 5, 100, seed=3)
        expected = pool_replicates(data, 5, 100, seed=3)
        assert pooled.m == expected.m
        for f in fields(PooledReplicates):
            assert np.array_equal(getattr(pooled, f.name), getattr(expected, f.name)), f.name
        with pytest.raises(ValueError, match="insufficient replications"):
            pool_fixed_dataset(300, 0.0, 0.5, 5, 99, seed=3)


def gamma_of(p, rho):
    """Large-sample fraction of missing information at missing fraction p."""
    return p * (1 - rho * rho) / (1 - p * rho * rho)


class TestCalibration:
    def test_exact_values(self):
        for gamma in (0.01, 0.2, 0.5, 0.99):
            assert calibrate_missing_fraction(gamma) == gamma
        assert calibrate_missing_fraction(0.5, rho=0.5) == pytest.approx(0.5 / 0.875, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.8, 0.99])
    def test_round_trip(self, rho):
        for p in (0.001, 0.1, 0.37, 0.5, 0.9, 0.999):
            assert calibrate_missing_fraction(gamma_of(p, rho), rho) == pytest.approx(p, abs=1e-12)

    def test_target_validated(self):
        for gamma in (1.5, 1.0, 0.0, -0.2, math.nan):
            with pytest.raises(ValueError, match="domain error: gamma_target"):
                calibrate_missing_fraction(gamma)

    def test_rho_validated(self):
        for rho in (1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="domain error: rho"):
                calibrate_missing_fraction(0.5, rho)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_monte_carlo_matches_formula(self, rho, gamma):
        # Tolerance fixed before the first run.  Per dataset, gamma_hat at
        # m = 200 spreads by about gamma(1-gamma)sqrt(2/(m-1)) <= .025 from
        # the imputations, and by at most about .025 from the dataset itself
        # (its missing count and fitted regression), so its SD is below .04
        # and the mean over R datasets has a Monte Carlo SE of .04/sqrt(R).
        reps = 400
        tol = 4 * 0.04 / math.sqrt(reps)
        p = calibrate_missing_fraction(gamma, rho)
        assert calibrate_gamma(2000, rho, p, m=200, reps=reps, seed=8) == pytest.approx(
            gamma, abs=tol
        )
