"""Experiment harness: determinism and MC properties."""

from __future__ import annotations

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from miplan import (
    ExperimentConfig,
    ReplicabilityTarget,
    TwoStageRecord,
    calibrate_gamma,
    calibrate_missing_fraction,
    curve_data,
    derive_seed,
    df_cv_curve,
    df_reliability,
    empirical_cv,
    gen_incomplete,
    pool,
    pool_fixed_dataset,
    pool_replicates,
    recommend,
    required_m,
    run_two_stage,
    run_two_stage_experiment,
    stream,
    summarize_two_stage,
)
from miplan.montecarlo import BLOCK_IMPUTATIONS, TAG_DATA, TAG_REP, _pool_once
from miplan.pooling import PooledReplicates

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
        with pytest.raises(ValueError, match="domain error"):
            small_config(seed=-1)


class TestTwoStage:
    def test_fixed_seed_identical_record(self):
        config = small_config()
        data = small_data(config)
        a = run_two_stage(config, stream(config.seed, 1, 0), data)
        b = run_two_stage(config, stream(config.seed, 1, 0), data)
        assert a == b

    def test_loose_target_reuses_pilot(self):
        config = small_config(target=ReplicabilityTarget("cv_of_se", 0.9))
        record = run_two_stage(config, stream(config.seed, 1, 0), small_data(config))
        assert record.recommendation.pilot_sufficient
        assert record.final is record.pilot
        assert record.final.m == config.pilot_m

    def test_final_m_invariant(self):
        config = small_config(reps=6, target=ReplicabilityTarget("cv_of_se", 0.12))
        for record in run_two_stage_experiment(config):
            expected = max(config.pilot_m, record.recommendation.m_required)
            assert record.final.m == expected

    def test_experiment_reproducible(self):
        config = small_config()
        first = run_two_stage_experiment(config)
        second = run_two_stage_experiment(config)
        assert first == second


class TestSummaries:
    def dummy_record(self, rep, gamma, se):
        pilot = pool(make_pilot_results(5, gamma, se))
        rec = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.5))
        return TwoStageRecord(rep_index=rep, pilot=pilot, recommendation=rec, final=pilot)

    def test_identical_records_have_zero_sd(self):
        record = self.dummy_record(0, 0.3, 0.02)
        summary = summarize_two_stage([record, record])
        assert summary.final_se.sd == 0.0
        assert summary.achieved_sd_of_se == 0.0
        assert summary.final_m.min == summary.final_m.max

    def test_two_record_sd_hand_value(self):
        records = [self.dummy_record(0, 0.3, 0.021), self.dummy_record(1, 0.3, 0.023)]
        summary = summarize_two_stage(records)
        assert summary.achieved_sd_of_se == pytest.approx(0.001414, abs=1e-6)
        assert summary.final_se.mean == pytest.approx(0.022, rel=1e-9)

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="insufficient replications"):
            summarize_two_stage([self.dummy_record(0, 0.3, 0.02)])


class TestEmpiricalCv:
    def test_rejects_few_reps(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(3, TAG_DATA))
        with pytest.raises(ValueError, match="insufficient replications"):
            empirical_cv(d, 5, 99, seed=3)

    def test_deterministic(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(3, TAG_DATA))
        assert empirical_cv(d, 5, 120, seed=3) == empirical_cv(d, 5, 120, seed=3)

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


class TestRequiredM:
    def test_floor_when_target_loose(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(12, TAG_DATA))
        assert required_m(d, 0.9, m_hi=16, reps=100, seed=12) == 2

    def test_search_exhausted(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(13, TAG_DATA))
        with pytest.raises(ValueError, match="search exhausted"):
            required_m(d, 0.011, m_hi=6, reps=100, seed=13)

    def test_domain_errors(self):
        d = gen_incomplete(300, 0.0, 0.5, stream(14, TAG_DATA))
        with pytest.raises(ValueError, match="domain error"):
            required_m(d, 1.2, seed=14)
        with pytest.raises(ValueError, match="domain error"):
            required_m(d, 0.05, m_hi=2, seed=14)


class TestPoolReplicates:
    def test_blocks_match_per_replication_poolings(self):
        """Replications pooled a block at a time give, field for field, the
        poolings of each replication on its own stream."""
        data = gen_incomplete(300, 0.3, 0.4, stream(21, TAG_DATA))
        m, reps, seed = 1000, 150, 22
        per_block = BLOCK_IMPUTATIONS // m
        assert reps * m > BLOCK_IMPUTATIONS and reps % per_block != 0
        pooled = pool_replicates(data, m, reps, seed)
        assert pooled.m == m
        for r in range(reps):
            single = _pool_once(data, m, stream(seed, TAG_REP, r), 0.9)
            for f in fields(PooledReplicates):
                if f.name != "m":
                    value = getattr(pooled, f.name)[r].item()
                    assert repr(value) == repr(getattr(single, f.name)), (r, f.name)


class TestDfReliability:
    def test_threshold_zero_is_certain(self):
        config = small_config(n=500, reps=100)
        assert df_reliability(config, 0.0) == 1.0

    def test_tiny_gamma_always_exceeds(self):
        config = small_config(n=500, missing_fraction=0.05, pilot_m=40, reps=100)
        assert df_reliability(config, 100.0) == 1.0

    def test_rejects_few_reps(self):
        config = small_config(reps=10)
        with pytest.raises(ValueError, match="insufficient replications"):
            df_reliability(config, 100.0)

    def test_fixed_dataset_comes_from_the_data_stream(self):
        data = gen_incomplete(300, 0.0, 0.5, stream(3, TAG_DATA))
        pooled = pool_fixed_dataset(300, 0.0, 0.5, 5, 100, seed=3)
        expected = pool_replicates(data, 5, 100, seed=3)
        assert pooled.m == expected.m
        for f in fields(PooledReplicates):
            assert np.array_equal(getattr(pooled, f.name), getattr(expected, f.name)), f.name
        with pytest.raises(ValueError, match="insufficient replications"):
            pool_fixed_dataset(300, 0.0, 0.5, 5, 99, seed=3)


class TestCurves:
    def test_rule_columns(self):
        rows = {r.gamma: r for r in curve_data([0.1, 0.5, 0.9], 0.05)}
        assert (rows[0.5].m_quadratic, rows[0.5].m_linear) == (51, 50)
        assert (rows[0.9].m_quadratic, rows[0.9].m_linear) == (163, 90)
        assert (rows[0.1].m_quadratic, rows[0.1].m_linear) == (3, 10)
        assert rows[0.5].m_simulated is None

    def test_cap_flagged_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = curve_data([0.1, 0.5, 0.9], 0.05, m_max=50)
        assert [(r.m_quadratic, r.m_linear, r.capped) for r in rows] == [
            (3, 10, False), (50, 50, True), (50, 50, True)
        ]
        with pytest.raises(ValueError, match="domain error: m_max"):
            curve_data([0.5], 0.05, m_max=-3)

    def test_simulated_hook(self):
        rows = curve_data([0.2, 0.4], 0.05, simulated=lambda g: int(round(100 * g)))
        assert [r.m_simulated for r in rows] == [20, 40]

    def test_df_cv_curve(self):
        pairs = dict(df_cv_curve([0.05, 0.1]))
        assert pairs[0.05] == pytest.approx(200.0, rel=1e-12)
        assert pairs[0.1] == pytest.approx(50.0, rel=1e-12)
        with pytest.raises(ValueError, match="domain error"):
            df_cv_curve([1.5])


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
