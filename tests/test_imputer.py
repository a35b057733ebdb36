"""Posterior-draw imputation: exactness, determinism, and sampling behavior."""

from __future__ import annotations

import numpy as np
import pytest

from miplan import (
    CompletedDataset,
    IncompleteBivariate,
    analyze_mean,
    fit_and_draw,
    gen_incomplete,
    impute_m,
    impute_once,
)
from miplan.montecarlo import calibrate_gamma


def line_data():
    x = np.arange(10.0)
    y = 2.0 * x + 1.0
    y[3] = np.nan
    y[7] = np.nan
    return IncompleteBivariate(x, y)


class TestIncompleteBivariate:
    def test_counts_and_mask(self):
        d = line_data()
        assert d.n == 10
        assert d.n_obs == 8
        assert list(np.flatnonzero(d.missing_mask)) == [3, 7]

    def test_none_becomes_nan(self):
        d = IncompleteBivariate([0.0, 1.0, 2.0, 3.0, 4.0], [0.1, None, 0.3, 0.4, 0.5])
        assert d.n_obs == 4
        assert np.isnan(d.y[1])

    def test_too_few_complete_cases(self):
        with pytest.raises(ValueError, match="insufficient complete cases"):
            IncompleteBivariate([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, None])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="invalid input"):
            IncompleteBivariate([0.0, 1.0], [1.0, 2.0, 3.0])

    def test_non_finite_x(self):
        with pytest.raises(ValueError, match="invalid input"):
            IncompleteBivariate([0.0, np.nan, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_arrays_read_only(self):
        d = line_data()
        with pytest.raises(ValueError):
            d.y[0] = 99.0


class TestFitAndDraw:
    def test_collapses_on_exact_line(self):
        d = line_data()
        for seed in (0, 1, 2):
            draw = fit_and_draw(d, np.random.default_rng(seed))
            assert draw.sigma == 0.0
            assert draw.beta0 == 1.0
            assert draw.beta1 == 2.0

    def test_deterministic_given_seed(self):
        d = gen_incomplete(100, 0.5, 0.3, np.random.default_rng(3))
        a = fit_and_draw(d, np.random.default_rng(42))
        b = fit_and_draw(d, np.random.default_rng(42))
        assert a == b

    def test_draws_keep_their_bits(self):
        d = gen_incomplete(100, 0.5, 0.3, np.random.default_rng(3))
        rng = np.random.default_rng(42)
        draws = [fit_and_draw(d, rng) for _ in range(3)]
        assert [repr((p.beta0, p.beta1, p.sigma)) for p in draws] == [
            "(0.1460800008981431, 0.674549709015065, 0.8245135397966208)",
            "(0.06948208436829764, 0.5476817579748889, 1.0052906695746966)",
            "(0.1586249004552976, 0.6609915640323883, 0.8468281694573733)",
        ]

    def test_singular_design(self):
        x = np.ones(6)
        y = np.array([1.0, 2.0, 3.0, 4.0, np.nan, np.nan])
        with pytest.raises(ValueError, match="singular design"):
            fit_and_draw(IncompleteBivariate(x, y), np.random.default_rng(0))

    def test_posterior_centers_on_least_squares(self):
        d = gen_incomplete(300, 0.6, 0.3, np.random.default_rng(11))
        obs = ~d.missing_mask
        slope = float(np.polyfit(d.x[obs], d.y[obs], 1)[0])
        rng = np.random.default_rng(99)
        draws = np.array([fit_and_draw(d, rng).beta1 for _ in range(10_000)])
        mcse = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - slope) < 3 * mcse


class TestImputeOnce:
    def test_no_missing_is_identity(self):
        x = np.arange(6.0)
        y = x + 0.5
        d = IncompleteBivariate(x, y)
        draw = fit_and_draw(d, np.random.default_rng(0))
        completed = impute_once(d, draw, np.random.default_rng(1))
        assert np.array_equal(completed.y, y)
        assert not completed.imputed_mask.any()

    def test_sigma_zero_imputes_on_the_line(self):
        d = line_data()
        draw = fit_and_draw(d, np.random.default_rng(0))
        completed = impute_once(d, draw, np.random.default_rng(5))
        assert completed.y[3] == pytest.approx(2.0 * 3.0 + 1.0, rel=1e-12)
        assert completed.y[7] == pytest.approx(2.0 * 7.0 + 1.0, rel=1e-12)

    def test_observed_entries_bit_identical(self):
        d = gen_incomplete(500, 0.3, 0.4, np.random.default_rng(8))
        rng = np.random.default_rng(21)
        completed = impute_once(d, fit_and_draw(d, rng), rng)
        obs = ~d.missing_mask
        assert np.array_equal(
            completed.y[obs].view(np.uint64), d.y[obs].view(np.uint64)
        )
        assert np.array_equal(completed.imputed_mask, d.missing_mask)

    def test_distinct_streams_differ_everywhere(self):
        d = gen_incomplete(200, 0.0, 0.5, np.random.default_rng(2))
        rng = np.random.default_rng(33)
        draw = fit_and_draw(d, rng)
        one = impute_once(d, draw, np.random.default_rng(100))
        two = impute_once(d, draw, np.random.default_rng(101))
        mask = d.missing_mask
        assert np.all(one.y[mask] != two.y[mask])


class TestImputeM:
    def test_requires_two(self):
        with pytest.raises(ValueError, match="insufficient imputations"):
            impute_m(line_data(), 1, np.random.default_rng(0))

    def test_deterministic_sequence(self):
        d = gen_incomplete(150, 0.4, 0.35, np.random.default_rng(6))
        first = impute_m(d, 4, np.random.default_rng(77))
        second = impute_m(d, 4, np.random.default_rng(77))
        for a, b in zip(first, second):
            assert np.array_equal(a.y, b.y)

    def test_agree_on_observed_entries(self):
        d = gen_incomplete(150, 0.4, 0.35, np.random.default_rng(6))
        completed = impute_m(d, 3, np.random.default_rng(9))
        obs = ~d.missing_mask
        for c in completed:
            assert np.array_equal(c.y[obs], d.y[obs])

    def test_between_imputation_variance_positive(self):
        d = gen_incomplete(400, 0.5, 0.5, np.random.default_rng(14))
        completed = impute_m(d, 10, np.random.default_rng(15))
        means = [float(np.mean(c.y)) for c in completed]
        assert np.var(means, ddof=1) > 0.0

    def test_mean_gamma_matches_missing_fraction_when_aux_uninformative(self):
        # with rho = 0 imputation recovers nothing, so the fraction of
        # missing information converges to the fraction of missing values
        mean_gamma = calibrate_gamma(2000, 0.0, 0.5, m=20, reps=200, seed=31)
        assert 0.45 <= mean_gamma <= 0.55


class TestAnalyzeMean:
    def make(self, values):
        y = np.asarray(values, dtype=float)
        return CompletedDataset(x=np.zeros_like(y), y=y, imputed_mask=np.zeros(y.size, dtype=bool))

    def test_constant(self):
        r = analyze_mean(self.make([1.0, 1.0, 1.0, 1.0]))
        assert r.estimate == 1.0
        assert r.within_variance == 0.0

    def test_two_points(self):
        r = analyze_mean(self.make([0.0, 2.0]))
        assert r.estimate == 1.0
        assert r.within_variance == 1.0

    def test_five_points(self):
        r = analyze_mean(self.make([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert r.estimate == 3.0
        assert r.within_variance == 0.5

    def test_too_small(self):
        with pytest.raises(ValueError, match="insufficient data"):
            analyze_mean(self.make([1.0]))


def test_gamma_decreases_with_auxiliary_correlation():
    values = [calibrate_gamma(1000, rho, 0.5, m=40, reps=8, seed=5) for rho in (0.0, 0.5, 0.9)]
    assert values[0] > values[1] > values[2]
