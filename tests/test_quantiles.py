"""Quantiles and CDFs against published values and scipy.stats."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from miplan import normal_cdf, normal_quantile, t_cdf, t_quantile


def test_median_is_zero():
    for df in (1.0, 2.5, 4, 30, 1e7):
        assert t_quantile(0.5, df) == 0.0
    assert normal_quantile(0.5) == 0.0


def test_published_t_values():
    # standard t-table entries
    assert t_quantile(0.975, 4) == pytest.approx(2.776445, abs=1e-4)
    assert t_quantile(0.975, 1) == pytest.approx(12.7062, abs=1e-3)
    assert t_quantile(0.95, 10) == pytest.approx(1.812461, abs=1e-4)


def test_normal_limit():
    assert t_quantile(0.975, 1e6) == pytest.approx(1.959964, abs=1e-4)
    assert t_quantile(0.975, 5e8) == pytest.approx(1.959964, abs=1e-4)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
    assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-4)


@pytest.mark.parametrize("p", [0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999])
@pytest.mark.parametrize("df", [1.0, 2.0, 3.7, 10.0, 42.0, 500.0, 1e6, 2209333.8, 1e12])
def test_matches_scipy_inversion(p, df):
    assert t_quantile(p, df) == pytest.approx(stats.t.ppf(p, df), rel=1e-8, abs=1e-8)


def test_normal_matches_scipy():
    for p in (0.01, 0.1, 0.5, 0.9, 0.999):
        assert normal_quantile(p) == pytest.approx(stats.norm.ppf(p), rel=1e-9, abs=1e-9)


@given(
    p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    df=st.floats(min_value=0.5, max_value=1e5),
)
@settings(max_examples=60, deadline=None)
def test_cdf_round_trip(p, df):
    x = t_quantile(p, df)
    assert t_cdf(x, df) == pytest.approx(p, abs=1e-9)


# p below ~1e-6 would probe the representation error of 1 - p itself
# (double spacing near 1.0 is ~1.1e-16, i.e. ~1e-8 in quantile units).
@given(p=st.floats(min_value=1e-6, max_value=0.5, exclude_max=True))
@settings(max_examples=50, deadline=None)
def test_normal_antisymmetry(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-10)
    assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("p,df", [(0.0, 4), (1.0, 4), (-0.2, 4), (2.0, 4), (0.5, 0.0), (0.5, -3)])
def test_domain_errors(p, df):
    with pytest.raises(ValueError, match="invalid quantile request"):
        t_quantile(p, df)


@pytest.mark.parametrize("df", [0.0, -3.0, math.nan])
def test_cdf_domain_errors(df):
    with pytest.raises(ValueError) as exc:
        t_cdf(0.5, df)
    assert str(exc.value) == f"invalid quantile request: df must be > 0, got {df!r}"


def test_normal_quantile_domain_errors():
    for p in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="invalid quantile request"):
            normal_quantile(p)
