"""Fraction-of-missing-information inference: logit CI and the reference table."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from miplan import GAMMA_EPS, gamma_ci, inv_logit, logit, round_half_away, table1

# Published 95% CI table for gamma over gammas {.1,.3,.5,.7,.9} and
# m {5,10,15,20}; entries rounded to 2 decimals.
REFERENCE_CELLS = {
    (0.1, 5): (0.03, 0.28), (0.1, 10): (0.04, 0.21), (0.1, 15): (0.05, 0.19), (0.1, 20): (0.06, 0.17),
    (0.3, 5): (0.11, 0.60), (0.3, 10): (0.15, 0.51), (0.3, 15): (0.17, 0.47), (0.3, 20): (0.19, 0.44),
    (0.5, 5): (0.22, 0.78), (0.5, 10): (0.29, 0.71), (0.5, 15): (0.33, 0.67), (0.5, 20): (0.35, 0.65),
    (0.7, 5): (0.40, 0.89), (0.7, 10): (0.49, 0.85), (0.7, 15): (0.53, 0.83), (0.7, 20): (0.56, 0.81),
    (0.9, 5): (0.72, 0.97), (0.9, 10): (0.79, 0.96), (0.9, 15): (0.81, 0.95), (0.9, 20): (0.83, 0.94),
}


def test_logit_values():
    assert logit(0.5) == 0.0
    assert logit(0.9) == pytest.approx(2.197225, abs=1e-5)
    assert inv_logit(0.0) == 0.5


@given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=100, deadline=None)
def test_logit_round_trip(p):
    assert inv_logit(logit(p)) == pytest.approx(p, abs=1e-12)


def test_logit_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError, match="domain error"):
            logit(p)


def test_inv_logit_stable_at_extremes():
    assert inv_logit(800.0) == 1.0
    assert inv_logit(-800.0) == pytest.approx(0.0, abs=1e-300)


def test_interval_spot_checks():
    iv = gamma_ci(0.3, 5)
    assert (round_half_away(iv.lower), round_half_away(iv.upper)) == (0.11, 0.60)
    iv = gamma_ci(0.5, 10)
    assert (round_half_away(iv.lower), round_half_away(iv.upper)) == (0.29, 0.71)
    iv = gamma_ci(0.9, 20)
    assert (round_half_away(iv.lower), round_half_away(iv.upper)) == (0.83, 0.94)


def test_full_reference_table():
    rows = table1()
    assert len(rows) == 20
    for iv in rows:
        lo, up = REFERENCE_CELLS[(iv.point, iv.m)]
        assert abs(iv.lower - lo) <= 0.005
        assert abs(iv.upper - up) <= 0.005


def test_row_major_layout():
    rows = table1(gammas=(0.1, 0.7), ms=(5, 10))
    assert [(r.point, r.m) for r in rows] == [(0.1, 5), (0.1, 10), (0.7, 5), (0.7, 10)]


@pytest.mark.parametrize("gammas, ms", [((), (5, 10)), ((0.5,), ()), ((), ())])
def test_empty_grid_rejected(gammas, ms):
    with pytest.raises(ValueError, match="domain error: table1 needs at least one gamma and one m"):
        table1(gammas=gammas, ms=ms)


@given(g=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_interval_contains_point_and_orders(g):
    iv = gamma_ci(g, 7)
    assert 0.0 < iv.lower <= iv.point <= iv.upper < 1.0


def test_symmetric_at_half():
    for m in (2, 5, 20, 100):
        iv = gamma_ci(0.5, m)
        assert iv.lower + iv.upper == pytest.approx(1.0, abs=1e-12)


@given(g=st.floats(min_value=0.02, max_value=0.98))
@settings(max_examples=60, deadline=None)
def test_width_shrinks_with_m(g):
    widths = [gamma_ci(g, m).upper - gamma_ci(g, m).lower for m in (5, 10, 20, 40)]
    assert widths == sorted(widths, reverse=True)
    assert widths[0] > widths[-1]


@given(g=st.floats(min_value=0.02, max_value=0.98), m=st.integers(min_value=2, max_value=200))
@settings(max_examples=60, deadline=None)
def test_nesting_of_levels(g, m):
    narrow = gamma_ci(g, m, level=0.90)
    wide = gamma_ci(g, m, level=0.95)
    assert wide.lower <= narrow.lower
    assert narrow.upper <= wide.upper


@given(g=st.floats(min_value=0.02, max_value=0.98), m=st.integers(min_value=2, max_value=100))
@settings(max_examples=60, deadline=None)
def test_reflection_symmetry(g, m):
    iv = gamma_ci(g, m)
    mirrored = gamma_ci(1.0 - g, m)
    assert mirrored.lower == pytest.approx(1.0 - iv.upper, abs=1e-10)
    assert mirrored.upper == pytest.approx(1.0 - iv.lower, abs=1e-10)


def test_clamping_of_boundary_inputs():
    iv = gamma_ci(0.0, 5)
    assert iv.point == GAMMA_EPS
    iv = gamma_ci(1.0, 5)
    assert iv.point == 1.0 - GAMMA_EPS
    with pytest.raises(ValueError, match="domain error"):
        gamma_ci(-0.2, 5)


def test_m_and_level_validation():
    with pytest.raises(ValueError, match="insufficient imputations"):
        gamma_ci(0.5, 1)
    with pytest.raises(ValueError, match="domain error"):
        gamma_ci(0.5, 5, level=0.0)
    # The largest level below 1 leaves (1 + level) / 2 at 1, where no quantile
    # exists; the next one down does not.
    with pytest.raises(ValueError, match=r"level 0.9999999999999999 is too close to 1"):
        gamma_ci(0.5, 5, level=1 - 2**-53)
    assert gamma_ci(0.5, 5, level=1 - 2**-52).upper < 1.0


def test_round_half_away():
    assert round_half_away(0.125) == 0.13
    assert round_half_away(-0.125) == -0.13
    assert round_half_away(2.344) == 2.34
    assert round_half_away(0.275001) == 0.28
    assert round_half_away(1.0) == 1.0
