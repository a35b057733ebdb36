"""Planning rules: hand values, exact identities, and the pilot workflow."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miplan import (
    ReplicabilityTarget,
    cv_df_convert,
    cv_for_sd_goal,
    m_for_df,
    m_for_se_cv,
    m_for_var_cv,
    pool,
    recommend,
    variance_inflation,
)
from conftest import make_pilot_results


class TestRules:
    def test_se_cv_hand_values(self):
        assert m_for_se_cv(0.5, 0.05) == 51
        assert m_for_se_cv(0.69, 0.043478) == 127
        assert m_for_se_cv(1e-6, 0.05) == 2  # floor

    def test_var_cv_hand_values(self):
        assert m_for_var_cv(0.5, 0.1) == 51
        assert m_for_var_cv(0.9, 0.05) == 649

    def test_df_hand_values(self):
        assert m_for_df(0.5, 200) == 51
        assert m_for_df(0.3, 100) == 10
        assert m_for_df(1e-6, 200) == 2

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.3, math.nan):
            with pytest.raises(ValueError, match="domain error"):
                m_for_se_cv(bad, 0.05)
            with pytest.raises(ValueError, match="domain error"):
                m_for_se_cv(0.5, bad)
        with pytest.raises(ValueError, match="domain error"):
            m_for_df(0.5, 0.5)

    def test_cap_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m_for_se_cv(0.99, 0.001, m_max=10_000) == 10_000
            assert m_for_var_cv(0.99, 0.002, m_max=50) == 50
            assert m_for_df(0.99, 1e12, m_max=2) == 2

    def test_m_max_below_two_rejected(self):
        for m_max in (1, 0, -5):
            with pytest.raises(ValueError, match="domain error: m_max"):
                m_for_se_cv(0.5, 0.05, m_max=m_max)
            with pytest.raises(ValueError, match="domain error: m_max"):
                m_for_df(1e-6, 200, m_max=m_max)

    def test_rule_identities_on_grid(self):
        gammas = np.linspace(0.015, 0.985, 50)
        cvs = np.linspace(0.01, 0.20, 10)
        for g in gammas:
            for cv in cvs:
                df = cv_df_convert(float(cv), "cv_to_df")
                assert m_for_se_cv(float(g), float(cv)) == m_for_df(float(g), df)
                assert m_for_var_cv(float(g), 2.0 * float(cv)) == m_for_se_cv(float(g), float(cv))

    @given(g=st.floats(min_value=0.01, max_value=0.99), cv=st.floats(min_value=0.01, max_value=0.45))
    @settings(max_examples=150, deadline=None)
    def test_rule_identities_property(self, g, cv):
        assert m_for_se_cv(g, cv) == m_for_df(g, cv_df_convert(cv, "cv_to_df"))
        assert m_for_var_cv(g, 2.0 * cv) == m_for_se_cv(g, cv)

    def test_quadratic_shape_where_exact(self):
        # points where the rule lands on integers, so the ceiling is inert
        for g, cv in ((0.1, 0.05), (0.2, 0.1), (0.3, 0.05)):
            small = m_for_se_cv(g, cv)
            large = m_for_se_cv(2 * g, cv)
            assert large - 1 == 4 * (small - 1)

    @given(
        g1=st.floats(min_value=0.02, max_value=0.5),
        g2=st.floats(min_value=0.5, max_value=0.98),
        cv=st.floats(min_value=0.01, max_value=0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_gamma(self, g1, g2, cv):
        assert m_for_se_cv(g1, cv) <= m_for_se_cv(g2, cv)

    @given(
        g=st.floats(min_value=0.02, max_value=0.98),
        cv1=st.floats(min_value=0.01, max_value=0.2),
        cv2=st.floats(min_value=0.2, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_cv(self, g, cv1, cv2):
        assert m_for_se_cv(g, cv1) >= m_for_se_cv(g, cv2)


class TestConversions:
    def test_cv_df_values(self):
        assert cv_df_convert(0.05, "cv_to_df") == pytest.approx(200.0, rel=1e-12)
        assert cv_df_convert(200.0, "df_to_cv") == pytest.approx(0.05, rel=1e-12)

    def test_inverse_pair(self):
        for x in (10.0, 50.0, 1000.0):
            assert cv_df_convert(cv_df_convert(x, "df_to_cv"), "cv_to_df") == pytest.approx(x, rel=1e-12)

    def test_direction_validation(self):
        with pytest.raises(ValueError, match="domain error"):
            cv_df_convert(0.05, "sideways")
        with pytest.raises(ValueError, match="domain error"):
            cv_df_convert(1.5, "cv_to_df")
        with pytest.raises(ValueError, match="domain error"):
            cv_df_convert(0.0, "df_to_cv")

    def test_variance_inflation(self):
        var_factor, se_factor = variance_inflation(0.8, 10)
        assert var_factor == pytest.approx(1.08, rel=1e-12)
        assert se_factor == pytest.approx(1.0392, abs=1e-4)
        assert variance_inflation(0.5, 5) == pytest.approx((1.10, math.sqrt(1.10)), rel=1e-12)
        var_factor, se_factor = variance_inflation(0.9, 10**9)
        assert var_factor == pytest.approx(1.0, abs=1e-8)
        assert se_factor == pytest.approx(1.0, abs=1e-8)

    def test_sd_goal_to_cv(self):
        assert cv_for_sd_goal(0.001, 0.023) == pytest.approx(0.043478, abs=1e-6)
        assert cv_for_sd_goal(0.37, 0.37) == 1.0
        assert cv_for_sd_goal(0.001, 0.021) == pytest.approx(0.047619, abs=1e-6)
        with pytest.raises(ValueError, match="invalid target"):
            cv_for_sd_goal(-1.0, 0.02)
        with pytest.raises(ValueError, match="invalid target"):
            cv_for_sd_goal(0.001, 0.0)


class TestTargetValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="invalid target"):
            ReplicabilityTarget("sd_of_sd", 0.1)

    def test_value_domains(self):
        with pytest.raises(ValueError, match="invalid target"):
            ReplicabilityTarget("cv_of_se", 1.2)
        with pytest.raises(ValueError, match="invalid target"):
            ReplicabilityTarget("df", 0.5)
        with pytest.raises(ValueError, match="invalid target"):
            ReplicabilityTarget("sd_of_se", 0.0)
        ReplicabilityTarget("sd_of_se", 5.0)  # parameter units, may exceed 1
        ReplicabilityTarget("df", 200.0)


class TestRecommend:
    def pilot(self, m=5, gamma=0.39, se=0.023):
        return pool(make_pilot_results(m, gamma, se))

    def test_worked_example(self):
        rec = recommend(self.pilot(), ReplicabilityTarget("sd_of_se", 0.001))
        assert rec.gamma_used == pytest.approx(0.69, abs=0.005)
        assert 124 <= rec.m_required <= 128
        assert not rec.pilot_sufficient
        assert rec.pilot_m == 5
        assert rec.cv_target == pytest.approx(0.001 / 0.023, rel=1e-9)
        assert rec.df_implied == pytest.approx(1.0 / (2 * rec.cv_target**2), rel=1e-12)
        assert (rec.m_uncapped, rec.capped) == (rec.m_required, False)

    def test_cap_reported_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = recommend(self.pilot(), ReplicabilityTarget("cv_of_se", 1e-4), m_max=50)
            overflow = recommend(self.pilot(), ReplicabilityTarget("cv_of_se", 1e-200))
        assert (rec.m_required, rec.capped, rec.pilot_sufficient) == (50, True, False)
        assert rec.m_uncapped == m_for_se_cv(rec.gamma_used, 1e-4, m_max=10**9)
        assert (overflow.m_required, overflow.capped) == (10_000, True)
        assert overflow.m_uncapped == overflow.df_implied == math.inf

    def test_target_kinds_agree(self):
        pilot = self.pilot()
        cv = 0.05
        by_cv = recommend(pilot, ReplicabilityTarget("cv_of_se", cv))
        by_vcv = recommend(pilot, ReplicabilityTarget("cv_of_variance", 2 * cv))
        by_df = recommend(pilot, ReplicabilityTarget("df", 1.0 / (2 * cv * cv)))
        by_sd = recommend(pilot, ReplicabilityTarget("sd_of_se", cv * pilot.se))
        assert by_cv.m_required == by_vcv.m_required == by_df.m_required
        # sd goal goes through the pilot SE, identical up to float noise
        assert abs(by_sd.m_required - by_cv.m_required) <= 1
        assert by_cv.cv_target == cv

    def test_sufficient_pilot(self):
        pilot = pool(make_pilot_results(501, 0.1, 0.02))
        rec = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.05))
        assert rec.m_required <= 10
        assert rec.pilot_sufficient

    def test_degenerate_pilot(self):
        pilot = pool([(5.0, 2.0)] * 4)  # b = 0, gamma clamped to eps
        rec = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.05))
        assert rec.m_required == 2
        assert rec.pilot_sufficient

    def test_loose_sd_goal_floors_at_two(self):
        pilot = self.pilot()
        rec = recommend(pilot, ReplicabilityTarget("sd_of_se", 10.0 * pilot.se))
        assert rec.m_required == 2
        assert rec.pilot_sufficient

    def test_m_max_below_two_rejected(self):
        pilot = self.pilot()
        for target in (ReplicabilityTarget("cv_of_se", 0.05), ReplicabilityTarget("sd_of_se", 1.0)):
            with pytest.raises(ValueError, match="domain error: m_max"):
                recommend(pilot, target, m_max=1)

    @given(gamma=st.floats(min_value=0.05, max_value=0.9), m=st.sampled_from([3, 5, 9, 21]))
    @settings(max_examples=60, deadline=None)
    def test_conservatism(self, gamma, m):
        pilot = pool(make_pilot_results(m, gamma, 0.02))
        rec = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.05))
        assert rec.gamma_used >= pilot.gamma_hat

    @given(level=st.sampled_from([0.8, 0.9, 0.95, 0.99]))
    @settings(max_examples=20, deadline=None)
    def test_higher_level_never_recommends_less(self, level):
        pilot = self.pilot()
        low = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.05), level=level)
        high = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.05), level=0.995)
        assert high.m_required >= low.m_required
