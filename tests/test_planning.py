"""Planning rules: hand values, exact identities, and the pilot workflow."""

from __future__ import annotations

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from miplan import (
    ReplicabilityTarget,
    curve_data,
    df_cv_curve,
    df_for_cv,
    gamma_ci,
    m_for_se_cv,
    pool,
    recommend,
)
from miplan.planning import RecommendationColumns, _capped_count, recommend_replicates
from miplan.pooling import pool_arrays, pool_rows
from conftest import make_pilot_results


def m_for(kind, value, gamma, m_max=10_000):
    """The rule's count for a goal that reads no pilot SE."""
    return m_for_se_cv(gamma, ReplicabilityTarget(kind, value).cv_of_se(1.0), m_max=m_max)


class TestRules:
    def test_se_cv_hand_values(self):
        assert m_for_se_cv(0.5, 0.05) == 51
        assert m_for_se_cv(0.69, 0.043478) == 127
        assert m_for_se_cv(1e-6, 0.05) == 2  # floor

    def test_var_cv_hand_values(self):
        assert m_for("cv_of_variance", 0.1, 0.5) == 51
        assert m_for("cv_of_variance", 0.05, 0.9) == 649

    def test_df_hand_values(self):
        assert m_for("df", 200.0, 0.5) == 51
        assert m_for("df", 100.0, 0.3) == 10
        assert m_for("df", 200.0, 1e-6) == 2

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.3, math.nan):
            with pytest.raises(ValueError, match="domain error"):
                m_for_se_cv(bad, 0.05)
            with pytest.raises(ValueError, match="domain error"):
                m_for_se_cv(0.5, bad)

    def test_cap_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m_for_se_cv(0.99, 0.001, m_max=10_000) == 10_000
            assert m_for("cv_of_variance", 0.002, 0.99, m_max=50) == 50
            assert m_for("df", 1e12, 0.99, m_max=2) == 2

    def test_m_max_below_two_rejected(self):
        for m_max in (1, 0, -5):
            with pytest.raises(ValueError, match="domain error: m_max"):
                m_for_se_cv(0.5, 0.05, m_max=m_max)
            with pytest.raises(ValueError, match="domain error: m_max"):
                m_for_se_cv(1e-6, 0.05, m_max=m_max)  # the floor of 2 does not get round it

    def test_rule_identities_on_grid(self):
        gammas = np.linspace(0.015, 0.985, 50)
        cvs = np.linspace(0.01, 0.20, 10)
        for g in gammas:
            for cv in cvs:
                g, cv = float(g), float(cv)
                assert m_for("df", df_for_cv(cv), g) == m_for_se_cv(g, cv)
                assert m_for("cv_of_variance", 2.0 * cv, g) == m_for_se_cv(g, cv)

    @given(g=st.floats(min_value=0.01, max_value=0.99), cv=st.floats(min_value=0.01, max_value=0.45))
    @settings(max_examples=150, deadline=None)
    def test_rule_identities_property(self, g, cv):
        assert m_for("df", df_for_cv(cv), g) == m_for_se_cv(g, cv)
        assert m_for("cv_of_variance", 2.0 * cv, g) == m_for_se_cv(g, cv)

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
        assert df_for_cv(0.05) == pytest.approx(200.0, rel=1e-12)
        assert ReplicabilityTarget("df", 200.0).cv_of_se(1.0) == pytest.approx(0.05, rel=1e-12)

    def test_inverse_pair(self):
        for x in (10.0, 50.0, 1000.0):
            assert df_for_cv(ReplicabilityTarget("df", x).cv_of_se(1.0)) == pytest.approx(x, rel=1e-12)

    def test_df_for_cv_underflow_is_inf(self):
        assert df_for_cv(1e-100) == pytest.approx(5e199, rel=1e-12)
        for cv in (1e-170, 1e-200, 5e-324):
            assert df_for_cv(cv) == math.inf

    def test_cv_of_se_by_kind(self):
        se = 0.023
        assert ReplicabilityTarget("sd_of_se", 0.001).cv_of_se(se) == 0.001 / se
        assert ReplicabilityTarget("cv_of_se", 0.05).cv_of_se(se) == 0.05
        assert ReplicabilityTarget("cv_of_variance", 0.1).cv_of_se(se) == 0.05
        assert ReplicabilityTarget("df", 200.0).cv_of_se(se) == math.sqrt(1.0 / 400.0)
        for kind, value in (("cv_of_se", 0.05), ("cv_of_variance", 0.1), ("df", 200.0)):
            target = ReplicabilityTarget(kind, value)
            assert target.cv_of_se(se) == target.cv_of_se(math.nan)  # reads no pilot SE

    def test_sd_goal_to_cv(self):
        def cv(sd_goal, se):
            return ReplicabilityTarget("sd_of_se", sd_goal).cv_of_se(se)

        assert cv(0.001, 0.023) == pytest.approx(0.043478, abs=1e-6)
        assert cv(0.37, 0.37) == 1.0
        assert cv(0.001, 0.021) == pytest.approx(0.047619, abs=1e-6)
        with pytest.raises(ValueError, match="invalid target"):
            cv(-1.0, 0.02)
        for se in (0.0, -0.02, math.nan, math.inf):
            with pytest.raises(ValueError, match="invalid target: pilot se must be positive and finite"):
                cv(0.001, se)


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
        for kind in ("sd_of_se", "df"):
            with pytest.raises(ValueError, match="value must be positive and finite, got inf"):
                ReplicabilityTarget(kind, math.inf)
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

    def test_df_goal_is_echoed_exactly(self):
        """df_implied of a df goal is the goal itself, not the df of its CV,
        which misses it in the last bit for about half of all goals."""
        pilot = self.pilot()
        rng = np.random.default_rng(20)
        goals = [200.0, 9e307, *(10.0 ** rng.uniform(0.0, 308.0, 1000))]
        assert sum(df_for_cv(ReplicabilityTarget("df", g).cv_of_se(1.0)) != g for g in goals) > 100
        for goal in goals:
            assert recommend(pilot, ReplicabilityTarget("df", goal)).df_implied == goal
        cv = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.05))
        assert cv.df_implied == df_for_cv(0.05)

    def test_huge_uncapped_count_is_a_float(self):
        """Up to 2**53 the uncapped count is an exact int; above it, the
        float it already is."""
        for raw, uncapped in [(1e15, 999_999_999_000_000), (2.0**53, 2**53 - 9_007_199)]:
            assert _capped_count(raw, 10) == (10, uncapped)
            assert type(_capped_count(raw, 10)[1]) is int
        for raw in (2.0**54, 1.8e306):
            count, uncapped = _capped_count(raw, 10)
            assert (count, type(uncapped)) == (10, float)
            assert math.isfinite(uncapped) and uncapped == math.ceil(raw - 1e-9 * raw)
        rec = recommend(self.pilot(se=2.7), ReplicabilityTarget("df", 8.9e307))
        assert (rec.m_required, rec.capped, type(rec.m_uncapped)) == (10_000, True, float)

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
        results = make_pilot_results(5, 0.39, 0.023)
        low = recommend(pool(results, level), ReplicabilityTarget("cv_of_se", 0.05))
        high = recommend(pool(results, 0.995), ReplicabilityTarget("cv_of_se", 0.05))
        assert high.m_required >= low.m_required

    @given(
        rows=st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)), min_size=2, max_size=30
        ),
        level=st.floats(0.5, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_gamma_used_is_the_pilot_interval_at_its_level(self, rows, level):
        """The plug-in is, bit for bit, gamma_ci at the level the pilot was pooled at."""
        assume(float(np.mean([w for _, w in rows])) > 0.0)
        pilot = pool(rows, level)
        rec = recommend(pilot, ReplicabilityTarget("cv_of_se", 0.05))
        assert repr(rec.gamma_used) == repr(gamma_ci(pilot.gamma_hat, pilot.m, level).upper)


def pilot_block(reps: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """reps pilots of m imputations, their gamma_hat spread over (0, 1),
    at SEs from about 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (reps, 1))
    spread = rng.uniform(0.0, 3.0, (reps, 1))
    estimates = 16.642 * scale + spread * scale * rng.standard_normal((reps, m))
    withins = scale * scale * rng.random((reps, m))
    return estimates, withins


# Goals that cover every branch of the rule: each kind; sd goals whose CV is
# 1 or more (the floor of 2) and whose CV underflows to 0 (inf, capped); and
# a df goal whose count overflows to inf.
COLUMN_TARGETS = [
    ("sd_of_se", 0.001), ("sd_of_se", 1e4), ("sd_of_se", 5e-324),
    ("cv_of_se", 0.05), ("cv_of_se", 0.9), ("cv_of_variance", 0.1),
    ("df", 200.0), ("df", 1.0), ("df", 9e307),
]


class TestRecommendationColumns:
    @pytest.mark.parametrize("kind, value", COLUMN_TARGETS)
    def test_columns_are_recommend_of_each_pilot(self, kind, value):
        """Entry r of every column is, bit for bit, recommend's field for pilot
        r pooled at the same level, at several levels and pilot sizes, and
        with caps from 2 to past int64; a cap past 2**53 counts row by row."""
        target = ReplicabilityTarget(kind, value)
        for m, level, seed in [(2, 0.5, 1), (5, 0.95, 2), (20, 0.9, 3), (5, 0.999, 4)]:
            estimates, withins = pilot_block(40, m, seed)
            pilots = pool_rows(estimates, withins)
            for m_max in (2, 40, 10_000, 2**53, 2**53 + 1, 10**30):
                columns = recommend_replicates(pilots, target, level, m_max)
                recs = [recommend(pool_arrays(e, w, level), target, m_max)
                        for e, w in zip(estimates, withins)]
                for f in fields(RecommendationColumns):
                    got = [repr(v) for v in getattr(columns, f.name).tolist()]
                    assert got == [repr(getattr(rec, f.name)) for rec in recs], (m, level, m_max, f.name)

    def test_every_branch_is_reached(self):
        estimates, withins = pilot_block(40, 5, 2)
        pilots = pool_rows(estimates, withins)
        counts = {kind_value: recommend_replicates(pilots, ReplicabilityTarget(*kind_value))
                  for kind_value in COLUMN_TARGETS}
        assert (counts[("sd_of_se", 1e4)].m_required == 2).all()
        assert counts[("sd_of_se", 5e-324)].capped.all()
        assert counts[("df", 9e307)].capped.all()
        sd = counts[("sd_of_se", 0.001)]
        assert sd.capped.any() and sd.pilot_sufficient.any() and not sd.capped.all()

    def test_counts_past_int64_are_python_ints(self):
        estimates, withins = pilot_block(3, 5, 2)
        columns = recommend_replicates(pool_rows(estimates, withins),
                                       ReplicabilityTarget("df", 9e307), m_max=10**30)
        assert columns.m_required.tolist() == [10**30] * 3
        assert columns.pilot_sufficient.dtype == bool and not columns.pilot_sufficient.any()

    def test_cap_below_two_is_refused_as_recommend_refuses_it(self):
        estimates, withins = pilot_block(3, 5, 2)
        target = ReplicabilityTarget("cv_of_se", 0.05)
        for m_max in (1, -5):
            with pytest.raises(ValueError) as scalar:
                recommend(pool_arrays(estimates[0], withins[0]), target, m_max)
            with pytest.raises(ValueError) as columns:
                recommend_replicates(pool_rows(estimates, withins), target, m_max=m_max)
            assert str(columns.value) == str(scalar.value)


class TestCurves:
    def test_rule_columns(self):
        rows = {r.gamma: r for r in curve_data([0.1, 0.5, 0.9], 0.05)}
        assert (rows[0.5].m_quadratic, rows[0.5].m_linear) == (51, 50)
        assert (rows[0.9].m_quadratic, rows[0.9].m_linear) == (163, 90)
        assert (rows[0.1].m_quadratic, rows[0.1].m_linear) == (3, 10)

    def test_cap_flagged_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = curve_data([0.1, 0.5, 0.9], 0.05, m_max=50)
        assert [(r.m_quadratic, r.m_linear, r.capped) for r in rows] == [
            (3, 10, False), (50, 50, True), (50, 50, True)
        ]
        with pytest.raises(ValueError, match="domain error: m_max"):
            curve_data([0.5], 0.05, m_max=-3)

    def test_df_cv_curve(self):
        pairs = dict(df_cv_curve([0.05, 0.1]))
        assert pairs[0.05] == pytest.approx(200.0, rel=1e-12)
        assert pairs[0.1] == pytest.approx(50.0, rel=1e-12)
        assert df_cv_curve([1e-200]) == [(1e-200, math.inf)]  # 2 cv^2 underflows
        for bad in (1.5, 0.0, math.nan):
            with pytest.raises(ValueError, match="domain error"):
                df_cv_curve([0.05, bad])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="domain error: curve needs at least one gamma"):
            curve_data([], 0.05)
        with pytest.raises(ValueError, match="domain error: df curve needs at least one cv"):
            df_cv_curve([])
