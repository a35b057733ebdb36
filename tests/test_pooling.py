"""Pooling: hand-checked examples, invariance properties, CSV reading."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from miplan import GAMMA_EPS, ImputationResult, pool, read_results_csv
from miplan.pooling import pool_arrays, pool_rows


def rel_close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def test_two_imputation_hand_example():
    a = pool([(0.0, 1.0), (2.0, 1.0)])
    assert a.m == 2
    assert rel_close(a.theta, 1.0)
    assert rel_close(a.b, 2.0)
    assert rel_close(a.w_bar, 1.0)
    assert rel_close(a.v_total, 4.0)
    assert rel_close(a.se, 2.0)
    assert rel_close(a.gamma_hat, 0.75)
    assert rel_close(a.df_hat, 16.0 / 9.0)


def test_three_imputation_hand_example():
    a = pool([(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)])
    assert rel_close(a.theta, 2.0)
    assert rel_close(a.b, 1.0)
    assert rel_close(a.w_bar, 0.5)
    assert rel_close(a.v_total, 11.0 / 6.0)
    assert rel_close(a.gamma_hat, 8.0 / 11.0)
    assert rel_close(a.df_hat, 2.0 * (11.0 / 8.0) ** 2)


def test_zero_between_variance_clamps_gamma():
    a = pool([(5.0, 2.0)] * 4)
    assert a.b == 0.0
    assert rel_close(a.v_total, 2.0)
    assert a.gamma_raw == 0.0
    assert a.gamma_hat == GAMMA_EPS
    assert math.isfinite(a.df_hat) and a.df_hat > 1e11


def test_theta_interval_against_scipy():
    a = pool([(0.0, 1.0), (2.0, 1.0)], level=0.9)
    half = stats.t.ppf(0.95, a.df_hat) * a.se
    assert a.theta_interval[0] == pytest.approx(a.theta - half, rel=1e-8)
    assert a.theta_interval[1] == pytest.approx(a.theta + half, rel=1e-8)


def test_gamma_interval_level_passthrough():
    a = pool([(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)], level=0.8)
    assert a.gamma_interval.level == 0.8
    assert a.gamma_interval.m == 3
    assert a.gamma_interval.point == a.gamma_hat


def test_errors():
    with pytest.raises(ValueError, match="insufficient imputations"):
        pool([(1.0, 1.0)])
    with pytest.raises(ValueError, match="invalid input"):
        pool([(1.0, -0.5), (2.0, 1.0)])
    with pytest.raises(ValueError, match="invalid input"):
        pool([(math.nan, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError, match="invalid input"):
        pool([(math.inf, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError, match="invalid input"):
        ImputationResult(1.0, math.inf)
    with pytest.raises(ValueError, match="invalid input"):
        pool([(0.0, 0.0), (0.0, 0.0)])  # degenerate: total variance zero
    with pytest.raises(ValueError, match="domain error"):
        pool([(0.0, 1.0), (2.0, 1.0)], level=1.5)


estimates_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=12
)
withins_strategy = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@given(ests=estimates_strategy, w=withins_strategy, c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=80, deadline=None)
def test_scale_equivariance(ests, w, c):
    base = pool([(e, w) for e in ests])
    scaled = pool([(e * c, w * c * c) for e in ests])
    assert rel_close(scaled.theta, base.theta * c, 1e-9)
    assert rel_close(scaled.se, base.se * c, 1e-9)
    assert rel_close(scaled.gamma_hat, base.gamma_hat, 1e-9)
    assert rel_close(scaled.df_hat, base.df_hat, 1e-9)


@given(ests=estimates_strategy, w=withins_strategy, c=st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=80, deadline=None)
def test_shift_invariance(ests, w, c):
    base = pool([(e, w) for e in ests])
    shifted = pool([(e + c, w) for e in ests])
    assert shifted.theta == pytest.approx(base.theta + c, rel=1e-9, abs=1e-6)
    assert rel_close(shifted.se, base.se, 1e-9)
    assert rel_close(shifted.gamma_hat, base.gamma_hat, 1e-9)
    assert rel_close(shifted.b, base.b, 1e-6) or shifted.b == pytest.approx(base.b, abs=1e-6)


@given(ests=estimates_strategy, w=withins_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance_is_exact(ests, w, data):
    perm = data.draw(st.permutations(list(range(len(ests)))))
    base = pool([(e, w) for e in ests])
    permuted = pool([(ests[i], w) for i in perm])
    assert permuted.theta == base.theta
    assert permuted.b == base.b
    assert permuted.v_total == base.v_total
    assert permuted.gamma_hat == base.gamma_hat
    assert permuted.theta_interval == base.theta_interval


@given(
    ests=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=10),
    w=st.floats(min_value=1e-3, max_value=10.0),
    k=st.floats(min_value=1.1, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_spread_monotonicity(ests, w, k):
    assume(float(np.var(ests)) > 1e-6)
    base = pool([(e, w) for e in ests])
    mean = float(np.mean(ests))
    widened = pool([(mean + k * (e - mean), w) for e in ests])
    assert widened.v_total > base.v_total
    # strict on the raw fraction; the reported one may saturate at 1 - eps
    assert widened.gamma_raw > base.gamma_raw
    assert widened.gamma_hat >= base.gamma_hat


@given(ests=estimates_strategy, w=withins_strategy)
@settings(max_examples=80, deadline=None)
def test_total_variance_dominates_within(ests, w):
    a = pool([(e, w) for e in ests])
    assert a.v_total >= a.w_bar
    assert a.se == math.sqrt(a.v_total)
    assert abs(a.v_total - (a.w_bar + (1 + 1 / a.m) * a.b)) <= 1e-12 * a.v_total


@given(
    rows=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)), min_size=2, max_size=30
    ),
    level=st.floats(0.5, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_pool_arrays_is_pool_bit_for_bit(rows, level):
    assume(float(np.mean([w for _, w in rows])) > 0.0)
    estimates, withins = (np.array(column) for column in zip(*rows))
    # repr keeps every float's bits, the sign of zero included
    assert repr(pool_arrays(estimates, withins, level)) == repr(pool(rows, level))


KERNEL_FIELDS = ("theta", "w_bar", "b", "v_total", "se", "gamma_hat", "gamma_raw", "df_hat")

# What pooling a row alone raises, for each way a row can be made bad.
BAD_ROW_ERRORS = {
    "overflow": "invalid input: pooled estimate or variance overflows float64",
    "zero variance": "invalid input: pooled variance must be positive",
}


@given(
    data=st.data(),
    reps=st.integers(1, 5),
    m=st.integers(2, 12),
    bad=st.lists(st.sampled_from(sorted(BAD_ROW_ERRORS)), max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_pool_rows_is_pool_arrays_row_by_row(data, reps, m, bad):
    estimates = data.draw(arrays(np.float64, (reps, m), elements=st.floats(-1e6, 1e6)))
    withins = data.draw(arrays(np.float64, (reps, m), elements=st.floats(1e-6, 1e6)))
    bad_rows = {}
    for kind in bad:
        i = data.draw(st.integers(0, reps - 1))
        bad_rows[i] = kind
        estimates[i], withins[i] = 0.0, 0.0
        if kind == "overflow":
            estimates[i, :2] = 1.7e308
    for i, kind in bad_rows.items():
        with pytest.raises(ValueError) as exc:
            pool_arrays(estimates[i], withins[i])
        assert str(exc.value) == BAD_ROW_ERRORS[kind]
    if bad_rows:
        # the first bad row raises what pooling it alone raises
        with pytest.raises(ValueError) as exc:
            pool_rows(estimates, withins)
        assert str(exc.value) == BAD_ROW_ERRORS[bad_rows[min(bad_rows)]]
        return
    rows = [pool_arrays(e, w) for e, w in zip(estimates, withins)]
    pooled = pool_rows(estimates, withins)
    assert pooled.m == m
    for r, row in enumerate(rows):
        for field in KERNEL_FIELDS:
            # repr keeps every float's bits, the sign of zero included
            assert repr(getattr(pooled, field)[r].item()) == repr(getattr(row, field)), field
        # the sums are numpy's own mean and var(ddof=1) of the canonical order
        order = np.lexsort((withins[r], estimates[r]))
        assert repr(row.theta) == repr(float(np.mean(estimates[r][order])))
        assert repr(row.b) == repr(float(np.var(estimates[r][order], ddof=1)))
        assert repr(row.w_bar) == repr(float(np.mean(withins[r][order])))


def test_accepts_result_objects_and_pairs():
    via_pairs = pool([(0.0, 1.0), (2.0, 1.0)])
    via_objects = pool([ImputationResult(0.0, 1.0), ImputationResult(2.0, 1.0)])
    assert via_pairs == via_objects


class TestResultsCsv:
    def test_reads_in_any_order(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imputation,estimate,variance\n2,2.0,1.0\n1,0.0,1.0\n")
        results = read_results_csv(str(path))
        assert [r.estimate for r in results] == [0.0, 2.0]

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imputation,estimate,variance\n1,0.0,1.0\n1,2.0,1.0\n")
        with pytest.raises(ValueError, match="duplicate imputation index"):
            read_results_csv(str(path))

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imputation,estimate,variance,note\n1,0.0,1.0,x\n")
        with pytest.raises(ValueError, match="header"):
            read_results_csv(str(path))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imp,est,var\n1,0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_results_csv(str(path))

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imputation,estimate,variance\n1,zero,1.0\n")
        with pytest.raises(ValueError, match="invalid input"):
            read_results_csv(str(path))

    def test_bad_index_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imputation,estimate,variance\n0,0.0,1.0\n")
        with pytest.raises(ValueError, match="index must be >= 1"):
            read_results_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_results_csv(str(path))
