"""Pooling: hand-checked examples, invariance properties, CSV reading."""

from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import miplan.pooling as pooling
from miplan import GAMMA_EPS, ImputationResult, gen_incomplete, pool, read_results_csv, stream
from miplan.imputer import draw_mean_variates, mean_analyses
from miplan.montecarlo import TAG_DATA, TAG_REP
from miplan.pooling import ImputationResults, pool_arrays, pool_rows, pool_segments

import reference


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
    rows=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)), min_size=2, max_size=30),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_results_csv_pools_identically_under_any_index_order(rows, data):
    assume(float(np.mean([w for _, w in rows])) > 0.0)
    indices = data.draw(st.permutations(range(1, len(rows) + 1)))
    pooled = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, order in (("in_order", range(1, len(rows) + 1)), ("shuffled", indices)):
            path = Path(scratch) / f"{name}.csv"
            path.write_text("imputation,estimate,variance\n" + "".join(
                f"{i},{e!r},{w!r}\n" for i, (e, w) in zip(order, rows)))
            pooled.append(repr(pool(read_results_csv(str(path)))))
    # repr keeps every float's bits, the sign of zero included
    assert pooled[0] == pooled[1]


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
    # pool puts a user's rows in lexsort order; pool_arrays pools them as given
    order = np.lexsort((withins, estimates))
    # repr keeps every float's bits, the sign of zero included
    assert repr(pool_arrays(estimates[order], withins[order], level)) == repr(pool(rows, level))


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
        # pool_rows of the row alone gives the same fields, as Python floats
        alone = pool_rows(estimates[r], withins[r])
        assert [repr(getattr(alone, f)) for f in KERNEL_FIELDS] == [
            repr(getattr(row, f)) for f in KERNEL_FIELDS]
        # the sums are numpy's own mean and var(ddof=1) of the row as given
        assert repr(row.theta) == repr(float(np.mean(estimates[r])))
        assert repr(row.b) == repr(float(np.var(estimates[r], ddof=1)))
        assert repr(row.w_bar) == repr(float(np.mean(withins[r])))


def make_bad(estimates, withins, kind):
    """Make a row or segment bad in place: all zero, so its total variance is
    zero, and for an overflow, two estimates whose sum overflows too."""
    estimates[:], withins[:] = 0.0, 0.0
    if kind == "overflow":
        estimates[:2] = 1.7e308


def assert_segments_pool_as_alone(estimates, withins, ms):
    """pool_segments is, field by field and bit for bit, pool_rows of each
    segment alone; or, when a segment is bad, the first raises what pooling
    it alone raises."""
    ends = np.cumsum(ms)
    segments = [(e - m, e) for e, m in zip(ends.tolist(), ms)]
    errors = []
    for s, e in segments:
        try:
            pool_rows(estimates[s:e], withins[s:e])
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        with pytest.raises(ValueError) as exc:
            pool_segments(estimates, withins, ms)
        assert str(exc.value) == errors[0]
        return
    pooled = pool_segments(estimates, withins, ms)
    assert pooled.m.tolist() == list(ms)
    for i, (s, e) in enumerate(segments):
        alone = pool_rows(estimates[s:e], withins[s:e])
        for field in KERNEL_FIELDS:
            assert repr(getattr(pooled, field)[i].item()) == repr(getattr(alone, field)), (i, field)


@given(
    ms=st.lists(st.integers(2, 300), min_size=1, max_size=8),
    scale=st.floats(1e-5, 1e5),
    seed=st.integers(0, 2**32 - 1),
    bad=st.lists(st.tuples(st.sampled_from(sorted(BAD_ROW_ERRORS)), st.integers(0, 7)),
                 max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_pool_segments_is_pool_rows_segment_by_segment(ms, scale, seed, bad):
    """Segments of 2 to 300 imputations, so that many cross numpy's pairwise
    block of 128, at scales from 1e-5 to 1e5 about an offset, so that the
    deviations cancel."""
    rng = np.random.default_rng(seed)
    estimates = scale * (rng.standard_normal() * 10.0 + rng.standard_normal(sum(ms)))
    withins = scale * scale * rng.random(sum(ms))
    ends = np.cumsum(ms).tolist()
    for kind, i in bad:
        i %= len(ms)
        make_bad(estimates[ends[i] - ms[i]:ends[i]], withins[ends[i] - ms[i]:ends[i]], kind)
    assert_segments_pool_as_alone(estimates, withins, ms)


@pytest.mark.parametrize("kind", sorted(BAD_ROW_ERRORS))
def test_first_bad_segment_raises_what_it_raises_alone(kind):
    estimates, withins = engine_block(1, 700)
    estimates, withins = estimates[0], withins[0]
    ms = [5, 200, 3, 300, 192]
    make_bad(estimates[208:508], withins[208:508], kind)  # the fourth segment
    with pytest.raises(ValueError) as exc:
        pool_segments(estimates, withins, ms)
    assert str(exc.value) == BAD_ROW_ERRORS[kind]
    assert_segments_pool_as_alone(estimates, withins, ms)


def engine_block(reps, m, seed=1515):
    """The estimates and within variances of reps engine poolings of m,
    as one required-m probe block draws them (n = 2000, half of y missing)."""
    data = gen_incomplete(2000, 0.0, 0.5, stream(seed, TAG_DATA))
    variates = draw_mean_variates(data, reps * m, stream(seed, TAG_REP, 0, m))
    return mean_analyses(data.mean_stats, *(v.reshape(reps, m) for v in variates))


def assert_rows_pool_as_alone(estimates, withins, alone=pool_rows):
    """pool_rows of the block is, field by field and bit for bit, each row
    pooled alone, by ``alone``, in its given order."""
    pooled = pool_rows(estimates, withins)
    for r, (e, w) in enumerate(zip(estimates, withins)):
        row = alone(e, w)
        for field in KERNEL_FIELDS:
            assert repr(getattr(pooled, field)[r].item()) == repr(float(getattr(row, field)))


def lexsorted(estimates, withins):
    """The block with each row sorted by (estimate, within variance): the
    order pool puts a user's rows in."""
    order = np.lexsort((withins, estimates), axis=-1)
    return np.take_along_axis(estimates, order, -1), np.take_along_axis(withins, order, -1)


def assert_pools_as_given_and_in_lexsort_order(estimates, withins):
    """Each row of the block pools as it would alone in the order given, and
    a block whose rows are in lexsort order pools each row as pool does."""
    assert_rows_pool_as_alone(estimates, withins)
    assert_rows_pool_as_alone(*lexsorted(estimates, withins),
                              alone=lambda e, w: pool(ImputationResults(e, w)))


@pytest.mark.parametrize("reps, m", [(200, 54), (200, 169), (2000, 20)])
def test_engine_block_pools_in_lexsort_order(reps, m):
    estimates, withins = engine_block(reps, m)
    assert_pools_as_given_and_in_lexsort_order(estimates, withins)
    # the leading columns of a block, as a view, pool as those columns alone
    assert_rows_pool_as_alone(estimates[:, : m // 2], withins[:, : m // 2])


# Rows with a tie.  In the first two, the order among equal estimates
# changes w_bar's bits: summed in lexsort order the two withins of 1.0 come
# before 1e16 and survive its rounding; summed 1e16 first, as given, they
# are lost.
TIED_ROWS = {
    "tied estimates": ([0.0, 0.0, -1.0], [1e16, 1.0, 1.0]),
    "signed zeros": ([0.0, -0.0, -1.0], [1e16, 1.0, 1.0]),
    # a dataset with no missing y gives every imputation the same analysis
    "all equal": ([2.5, 2.5, 2.5], [0.25, 0.25, 0.25]),
}


@pytest.mark.parametrize("tied", sorted(TIED_ROWS))
def test_block_with_a_tie_pools_in_lexsort_order(tied):
    estimates = np.array([[3.0, 1.0, 2.0], TIED_ROWS[tied][0], [-5.0, 4.0, 0.5]])
    withins = np.array([[1.0, 2.0, 3.0], TIED_ROWS[tied][1], [0.5, 0.5, 0.5]])
    assert_pools_as_given_and_in_lexsort_order(estimates, withins)
    as_given = pool_rows(estimates, withins).w_bar[1]
    in_lexsort_order = pool_rows(*lexsorted(estimates, withins)).w_bar[1]
    assert (as_given == in_lexsort_order) == (tied == "all equal")


def test_lexsort_only_in_pool(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def counting_lexsort(keys, axis=-1):
        calls.append(np.shape(keys))
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    estimates, withins = engine_block(200, 54)
    tied = estimates.copy()
    tied[7, 3] = tied[7, 11]
    pool_rows(estimates, withins)
    pool_rows(tied, withins)
    pool_rows(estimates[0], withins[0])
    pool_arrays(estimates[0], withins[0])
    assert calls == []
    pool([(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)])
    pool(ImputationResults(estimates[0], withins[0]))
    assert calls == [(2, 3), (2, 54)]


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

    def test_value_error_names_line_once(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imputation,estimate,variance\n1,inf,1.0\n2,0.0,1.0\n")
        with pytest.raises(ValueError) as exc:
            read_results_csv(str(path))
        assert str(exc.value) == f"invalid input: {path}:2: estimate must be finite, got inf"

    def test_columns_are_read_only_arrays_in_index_order(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("imputation,estimate,variance\n2,2.0,1.0\n\n1,0.0,0.5\n")
        results = read_results_csv(str(path))
        assert isinstance(results, ImputationResults) and len(results) == 2
        assert results.estimates.tolist() == [0.0, 2.0]
        assert results.withins.tolist() == [0.5, 1.0]
        assert results[1] == ImputationResult(2.0, 1.0)
        for column in (results.estimates, results.withins):
            with pytest.raises(ValueError):
                column[0] = 1.0


@pytest.mark.parametrize("estimates, withins", [
    ([1.0, math.nan], [1.0, 1.0]),
    ([1.0, 2.0], [1.0, math.inf]),
    ([1.0, 2.0], [1.0, -0.5]),
    ([1.0, 2.0], [1.0]),
    ([[1.0, 2.0]], [[1.0, 1.0]]),
])
def test_imputation_results_checks_its_columns(estimates, withins):
    with pytest.raises(ValueError, match="invalid input"):
        ImputationResults(estimates, withins)


def test_imputation_results_copies_and_pools_as_its_rows():
    estimates, withins = np.array([3.0, 1.0, 2.0]), np.array([0.5, 0.25, 1.0])
    results = ImputationResults(estimates, withins)
    estimates[0] = math.nan  # the caller's array stays its own
    assert results.estimates.tolist() == [3.0, 1.0, 2.0]
    assert list(results[1:]) == [ImputationResult(1.0, 0.25), ImputationResult(2.0, 1.0)]
    assert repr(pool(results, 0.9)) == repr(pool(list(results), 0.9))


# Indices that int() parses but int64 cannot hold, so that numpy refuses them.
BIG_INDICES = [str(2**63), str(-2**63 - 1), "99999999999999999999"]

# Cells that break a row in each way a reader must catch.
BAD_CELLS = {
    "index": ["0", "-1", "x", "1.0", "", "\"2,\"", *BIG_INDICES],
    "estimate": ["nan", "inf", "-inf", "1e309", "zero", "", "0x10"],
    "variance": ["-0.5", "-1e-300", "nan", "inf", "1e400", "abc", ""],
}


@st.composite
def results_file(draw) -> str:
    """A results CSV, valid or broken by one or more mutations: blank lines,
    a BOM, spaced header names, quoted fields, wrong column counts, bad
    cells, negative variances, index 0, duplicate indices and gaps."""
    m = draw(st.integers(0, 7))
    indices = draw(st.permutations(range(1, m + 1)))
    rows = [
        [str(i), repr(draw(st.floats(-1e300, 1e300))),
         repr(draw(st.floats(0.0, 1e300) | st.just(-0.0)))]
        for i in indices
    ]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["blank", "quote", "columns", "cell", "cell", "duplicate", "gap", "space"]))
        if not rows and kind not in ("blank", "space"):
            continue
        r = draw(st.integers(0, max(len(rows) - 1, 0)))
        if kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif kind == "space":  # int and float skip whitespace around a number
            c = draw(st.integers(0, 2))
            if rows[r:] and rows[r][c:]:
                rows[r][c] = f" {rows[r][c]}\t"
        elif kind == "quote":
            c = draw(st.integers(0, 2))
            if rows[r][c:]:
                rows[r][c] = f'"{rows[r][c]}"'
        elif kind == "columns":
            rows[r] = rows[r][: draw(st.integers(0, 2))] if draw(st.booleans()) else rows[r] + ["1"]
        elif kind == "cell":
            c = draw(st.integers(0, 2))
            if len(rows[r]) == 3:
                rows[r][c] = draw(st.sampled_from(BAD_CELLS[("index", "estimate", "variance")[c]]))
        elif kind == "duplicate" and rows[r]:
            rows[r][0] = draw(st.sampled_from([row[0] for row in rows if row] or ["1"]))
        elif kind == "gap":
            del rows[r]
    header = draw(st.sampled_from(["imputation,estimate,variance"] * 5
                                  + [" imputation , estimate,variance"] * 4 + ["imputation,estimate"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def read_or_error(read, path):
    """The (estimate, variance) bits of each row read, or the error message."""
    try:
        return [(repr(r.estimate), repr(r.within_variance)) for r in read(path)]
    except ValueError as exc:
        return str(exc)


def numbered_rows(count: int) -> str:
    return "".join(f"{i},{i / 7!r},{i / 3!r}\n" for i in range(count, 0, -1))


def test_readers_name_the_file_of_invalid_utf8(tmp_path):
    # A bad byte in the first 8 KB, and one far enough in that csv.reader's
    # file reads it in a later chunk, where its position counts from that chunk.
    for rows in (1, 400):
        path = tmp_path / f"results_{rows}.csv"
        body = f"imputation,estimate,variance\n{numbered_rows(rows)}".encode()
        assert (len(body) > 8192) == (rows == 400)
        path.write_bytes(body + b"0,\xff,1\n")
        message = read_or_error(read_results_csv, str(path))
        assert message.startswith(f"invalid input: {path}: 'utf-8' codec can't decode byte 0xff")
        assert read_or_error(reference.read_results_csv, str(path)) == message


VALID_BODY = "imputation,estimate,variance\n2,2.0,1.0\n1,0.5,0.25\n"
OVER_LIMIT = csv.field_size_limit() + 1


# Files that csv.reader must tokenise, or that test the edges of splitting
# at commas: each reads as the reference reads it, values or message.
@pytest.mark.parametrize("body, reads", [
    (VALID_BODY.replace("\n", "\r\n"), True),
    (VALID_BODY.replace("\n", "\r"), True),
    (VALID_BODY.replace("\n1,", "\r\n1,"), True),
    (VALID_BODY.replace("0.25", "0.25\0"), False),
    (VALID_BODY + "\0\n", False),
    (VALID_BODY + f"3,{'1' * OVER_LIMIT},1.0\n", False),
    ("imputation,estimate,variance\n" + numbered_rows(OVER_LIMIT // 30), True),
    (VALID_BODY + " \t \n", False),
    (VALID_BODY.rstrip("\n"), True),
    ("imputation,estimate,variance", True),
    ("\n" + VALID_BODY, False),
    (VALID_BODY + "\n\n", True),
], ids=["crlf", "cr", "mixed", "nul-in-cell", "nul-line", "field-over-limit",
        "file-over-limit", "whitespace-line", "no-final-newline", "header-only",
        "blank-first-line", "blank-last-lines"])
def test_reader_matches_reference_across_tokenisers(tmp_path, body, reads):
    path = tmp_path / "results.csv"
    path.write_bytes(body.encode())
    expected = read_or_error(reference.read_results_csv, str(path))
    assert isinstance(expected, list) == reads
    assert read_or_error(read_results_csv, str(path)) == expected


def permuted_rows(count: int, seed: int = 29) -> str:
    """count rows of values spread over float64's range, in a seeded order."""
    rng = np.random.default_rng(seed)
    estimates = (rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)).tolist()
    withins = (rng.random(count) * 10.0 ** rng.integers(-300, 300, count)).tolist()
    return "".join(f"{i + 1},{estimates[i]!r},{withins[i]!r}\n" for i in rng.permutation(count))


# Edges of the column checks: indices past int64, in either tokenizer;
# variances of -0.0; and a long file in permuted order.  Each reads, bit for bit, as the
# reference reads it, or fails with the reference's message.
@pytest.mark.parametrize("body, reads", [
    *[(f"imputation,estimate,variance\n{i},1.0,1.0\n", False) for i in BIG_INDICES],
    *[(f"imputation,estimate,variance\n2,1.0,1.0\n{i},2.0,1.0\n1,0.5,1.0\n", False)
      for i in BIG_INDICES],
    *[(f"imputation,estimate,variance\r\n1,1.0,1.0\r\n{i},2.0,1.0\r\n", False)
      for i in BIG_INDICES],
    ("imputation,estimate,variance\n2,3.0,-0.0\n1,1.0,-0.0\n3,2.0,0.5\n", True),
    ("imputation,estimate,variance\n" + permuted_rows(200), True),
], ids=[*(f"{where}-{i}" for where in ("alone", "among-valid", "crlf") for i in BIG_INDICES),
        "negative-zero-variances", "permuted-200"])
def test_reader_matches_reference_at_column_check_edges(tmp_path, body, reads):
    path = tmp_path / "results.csv"
    path.write_bytes(body.encode())
    expected = read_or_error(reference.read_results_csv, str(path))
    assert isinstance(expected, list) == reads
    assert read_or_error(read_results_csv, str(path)) == expected


def test_reader_keeps_finite_estimates_whose_sum_overflows(tmp_path):
    """The column's sum is inf, so the reader's array check decides: the
    file reads, and pooling it overflows as README's pool section says."""
    path = tmp_path / "results.csv"
    path.write_text("imputation,estimate,variance\n2,1.7e308,1.0\n1,1.7e308,2.0\n")
    expected = read_or_error(reference.read_results_csv, str(path))
    assert expected == [("1.7e+308", "2.0"), ("1.7e+308", "1.0")]
    assert read_or_error(read_results_csv, str(path)) == expected
    with pytest.raises(ValueError) as exc:
        pool(read_results_csv(str(path)))
    assert str(exc.value) == "invalid input: pooled estimate or variance overflows float64"


def test_reader_opens_the_file_once(tmp_path, monkeypatch):
    """A pipe or FIFO can be read once, so no file goes back to the disk for
    csv.reader: not a CRLF file, and not one that fails to decode."""
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(pooling, "open", counting_open, raising=False)
    for i, body in enumerate([VALID_BODY.encode(), VALID_BODY.replace("\n", "\r\n").encode(),
                              VALID_BODY.encode() + b"3,\xff,1\n"]):
        path = str(tmp_path / f"results_{i}.csv")
        Path(path).write_bytes(body)
        read_or_error(read_results_csv, path)
        assert opened == [path]
        opened.clear()


@given(body=results_file())
@settings(max_examples=400, deadline=None)
def test_reader_matches_reference_reader(body):
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "results.csv")
        Path(path).write_text(body, encoding="utf-8")
        expected = read_or_error(reference.read_results_csv, path)
        assert read_or_error(read_results_csv, path) == expected
        if isinstance(expected, str):
            return
        results = read_results_csv(path)
        assert [(repr(e), repr(w)) for e, w in zip(results.estimates.tolist(),
                                                   results.withins.tolist())] == expected
        try:
            pooled = repr(pool(list(results)))
        except ValueError as exc:
            pooled = str(exc)
        try:
            assert repr(pool(results)) == pooled
        except ValueError as exc:
            assert str(exc) == pooled
