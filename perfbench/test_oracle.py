"""Tests of the benchmark's oracle and output checks.

    python3 -m pytest perfbench -q

The oracle is checked against hand-worked pooling examples and the
paper's worked pilot; each check is shown to reject a deliberately
perturbed output.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

HAND_EXAMPLES = [
    # (estimates, variances, expected fields)
    ([0.0, 2.0], [1.0, 1.0],
     dict(m=2, theta=1.0, w_bar=1.0, b=2.0, v_total=4.0, se=2.0, gamma_hat=0.75,
          df_hat=16.0 / 9.0)),
    ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5],
     dict(m=3, theta=2.0, w_bar=0.5, b=1.0, v_total=11.0 / 6.0, se=math.sqrt(11.0 / 6.0),
          gamma_hat=8.0 / 11.0, df_hat=2.0 * (11.0 / 8.0) ** 2)),
]


def worked_pilot(m=5, gamma=0.39, se=0.023, theta=16.642):
    """Estimates symmetric about theta with equal variances, pooling to (gamma, se)."""
    inflate = 1.0 + 1.0 / m
    b = gamma * se * se / inflate
    w = se * se - inflate * b
    offsets = range(-(m // 2), m // 2 + 1)
    step = math.sqrt(b / (sum(k * k for k in offsets) / (m - 1)))
    return [theta + k * step for k in offsets], [w] * m


@pytest.mark.parametrize("estimates, variances, expected", HAND_EXAMPLES)
def test_pooled_hand_examples(estimates, variances, expected):
    got = oracle.pooled(estimates, variances)
    for field, value in expected.items():
        assert math.isclose(got[field], value, rel_tol=1e-12), field
    half = got["theta_upper"] - got["theta"]
    t = half / got["se"]
    # t is the 97.5% point of Student's t at df_hat: check it by its density
    # integral rather than by the same scipy routine
    from scipy import integrate, special

    df = got["df_hat"]
    pdf = lambda x: math.exp(special.gammaln((df + 1) / 2) - special.gammaln(df / 2)) / math.sqrt(
        df * math.pi) * (1 + x * x / df) ** (-(df + 1) / 2)
    assert math.isclose(0.5 + integrate.quad(pdf, 0.0, t)[0], 0.975, rel_tol=1e-9)


def test_gamma_interval_is_symmetric_on_the_logit_scale():
    lower, upper = oracle.gamma_interval(0.5, 20)
    assert math.isclose(lower + upper, 1.0, rel_tol=1e-12)
    half = math.log(upper / (1 - upper))
    assert math.isclose(half, 1.959963984540054 * math.sqrt(2 / 20), rel_tol=1e-12)


def test_paper_worked_pilot():
    estimates, variances = worked_pilot()
    pilot = oracle.pooled(estimates, variances)
    assert math.isclose(pilot["gamma_hat"], 0.39, rel_tol=1e-9)
    assert math.isclose(pilot["se"], 0.023, rel_tol=1e-9)
    cv = oracle.cv_target("sd_of_se", 0.001, pilot["se"])
    assert abs(pilot["gamma_upper"] - 0.69) <= 0.005
    (m,) = oracle.allowed_m(pilot["gamma_upper"], cv)
    assert 124 <= m <= 128
    assert oracle.check_plan(pilot, "sd_of_se", 0.001, m, False) == []


def test_target_kinds_agree():
    se = 0.02
    cvs = {oracle.cv_target(kind, value, se) for kind, value in
           (("sd_of_se", 0.05 * se), ("cv_of_se", 0.05), ("cv_of_variance", 0.1), ("df", 200.0))}
    assert max(cvs) - min(cvs) < 1e-15


def test_allowed_m_floor_and_integer_boundary():
    assert oracle.allowed_m(0.01, 0.5) == {2}
    assert oracle.allowed_m(0.3, 1.5) == {2}
    # 1 + (0.5 / 0.05)^2 / 2 = 51 up to float rounding: 51 or 52 is allowed
    assert 51 in oracle.allowed_m(0.5, 0.05)
    assert oracle.allowed_m(0.5, 0.0501) == {51}


def test_perturbed_pooled_output_fails():
    estimates, variances = worked_pilot()
    want = oracle.pooled(estimates, variances)
    assert oracle.check_pooled(dict(want), want) == []
    for field in oracle.POOLED_FIELDS:
        got = dict(want)
        got[field] = want[field] + 1 if field == "m" else want[field] * (1 + 1e-6)
        assert oracle.check_pooled(got, want), field


def test_perturbed_recommendation_fails():
    estimates, variances = worked_pilot()
    pilot = oracle.pooled(estimates, variances)
    (m,) = oracle.allowed_m(pilot["gamma_upper"], 0.05)
    assert oracle.check_plan(pilot, "cv_of_se", 0.05, m, False) == []
    assert oracle.check_plan(pilot, "cv_of_se", 0.05, m + 1, False)
    assert oracle.check_plan(pilot, "cv_of_se", 0.05, m, True)


def test_program_pooling_passes_and_perturbed_fails():
    mp = pytest.importorskip("miplan")
    estimates, variances = worked_pilot()
    a = mp.pool(list(zip(estimates, variances)))
    got = dict(zip(oracle.POOLED_FIELDS, (
        a.m, a.theta, a.w_bar, a.b, a.v_total, a.se, a.gamma_hat, a.gamma_raw, a.df_hat,
        a.gamma_interval.lower, a.gamma_interval.upper, *a.theta_interval)))
    want = oracle.pooled(estimates, variances)
    assert oracle.check_pooled(got, want) == []
    got["theta_upper"] += 1e-6
    assert oracle.check_pooled(got, want)


def test_two_stage_check_passes_and_perturbed_fails(tmp_path):
    cli = pytest.importorskip("miplan.cli")
    t = workloads.TWO_STAGE
    base = str(tmp_path / "ts")
    seed = 11
    argv = workloads.make_inputs("two_stage_small_n", 0, str(tmp_path))["argv"]
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--seed", str(seed), "--out", base]) == 0
    with open(base + ".stdout", "w") as fh:
        fh.write(buf.getvalue())
    bad, imputations, achieved, predicted = workloads.check_two_stage_call(base, seed)
    assert bad == []
    assert imputations >= t["reps"] * t["pilot_m"]
    assert 0 < achieved and 0 < predicted

    with open(base + ".csv") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("m_required")] = str(int(row[header.index("m_required")]) + 1)
    with open(base + ".csv", "w") as fh:
        fh.write("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    bad, *_ = workloads.check_two_stage_call(base, seed)
    assert any("m_required" in b for b in bad)


def write_curve(path, m_quad, m_lin, m_sim):
    with open(path, "w") as fh:
        fh.write(f"gamma,m_quadratic,m_linear,m_simulated\n0.5,{m_quad},{m_lin},{m_sim}\n")


def test_search_check(tmp_path):
    lo, hi = workloads.search_band()
    assert lo < 51 < hi
    base = str(tmp_path / "curve")
    write_curve(base + ".csv", 51, 50, 59)
    assert workloads.check_search_call(base) == ([], 59)
    for args in ((52, 50, 59), (51, 51, 59), (51, 50, lo - 1), (51, 50, hi + 1)):
        write_curve(base + ".csv", *args)
        assert workloads.check_search_call(base)[0], args
