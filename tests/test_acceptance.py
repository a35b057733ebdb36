"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Monte Carlo criteria use fixed seeds, so results are
reproducible; thresholds and runtime limits are asserted as stated.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from scipy import stats

import miplan as mp
from miplan.cli import main
from miplan.montecarlo import TAG_DATA

from conftest import make_pilot_results
from test_fmi import REFERENCE_CELLS


class Check:
    """Collect assertions, then emit a single pass/fail line."""

    def __init__(self, num: int, label: str, limit_s: float):
        self.num = num
        self.label = label
        self.limit_s = limit_s
        self.failures: list[str] = []
        self.start = time.perf_counter()

    def expect(self, ok: bool, detail: str):
        if not ok:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        if elapsed > self.limit_s:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds {self.limit_s:.0f}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"{status} criterion {self.num} ({elapsed:.2f}s): {self.label}")
        assert not self.failures, f"criterion {self.num}: " + "; ".join(self.failures)


def test_criterion_01_table1_reproduction(capsys):
    check = Check(1, "table1 matches all 20 published CI cells to +/-0.005", 1.0)
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    check.expect(lines[0] == "gamma,m,lower,upper", "bad header")
    check.expect(len(lines) == 21, f"expected 20 rows, got {len(lines) - 1}")
    for line in lines[1:]:
        g_str, m_str, lo_str, up_str = line.split(",")
        key = (float(g_str), int(m_str))
        ref_lo, ref_up = REFERENCE_CELLS[key]
        check.expect(
            abs(float(lo_str) - ref_lo) <= 0.005 and abs(float(up_str) - ref_up) <= 0.005,
            f"cell {key}: ({lo_str}, {up_str}) vs ({ref_lo}, {ref_up})",
        )
    check.finish()


def test_criterion_02_pooling_oracle():
    check = Check(2, "pool() matches both hand-computed examples to 1e-12 relative", 1.0)

    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    a = mp.pool([(0.0, 1.0), (2.0, 1.0)])
    expected_a = dict(m=2, theta=1.0, w_bar=1.0, b=2.0, v_total=4.0, se=2.0,
                      gamma_hat=0.75, df_hat=16.0 / 9.0)
    b = mp.pool([(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)])
    expected_b = dict(m=3, theta=2.0, w_bar=0.5, b=1.0, v_total=11.0 / 6.0,
                      se=math.sqrt(11.0 / 6.0), gamma_hat=8.0 / 11.0,
                      df_hat=2.0 * (11.0 / 8.0) ** 2)
    for analysis, expected in ((a, expected_a), (b, expected_b)):
        for field, value in expected.items():
            got = getattr(analysis, field)
            check.expect(close(got, value), f"{field}: {got} vs {value}")
        # interval fields against an independent quantile oracle
        z = stats.norm.ppf(0.5 * (1 + analysis.level))
        half_logit = z * math.sqrt(2.0 / analysis.m)
        center = math.log(analysis.gamma_hat / (1 - analysis.gamma_hat))
        lo = 1 / (1 + math.exp(-(center - half_logit)))
        up = 1 / (1 + math.exp(-(center + half_logit)))
        check.expect(math.isclose(analysis.gamma_interval.lower, lo, rel_tol=1e-9), "gamma lower")
        check.expect(math.isclose(analysis.gamma_interval.upper, up, rel_tol=1e-9), "gamma upper")
        t_half = stats.t.ppf(0.5 * (1 + analysis.level), analysis.df_hat) * analysis.se
        check.expect(
            math.isclose(analysis.theta_interval[1] - analysis.theta, t_half, rel_tol=1e-8),
            "theta interval half-width",
        )
    check.finish()


def test_criterion_03_rule_identities():
    check = Check(3, "se-cv, df, and variance-cv rules agree exactly on a 50x10 grid", 1.0)
    gammas = np.linspace(0.015, 0.985, 50)
    cvs = np.linspace(0.01, 0.20, 10)
    for g in gammas:
        g = float(g)
        for cv in cvs:
            cv = float(cv)
            m_se = mp.m_for_se_cv(g, cv)
            m_df = mp.m_for_df(g, 1.0 / (2.0 * cv * cv))
            m_var = mp.m_for_var_cv(g, 2.0 * cv)
            check.expect(m_se == m_df, f"se vs df at ({g:.3f}, {cv:.3f}): {m_se} != {m_df}")
            check.expect(m_var == m_se, f"var vs se at ({g:.3f}, {cv:.3f}): {m_var} != {m_se}")
    check.finish()


def test_criterion_04_worked_example_plan():
    check = Check(4, "pilot (M=5, gamma=.39, SE=.023), SD goal .001 -> gamma .69, M in [124,128]", 1.0)
    pilot = mp.pool(make_pilot_results(5, 0.39, 0.023))
    check.expect(math.isclose(pilot.gamma_hat, 0.39, abs_tol=1e-9), "pilot gamma_hat")
    check.expect(math.isclose(pilot.se, 0.023, abs_tol=1e-12), "pilot se")
    rec = mp.recommend(pilot, mp.ReplicabilityTarget("sd_of_se", 0.001))
    check.expect(abs(rec.gamma_used - 0.69) <= 0.005, f"gamma_used {rec.gamma_used:.4f}")
    check.expect(124 <= rec.m_required <= 128, f"m_required {rec.m_required}")
    check.finish()


def test_criterion_05_empirical_cv_check():
    check = Check(5, "measured CV(V|data) within 15% of the chi-square prediction at M=20", 120.0)
    seed = 20205
    data = mp.gen_incomplete(2000, 0.0, 0.5, mp.stream(seed, TAG_DATA))
    result = mp.empirical_cv(data, 20, 2000, seed)
    check.expect(0.4 <= result.mean_gamma_hat <= 0.6,
                 f"setup off target: mean gamma {result.mean_gamma_hat:.3f}")
    predicted = result.mean_gamma_hat * math.sqrt(2.0 / 19.0)
    rel_err = abs(result.cv_v - predicted) / predicted
    check.expect(rel_err <= 0.15, f"cv_v {result.cv_v:.4f} vs predicted {predicted:.4f} ({rel_err:.1%})")
    ratio = result.cv_v / (2.0 * result.cv_se)
    check.expect(abs(ratio - 1.0) <= 0.20, f"cv_v / (2 cv_se) = {ratio:.3f}")
    check.finish()


def test_criterion_06_two_stage_conservatism():
    check = Check(6, "achieved SD of final SEs <= 1.15x target in >= 85% of meta-runs", 600.0)
    base_seed = 606
    meta_runs = 12
    passes = 0
    for k in range(meta_runs):
        seed_k = mp.derive_seed(base_seed, k)
        data = mp.gen_incomplete(2000, 0.0, 0.35, mp.stream(seed_k, TAG_DATA))
        # SD goal equivalent to a CV of .05, anchored on a high-M reference SE
        reference_se = mp.pool_replicates(data, 100, 1, mp.derive_seed(seed_k, 99)).se[0]
        target = mp.ReplicabilityTarget("sd_of_se", 0.05 * reference_se)
        config = mp.ExperimentConfig(
            n=2000, rho=0.0, missing_fraction=0.35, pilot_m=5,
            target=target, reps=100, seed=seed_k,
        )
        summary = mp.summarize_two_stage(mp.run_two_stage_experiment(config, data=data))
        passes += summary.achieved_sd_of_se <= 1.15 * target.value
    needed = math.ceil(0.85 * meta_runs)
    check.expect(passes >= needed, f"only {passes}/{meta_runs} meta-runs met the bound")
    check.finish()


def test_criterion_07_quadratic_rule_shape():
    check = Check(7, "simulated required M tracks the quadratic rule, not the linear one", 600.0)
    results = {}
    for gamma, seed in ((0.2, 72), (0.5, 75), (0.8, 78)):
        results[gamma] = mp.simulated_required_m(gamma, 0.05, n=2000, reps=200, seed=seed)
    predicted_mid = mp.m_for_se_cv(0.5, 0.05)  # 51
    check.expect(
        0.8 * predicted_mid <= results[0.5] <= 1.2 * predicted_mid,
        f"gamma .5: simulated {results[0.5]} outside 20% of {predicted_mid}",
    )
    check.expect(results[0.8] > 80, f"gamma .8: simulated {results[0.8]} not above linear 80")
    check.expect(results[0.2] < 20, f"gamma .2: simulated {results[0.2]} not below linear 20")
    check.finish()


def test_criterion_08_df_instability():
    check = Check(8, "fraction of M=5 pilots with estimated df > 100 lies in (.03, .50)", 120.0)
    config = mp.ExperimentConfig(
        n=2000, rho=0.0, missing_fraction=0.39, pilot_m=5,
        target=mp.ReplicabilityTarget("cv_of_se", 0.05), reps=1000, seed=818,
    )
    fraction = mp.df_reliability(config, 100.0)
    check.expect(0.03 < fraction < 0.50, f"fraction {fraction:.3f}")
    check.finish()


def test_criterion_09_pilot_size_ordering():
    check = Check(9, "recommended M has smaller mean and SD with a 20-imputation pilot", 600.0)
    seed = 909
    data = mp.gen_incomplete(2000, 0.0, 0.35, mp.stream(seed, TAG_DATA))
    stats_by_pilot = {}
    for pilot_m in (5, 20):
        config = mp.ExperimentConfig(
            n=2000, rho=0.0, missing_fraction=0.35, pilot_m=pilot_m,
            target=mp.ReplicabilityTarget("cv_of_se", 0.05), reps=100, seed=seed,
        )
        summary = mp.summarize_two_stage(mp.run_two_stage_experiment(config, data=data))
        stats_by_pilot[pilot_m] = summary.m_required
    check.expect(
        stats_by_pilot[20].mean < stats_by_pilot[5].mean,
        f"means: pilot 20 -> {stats_by_pilot[20].mean:.1f}, pilot 5 -> {stats_by_pilot[5].mean:.1f}",
    )
    check.expect(
        stats_by_pilot[20].sd < stats_by_pilot[5].sd,
        f"sds: pilot 20 -> {stats_by_pilot[20].sd:.1f}, pilot 5 -> {stats_by_pilot[5].sd:.1f}",
    )
    check.finish()


def test_criterion_10_determinism(tmp_path, capsys):
    check = Check(10, "repeated simulate runs with one seed are byte-identical", 60.0)

    def run(name: str, argv: list[str]) -> tuple[bytes, bytes]:
        base = tmp_path / name
        assert main(argv + ["--out", str(base)]) == 0
        capsys.readouterr()
        return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes()

    cv_argv = ["simulate", "--experiment", "cv-check", "--n", "300", "--m", "5",
               "--reps", "100", "--seed", "4242", "--workers", "2"]
    two_stage_argv = ["simulate", "--experiment", "two-stage", "--n", "400", "--missing", "0.5",
                      "--pilot-m", "5", "--target-cv", "0.3", "--reps", "10", "--seed", "77"]
    first = run("cv_a", cv_argv)
    second = run("cv_b", cv_argv)
    check.expect(first == second, "cv-check outputs differ across runs")
    serial = run("cv_s", [*cv_argv[:-2], "--workers", "1"])
    threaded = run("cv_t", [*cv_argv[:-2], "--workers", "3"])
    check.expect(serial == threaded, "cv-check outputs differ between worker counts")
    ts_first = run("ts_a", two_stage_argv)
    ts_second = run("ts_b", two_stage_argv)
    check.expect(ts_first == ts_second, "two-stage outputs differ across runs")
    parsed = json.loads(ts_first[1])
    check.expect(parsed["reps"] == 10, "summary JSON did not round-trip")
    check.finish()
