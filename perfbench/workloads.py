"""The three workloads: inputs made from the seed, and checks of the outputs.

Inputs are made by run.py before any worker starts, so their cost is not
part of set-up time.  Checks run in run.py after the workers have ended,
against the independent oracle in oracle.py, so they add nothing to the
measured process.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracle

TARGET_KINDS = ("sd_of_se", "cv_of_se", "cv_of_variance", "df")

# plan_pilots: a corpus of PILOTS files; pilot m runs over a log-spaced grid
# from 2 to 200 and the gamma targets are stratified over GAMMA_RANGE, so
# every seed's corpus holds the same number of rows.
PILOTS = 400
GAMMA_RANGE = (0.03, 1.0)
M_GRID = [round(2 * 100 ** (k / 39)) for k in range(40)]
CV_RANGE = (0.01, 0.45)  # keeps every m_required <= 5001, far below m_max
# miplan's t quantile switches to the normal quantile from this df on.
NORMAL_SHORTCUT_DF = 1e6
# Estimates of a pilot with gamma_hat = .0015 and df_hat = 1.7e6, W = 1.
FAULT_PILOT = (0.955, 0.9775, 1.0, 1.0225, 1.045)

# two_stage_small_n: each round is TWO_STAGE_CALLS CLI runs on fresh data.
TWO_STAGE = {"n": 200, "missing": 0.35, "pilot_m": 5, "cv": 0.05, "reps": 20}
TWO_STAGE_CALLS = 16

# required_m_search: each round is SEARCH_CALLS search(es) on fresh seeds.
SEARCH = {"gamma": 0.5, "cv": 0.05, "n": 2000, "reps": 200}
SEARCH_CALLS = 2

RNG_TAG = {"plan_pilots": 1, "two_stage_small_n": 2, "required_m_search": 3}


def make_inputs(workload: str, seed: int, work_dir: str) -> dict:
    """Deterministic inputs for (workload, seed), written under work_dir."""
    rng = np.random.default_rng([seed, RNG_TAG[workload]])
    first_seed = int(rng.integers(1, 2**31))
    if workload == "plan_pilots":
        return {"pilots": make_corpus(rng, os.path.join(work_dir, "corpus"))}
    if workload == "two_stage_small_n":
        t = TWO_STAGE
        argv = ["simulate", "--experiment", "two-stage", "--n", str(t["n"]),
                "--missing", str(t["missing"]), "--pilot-m", str(t["pilot_m"]),
                "--target-cv", str(t["cv"]), "--reps", str(t["reps"]), "--workers", "1"]
        return {"argv": argv, "calls_per_round": TWO_STAGE_CALLS, "first_seed": first_seed}
    s = SEARCH
    argv = ["simulate", "--experiment", "curve", "--simulated", "--gammas", str(s["gamma"]),
            "--cv-target", str(s["cv"]), "--n", str(s["n"]), "--reps", str(s["reps"]),
            "--workers", "1"]
    return {"argv": argv, "calls_per_round": SEARCH_CALLS, "first_seed": first_seed}


def make_corpus(rng: np.random.Generator, corpus_dir: str) -> list:
    """Write the pilot CSVs; return [path, target kind, target value] per pilot.

    PILOTS pilots come from the seed.  A pilot whose df_hat would reach
    NORMAL_SHORTCUT_DF is redrawn: there the program's t quantile is the
    normal one (see the FOUND line in CHANGES.md), so its theta interval
    misses the oracle on some seeds only.  FAULT_PILOT, the same on every
    seed, shows that fault in every round instead.
    """
    os.makedirs(corpus_dir, exist_ok=True)
    gamma_strata = rng.permutation(PILOTS)
    pilots = []
    for i in range(PILOTS):
        m = M_GRID[i % len(M_GRID)]
        gamma = GAMMA_RANGE[0] + (GAMMA_RANGE[1] - GAMMA_RANGE[0]) * (
            gamma_strata[i] + rng.uniform(0.05, 0.95)) / PILOTS
        theta = rng.uniform(-20.0, 20.0)
        w = 10.0 ** rng.uniform(-4.0, 0.0)
        inflate = 1.0 + 1.0 / m
        b = gamma * w / (inflate * (1.0 - gamma))
        while True:
            estimates = theta + math.sqrt(b) * rng.standard_normal(m)
            variances = w * rng.chisquare(50, m) / 50.0
            pooled = oracle.pooled(estimates, variances)
            if pooled["df_hat"] < 0.5 * NORMAL_SHORTCUT_DF:
                break
        path = os.path.join(corpus_dir, f"pilot_{i:04d}.csv")
        write_pilot(path, estimates, variances, rng.permutation(m))
        cv = math.exp(rng.uniform(*np.log(CV_RANGE)))
        kind = TARGET_KINDS[(i // len(M_GRID)) % len(TARGET_KINDS)]
        value = {"sd_of_se": cv * pooled["se"], "cv_of_se": cv, "cv_of_variance": 2.0 * cv,
                 "df": 1.0 / (2.0 * cv * cv)}[kind]
        pilots.append([path, kind, float(value)])
    path = os.path.join(corpus_dir, "pilot_fault.csv")
    write_pilot(path, FAULT_PILOT, [1.0] * len(FAULT_PILOT), range(len(FAULT_PILOT)))
    pilots.append([path, "cv_of_se", 0.05])
    return pilots


def write_pilot(path: str, estimates, variances, order) -> None:
    with open(path, "w") as fh:
        fh.write("imputation,estimate,variance\n")
        for j in order:
            fh.write(f"{j + 1},{float(estimates[j])!r},{float(variances[j])!r}\n")


def read_pilot(path: str) -> tuple[list[float], list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["estimate"]) for r in rows], [float(r["variance"]) for r in rows]


def check_plan_pilots(inputs: dict, out_dir: str) -> tuple[list[str], int]:
    """Every pooled field and every m_required of round 0 against the oracle.

    Returns the problems and the number of pilots that failed per round:
    the fault pilot fails when its theta interval, and nothing else,
    misses the oracle.
    """
    with open(os.path.join(out_dir, "plan_r0.json")) as fh:
        records = json.load(fh)
    bad, failed = [], 0
    kinds_seen = set()
    for (path, kind, value), record in zip(inputs["pilots"], records, strict=True):
        if record is None:
            failed += 1
            continue
        got = dict(zip(oracle.POOLED_FIELDS, record[:13]))
        want = oracle.pooled(*read_pilot(path))
        problems = oracle.check_pooled(got, want)
        problems += oracle.check_plan(got, kind, value, record[13], record[14])
        if record[13] > 10_000:
            problems.append("m_required above m_max")
        if path.endswith("pilot_fault.csv") and problems and all(
                p.startswith(("theta_lower", "theta_upper")) for p in problems):
            failed += 1
            continue
        kinds_seen.add(kind)
        bad += [f"{os.path.basename(path)}: {p}" for p in problems]
    if kinds_seen != set(TARGET_KINDS):
        bad.append(f"target kinds covered: {sorted(kinds_seen)}")
    return bad, failed


def read_csv_columns(path: str) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = {h: [] for h in header}
        for row in reader:
            for h, cell in zip(header, row, strict=True):
                columns[h].append(cell)
    return columns


def check_two_stage_call(base: str, seed: int) -> tuple[list[str], int, float, float]:
    """Check one two-stage CLI run's CSV, JSON and stdout.

    Returns (problems, imputations drawn, achieved CV of the final SE,
    chi-square predicted CV at the realised final m's).
    """
    t = TWO_STAGE
    with open(base + ".json") as fh:
        summary_text = fh.read()
    with open(base + ".stdout") as fh:
        stdout = fh.read()
    summary = json.loads(summary_text)
    c = read_csv_columns(base + ".csv")
    col = {k: np.array([float(x) for x in v]) for k, v in c.items()}
    ints = {k: [int(x) for x in c[k]] for k in ("rep", "pilot_m", "m_required", "final_m",
                                                "pilot_sufficient")}
    bad = []
    if stdout != summary_text:
        bad.append("stdout differs from the summary file")
    if ints["rep"] != list(range(t["reps"])):
        bad.append("rep column is not 0..reps-1")
    imputations = 0
    for i in range(len(ints["rep"])):
        pilot_m, m_req = ints["pilot_m"][i], ints["m_required"][i]
        sufficient, final_m = bool(ints["pilot_sufficient"][i]), ints["final_m"][i]
        upper = oracle.gamma_interval(col["pilot_gamma_hat"][i], pilot_m)[1]
        where = f"{os.path.basename(base)} rep {i}"
        if pilot_m != t["pilot_m"] or col["cv_target"][i] != t["cv"]:
            bad.append(f"{where}: pilot_m or cv_target not as requested")
        if not math.isclose(col["gamma_used"][i], upper, rel_tol=oracle.REL_INTERVAL):
            bad.append(f"{where}: gamma_used {col['gamma_used'][i]!r} != {upper!r}")
        if m_req not in oracle.allowed_m(upper, t["cv"]):
            bad.append(f"{where}: m_required {m_req} != oracle {oracle.allowed_m(upper, t['cv'])}")
        if sufficient != (pilot_m >= m_req):
            bad.append(f"{where}: pilot_sufficient {sufficient} with m_required {m_req}")
        if sufficient:
            same = all(col[f"final_{f}"][i] == col[f"pilot_{f}"][i]
                       for f in ("estimate", "se", "gamma_hat", "df_hat"))
            if final_m != pilot_m or not same:
                bad.append(f"{where}: sufficient pilot not reused as the final analysis")
        elif final_m != m_req:
            bad.append(f"{where}: final_m {final_m} != m_required {m_req}")
        for stage, m in (("pilot", pilot_m), ("final", final_m)):
            df = (m - 1) / col[f"{stage}_gamma_hat"][i] ** 2
            if not math.isclose(col[f"{stage}_df_hat"][i], df, rel_tol=oracle.REL_MOMENTS):
                bad.append(f"{where}: {stage}_df_hat is not (m - 1) / gamma_hat^2")
        imputations += pilot_m + (0 if sufficient else final_m)

    expected_head = {"experiment": "two-stage", "n": t["n"], "rho": 0.0,
                     "missing_fraction": t["missing"], "pilot_m": t["pilot_m"],
                     "target_kind": "cv_of_se", "target_value": t["cv"], "reps": t["reps"],
                     "seed": seed, "level": 0.95}
    for key, value in expected_head.items():
        if summary.get(key) != value:
            bad.append(f"{os.path.basename(base)}: summary {key} {summary.get(key)!r} != {value!r}")
    for field in ("m_required", "final_m", "final_estimate", "final_se", "final_df_hat",
                  "final_gamma_hat"):
        want = oracle.field_summary(col[field])
        for stat, value in want.items():
            if not math.isclose(summary[field][stat], value, rel_tol=1e-12, abs_tol=1e-300):
                bad.append(f"{os.path.basename(base)}: summary {field}.{stat} "
                           f"{summary[field][stat]!r} != {value!r}")
    se_sd = float(np.std(col["final_se"], ddof=1))
    if not math.isclose(summary["achieved_sd_of_se"], se_sd, rel_tol=1e-12):
        bad.append(f"{os.path.basename(base)}: achieved_sd_of_se != sd of final_se")
    achieved = se_sd / float(np.mean(col["final_se"]))
    predicted = oracle.chi2_cv_of_se(float(np.mean(col["final_gamma_hat"])), ints["final_m"])
    return bad, imputations, achieved, predicted


def check_search_call(base: str) -> tuple[list[str], int]:
    """Check one required-m search's CSV; return (problems, m_simulated)."""
    s = SEARCH
    c = read_csv_columns(base + ".csv")
    bad = []
    if list(c) != ["gamma", "m_quadratic", "m_linear", "m_simulated"] or len(c["gamma"]) != 1:
        return [f"{os.path.basename(base)}: unexpected curve table {c}"], 0
    m_quad = min(oracle.allowed_m(s["gamma"], s["cv"]))
    m_lin = math.ceil(100.0 * s["gamma"])
    if float(c["gamma"][0]) != s["gamma"]:
        bad.append(f"gamma {c['gamma'][0]}")
    if int(c["m_quadratic"][0]) != m_quad or m_quad != 51:
        bad.append(f"m_quadratic {c['m_quadratic'][0]} != {m_quad}")
    if int(c["m_linear"][0]) != m_lin or m_lin != 50:
        bad.append(f"m_linear {c['m_linear'][0]} != {m_lin}")
    m_sim = int(c["m_simulated"][0])
    lo, hi = search_band()
    if not lo <= m_sim <= hi:
        bad.append(f"m_simulated {m_sim} outside [{lo}, {hi}]")
    return [f"{os.path.basename(base)}: {b}" for b in bad], m_sim


def search_band() -> tuple[int, int]:
    """Band for m_simulated around the quadratic rule's 51 (derivation in README.md).

    A probe's CV estimate from R replications has relative SE
    s = 1/sqrt(2(R-1)); since m - 1 scales as cv^-2 this moves m - 1 by
    2s.  The calibrated gamma is off by up to tol = .01 plus the data's
    own missing-fraction noise sqrt(p(1-p)/n), which moves m - 1 by twice
    that relative error.  The band is four combined SDs either side, and
    on the high side one confirmation step of +10%.
    """
    s = SEARCH
    probe = 2.0 * oracle.cv_relative_se(s["reps"])
    gamma_err = (0.01 + math.sqrt(s["gamma"] * (1 - s["gamma"]) / s["n"])) / s["gamma"]
    sd = math.hypot(probe, 2.0 * gamma_err)
    base = oracle.m_rule(s["gamma"], s["cv"]) - 1.0
    return math.floor(1 + base * (1 - 4 * sd)), math.ceil((1 + base * (1 + 4 * sd)) * 1.1)
