"""miplan benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; miplan is imported from its
``src`` directory, never from an installed copy.  Workloads:

    plan_pilots        read_results_csv -> pool -> recommend over a pilot corpus
    two_stage_small_n  `miplan simulate --experiment two-stage` at n = 200
    required_m_search  `miplan simulate --experiment curve --simulated` at n = 2000

Each run makes its inputs from --seed, then starts fresh interpreters
(one process each, --workers 1, BLAS/OpenMP threads pinned to 1):

  --trace 0  one process that runs whole rounds of the workload for S
             seconds, with SETUP_PROBES set-up-only processes before it and
             after it.  Prints wall_s, imputations_per_s, setup_s and
             peak_rss_mb.
  --trace 1  one untraced process for S/2 seconds, then one traced process
             over the same rounds.  Their outputs must match byte for byte.
             Prints the per-layer metrics (see README.md).

Outputs are checked against an independent oracle (oracle.py) after the
processes end.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; the exit code is 1 when a check
fails, 2 when the benchmark cannot run.  Results and traces are kept in
perfbench/out/; generated inputs and program outputs are deleted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("plan_pilots", "two_stage_small_n", "required_m_search")
SETUP_PROBES = 3  # set-up-only processes before and again after the measured one
PROCESS_TIMEOUT_S = 170.0

# The chi-square model of the final SE's spread ignores that replications
# with smaller m also have a larger mean SE (the 1 + 1/m factor), and it is
# a large-sample model; at n = 200 the achieved CV ran 11-18% above it.
MODEL_ALLOWANCE = 0.25

PIN_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark itself cannot run (not a check failure)."""


def launch_worker(spec: dict, name: str, deadline: float) -> dict:
    """Run worker.py on spec in a fresh interpreter; return its result."""
    spec = dict(spec, result=os.path.join(spec["work_dir"], f"{name}.result.json"))
    spec_path = os.path.join(spec["work_dir"], f"{name}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PIN_THREADS)
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, repr(launch)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{name}: worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def run_rounds(args, inputs, work_dir, name, deadline, seconds=None, rounds=None, trace=False):
    out_dir = os.path.join(work_dir, name)
    os.makedirs(out_dir)
    spec = {"workload": args.workload, "src": SRC, "work_dir": work_dir, "out_dir": out_dir,
            "inputs": inputs, "seconds": seconds, "rounds": rounds, "trace": trace,
            "setup_only": False}
    result = launch_worker(spec, name, deadline)
    result["out_dir"] = out_dir
    return result


def check_outputs(workload, inputs, result) -> tuple[list[str], dict]:
    """Check one process's outputs against the oracle; return (problems, facts)."""
    rounds = result["rounds"]
    out_dir = result["out_dir"]
    facts = {}
    if workload == "plan_pilots":
        bad, failed = workloads.check_plan_pilots(inputs, out_dir)
        if len({r["digest"] for r in rounds}) != 1:
            bad.append("a repeated round gave different outputs")
        # every round repeats round 0's outputs, so its failures too
        for r in rounds:
            r["failed"] = max(r["failed"], failed)
        return bad, facts

    bad, achieved, predicted, m_sims = [], [], [], []
    for r, row in enumerate(rounds):
        imputations = 0
        for k in range(inputs["calls_per_round"]):
            seed = inputs["first_seed"] + r * inputs["calls_per_round"] + k
            base = os.path.join(out_dir, f"r{r:04d}_k{k}")
            if workload == "two_stage_small_n":
                problems, count, cv, cv_pred = workloads.check_two_stage_call(base, seed)
                imputations += count
                achieved.append(cv)
                predicted.append(cv_pred)
            else:
                problems, m_sim = workloads.check_search_call(base)
                m_sims.append(m_sim)
            bad += problems
        if workload == "two_stage_small_n" and imputations != row["imputations"]:
            bad.append(f"round {r}: CSV implies {imputations} imputations, "
                       f"{row['imputations']} were drawn")
    if workload == "two_stage_small_n":
        bad += check_conservatism(achieved, predicted)
        facts.update(achieved_cv=achieved, predicted_cv=predicted)
    else:
        facts["m_simulated"] = m_sims
    return bad, facts


def rms(values) -> float:
    return (sum(v * v for v in values) / len(values)) ** 0.5


def check_conservatism(achieved, predicted) -> list[str]:
    """The achieved CV of the final SE across a run's two-stage calls (see README.md).

    Conservatism: the root-mean-square achieved CV is at most the target.
    Consistency: it lies within MODEL_ALLOWANCE plus four standard errors
    of the CV the chi-square model predicts at the realised final m's.
    """
    target = workloads.TWO_STAGE["cv"]
    got, want = rms(achieved), rms(predicted)
    # each call's CV has relative SE 1 / sqrt(2 (R - 1)); the RMS averages the calls
    se_ratio = oracle.cv_relative_se(workloads.TWO_STAGE["reps"]) / len(achieved) ** 0.5
    bad = []
    if got > target:
        bad.append(f"achieved CV of the final SE {got:.4f} above the target {target}")
    if abs(got / want - 1.0) > MODEL_ALLOWANCE + 4.0 * se_ratio:
        bad.append(f"achieved CV {got:.4f} vs chi-square prediction {want:.4f}")
    return bad


def round_metrics(result) -> tuple[float, float]:
    """A run's round time and imputation rate (see README.md).

    plan_pilots repeats the same 401 short operations every round, and its
    round time is the sum of each operation's fastest time in the run.
    The host runs in slow phases of up to 1.9x that last from a fraction
    of a second to minutes; a run's median round lands in a slow phase in
    some runs and not in others, but operations of a quarter of a
    millisecond still catch the host's brief fast moments.  The
    simulations' rounds are made of CLI calls of 0.1 s or more on fresh
    seeds, which never repeat and are too long to catch those moments;
    they report the mean round time and the run's total rate.
    """
    rounds = result["rounds"]
    if result["best_op_s"]:  # filled by plan_pilots only
        wall = sum(result["best_op_s"])
        return wall, rounds[0]["imputations"] / wall
    elapsed = sum(r["elapsed_s"] for r in rounds)
    return elapsed / len(rounds), sum(r["imputations"] for r in rounds) / elapsed


def setup_probes(args, work_dir, deadline, first) -> list[float]:
    spec = {"workload": args.workload, "src": SRC, "work_dir": work_dir,
            "setup_only": True, "trace": False}
    return [launch_worker(spec, f"setup{first + i}", deadline)["setup_s"]
            for i in range(SETUP_PROBES)]


def untraced(args, inputs, work_dir, deadline):
    # probes before and after the measured process, so that set-up is
    # sampled across the run rather than in one of the host's slow phases
    setups = setup_probes(args, work_dir, deadline, 0)
    result = run_rounds(args, inputs, work_dir, "plain", deadline, seconds=args.seconds)
    setups += [result["setup_s"]] + setup_probes(args, work_dir, deadline, SETUP_PROBES)
    bad, facts = check_outputs(args.workload, inputs, result)
    wall, rate = round_metrics(result)
    metrics = {
        "wall_s": (wall, "s"),
        "imputations_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    detail = {"setup_samples_s": setups, "rounds": result["rounds"], **facts}
    return result["rounds"], bad, metrics, detail


def traced(args, inputs, work_dir, deadline):
    plain = run_rounds(args, inputs, work_dir, "plain", deadline, seconds=args.seconds / 2)
    n_rounds = len(plain["rounds"])
    trace = run_rounds(args, inputs, work_dir, "traced", deadline, rounds=n_rounds, trace=True)
    bad, _ = check_outputs(args.workload, inputs, plain)
    for a, b in zip(plain["rounds"], trace["rounds"], strict=True):
        if (a["digest"], a["imputations"]) != (b["digest"], b["imputations"]):
            bad.append("traced outputs differ from untraced outputs")
            break
        b["failed"] = a["failed"]
    plain_wall, _ = round_metrics(plain)
    traced_wall, _ = round_metrics(trace)
    metrics = {}
    for name, f in trace["trace"]["functions"].items():
        metrics[f"{name}.calls"] = (f["calls"], "count")
        metrics[f"{name}.self_s"] = (f["self_s"], "s")
        metrics[f"{name}.p50_us"] = (f["p50_us"], "us")
        metrics[f"{name}.tail_us"] = (f["tail_us"], "us")
        metrics[f"{name}.tail_pct"] = (f["tail_pct"], "pct")
        if "cache_hits" in f:
            metrics[f"{name}.cache_hits"] = (f["cache_hits"], "count")
    functions = trace["trace"]["functions"]
    metrics["pooling.pool.mean_m"] = (functions["pooling.pool"]["mean_m"], "count")
    metrics["planning.recommend.pilot_sufficient"] = (
        functions["planning.recommend"]["pilot_sufficient"], "count")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_share"] = (traced_wall / plain_wall - 1.0, "ratio")
    detail = {"untraced_wall_s": plain_wall, "trace": trace["trace"],
              "rounds": trace["rounds"]}
    return trace["rounds"], bad, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "miplan", "__init__.py")):
        print(f"error: no miplan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, work_dir)
        run = traced if args.trace else untraced
        rounds, bad, metrics, detail = run(args, inputs, work_dir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    report = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"report": report, "problems": bad, **detail}, fh, indent=1)
    for problem in bad[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
