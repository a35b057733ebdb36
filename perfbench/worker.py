"""One benchmark process: set miplan up, run whole rounds of a workload, report.

Started by run.py in a fresh interpreter as

    python3 perfbench/worker.py SPEC.json LAUNCH_TIME

LAUNCH_TIME is the CLOCK_MONOTONIC reading run.py took just before it
started this interpreter, so set-up time counts interpreter start-up.
The process imports miplan from the checkout's ``src``, warms it up, and
then runs rounds until ``seconds`` have passed (or exactly ``rounds``
rounds).  Only calls into miplan are inside the timed region; outputs are
written and hashed after each round's clock stops.  The result goes to
the JSON file the spec names.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import warnings


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ImputationCounter:
    """Counts imputations by wrapping the name ``miplan.montecarlo`` calls them by.

    One Python call per pooling, no timing: it is on in every simulation
    run, traced or not.
    """

    def __init__(self, montecarlo) -> None:
        self.count = 0
        inner = montecarlo.impute_m

        def impute_m(data, m, rng):
            self.count += m
            return inner(data, m, rng)

        montecarlo.impute_m = impute_m


def plan_pilots_round(mp, spec, r, counter, best_op_s):
    """Read, pool and plan every pilot of the corpus once.

    Each pilot is timed on its own, and best_op_s keeps its fastest time
    over the rounds so far.
    """
    kept, rows, failed = [], 0, 0
    elapsed = 0.0
    for i, (path, kind, value) in enumerate(spec["inputs"]["pilots"]):
        start = now()
        try:
            results = mp.read_results_csv(path)
            analysis = mp.pool(results)
            rec = mp.recommend(analysis, mp.ReplicabilityTarget(kind, value))
        except Exception:  # an operation that fails is counted, not fatal
            results = None
        op_s = now() - start
        elapsed += op_s
        if i == len(best_op_s):
            best_op_s.append(op_s)
        else:
            best_op_s[i] = min(best_op_s[i], op_s)
        if results is None:
            failed += 1
            kept.append(None)
            continue
        rows += len(results)
        kept.append((analysis, rec))
    records = [None if k is None else plan_record(*k) for k in kept]
    payload = json.dumps(records).encode()
    if r == 0:
        with open(os.path.join(spec["out_dir"], "plan_r0.json"), "wb") as fh:
            fh.write(payload)
    return elapsed, rows, len(kept), failed, hashlib.sha256(payload).hexdigest()


def plan_record(a, rec) -> list:
    return [a.m, a.theta, a.w_bar, a.b, a.v_total, a.se, a.gamma_hat, a.gamma_raw, a.df_hat,
            a.gamma_interval.lower, a.gamma_interval.upper, a.theta_interval[0],
            a.theta_interval[1], rec.m_required, rec.pilot_sufficient]


def cli_round(mp, spec, r, counter, best_op_s):
    """One in-process CLI call per argv of round r, each writing its --out files."""
    cli = sys.modules["miplan.cli"]
    calls = list(round_calls(spec, r))
    outputs, failed = [], 0
    counter.count = 0
    start = now()
    for argv, base in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv + ["--out", base])
        except SystemExit as exc:  # argparse usage errors exit
            code = exc.code
        failed += code != 0
        outputs.append(buf.getvalue())
    elapsed = now() - start
    digest = hashlib.sha256()
    for (argv, base), stdout in zip(calls, outputs):
        with open(base + ".stdout", "w") as fh:
            fh.write(stdout)
        for suffix in (".csv", ".json", ".stdout"):
            if os.path.exists(base + suffix):
                with open(base + suffix, "rb") as fh:
                    digest.update(fh.read())
    return elapsed, counter.count, len(calls), failed, digest.hexdigest()


def round_calls(spec, r):
    """(argv, --out base) for each CLI call of round r."""
    inputs = spec["inputs"]
    per_round = inputs["calls_per_round"]
    for k in range(per_round):
        seed = inputs["first_seed"] + r * per_round + k
        yield (inputs["argv"] + ["--seed", str(seed)],
               os.path.join(spec["out_dir"], f"r{r:04d}_k{k}"))


ROUNDS = {
    "plan_pilots": plan_pilots_round,
    "two_stage_small_n": cli_round,
    "required_m_search": cli_round,
}


def main() -> None:
    spec_path, launch = sys.argv[1], float(sys.argv[2])
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import miplan as mp
    import miplan.cli  # noqa: F401  (the simulations' entry point)

    here = os.path.realpath(mp.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"miplan imported from {here}, not from {src}")
    # program-side warm-up: first calls fault in scipy's lazily loaded parts
    mp.recommend(mp.pool([(0.0, 1.0), (2.0, 1.0)]), mp.ReplicabilityTarget("cv_of_se", 0.05))
    setup_s = now() - launch
    result = {"setup_s": setup_s}

    if not spec["setup_only"]:
        # a capped recommendation warns; none is expected, so make it an error
        warnings.filterwarnings("error", category=UserWarning)
        counter = ImputationCounter(sys.modules["miplan.montecarlo"])
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(mp)
        run_round = ROUNDS[spec["workload"]]
        rounds, best_op_s = [], []
        begin = now()
        while True:
            elapsed, imputations, ops, failed, digest = run_round(
                mp, spec, len(rounds), counter, best_op_s)
            rounds.append({"elapsed_s": elapsed, "imputations": imputations, "ops": ops,
                           "failed": failed, "digest": digest})
            if spec["rounds"] is not None:
                if len(rounds) >= spec["rounds"]:
                    break
            elif now() - begin >= spec["seconds"]:
                break
        result["rounds"] = rounds
        result["best_op_s"] = best_op_s
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
