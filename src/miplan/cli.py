"""Command-line interface: pool, plan, table1, and simulate subcommands.

Scalar results are emitted as JSON, tables as CSV; ``--format text``
gives a human-readable rendering rounded to 4 significant digits.
Machine formats carry 17 significant digits.  All randomness flows from
``--seed`` (default DEFAULT_SEED), so repeated invocations with the same
arguments and input files produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Sequence

from . import __version__
from .fmi import check_level, round_half_away, table1
from .montecarlo import (
    ExperimentConfig,
    curve_data,
    derive_seed,
    df_cv_curve,
    empirical_cv_of,
    pool_fixed_dataset,
    run_two_stage_experiment,
    simulated_required_m,
    summarize_two_stage,
)
from .planning import DEFAULT_M_MAX, ReplicabilityTarget, recommend
from .pooling import pool, read_results_csv

DEFAULT_SEED = 31415

# Each target flag's ReplicabilityTarget kind and its help text under plan.
# simulate takes every flag but --target-vcv, without help text.
TARGET_FLAGS = {
    "--target-sd": ("sd_of_se", "goal for the SD of the pooled SE across re-imputations"),
    "--target-cv": ("cv_of_se", "goal for the CV of the pooled SE"),
    "--target-vcv": ("cv_of_variance", "goal for the CV of the pooled variance"),
    "--target-df": ("df", "goal for the df of the pooled variance"),
}


class _TargetAction(argparse.Action):
    """Store a target flag as args.target = (kind, value)."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.target = (TARGET_FLAGS[option_string][0], value)


def _fmt(value: float) -> str:
    """Machine rendering of a float: 17 significant digits."""
    return format(float(value), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if obj is None:
        return "null"
    return json.dumps(obj)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated values of kind (float or int); empty items are skipped."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        name = "integer" if kind is int else "float"
        raise ValueError(f"invalid input: cannot parse {name} list {text!r}") from None


def _add_target_flags(p: argparse.ArgumentParser, plan: bool) -> None:
    group = p.add_mutually_exclusive_group(required=plan)
    for flag, (kind, text) in TARGET_FLAGS.items():
        if plan or kind != "cv_of_variance":
            group.add_argument(flag, type=float, metavar="X", dest="target",
                               action=_TargetAction, help=text if plan else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miplan",
        description="Pool multiply-imputed estimates and plan how many imputations you need.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", help="pool per-imputation results with Rubin's rules")
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="CSV with header imputation,estimate,variance")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("plan", help="recommend the number of imputations from a pilot")
    p.add_argument("--pilot", required=True, metavar="CSV",
                   help="pilot results CSV (same format as pool --in)")
    _add_target_flags(p, plan=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--max-m", type=int, default=DEFAULT_M_MAX)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("table1", help="confidence-interval table for the fraction of missing information")
    p.add_argument("--gammas", default="0.1,0.3,0.5,0.7,0.9")
    p.add_argument("--ms", default="5,10,15,20")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("csv", "text"), default="csv")

    p = sub.add_parser("simulate", help="Monte Carlo experiments on synthetic incomplete data")
    p.add_argument("--experiment", required=True,
                   choices=("two-stage", "cv-check", "curve", "df-reliability"))
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--missing", type=float, default=0.5)
    p.add_argument("--pilot-m", type=int, default=5)
    _add_target_flags(p, plan=False)
    p.add_argument("--reps", type=int, default=None,
                   help="replications (default: 100 two-stage, 2000 cv-check, 200 curve probes, 1000 df-reliability)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", metavar="BASE", help="write BASE.csv (records) and BASE.json (summary)")
    p.add_argument("--workers", type=int, default=1,
                   help="kept for compatibility with existing scripts; has no effect")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--max-m", type=int, default=DEFAULT_M_MAX)
    p.add_argument("--m", type=int, default=20, help="imputations per replication (cv-check)")
    p.add_argument("--cv-target", type=float, default=0.05, help="SE CV target (curve)")
    p.add_argument("--gammas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", help="curve grid")
    p.add_argument("--simulated", action="store_true",
                   help="add the simulated required-m column to the curve (slow)")
    p.add_argument("--df-threshold", type=float, default=100.0)
    p.add_argument("--df-curve", action="store_true",
                   help="emit the df-vs-cv tradeoff curve instead of the rule comparison")
    p.add_argument("--cvs", default="", help="comma list of cv values for --df-curve")
    p.set_defaults(usage_error=p.error)  # for the flag checks argparse cannot make
    return parser


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _print_payload(payload: dict, fmt: str = "json") -> None:
    """A result as JSON, or as ``key: value`` text lines with floats at 4 digits."""
    if fmt == "json":
        print(render_json(payload))
        return
    for key, value in payload.items():
        print(f"{key}: {format(value, '.4g') if isinstance(value, float) else value}")


def _emit_outputs(args, header, rows, fields) -> None:
    """A simulation's summary (the data setup, then fields) to stdout; with
    --out BASE, its records to BASE.csv and the summary to BASE.json."""
    payload = {
        "experiment": args.experiment,
        "n": args.n,
        "rho": args.rho,
        "missing_fraction": args.missing,
        **fields,
    }
    if args.out:
        base = args.out.removesuffix(".csv").removesuffix(".json")
        _write(csv_text(header, rows), base + ".csv")
        _write(render_json(payload) + "\n", base + ".json")
    _print_payload(payload)


def _note_cap(capped: bool, max_m: int) -> None:
    if capped:
        print(f"note: m_required capped at --max-m {max_m}", file=sys.stderr)


def cmd_pool(args) -> int:
    analysis = pool(read_results_csv(args.infile), args.level)
    _print_payload({
        "m": analysis.m,
        "theta": analysis.theta,
        "w_bar": analysis.w_bar,
        "b": analysis.b,
        "v_total": analysis.v_total,
        "se": analysis.se,
        "gamma_hat": analysis.gamma_hat,
        "gamma_raw": analysis.gamma_raw,
        "df_hat": analysis.df_hat,
        "gamma_lower": analysis.gamma_interval.lower,
        "gamma_upper": analysis.gamma_interval.upper,
        "theta_lower": analysis.theta_interval[0],
        "theta_upper": analysis.theta_interval[1],
        "level": analysis.level,
    }, args.format)
    return 0


def cmd_plan(args) -> int:
    pilot = pool(read_results_csv(args.pilot), args.level)
    rec = recommend(pilot, ReplicabilityTarget(*args.target), args.max_m)
    _note_cap(rec.capped, args.max_m)
    _print_payload({
        "m_required": rec.m_required,
        "m_uncapped": rec.m_uncapped,
        "capped": rec.capped,
        "gamma_point": pilot.gamma_hat,
        "gamma_upper": rec.gamma_used,
        "cv_target": rec.cv_target,
        "df_implied": rec.df_implied,
        "pilot_m": pilot.m,
        "pilot_sufficient": rec.pilot_sufficient,
        "pilot_estimate": pilot.theta,
        "pilot_se": pilot.se,
    }, args.format)
    return 0


def cmd_table1(args) -> int:
    rows = table1(_parse_list(args.gammas, float), _parse_list(args.ms, int), args.level)
    header = ("gamma", "m", "lower", "upper")
    cells = [(r.point, r.m, r.lower, r.upper) for r in rows]
    if args.format == "text":
        lines = ["gamma    m   interval"]
        for r in rows:
            lines.append(
                f"{r.point:5.2f} {r.m:4d}   ({round_half_away(r.lower):.2f}, {round_half_away(r.upper):.2f})"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = csv_text(header, cells)
    _write(text, args.out)
    return 0


def _sim_two_stage(args) -> int:
    if args.target is None:
        args.usage_error("two-stage needs one of --target-sd, --target-cv, --target-df")
    target = ReplicabilityTarget(*args.target)
    reps = args.reps if args.reps is not None else 100
    config = ExperimentConfig(
        n=args.n,
        rho=args.rho,
        missing_fraction=args.missing,
        pilot_m=args.pilot_m,
        target=target,
        reps=reps,
        seed=args.seed,
        level=args.level,
        m_max=args.max_m,
    )
    records = run_two_stage_experiment(config)
    summary = summarize_two_stage(records)
    header = (
        "rep", "pilot_m", "pilot_estimate", "pilot_se", "pilot_gamma_hat", "pilot_df_hat",
        "gamma_used", "cv_target", "m_required", "pilot_sufficient",
        "final_m", "final_estimate", "final_se", "final_gamma_hat", "final_df_hat",
    )
    rows = [
        (
            r.rep_index, r.pilot.m, r.pilot.theta, r.pilot.se, r.pilot.gamma_hat, r.pilot.df_hat,
            r.recommendation.gamma_used, r.recommendation.cv_target,
            r.recommendation.m_required, r.recommendation.pilot_sufficient,
            r.final.m, r.final.theta, r.final.se, r.final.gamma_hat, r.final.df_hat,
        )
        for r in records
    ]
    fields = {
        "pilot_m": config.pilot_m,
        "target_kind": target.kind,
        "target_value": target.value,
        "reps": config.reps,
        "seed": config.seed,
        "level": config.level,
    }
    fields.update(asdict(summary))  # the summary's "reps" keeps its place above
    _emit_outputs(args, header, rows, fields)
    _note_cap(any(r.recommendation.capped for r in records), args.max_m)
    return 0


def _sim_cv_check(args) -> int:
    reps = args.reps if args.reps is not None else 2000
    pooled = pool_fixed_dataset(args.n, args.rho, args.missing, args.m, reps, args.seed)
    result = empirical_cv_of(pooled)
    header = ("rep", "estimate", "se", "v_total", "gamma_hat", "df_hat")
    columns = (pooled.theta, pooled.se, pooled.v_total, pooled.gamma_hat, pooled.df_hat)
    rows = list(zip(range(reps), *(c.tolist() for c in columns)))
    predicted = result.mean_gamma_hat * math.sqrt(2.0 / (args.m - 1))
    _emit_outputs(args, header, rows, {
        "m": args.m,
        "reps": reps,
        "seed": args.seed,
        "cv_v": result.cv_v,
        "cv_se": result.cv_se,
        "mean_gamma_hat": result.mean_gamma_hat,
        "cv_v_predicted": predicted,
        # null when no y is missing: then every pooling is the same
        "cv_v_over_2cv_se": result.cv_v / (2.0 * result.cv_se) if result.cv_se else math.nan,
    })
    return 0


def _sim_curve(args) -> int:
    capped = False
    if args.df_curve:
        cvs = _parse_list(args.cvs, float) if args.cvs else [i / 100.0 for i in range(1, 51)]
        text = csv_text(("cv", "df"), df_cv_curve(cvs))
    else:
        gammas = _parse_list(args.gammas, float)
        sim = None
        if args.simulated:
            reps = args.reps if args.reps is not None else 200
            seeds = {float(g): derive_seed(args.seed, i) for i, g in enumerate(gammas)}

            def sim(gamma: float) -> int:
                return simulated_required_m(
                    gamma, args.cv_target, n=args.n, reps=reps,
                    seed=seeds[float(gamma)], rho=args.rho,
                )

        rows = curve_data(gammas, args.cv_target, args.max_m, simulated=sim)
        capped = any(r.capped for r in rows)
        text = csv_text(
            ("gamma", "m_quadratic", "m_linear", "m_simulated"),
            [(r.gamma, r.m_quadratic, r.m_linear, r.m_simulated) for r in rows],
        )
    # The curve writes BASE.csv only.
    _write(text, args.out and args.out.removesuffix(".csv") + ".csv")
    _note_cap(capped, args.max_m)
    return 0


def _sim_df_reliability(args) -> int:
    reps = args.reps if args.reps is not None else 1000
    pooled = pool_fixed_dataset(args.n, args.rho, args.missing, args.pilot_m, reps, args.seed)
    exceeds = (pooled.df_hat > args.df_threshold).tolist()
    header = ("rep", "gamma_hat", "df_hat", "exceeds_threshold")
    rows = list(zip(range(reps), pooled.gamma_hat.tolist(), pooled.df_hat.tolist(), exceeds))
    _emit_outputs(args, header, rows, {
        "pilot_m": args.pilot_m,
        "df_threshold": args.df_threshold,
        "reps": reps,
        "seed": args.seed,
        "fraction_above_threshold": sum(exceeds) / reps,
    })
    return 0


COMMANDS = {
    "pool": cmd_pool,
    "plan": cmd_plan,
    "table1": cmd_table1,
    "two-stage": _sim_two_stage,
    "cv-check": _sim_cv_check,
    "curve": _sim_curve,
    "df-reliability": _sim_df_reliability,
}

# Built once per process: building takes about as long as a whole plan run.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handler = COMMANDS[args.experiment if args.command == "simulate" else args.command]
    try:
        if args.command == "simulate":
            check_level(args.level)  # every experiment checks it; only two-stage uses it
        code = handler(args)
        sys.stdout.flush()  # a reader that closed stdout shows up here, not at exit
        return code
    except BrokenPipeError:
        # Nobody reads the rest.  Send it, and the interpreter's flush at
        # exit, to devnull instead of reporting an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: numpy cannot allocate m draws, as for a huge --max-m
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
