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
import sys
from typing import Sequence

from . import __version__
from .fmi import round_half_away, table1
from .montecarlo import (
    ExperimentConfig,
    TAG_DATA,
    curve_data,
    derive_seed,
    df_cv_curve,
    empirical_cv_of,
    gen_incomplete,
    pool_replicates,
    run_two_stage_experiment,
    simulated_required_m,
    stream,
    summarize_two_stage,
)
from .planning import DEFAULT_M_MAX, ReplicabilityTarget, recommend
from .pooling import pool, read_results_csv

DEFAULT_SEED = 31415


class UsageError(Exception):
    """Bad flag combination detected after argparse."""


def _fmt(value: float) -> str:
    """Machine rendering of a float: 17 significant digits."""
    return format(float(value), ".17g")


def _fmt_text(value: float) -> str:
    return format(float(value), ".4g")


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
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def write_csv(dest, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by this tool: header plus string rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"invalid input: {path}: empty file") from None
        return header, [row for row in reader if row]


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"invalid input: cannot parse float list {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"invalid input: cannot parse integer list {text!r}") from None


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
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-sd", type=float, metavar="X",
                       help="goal for the SD of the pooled SE across re-imputations")
    group.add_argument("--target-cv", type=float, metavar="X",
                       help="goal for the CV of the pooled SE")
    group.add_argument("--target-vcv", type=float, metavar="X",
                       help="goal for the CV of the pooled variance")
    group.add_argument("--target-df", type=float, metavar="X",
                       help="goal for the df of the pooled variance")
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
    group = p.add_mutually_exclusive_group()
    group.add_argument("--target-sd", type=float, metavar="X")
    group.add_argument("--target-cv", type=float, metavar="X")
    group.add_argument("--target-df", type=float, metavar="X")
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
    return parser


def _target_from_args(args) -> ReplicabilityTarget | None:
    chosen = [
        ("sd_of_se", args.target_sd),
        ("cv_of_se", args.target_cv),
        ("cv_of_variance", getattr(args, "target_vcv", None)),
        ("df", args.target_df),
    ]
    for kind, value in chosen:
        if value is not None:
            return ReplicabilityTarget(kind, value)
    return None


def _emit_outputs(args, header, rows, payload) -> None:
    if args.out:
        base = args.out
        for suffix in (".csv", ".json"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        with open(base + ".csv", "w", newline="") as fh:
            write_csv(fh, header, rows)
        with open(base + ".json", "w") as fh:
            fh.write(render_json(payload) + "\n")
    print(render_json(payload))


def cmd_pool(args) -> int:
    analysis = pool(read_results_csv(args.infile), args.level)
    payload = {
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
    }
    if args.format == "json":
        print(render_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {_fmt_text(value) if isinstance(value, float) else value}")
    return 0


def cmd_plan(args) -> int:
    pilot = pool(read_results_csv(args.pilot), args.level)
    target = _target_from_args(args)
    rec = recommend(pilot, target, args.level, args.max_m)
    if rec.capped:
        print(f"note: m_required capped at --max-m {args.max_m}", file=sys.stderr)
    payload = {
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
    }
    if args.format == "json":
        print(render_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {_fmt_text(value) if isinstance(value, float) else value}")
    return 0


def cmd_table1(args) -> int:
    rows = table1(_parse_floats(args.gammas), _parse_ints(args.ms), args.level)
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
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _field_payload(fs) -> dict:
    return {"mean": fs.mean, "sd": fs.sd, "min": fs.min, "max": fs.max}


def _sim_two_stage(args) -> int:
    target = _target_from_args(args)
    if target is None:
        raise UsageError("two-stage needs one of --target-sd, --target-cv, --target-df")
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
    if any(r.recommendation.capped for r in records):
        print(f"note: m_required capped at --max-m {args.max_m}", file=sys.stderr)
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
    payload = {
        "experiment": "two-stage",
        "n": config.n,
        "rho": config.rho,
        "missing_fraction": config.missing_fraction,
        "pilot_m": config.pilot_m,
        "target_kind": target.kind,
        "target_value": target.value,
        "reps": config.reps,
        "seed": config.seed,
        "level": config.level,
        "m_required": _field_payload(summary.m_required),
        "final_m": _field_payload(summary.final_m),
        "final_estimate": _field_payload(summary.final_estimate),
        "final_se": _field_payload(summary.final_se),
        "final_df_hat": _field_payload(summary.final_df_hat),
        "final_gamma_hat": _field_payload(summary.final_gamma_hat),
        "achieved_sd_of_se": summary.achieved_sd_of_se,
    }
    _emit_outputs(args, header, rows, payload)
    return 0


def _sim_cv_check(args) -> int:
    reps = args.reps if args.reps is not None else 2000
    if reps < 100:
        raise ValueError(f"insufficient replications: need at least 100, got {reps}")
    data = gen_incomplete(args.n, args.rho, args.missing, stream(args.seed, TAG_DATA))
    pooled = pool_replicates(data, args.m, reps, args.seed, args.level)
    result = empirical_cv_of(pooled)
    header = ("rep", "estimate", "se", "v_total", "gamma_hat", "df_hat")
    rows = [
        (i, p.theta, p.se, p.v_total, p.gamma_hat, p.df_hat) for i, p in enumerate(pooled)
    ]
    predicted = result.mean_gamma_hat * math.sqrt(2.0 / (args.m - 1))
    payload = {
        "experiment": "cv-check",
        "n": args.n,
        "rho": args.rho,
        "missing_fraction": args.missing,
        "m": args.m,
        "reps": reps,
        "seed": args.seed,
        "cv_v": result.cv_v,
        "cv_se": result.cv_se,
        "mean_gamma_hat": result.mean_gamma_hat,
        "cv_v_predicted": predicted,
        "cv_v_over_2cv_se": result.cv_v / (2.0 * result.cv_se),
    }
    _emit_outputs(args, header, rows, payload)
    return 0


def _sim_curve(args) -> int:
    if args.df_curve:
        cvs = _parse_floats(args.cvs) if args.cvs else [i / 100.0 for i in range(1, 51)]
        text = csv_text(("cv", "df"), df_cv_curve(cvs))
    else:
        gammas = _parse_floats(args.gammas)
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
        text = csv_text(
            ("gamma", "m_quadratic", "m_linear", "m_simulated"),
            [(r.gamma, r.m_quadratic, r.m_linear, r.m_simulated) for r in rows],
        )
    if args.out:
        base = args.out
        if base.endswith(".csv"):
            base = base[:-4]
        with open(base + ".csv", "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _sim_df_reliability(args) -> int:
    reps = args.reps if args.reps is not None else 1000
    if reps < 100:
        raise ValueError(f"insufficient replications: need at least 100, got {reps}")
    data = gen_incomplete(args.n, args.rho, args.missing, stream(args.seed, TAG_DATA))
    pooled = pool_replicates(data, args.pilot_m, reps, args.seed, args.level)
    exceeds = [p.df_hat > args.df_threshold for p in pooled]
    header = ("rep", "gamma_hat", "df_hat", "exceeds_threshold")
    rows = [
        (i, p.gamma_hat, p.df_hat, flag) for i, (p, flag) in enumerate(zip(pooled, exceeds))
    ]
    payload = {
        "experiment": "df-reliability",
        "n": args.n,
        "rho": args.rho,
        "missing_fraction": args.missing,
        "pilot_m": args.pilot_m,
        "df_threshold": args.df_threshold,
        "reps": reps,
        "seed": args.seed,
        "fraction_above_threshold": sum(exceeds) / reps,
    }
    _emit_outputs(args, header, rows, payload)
    return 0


def cmd_simulate(args) -> int:
    handler = {
        "two-stage": _sim_two_stage,
        "cv-check": _sim_cv_check,
        "curve": _sim_curve,
        "df-reliability": _sim_df_reliability,
    }[args.experiment]
    return handler(args)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    dispatch = {
        "pool": cmd_pool,
        "plan": cmd_plan,
        "table1": cmd_table1,
        "simulate": cmd_simulate,
    }
    try:
        return dispatch[args.command](args)
    except UsageError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
