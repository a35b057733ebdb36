"""Command-line interface: pool, plan, table1, curve, df-curve and simulate subcommands.

Scalar results are emitted as JSON, tables as CSV, each float as its
shortest round-trip repr (null in JSON when not finite); ``--format text``
rounds to 4 significant digits.  All randomness flows from
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
from itertools import zip_longest
from typing import Sequence

from . import __version__
from .fmi import TABLE1_GAMMAS, TABLE1_MS, round_half_away, table1
from .montecarlo import (
    ExperimentConfig,
    derive_seed,
    empirical_cv_of,
    pool_fixed_dataset,
    run_two_stage_experiment,
    simulated_required_m,
    summarize_two_stage,
)
from .planning import DEFAULT_M_MAX, ReplicabilityTarget, curve_data, df_cv_curve, recommend
from .pooling import pool, read_results_csv

DEFAULT_SEED = 31415

# Each target flag's ReplicabilityTarget kind and its help text.
# simulate --experiment two-stage takes every flag but --target-vcv.
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


def _finite(obj):
    """obj with each non-finite float in it, at any depth of dicts, as None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def render_json(payload: dict) -> str:
    """JSON with floats as their shortest round-trip repr, null when not finite."""
    return json.dumps(_finite(payload), indent=2, allow_nan=False)


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """CSV with floats as their repr, None as an empty cell, bools as 1 or 0."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([int(v) if isinstance(v, bool) else v for v in row])
    return buf.getvalue()


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated values of kind (float or int); empty items are skipped."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        name = "integer" if kind is int else "float"
        raise ValueError(f"invalid input: cannot parse {name} list {text!r}") from None


def _add_curve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gammas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", help="gamma grid")
    p.add_argument("--cv-target", type=float, default=0.05, help="SE CV target")
    p.add_argument("--max-m", type=int, default=DEFAULT_M_MAX)


def _add_target_flags(p: argparse.ArgumentParser, plan: bool) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    for flag, (kind, text) in TARGET_FLAGS.items():
        if plan or kind != "cv_of_variance":
            group.add_argument(flag, type=float, metavar="X", dest="target",
                               action=_TargetAction, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miplan",
        description="Pool multiply-imputed estimates and plan how many imputations you need.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pool", help="pool per-imputation results with Rubin's rules")
    p.set_defaults(handler=cmd_pool)
    p.add_argument("--in", dest="infile", required=True, metavar="CSV",
                   help="CSV with header imputation,estimate,variance")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("plan", help="recommend the number of imputations from a pilot")
    p.set_defaults(handler=cmd_plan)
    p.add_argument("--pilot", required=True, metavar="CSV",
                   help="pilot results CSV (same format as pool --in)")
    _add_target_flags(p, plan=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--max-m", type=int, default=DEFAULT_M_MAX)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("table1", help="confidence-interval table for the fraction of missing information")
    p.set_defaults(handler=cmd_table1)
    p.add_argument("--gammas", default=",".join(map(str, TABLE1_GAMMAS)))
    p.add_argument("--ms", default=",".join(map(str, TABLE1_MS)))
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("csv", "text"), default="csv")

    p = sub.add_parser("curve", help=EXPERIMENTS["curve"][2])
    p.set_defaults(handler=cmd_curve)
    _add_curve_flags(p)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("df-curve", help="df of the pooled variance for each CV of the pooled SE")
    p.set_defaults(handler=cmd_df_curve)
    p.add_argument("--cvs", help="comma list of cv values (default: 0.01 to 0.5)")
    p.add_argument("--out", metavar="PATH")

    # Only --experiment: parse_args hands the rest to that experiment's parser.
    p = sub.add_parser("simulate", help="Monte Carlo experiments on synthetic incomplete data",
                       add_help=False, allow_abbrev=False)
    p.add_argument("--experiment", choices=EXPERIMENTS)
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


def _out_base(out: str) -> str:  # simulate's --out BASE, a .csv then a .json suffix dropped
    return out.removesuffix(".csv").removesuffix(".json")


def _emit_outputs(args, header, rows, fields) -> None:
    """A simulation's summary (the data setup, then fields) to stdout; with
    --out BASE, its rows to BASE.csv and the summary to BASE.json."""
    payload = {
        "experiment": args.experiment,
        "n": args.n,
        "rho": args.rho,
        "missing_fraction": args.missing,
        **fields,
    }
    text = render_json(payload) + "\n"
    if args.out:
        base = _out_base(args.out)
        _write(csv_text(header, rows), base + ".csv")
        _write(text, base + ".json")
    sys.stdout.write(text)


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


def _curve_csv(rows, simulated=()) -> str:
    """The curve table; m_simulated is empty past the end of simulated."""
    return csv_text(("gamma", "m_quadratic", "m_linear", "m_simulated"),
                    [(r.gamma, r.m_quadratic, r.m_linear, m) for r, m in zip_longest(rows, simulated)])


def cmd_curve(args) -> int:
    rows = curve_data(_parse_list(args.gammas, float), args.cv_target, args.max_m)
    _write(_curve_csv(rows), args.out)
    _note_cap(any(r.capped for r in rows), args.max_m)
    return 0


def cmd_df_curve(args) -> int:
    cvs = [i / 100.0 for i in range(1, 51)] if args.cvs is None else _parse_list(args.cvs, float)
    _write(csv_text(("cv", "df"), df_cv_curve(cvs)), args.out)
    return 0


def _sim_two_stage(args) -> int:
    target = ReplicabilityTarget(*args.target)
    config = ExperimentConfig(
        n=args.n,
        rho=args.rho,
        missing_fraction=args.missing,
        pilot_m=args.pilot_m,
        target=target,
        reps=args.reps,
        seed=args.seed,
        level=args.level,
        m_max=args.max_m,
    )
    if config.reps < 2:  # summarize_two_stage's floor, checked before any draw
        raise ValueError(f"insufficient replications: need at least 2, got {config.reps}")
    runs = run_two_stage_experiment(config)
    summary = summarize_two_stage(runs)
    header = (
        "rep", "pilot_m", "pilot_estimate", "pilot_se", "pilot_gamma_hat", "pilot_df_hat",
        "gamma_used", "cv_target", "m_required", "pilot_sufficient",
        "final_m", "final_estimate", "final_se", "final_gamma_hat", "final_df_hat",
    )
    p, r, f = runs.pilots, runs.recommendations, runs.finals
    columns = (p.theta, p.se, p.gamma_hat, p.df_hat, r.gamma_used, r.cv_target, r.m_required,
               r.pilot_sufficient, f.m, f.theta, f.se, f.gamma_hat, f.df_hat)
    rows = [(rep, p.m, *row) for rep, row in enumerate(zip(*(c.tolist() for c in columns)))]
    fields = {
        "pilot_m": config.pilot_m,
        "target_kind": target.kind,
        "target_value": target.value,
        "reps": config.reps,
        "seed": config.seed,
        "level": config.level,
        **summary.as_dict(),
    }
    _emit_outputs(args, header, rows, fields)
    _note_cap(bool(r.capped.any()), args.max_m)
    return 0


def _sim_cv_check(args) -> int:
    pooled = pool_fixed_dataset(args.n, args.rho, args.missing, args.m, args.reps, args.seed)
    result = empirical_cv_of(pooled)
    header = ("rep", "estimate", "se", "v_total", "gamma_hat", "df_hat")
    columns = (pooled.theta, pooled.se, pooled.v_total, pooled.gamma_hat, pooled.df_hat)
    rows = list(zip(range(args.reps), *(c.tolist() for c in columns)))
    predicted = result.mean_gamma_hat * math.sqrt(2.0 / (args.m - 1))
    _emit_outputs(args, header, rows, {
        "m": args.m,
        "reps": args.reps,
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
    rows = curve_data(_parse_list(args.gammas, float), args.cv_target, args.max_m)
    # Simulated only once curve_data has checked every gamma; written to BASE.csv only.
    simulated = [simulated_required_m(r.gamma, args.cv_target, n=args.n, reps=args.reps, rho=args.rho,
                                      seed=derive_seed(args.seed, i), m_max=args.max_m)
                 for i, r in enumerate(rows)]
    _write(_curve_csv(rows, simulated), args.out and _out_base(args.out) + ".csv")
    # A fit cut to --max-m answers --max-m; one that lands on it exactly
    # gets the note too, since the fitted m estimates a goal that may lie above.
    _note_cap(any(r.capped for r in rows) or args.max_m in simulated, args.max_m)
    return 0


def _sim_df_reliability(args) -> int:
    if not math.isfinite(args.df_threshold):
        # df_hat > nan is never true, so the fraction would read 0.
        raise ValueError(f"domain error: df threshold must be finite, got {args.df_threshold!r}")
    pooled = pool_fixed_dataset(args.n, args.rho, args.missing, args.pilot_m, args.reps, args.seed)
    exceeds = (pooled.df_hat > args.df_threshold).tolist()
    header = ("rep", "gamma_hat", "df_hat", "exceeds_threshold")
    rows = list(zip(range(args.reps), pooled.gamma_hat.tolist(), pooled.df_hat.tolist(), exceeds))
    _emit_outputs(args, header, rows, {
        "pilot_m": args.pilot_m,
        "df_threshold": args.df_threshold,
        "reps": args.reps,
        "seed": args.seed,
        "fraction_above_threshold": sum(exceeds) / args.reps,
    })
    return 0


# Each simulate experiment's handler, --reps default and summary.
EXPERIMENTS = {
    "two-stage": (_sim_two_stage, 100, "the paper's two-stage procedure: pilot, recommended m, final"),
    "cv-check": (_sim_cv_check, 2000, "spread of the pooled variance and SE across re-imputations"),
    "curve": (_sim_curve, 200, "required m by the quadratic rule and by the rule m = 100 gamma"),
    "df-reliability": (_sim_df_reliability, 1000, "how often a pilot's df estimate passes a df threshold"),
}


def build_experiment_parsers() -> dict[str | None, argparse.ArgumentParser]:
    """The parser of each simulate experiment, holding only the flags that
    experiment reads, so that any other flag is a usage error (exit 2); under
    None, the parser of simulate without --experiment, whose help lists them."""
    parsers = {None: argparse.ArgumentParser(
        prog="miplan simulate", description="Monte Carlo experiments on synthetic incomplete data.",
        epilog="experiments (simulate --experiment X --help lists the flags of X):\n"
        + "".join(f"  {name:16}{summary}\n" for name, (_, _, summary) in EXPERIMENTS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False,
    )}
    parsers[None].add_argument("--experiment", required=True, choices=EXPERIMENTS)
    for name, (handler, reps, summary) in EXPERIMENTS.items():
        p = parsers[name] = argparse.ArgumentParser(
            prog="miplan simulate", description=summary,
            # Usage and help name the experiment; error lines read "miplan simulate: error: ...".
            formatter_class=lambda prog, name=name: argparse.HelpFormatter(f"{prog} --experiment {name}"),
            # Under an abbreviation, --m would read as --missing or --max-m where --m is not a flag.
            allow_abbrev=False,
        )
        p.set_defaults(handler=handler)
        p.add_argument("--n", type=int, default=2000)
        p.add_argument("--rho", type=float, default=0.0)
        if name != "curve":
            p.add_argument("--missing", type=float, default=0.5)
        p.add_argument("--reps", type=int, default=reps, help="replications (default: %(default)s)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", metavar="BASE", help="write BASE.csv" if name == "curve"
                       else "write BASE.csv (records) and BASE.json (summary)")
        p.add_argument("--workers", type=int, default=1,
                       help="kept for compatibility with existing scripts; has no effect")
    p = parsers["two-stage"]
    p.add_argument("--pilot-m", type=int, default=5)
    _add_target_flags(p, plan=False)
    p.add_argument("--level", type=float, default=0.95, help="level of every pooling")
    p.add_argument("--max-m", type=int, default=DEFAULT_M_MAX)
    parsers["cv-check"].add_argument("--m", type=int, default=20, help="imputations per replication")
    p = parsers["df-reliability"]
    p.add_argument("--pilot-m", type=int, default=5)
    p.add_argument("--df-threshold", type=float, default=100.0)
    p = parsers["curve"]
    _add_curve_flags(p)
    # Required: the retired rule-only spelling exits 2 instead of simulating.
    p.add_argument("--simulated", action="store_true", required=True,
                   help="fill the m_simulated column (required; miplan curve prints the rule table)")
    return parsers


# Built once per process: building takes about as long as a whole plan run.
_PARSER = build_parser()
_EXPERIMENT_PARSERS = build_experiment_parsers()


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse a command line; simulate's flags but --experiment X go to X's parser."""
    args, rest = _PARSER.parse_known_args(argv)
    if args.command == "simulate":
        return _EXPERIMENT_PARSERS[args.experiment].parse_args(rest, args)
    if rest:
        _PARSER.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        code = args.handler(args)
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
