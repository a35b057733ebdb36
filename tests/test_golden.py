"""Golden bytes: the CLI's stdout, stderr and --out files at fixed seeds.

Every case runs one ``miplan`` command and compares each stream and file it
writes with ``tests/golden/<case>.<suffix>``, byte for byte.  After an
intended change of output, rewrite the goldens of the cases it moves with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(no CASE rewrites every case) and review their diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from miplan.cli import main

GOLDEN = Path(__file__).with_name("golden")
PILOT = str(GOLDEN / "pilot.csv")
OUT = "{out}"  # replaced by a per-case path in a scratch directory

CASES = {
    "pool_json": ["pool", "--in", PILOT],
    "pool_text": ["pool", "--in", PILOT, "--format", "text"],
    "plan_json": ["plan", "--pilot", PILOT, "--target-sd", "0.001"],
    "plan_text": ["plan", "--pilot", PILOT, "--target-cv", "0.05", "--format", "text"],
    "plan_capped": ["plan", "--pilot", PILOT, "--target-cv", "0.0001", "--max-m", "50"],
    "table1_csv": ["table1"],
    "table1_text": ["table1", "--format", "text", "--out", OUT + ".txt"],
    "cv_check": ["simulate", "--experiment", "cv-check", "--n", "300", "--m", "5",
                 "--reps", "100", "--seed", "4242", "--out", OUT],
    "two_stage": ["simulate", "--experiment", "two-stage", "--n", "200", "--missing", "0.35",
                  "--pilot-m", "5", "--target-cv", "0.1", "--reps", "10", "--seed", "7",
                  "--out", OUT],
    "two_stage_sd": ["simulate", "--experiment", "two-stage", "--n", "300", "--missing", "0.4",
                     "--target-sd", "0.001", "--level", "0.9", "--reps", "10", "--seed", "11",
                     "--out", OUT],
    "two_stage_capped": ["simulate", "--experiment", "two-stage", "--n", "200", "--missing", "0.5",
                         "--target-df", "200", "--max-m", "40", "--reps", "10", "--seed", "13",
                         "--out", OUT],
    # finals of thousands of imputations: past numpy's 128-element pairwise
    # block, and over more than one BLOCK_IMPUTATIONS chunk
    "two_stage_large": ["simulate", "--experiment", "two-stage", "--n", "2000", "--missing", "0.6",
                        "--target-cv", "0.004", "--reps", "12", "--seed", "17", "--out", OUT],
    "df_reliability": ["simulate", "--experiment", "df-reliability", "--n", "300",
                       "--missing", "0.4", "--pilot-m", "5", "--reps", "100", "--seed", "21",
                       "--out", OUT],
    "curve": ["curve", "--gammas", "0.1,0.35,0.9", "--cv-target", "0.03"],
    "curve_simulated": ["simulate", "--experiment", "curve", "--simulated", "--gammas", "0.5",
                        "--n", "200", "--reps", "100", "--cv-target", "0.2", "--seed", "3",
                        "--out", OUT],
    "df_curve": ["df-curve", "--cvs", "0.01,0.05,0.3", "--out", OUT + ".csv"],
    "df_curve_default": ["df-curve"],
    "version": ["--version"],
    "help": ["--help"],
    "pool_help": ["pool", "--help"],
    "plan_help": ["plan", "--help"],
    "table1_help": ["table1", "--help"],
    "curve_help": ["curve", "--help"],
    "df_curve_help": ["df-curve", "--help"],
    "simulate_help": ["simulate", "--help"],
    "simulate_two_stage_help": ["simulate", "--experiment", "two-stage", "--help"],
    "simulate_cv_check_help": ["simulate", "--experiment", "cv-check", "--help"],
    "simulate_curve_help": ["simulate", "--experiment", "curve", "--help"],
    "simulate_df_reliability_help": ["simulate", "--experiment", "df-reliability", "--help"],
}


def run_case(name: str, scratch: Path) -> dict[str, bytes]:
    """Run one case; return {suffix: bytes} for stdout, stderr (when not
    empty) and every file the command wrote.  ``--help`` and ``--version``
    end in SystemExit(0); help is wrapped at 80 columns whatever the terminal."""
    out_dir = scratch / name
    out_dir.mkdir()
    argv = [arg.replace(OUT, str(out_dir / name)) for arg in CASES[name]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0
    produced = {"stdout": stdout.getvalue().encode()}
    if stderr.getvalue():
        produced["stderr"] = stderr.getvalue().encode()
    for path in out_dir.iterdir():
        produced[path.suffix[1:]] = path.read_bytes()
    return produced


def golden(name: str) -> dict[str, bytes]:
    return {path.suffix[1:]: path.read_bytes() for path in GOLDEN.glob(f"{name}.*")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == golden(name)


def test_every_golden_file_belongs_to_a_case():
    # each is <case>.<suffix> or the pilot input, so a renamed or dropped
    # case cannot leave its files behind
    orphans = []
    for path in GOLDEN.iterdir():
        case, _, suffix = path.name.partition(".")
        if path.name != "pilot.csv" and not (case in CASES and suffix):
            orphans.append(path.name)
    assert orphans == []


def test_record_rejects_unknown_cases():
    with pytest.raises(SystemExit, match="unknown golden case: 'no_such_case'"):
        record(["cv_check", "no_such_case"])


def record(names: list[str]) -> None:
    """Rewrite the golden files of the named cases (all cases when none is
    named) from the current code; an unknown name rewrites nothing."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case: {', '.join(map(repr, unknown))}; "
                 f"known: {', '.join(sorted(CASES))}")
    with tempfile.TemporaryDirectory() as scratch:
        for name in names or CASES:
            for path in GOLDEN.glob(f"{name}.*"):
                path.unlink()
            for suffix, data in run_case(name, Path(scratch)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)


if __name__ == "__main__":
    record(sys.argv[1:])
