"""CLI fuzzing: malformed inputs and extreme flags never end in a traceback.

Each case calls ``main()`` in-process.  It must exit 0 (stderr holding at
most ``note:`` lines), or exit 1 with exactly one stderr line starting
``error:``, or take argparse's exit 2: the usage text, then one
``miplan ...: error:`` line.  Warnings are raised as errors, so a warning
that would leak onto stderr fails the case too.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from miplan.cli import main

HEADER = "imputation,estimate,variance\n"

# Bad or extreme tokens for CSV cells and flag values.
HOSTILE = st.one_of(
    st.sampled_from([
        "0", "-1", "1e-320", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e309",
        "", " ", "abc", "0x10", "1_0", "\x00", '"', "9" * 140_000,
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
INDEX = st.one_of(st.integers(-1, 8).map(str), st.sampled_from(["x", "1.0", " 2", ""]))


def mostly(clean, hostile=HOSTILE):
    """Draws from clean five times in six and from hostile otherwise, so that
    runs reach the success path as well as every error path."""
    return st.integers(0, 5).flatmap(lambda k: hostile if k == 0 else clean)


def floats(lo: float, hi: float):
    return st.floats(lo, hi).map(repr)


ESTIMATE = mostly(floats(-1e3, 1e3))
VARIANCE = mostly(floats(0.0, 10.0))
LEVEL = mostly(
    floats(0.5, 0.999), st.sampled_from(["0", "1", "1e-300", "0.9999999999999999"]) | HOSTILE
)
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def results_csv(draw) -> str:
    """A results CSV, often malformed: bad or extreme cells; duplicate, gap
    and zero indices; ragged rows; a wrong header; an empty file."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "\n", HEADER, "imputation,estimate\n1,2\n2,3\n"]))
    indices = [str(i) for i in range(1, draw(st.integers(0, 6)) + 1)]
    if draw(st.integers(0, 3)) == 0:
        indices = draw(st.lists(INDEX, min_size=len(indices), max_size=len(indices)))
    rows = []
    for index in indices:
        cells = [index, draw(ESTIMATE), draw(VARIANCE)]
        if draw(st.integers(0, 19)) == 0:
            cells = cells[: draw(st.integers(0, 2))] + draw(st.lists(HOSTILE, max_size=2))
        rows.append(",".join(cells) + "\n")
    return draw(st.sampled_from([HEADER, "\ufeff" + HEADER])) + "".join(rows)


@contextlib.contextmanager
def csv_file(body: str):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "results.csv"
        path.write_text(body, encoding="utf-8")
        yield str(path)


def run(argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert all(line.startswith("note: ") for line in lines), lines
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert stderr.getvalue().endswith("\n")
    else:
        assert code == 2, code
        assert lines[0].startswith("usage: miplan"), lines
        errors = [line for line in lines if re.match(r"miplan( \w+)?: error: ", line)]
        assert errors == [lines[-1]], lines


@FUZZ
@given(body=results_csv(), level=LEVEL, fmt=st.sampled_from(["json", "text"]))
def test_pool(body, level, fmt):
    with csv_file(body) as path:
        run(["pool", "--in", path, f"--level={level}", "--format", fmt])


TARGET = st.tuples(
    st.sampled_from(["--target-sd", "--target-cv", "--target-vcv", "--target-df"]),
    mostly(floats(1e-4, 0.9) | floats(1.0, 1e4)),
)
MAX_M = mostly(
    st.integers(2, 20_000).map(str),
    st.sampled_from(["1", "0", "-5", "10000000000000000000000", "1e3", "x"]),
)


@FUZZ
@given(
    body=results_csv(),
    targets=mostly(st.lists(TARGET, min_size=1, max_size=1), st.lists(TARGET, max_size=2)),
    max_m=MAX_M,
    level=LEVEL,
)
def test_plan(body, targets, max_m, level):
    with csv_file(body) as path:
        argv = ["plan", "--pilot", path, f"--max-m={max_m}", f"--level={level}"]
        run(argv + [f"{flag}={value}" for flag, value in targets])


@FUZZ
@given(
    gammas=st.lists(mostly(floats(0.0, 1.0)), max_size=4),
    ms=st.lists(mostly(st.integers(2, 10**6).map(str)), max_size=4),
    level=LEVEL,
    fmt=st.sampled_from(["csv", "text"]),
)
def test_table1(gammas, ms, level, fmt):
    run(["table1", f"--gammas={','.join(gammas)}", f"--ms={','.join(ms)}",
         f"--level={level}", "--format", fmt])


# Count flags: never a large count, which would only make the run long.
# Always given --n, --reps and --gammas, since their defaults make long runs;
# cv-check and df-reliability need 100 replications or more.
SIM_COUNTS = {
    "--n": st.integers(5, 60),
    "--reps": st.integers(95, 130),
    "--pilot-m": st.integers(1, 8),
    "--m": st.integers(1, 30),
    "--max-m": st.integers(1, 200),
}
SIM_FLAGS = {
    "--missing": floats(0.01, 0.95),
    "--rho": floats(0.0, 0.95),
    "--level": floats(0.5, 0.999),
    "--seed": st.integers(0, 2**64 - 1).map(str),
    "--cv-target": floats(0.02, 0.9),
    "--df-threshold": floats(0.0, 1e4),
    **{flag: values.map(str) for flag, values in SIM_COUNTS.items()},
}
HOSTILE_COUNT = st.sampled_from(["-1", "0", "x", "1.5", ""])


@st.composite
def simulate_flags(draw) -> dict[str, str]:
    """Clean values for a random subset of the flags, and in one run of four,
    one flag set to a hostile token."""
    required = ("--n", "--reps")
    flags = draw(st.fixed_dictionaries(
        {flag: SIM_FLAGS[flag] for flag in required},
        optional={flag: s for flag, s in SIM_FLAGS.items() if flag not in required},
    ))
    flags["--gammas"] = ",".join(draw(st.lists(floats(0.05, 0.95), min_size=1, max_size=2)))
    if draw(st.integers(0, 3)) == 0:
        flag = draw(st.sampled_from(sorted(flags.keys() | SIM_FLAGS.keys())))
        if flag == "--seed":
            flags[flag] = draw(st.sampled_from(["-1", "x", str(2**64)]))
        else:
            flags[flag] = draw(HOSTILE_COUNT if flag in SIM_COUNTS else HOSTILE)
    return flags


@FUZZ
@given(
    experiment=st.sampled_from(["two-stage", "cv-check", "curve", "df-reliability"]),
    flags=simulate_flags(),
    targets=mostly(st.lists(TARGET, min_size=1, max_size=1), st.lists(TARGET, max_size=2)),
    simulated=st.booleans(),
)
def test_simulate(experiment, flags, targets, simulated):
    argv = ["simulate", "--experiment", experiment]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    if experiment == "two-stage":
        argv += [f"{flag}={value}" for flag, value in targets]
    if experiment == "curve" and simulated:
        argv.append("--simulated")
    run(argv)
