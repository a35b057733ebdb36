"""CLI behavior: output formats, exit codes, determinism, round-trips."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, strategies as st

import miplan
from miplan import cli, montecarlo
from miplan.cli import main

from conftest import make_pilot_results
from test_fmi import REFERENCE_CELLS


def read_table(path):
    """Header and rows of a CSV the CLI wrote."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(result, *fragments):
    code, out, err = result
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def assert_usage_error(capsys, argv, message):
    """argparse's exit 2: the usage of the experiment's parser, then one error line."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--experiment", *argv])
    lines = capsys.readouterr().err.splitlines()
    assert exc.value.code == 2
    assert lines[0].startswith(f"usage: miplan simulate --experiment {argv[0]} [-h]")
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert lines[-1].startswith("miplan simulate: error: ") and lines[-1].endswith(message)


def write_two_row_csv(tmp_path):
    path = tmp_path / "pilot.csv"
    path.write_text("imputation,estimate,variance\n1,0,1\n2,2,1\n")
    return str(path)


class TestPool:
    def test_json_hand_example(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["pool", "--in", write_two_row_csv(tmp_path), "--level", "0.95"])
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == 1
        assert payload["se"] == 2
        assert payload["gamma_hat"] == 0.75
        assert payload["m"] == 2
        assert payload["gamma_lower"] < 0.75 < payload["gamma_upper"]

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["pool", "--in", write_two_row_csv(tmp_path), "--format", "text"])
        assert code == 0
        assert "gamma_hat: 0.75" in out

    def test_malformed_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("imputation,estimate,variance\n1,zero,1\n")
        code, _, err = run_cli(capsys, ["pool", "--in", str(path)])
        assert code == 1
        assert err.startswith("error:")

    def test_utf8_bom_accepted(self, tmp_path, capsys):
        plain = write_two_row_csv(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "pilot.csv").read_bytes())
        with_bom = run_cli(capsys, ["pool", "--in", str(bom)])
        assert with_bom[0] == 0
        assert with_bom == run_cli(capsys, ["pool", "--in", plain])

    def test_index_gap_exits_one(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("imputation,estimate,variance\n1,1,1\n4,3,1\n2,2,1\n")
        assert_one_error_line(run_cli(capsys, ["pool", "--in", str(path)]),
                              f"invalid input: {path}: missing imputation index 3")

    def test_overflow_exits_one(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("imputation,estimate,variance\n1,1e308,1\n2,-1e308,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli(capsys, ["pool", "--in", str(path)])
        assert_one_error_line(result, "overflows")

    def test_invalid_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"imputation,estimate,variance\n1,0,1\n2,\xff,1\n")
        assert_one_error_line(run_cli(capsys, ["pool", "--in", str(path)]),
                              f"error: invalid input: {path}: 'utf-8' codec can't decode byte 0xff")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["pool", "--in", "nope.csv"])
        assert code == 1
        assert err.startswith("error:")


class TestPlan:
    def pilot_path(self, pilot_csv_factory):
        return pilot_csv_factory(make_pilot_results(5, 0.39, 0.023))

    def test_worked_example(self, pilot_csv_factory, capsys):
        code, out, _ = run_cli(
            capsys, ["plan", "--pilot", self.pilot_path(pilot_csv_factory), "--target-sd", "0.001"]
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "m_required", "m_uncapped", "capped", "gamma_point", "gamma_upper", "cv_target", "df_implied",
            "pilot_m", "pilot_sufficient", "pilot_estimate", "pilot_se",
        ]
        assert 124 <= payload["m_required"] <= 128
        assert payload["gamma_upper"] == pytest.approx(0.69, abs=0.005)
        assert payload["pilot_m"] == 5
        assert payload["pilot_sufficient"] is False
        assert payload["pilot_se"] == pytest.approx(0.023, rel=1e-9)
        assert (payload["m_uncapped"], payload["capped"]) == (payload["m_required"], False)

    @pytest.mark.parametrize("target,max_m", [("0.0001", "50"), ("1e-200", "10000")])
    def test_cap_reported_with_one_note(self, pilot_csv_factory, capsys, target, max_m):
        argv = ["plan", "--pilot", self.pilot_path(pilot_csv_factory),
                "--target-cv", target, "--max-m", max_m]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["m_required"] == int(max_m)
        assert payload["capped"] is True
        assert payload["pilot_sufficient"] is False
        if target == "1e-200":
            assert payload["m_uncapped"] is None and payload["df_implied"] is None
        else:
            assert payload["m_uncapped"] > int(max_m)
        assert err == f"note: m_required capped at --max-m {max_m}\n"

    # A goal whose CV underflows to 0, or whose 2 df overflows, is as
    # unreachable as its neighbours at SE 0.89 and gets their capped answer.
    @pytest.mark.parametrize("se,flag,value", [
        (2.77, "--target-df", "9e307"),
        (2.77, "--target-vcv", "5e-324"),
        (2.77, "--target-sd", "5e-324"),
        (0.89, "--target-df", "8.9e307"),
        (0.89, "--target-cv", "5e-324"),
        (0.89, "--target-sd", "5e-324"),
    ])
    def test_unreachable_goal_is_capped(self, pilot_csv_factory, capsys, se, flag, value):
        path = pilot_csv_factory(make_pilot_results(5, 0.39, se))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["plan", "--pilot", path, flag, value])
        assert (code, err) == (0, "note: m_required capped at --max-m 10000\n")
        payload = json.loads(out)
        assert (payload["m_required"], payload["capped"]) == (10000, True)
        if flag == "--target-df":
            assert payload["m_uncapped"] > 10000 and payload["cv_target"] > 0.0
        else:
            assert payload["m_uncapped"] is None

    @pytest.mark.parametrize("value, echo", [("200", "200.0"), ("9e307", "9e+307")])
    def test_df_goal_is_echoed(self, pilot_csv_factory, capsys, value, echo):
        argv = ["plan", "--pilot", self.pilot_path(pilot_csv_factory), "--target-df", value]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert f'  "df_implied": {echo},\n' in out
        assert json.loads(out)["df_implied"] == float(value)

    def test_huge_uncapped_count_prints_as_a_float(self, pilot_csv_factory, capsys):
        """A 64-bit JSON reader rejects a 308-digit integer literal; json
        parses an integer literal as an int, and a float literal as a float."""
        path = pilot_csv_factory(make_pilot_results(5, 0.39, 2.7))
        code, out, _ = run_cli(capsys, ["plan", "--pilot", path, "--target-df", "8.9e307"])
        assert code == 0
        m_uncapped = json.loads(out)["m_uncapped"]
        assert isinstance(m_uncapped, float) and math.isfinite(m_uncapped) and m_uncapped > 1e307

    def test_max_m_below_two_exits_one(self, pilot_csv_factory, capsys):
        argv = ["plan", "--pilot", self.pilot_path(pilot_csv_factory), "--target-cv", "0.05"]
        for max_m in ("-5", "1"):
            assert_one_error_line(run_cli(capsys, argv + ["--max-m", max_m]),
                                  f"domain error: m_max must be >= 2, got {max_m}")

    def test_target_kinds_accepted(self, pilot_csv_factory, capsys):
        path = self.pilot_path(pilot_csv_factory)
        for flag, value in (("--target-cv", "0.05"), ("--target-vcv", "0.1"), ("--target-df", "200")):
            code, out, _ = run_cli(capsys, ["plan", "--pilot", path, flag, value])
            assert code == 0
            assert json.loads(out)["m_required"] >= 2

    def test_multiple_targets_exit_two(self, pilot_csv_factory):
        path = self.pilot_path(pilot_csv_factory)
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--pilot", path, "--target-sd", "0.001", "--target-cv", "0.05"])
        assert exc.value.code == 2

    def test_no_target_exit_two(self, pilot_csv_factory):
        path = self.pilot_path(pilot_csv_factory)
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--pilot", path])
        assert exc.value.code == 2


class TestTable1:
    def test_csv_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, ["table1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,m,lower,upper"
        assert len(lines) == 21
        for line in lines[1:]:
            g, m, lo, up = line.split(",")
            ref_lo, ref_up = REFERENCE_CELLS[(float(g), int(m))]
            assert abs(float(lo) - ref_lo) <= 0.005
            assert abs(float(up) - ref_up) <= 0.005

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, ["table1", "--format", "text", "--gammas", "0.3", "--ms", "5"])
        assert code == 0
        assert "(0.11, 0.60)" in out

    def test_grid_outside_unit_interval_exits_one(self, capsys):
        assert_one_error_line(run_cli(capsys, ["table1", "--gammas", "0,1"]),
                              "domain error: table1 gammas must be in [1e-06, 0.999999], got 0.0")

    @pytest.mark.parametrize("gamma", ["1e-7", "0.9999999"])
    def test_gamma_that_would_be_clamped_exits_one(self, capsys, gamma):
        """gamma_ci clamps into [1e-6, 1 - 1e-6]; table1 refuses instead of
        printing the interval of a gamma it was not given."""
        assert_one_error_line(run_cli(capsys, ["table1", "--gammas", gamma, "--ms", "5"]),
                              f"got {float(gamma)!r}")

    def test_clamp_bounds_accepted(self, capsys):
        code, out, _ = run_cli(capsys, ["table1", "--gammas", "1e-6,0.999999", "--ms", "5"])
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            "1e-06", "0.999999"
        ]

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "t1.csv"
        code, out, _ = run_cli(capsys, ["table1", "--out", str(dest)])
        assert code == 0
        header, rows = read_table(str(dest))
        assert header == ["gamma", "m", "lower", "upper"]
        assert len(rows) == 20


class TestCurve:
    def test_out_writes_exactly_the_path(self, tmp_path, capsys):
        dest = tmp_path / "curve.json"
        code, out, _ = run_cli(capsys, ["curve", "--gammas", "0.5", "--out", str(dest)])
        assert (code, out) == (0, "")
        assert [p.name for p in tmp_path.iterdir()] == ["curve.json"]
        assert dest.read_text() == "gamma,m_quadratic,m_linear,m_simulated\n0.5,51,50,\n"

    def test_grid_outside_unit_interval_exits_one(self, capsys):
        assert_one_error_line(run_cli(capsys, ["curve", "--gammas", "0.5,1"]),
                              "domain error: gamma must be in (0, 1), got 1.0")

    @pytest.mark.parametrize("given", [["--seed", "1"], ["--n", "5"], ["--simulated"]])
    def test_simulation_flag_is_a_usage_error(self, capsys, given):
        with pytest.raises(SystemExit) as exc:
            main(["curve", *given])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"miplan: error: unrecognized arguments: {' '.join(given)}")


class TestDfCurve:
    def test_df_curve(self, capsys):
        code, out, _ = run_cli(capsys, ["df-curve", "--cvs", "0.05,0.1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cv,df"
        assert float(lines[1].split(",")[1]) == pytest.approx(200.0, rel=1e-12)
        assert float(lines[2].split(",")[1]) == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize("cv", ["1e-200", "1e-170"])
    def test_df_curve_underflow_reads_inf(self, capsys, cv):
        """2 cv^2 underflows to zero below cv of about 1e-162; df is then inf."""
        code, out, err = run_cli(capsys, ["df-curve", "--cvs", f"{cv},0.5"])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["cv,df", f"{cv},inf", "0.5,2.0"]

    def test_out_writes_exactly_the_path(self, tmp_path, capsys):
        dest = tmp_path / "df.txt"
        code, out, _ = run_cli(capsys, ["df-curve", "--cvs", "0.1", "--out", str(dest)])
        assert (code, out) == (0, "")
        assert [p.name for p in tmp_path.iterdir()] == ["df.txt"]
        assert dest.read_text() == "cv,df\n0.1,49.99999999999999\n"

    def test_grid_outside_unit_interval_exits_one(self, capsys):
        assert_one_error_line(run_cli(capsys, ["df-curve", "--cvs", "0,1"]),
                              "domain error: cv must be in (0, 1), got 0.0")

    @pytest.mark.parametrize("given", [["--seed", "1"], ["--n", "5"]])
    def test_simulation_flag_is_a_usage_error(self, capsys, given):
        with pytest.raises(SystemExit) as exc:
            main(["df-curve", *given])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"miplan: error: unrecognized arguments: {' '.join(given)}")


# Every simulate experiment that draws from a seed, with a small workload.
SEEDED_EXPERIMENTS = {
    "cv-check": ["--experiment", "cv-check", "--n", "300", "--reps", "100"],
    "df-reliability": ["--experiment", "df-reliability", "--n", "300", "--reps", "100"],
    "curve-simulated": ["--experiment", "curve", "--simulated", "--gammas", "0.5", "--n", "300",
                        "--reps", "100"],
}

# One small run of each simulate experiment.
SMALL_EXPERIMENTS = {
    "cv-check": SEEDED_EXPERIMENTS["cv-check"],
    "df-reliability": SEEDED_EXPERIMENTS["df-reliability"],
    "curve": SEEDED_EXPERIMENTS["curve-simulated"],
    "two-stage": ["--experiment", "two-stage", "--n", "300", "--reps", "2", "--target-cv", "0.2"],
}


# The flags each simulate experiment reads.  Under one experiment, a flag
# that only others read is a usage error (exit 2), never silently ignored.
READS = {
    "two-stage": "--n --rho --missing --seed --reps --out --workers --pilot-m --max-m --level"
                 " --target-sd --target-cv --target-df",
    "cv-check": "--n --rho --missing --seed --reps --out --workers --m",
    "df-reliability": "--n --rho --missing --seed --reps --out --workers --pilot-m --df-threshold",
    "curve": "--n --rho --seed --reps --out --workers --gammas --cv-target --max-m --simulated",
}
SWITCHES = {"--simulated"}
# curve's flags for the df table before it became the df-curve command: no
# experiment reads them, so an old script fails instead of getting another table.
RETIRED_FLAGS = "--df-curve --cvs"
FOREIGN_FLAGS = [
    (experiment, flag)
    for experiment, flags in READS.items()
    for flag in sorted(set(" ".join([*READS.values(), RETIRED_FLAGS]).split()) - set(flags.split()))
]


class TestSimulate:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("experiment", sorted(SEEDED_EXPERIMENTS))
    def test_seed_outside_64_bits_exits_one(self, capsys, experiment, seed):
        assert_one_error_line(
            run_cli(capsys, ["simulate", *SEEDED_EXPERIMENTS[experiment], "--seed", seed]),
            f"domain error: seed must be an unsigned 64-bit integer, got {seed}",
        )

    @staticmethod
    def assert_level_rejected(capsys, experiment, level):
        """Exit 1 under two-stage, which pools at --level; elsewhere --level is
        not a flag, so exit 2."""
        argv = [*SMALL_EXPERIMENTS[experiment][1:], "--level", level]
        if experiment == "two-stage":
            assert_one_error_line(run_cli(capsys, ["simulate", "--experiment", *argv]),
                                  f"domain error: level must be in (0, 1), got {level}")
        else:
            assert_usage_error(capsys, argv, f"unrecognized arguments: --level {level}")

    @pytest.mark.parametrize("experiment", list(SMALL_EXPERIMENTS))
    def test_level_outside_unit_interval_exits_one(self, capsys, experiment):
        self.assert_level_rejected(capsys, experiment, "1.5")

    def test_level_nan_exits_one(self, capsys):
        for experiment in ("two-stage", "curve"):
            self.assert_level_rejected(capsys, experiment, "nan")

    def test_two_stage_records_and_summary(self, tmp_path, capsys):
        base = tmp_path / "ts"
        code, out, _ = run_cli(capsys, [
            "simulate", "--experiment", "two-stage", "--n", "400", "--missing", "0.5",
            "--pilot-m", "5", "--target-cv", "0.2", "--reps", "8", "--seed", "11",
            "--out", str(base),
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "two-stage"
        assert payload["reps"] == 8
        assert payload["achieved_sd_of_se"] > 0
        header, rows = read_table(str(base) + ".csv")
        assert header[0] == "rep"
        assert len(rows) == 8
        # round-trip: every numeric cell re-parses as a float
        for row in rows:
            [float(cell) for cell in row]
        on_disk = json.loads((tmp_path / "ts.json").read_text())
        assert on_disk == payload

    def test_two_stage_cap_reported_with_one_note(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "simulate", "--experiment", "two-stage", "--n", "200", "--target-cv", "0.001",
                "--max-m", "10", "--reps", "3", "--seed", "5",
            ])
        assert code == 0
        assert json.loads(out)["m_required"]["max"] == 10
        assert err == "note: m_required capped at --max-m 10\n"

    def test_two_stage_df_goal_past_overflow_is_capped(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "simulate", "--experiment", "two-stage", "--target-df", "9e307",
                "--reps", "3", "--n", "200",
            ])
        assert (code, err) == (0, "note: m_required capped at --max-m 10000\n")
        assert json.loads(out)["m_required"]["min"] == 10000

    @pytest.mark.parametrize("argv", [
        ["curve", "--gammas", "0.5"],
        ["simulate", "--experiment", "two-stage", "--n", "200", "--target-cv", "0.001",
         "--reps", "3"],
    ])
    def test_failed_write_leaves_only_the_error(self, tmp_path, capsys, argv):
        # The cap applies, but its note follows the outputs, which were not written.
        out = str(tmp_path / "no_such_dir" / "x")
        result = run_cli(capsys, [*argv, "--max-m", "10", "--out", out])
        assert_one_error_line(result, "No such file or directory")

    def test_two_stage_single_rep_exits_before_drawing(self, capsys, monkeypatch):
        """The summary needs two replications; one is refused before the
        pilots and finals are drawn, not after."""
        draws = []
        draw = montecarlo.impute_m
        monkeypatch.setattr(montecarlo, "impute_m", lambda *a: draws.append(a[1]) or draw(*a))
        assert_one_error_line(run_cli(capsys, [
            "simulate", "--experiment", "two-stage", "--n", "2000", "--target-cv", "0.001",
            "--reps", "1",
        ]), "insufficient replications: need at least 2, got 1")
        assert draws == []

    def test_two_stage_max_m_below_two_exits_before_drawing(self, capsys, monkeypatch):
        """A cap below 2 is refused with the config, before any pilot is drawn."""
        draws = []
        draw = montecarlo.impute_m
        monkeypatch.setattr(montecarlo, "impute_m", lambda *a: draws.append(a[1]) or draw(*a))
        assert_one_error_line(run_cli(capsys, [
            "simulate", "--experiment", "two-stage", "--reps", "50", "--n", "200",
            "--target-cv", "0.05", "--max-m", "1",
        ]), "domain error: m_max must be >= 2, got 1")
        assert draws == []

    def test_two_stage_needs_target(self, capsys):
        assert_usage_error(capsys, ["two-stage", "--reps", "4"],
                           "one of the arguments --target-sd --target-cv --target-df is required")

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        # The final pooling asks for m = 1e13 draws, which numpy cannot
        # allocate; the fake raises what numpy would without asking the OS.
        draw = montecarlo.impute_m

        def impute_m(data, m, rng):
            if m > 10**6:
                raise MemoryError(f"Unable to allocate 72.8 TiB for an array with shape ({m},)")
            return draw(data, m, rng)

        monkeypatch.setattr(montecarlo, "impute_m", impute_m)
        assert_one_error_line(run_cli(capsys, [
            "simulate", "--experiment", "two-stage", "--n", "200", "--target-cv", "1e-6",
            "--max-m", "10000000000000", "--reps", "2",
        ]), "Unable to allocate")

    def test_final_past_int64_exits_one(self, capsys):
        # m_required is about 1e23: the chunk's draw refuses it before any
        # fixed-width column has to hold it
        assert_one_error_line(run_cli(capsys, [
            "simulate", "--experiment", "two-stage", "--n", "200", "--target-cv", "1e-12",
            "--max-m", str(10**30), "--reps", "2",
        ]), "Maximum allowed dimension exceeded")

    @pytest.mark.parametrize("experiment, flag", FOREIGN_FLAGS)
    def test_flag_of_another_experiment_is_a_usage_error(self, capsys, experiment, flag):
        given = [flag] if flag in SWITCHES else [flag, "0.5"]
        assert_usage_error(capsys, [*SMALL_EXPERIMENTS[experiment][1:], *given],
                           f"unrecognized arguments: {' '.join(given)}")

    @pytest.mark.parametrize("argv", [["--exp", "curve"], ["--experiment", "curve", "--sim"]])
    def test_abbreviated_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("miplan simulate: error: ")

    def test_curve_without_simulated_is_a_usage_error(self, capsys):
        """The rule table is the curve command; the experiment only simulates,
        so its old rule-only spelling stops before any draw."""
        assert_usage_error(capsys, ["curve"], "the following arguments are required: --simulated")

    # An old rule-only run that also gave a simulation flag: it still exits 2
    # and draws nothing.  Numbered from 7, after the seven cases of curve's
    # retired df mode that came first, so each case keeps the id it has always had.
    @pytest.mark.parametrize("argv", [
        pytest.param(["curve", "--gammas", "0.5", f"{flag}={value}"],
                     id=f"argv{i}-{flag} is read only with --simulated")
        for i, (flag, value) in enumerate(
            {"--n": "2000", "--rho": "0", "--seed": "31415", "--reps": "200"}.items(), start=7)
    ])
    def test_curve_flag_the_mode_would_ignore_is_a_usage_error(self, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(cli, "simulated_required_m", lambda *a, **k: calls.append(a) or 2)
        assert_usage_error(capsys, argv, "the following arguments are required: --simulated")
        assert calls == []

    @pytest.mark.parametrize("experiment", list(SMALL_EXPERIMENTS))
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_out_drops_a_csv_or_json_suffix(self, tmp_path, capsys, experiment, suffix):
        """--out BASE.csv and --out BASE.json both name BASE, under every
        experiment; the curve writes no summary file."""
        argv = ["simulate", *SMALL_EXPERIMENTS[experiment], "--out", str(tmp_path / f"x{suffix}")]
        assert run_cli(capsys, argv)[0] == 0
        written = ["x.csv"] if experiment == "curve" else ["x.csv", "x.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == written

    def test_curve_simulated_seeds_each_row_by_its_index(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--experiment", "curve", "--simulated", "--gammas", "0.5,0.5",
            "--n", "300", "--reps", "100", "--seed", "7",
        ])
        expected = [
            montecarlo.simulated_required_m(0.5, 0.05, n=300, reps=100,
                                            seed=montecarlo.derive_seed(7, i))
            for i in (0, 1)
        ]
        assert code == 0
        assert [int(line.split(",")[3]) for line in out.splitlines()[1:]] == expected

    @pytest.mark.parametrize("gammas, cv, max_m", [
        ("0.5", "0.01", "30"), ("0.5", "0.05", "2"), ("0.5", "1e-320", "30"),
        ("0.1", "0.02", "15"),
    ])
    def test_curve_simulated_search_stops_at_max_m(self, capsys, gammas, cv, max_m):
        """The simulated column probes no higher than --max-m; a goal that the
        fit puts above it reads --max-m, with the cap's note, and exits 0, also
        where (C / cv)^2 overflows.  In the last case the rule columns (14 and
        10) are not capped, so the note is the simulated column's."""
        code, out, err = run_cli(capsys, [
            "simulate", "--experiment", "curve", "--simulated", "--gammas", gammas,
            "--cv-target", cv, "--max-m", max_m, "--n", "300", "--reps", "100",
        ])
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == max_m
        assert err == f"note: m_required capped at --max-m {max_m}\n"

    def test_curve_simulated_at_max_m_two_can_answer_two(self, capsys):
        code, out, err = run_cli(capsys, [
            "simulate", "--experiment", "curve", "--simulated", "--gammas", "0.1",
            "--cv-target", "0.2", "--max-m", "2", "--n", "300", "--reps", "100",
        ])
        assert code == 0
        assert out.splitlines()[1].split(",")[1:] == ["2", "2", "2"]
        assert err == "note: m_required capped at --max-m 2\n"

    def test_curve_checks_every_gamma_before_simulating(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulated_required_m", lambda *a, **k: calls.append(a) or 2)
        assert_one_error_line(run_cli(capsys, [
            "simulate", "--experiment", "curve", "--gammas", "0.5,1.5", "--simulated",
        ]), "gamma")
        assert calls == []

    def test_curve_simulated_without_rows_exits_one(self, capsys):
        assert_one_error_line(run_cli(capsys, [
            "simulate", "--experiment", "curve", "--simulated", "--gammas", "0.5", "--n", "0",
        ]), "domain error: n must be >= 1")

    def test_cv_check_deterministic_bytes(self, tmp_path, capsys):
        argv = [
            "simulate", "--experiment", "cv-check", "--n", "300", "--m", "5",
            "--reps", "100", "--seed", "4242", "--workers", "2",
        ]
        outputs = []
        for name in ("a", "b"):
            base = tmp_path / name
            code, out, _ = run_cli(capsys, argv + ["--out", str(base)])
            assert code == 0
            outputs.append((
                (tmp_path / f"{name}.csv").read_bytes(),
                (tmp_path / f"{name}.json").read_bytes(),
                out,
            ))
        assert outputs[0] == outputs[1]

    def test_cv_check_workers_do_not_change_output(self, tmp_path, capsys):
        blobs = []
        for name, workers in (("w1", "1"), ("w3", "3")):
            base = tmp_path / name
            code, _, _ = run_cli(capsys, [
                "simulate", "--experiment", "cv-check", "--n", "300", "--m", "5",
                "--reps", "100", "--seed", "99", "--workers", workers, "--out", str(base),
            ])
            assert code == 0
            blobs.append((tmp_path / f"{name}.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_cv_check_rejects_small_reps(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--experiment", "cv-check", "--n", "300", "--reps", "10",
        ])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, m", [
        (["--experiment", "cv-check", "--m", "1"], 1),
        (["--experiment", "cv-check", "--m", "-3"], -3),
        (["--experiment", "df-reliability", "--pilot-m", "1"], 1),
    ])
    def test_m_below_two_exits_one(self, capsys, argv, m):
        assert_one_error_line(
            run_cli(capsys, ["simulate", *argv, "--n", "300", "--reps", "100"]),
            f"insufficient imputations: need m >= 2, got {m}",
        )

    def test_infinite_target_exits_one(self, capsys):
        assert_one_error_line(
            run_cli(capsys, ["simulate", "--experiment", "two-stage", "--n", "300", "--reps", "2",
                             "--target-sd", "inf"]),
            "invalid target: value must be positive and finite, got inf",
        )

    def test_cv_check_without_missing_values(self, capsys):
        # n = 20 at 1% missing draws no missing y on this seed: every pooling
        # is the same, so cv_se is 0 and the ratio to it is undefined
        code, out, err = run_cli(capsys, [
            "simulate", "--experiment", "cv-check", "--n", "20", "--missing", "0.01",
            "--m", "5", "--reps", "100", "--seed", "1",
        ])
        summary = json.loads(out)
        assert (code, err, summary["cv_se"], summary["cv_v_over_2cv_se"]) == (0, "", 0, None)

    def test_identical_poolings_report_no_spread(self, capsys):
        # Also no missing y; at these seeds numpy's mean and SD of the equal
        # columns rounded off them (cv_se 4.8e-16, a final_se SD of 3e-17 and
        # a mean above the max), so the summaries must not come from those sums.
        code, out, err = run_cli(capsys, [
            "simulate", "--experiment", "cv-check", "--n", "20", "--missing", "0.01",
            "--m", "5", "--reps", "100", "--seed", "2",
        ])
        summary = json.loads(out)
        assert (code, err, summary["cv_v"], summary["cv_se"]) == (0, "", 0, 0)
        assert summary["cv_v_over_2cv_se"] is None
        # Here numpy's mean of the 2000 equal gamma_hat came out an ulp above
        # GAMMA_EPS, so mean_gamma_hat too must be the constant column's value.
        code, out, err = run_cli(capsys, [
            "simulate", "--experiment", "cv-check", "--n", "300", "--missing", "0.001",
            "--m", "5", "--reps", "2000", "--seed", "0",
        ])
        summary = json.loads(out)
        assert (code, err, summary["cv_v"], summary["cv_se"]) == (0, "", 0, 0)
        assert summary["mean_gamma_hat"] == 1e-06
        assert summary["cv_v_predicted"] == 1e-06 * math.sqrt(2 / 4)
        code, out, err = run_cli(capsys, [
            "simulate", "--experiment", "two-stage", "--n", "5", "--missing", "0.01",
            "--reps", "7", "--target-cv", "0.5", "--seed", "5",
        ])
        summary = json.loads(out)
        assert (code, err) == (0, "")
        for name in ("final_estimate", "final_se", "final_gamma_hat", "final_df_hat"):
            field = summary[name]
            assert field["sd"] == 0 and field["mean"] == field["min"] == field["max"], name
        assert summary["achieved_sd_of_se"] == 0

    # The curve command's first cases, which date from its time as a simulate
    # mode, keep their ids here; TestCurve holds the rest.
    def test_curve_stdout(self, capsys):
        code, out, _ = run_cli(capsys, ["curve", "--gammas", "0.1,0.5,0.9"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,m_quadratic,m_linear,m_simulated"
        cells = [line.split(",") for line in lines[1:]]
        assert [c[1] for c in cells] == ["3", "51", "163"]
        assert [c[2] for c in cells] == ["10", "50", "90"]
        assert all(c[3] == "" for c in cells)

    def test_curve_cap_reported_with_one_note(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["curve", "--gammas", "0.5,0.9", "--max-m", "10"])
        assert code == 0
        assert out == (
            "gamma,m_quadratic,m_linear,m_simulated\n0.5,10,10,\n0.9,10,10,\n"
        )
        assert err == "note: m_required capped at --max-m 10\n"

    def test_curve_max_m_below_two_exits_one(self, capsys):
        assert_one_error_line(run_cli(capsys, ["curve", "--gammas", "0.5", "--max-m", "-3"]),
                              "domain error: m_max must be >= 2")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_df_threshold_not_finite_exits_one(self, capsys, threshold):
        assert_one_error_line(
            run_cli(capsys, ["simulate", "--experiment", "df-reliability", "--n", "300",
                             "--reps", "100", f"--df-threshold={threshold}"]),
            f"domain error: df threshold must be finite, got {float(threshold)!r}",
        )

    def test_df_reliability(self, tmp_path, capsys):
        base = tmp_path / "dfr"
        code, out, _ = run_cli(capsys, [
            "simulate", "--experiment", "df-reliability", "--n", "400", "--missing", "0.4",
            "--pilot-m", "5", "--reps", "100", "--seed", "21", "--df-threshold", "100",
            "--out", str(base),
        ])
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["fraction_above_threshold"] <= 1.0
        header, rows = read_table(str(base) + ".csv")
        assert header == ["rep", "gamma_hat", "df_hat", "exceeds_threshold"]
        assert len(rows) == 100


@pytest.mark.parametrize("argv", [
    ["table1", "--gammas", ","],
    ["table1", "--ms", ","],
    ["curve", "--gammas", ","],
    ["df-curve", "--cvs", ","],
    ["df-curve", "--cvs", ""],
])
def test_empty_grid_exits_one(capsys, argv):
    assert_one_error_line(run_cli(capsys, argv), "domain error: ", "at least one")


@pytest.mark.parametrize("argv", [
    ["pool", "--in", "PILOT"],
    ["plan", "--pilot", "PILOT", "--target-cv", "0.05"],
    ["table1"],
    ["simulate", "--experiment", "two-stage", "--n", "200", "--reps", "50", "--target-cv", "0.05"],
])
def test_level_whose_quantile_p_rounds_to_one_exits_one(tmp_path, capsys, monkeypatch, argv):
    """1 - 2**-53 lies inside (0, 1), but (1 + level) / 2 rounds to 1, where
    no quantile exists; the error names the level, and no imputation is drawn."""
    draws = []
    draw = montecarlo.impute_m
    monkeypatch.setattr(montecarlo, "impute_m", lambda *a: draws.append(a[1]) or draw(*a))
    pilot = write_two_row_csv(tmp_path)
    result = run_cli(capsys, [pilot if a == "PILOT" else a for a in argv]
                     + ["--level", repr(1 - 2**-53)])
    assert_one_error_line(result, "domain error: level 0.9999999999999999 is too close to 1: "
                          "(1 + level) / 2 rounds to 1")
    assert draws == []


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_one_quietly(tmp_path, unbuffered):
    """A reader that closes the pipe early, as `miplan pool ... | head -0`
    does, gets exit 1 and nothing on stderr, whether stdout is buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(miplan.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "miplan.cli", "pool", "--in", write_two_row_csv(tmp_path),
         "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the interpreter has started up far enough to write
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Every finite float: hypothesis draws +-0.0, subnormals and the extremes too.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7e308)


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def with_extremes(test):
    for value in EXTREMES:
        test = example(value)(test)
    return test


@given(FINITE)
@with_extremes
def test_render_json_floats(value):
    text = cli.render_json({"x": value, "m": 2, "ok": True, "missing": None})
    parsed = json.loads(text)
    assert same_bits(parsed["x"], value)
    assert parsed == {"x": value, "m": 2, "ok": True, "missing": None}


@given(FINITE)
@with_extremes
def test_csv_text_floats(value):
    text = cli.csv_text(("x", "yes", "no", "none"), [(value, True, False, None)])
    header, row = csv.reader(io.StringIO(text))
    assert same_bits(float(row[0]), value)
    assert (header, row[1:]) == (["x", "yes", "no", "none"], ["1", "0", ""])


@pytest.mark.parametrize("value, cell", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_non_finite_floats(value, cell):
    """null in JSON, at any depth; in CSV, the cell float() reads back."""
    text = cli.render_json({"x": value, "summary": {"sd": value, "n": 3}})
    assert json.loads(text) == {"x": None, "summary": {"sd": None, "n": 3}}
    assert cli.csv_text(("x",), [(value,)]) == f"x\n{cell}\n"


KEYS = st.text(max_size=8)
SCALARS = st.none() | st.booleans() | st.integers() | FINITE | KEYS
VALUES = st.recursive(SCALARS, lambda inner: st.dictionaries(KEYS, inner, max_size=4), max_leaves=8)


@given(st.dictionaries(KEYS, VALUES, max_size=6))
def test_render_json_of_nested_payload_is_json_dumps(payload):
    """A payload of finite values, nested like the two-stage summary, reads
    exactly as the standard library writes it."""
    assert cli.render_json(payload) == json.dumps(payload, indent=2)
