"""CLI behavior: output formats, exit codes, determinism, round-trips."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings

import pytest

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
                              "domain error: table1 gammas must be in (0, 1), got 0.0")

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "t1.csv"
        code, out, _ = run_cli(capsys, ["table1", "--out", str(dest)])
        assert code == 0
        header, rows = read_table(str(dest))
        assert header == ["gamma", "m", "lower", "upper"]
        assert len(rows) == 20


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
    "curve": ["--experiment", "curve", "--gammas", "0.5"],
    "two-stage": ["--experiment", "two-stage", "--n", "300", "--reps", "2", "--target-cv", "0.2"],
}


class TestSimulate:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("experiment", sorted(SEEDED_EXPERIMENTS))
    def test_seed_outside_64_bits_exits_one(self, capsys, experiment, seed):
        assert_one_error_line(
            run_cli(capsys, ["simulate", *SEEDED_EXPERIMENTS[experiment], "--seed", seed]),
            f"domain error: seed must be an unsigned 64-bit integer, got {seed}",
        )

    @pytest.mark.parametrize("experiment", list(SMALL_EXPERIMENTS))
    def test_level_outside_unit_interval_exits_one(self, capsys, experiment):
        assert_one_error_line(
            run_cli(capsys, ["simulate", *SMALL_EXPERIMENTS[experiment], "--level", "1.5"]),
            "domain error: level must be in (0, 1), got 1.5",
        )

    def test_level_nan_exits_one(self, capsys):
        assert_one_error_line(
            run_cli(capsys, ["simulate", *SMALL_EXPERIMENTS["curve"], "--level", "nan"]),
            "domain error: level must be in (0, 1), got nan",
        )

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

    @pytest.mark.parametrize("argv", [
        ["--experiment", "curve", "--gammas", "0.5"],
        ["--experiment", "two-stage", "--n", "200", "--target-cv", "0.001", "--reps", "3"],
    ])
    def test_failed_write_leaves_only_the_error(self, tmp_path, capsys, argv):
        # The cap applies, but its note follows the outputs, which were not written.
        out = str(tmp_path / "no_such_dir" / "x")
        result = run_cli(capsys, ["simulate", *argv, "--max-m", "10", "--out", out])
        assert_one_error_line(result, "No such file or directory")

    def test_two_stage_needs_target(self, capsys):
        # a usage error like argparse's own: the usage line, then the error
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--experiment", "two-stage", "--reps", "4"])
        lines = capsys.readouterr().err.splitlines()
        assert exc.value.code == 2
        assert lines[0].startswith("usage: miplan simulate [-h] --experiment")
        assert lines[-1] == (
            "miplan simulate: error: two-stage needs one of --target-sd, --target-cv, --target-df"
        )

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

    def test_cv_check_without_missing_values(self, capsys):
        # n = 20 at 1% missing draws no missing y on this seed: every pooling
        # is the same, so cv_se is 0 and the ratio to it is undefined
        code, out, err = run_cli(capsys, [
            "simulate", "--experiment", "cv-check", "--n", "20", "--missing", "0.01",
            "--m", "5", "--reps", "100", "--seed", "1",
        ])
        summary = json.loads(out)
        assert (code, err, summary["cv_se"], summary["cv_v_over_2cv_se"]) == (0, "", 0, None)

    def test_curve_stdout(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "--experiment", "curve", "--gammas", "0.1,0.5,0.9"])
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
            code, out, err = run_cli(capsys, [
                "simulate", "--experiment", "curve", "--gammas", "0.5,0.9", "--max-m", "10",
            ])
        assert code == 0
        assert out == (
            "gamma,m_quadratic,m_linear,m_simulated\n0.5,10,10,\n0.90000000000000002,10,10,\n"
        )
        assert err == "note: m_required capped at --max-m 10\n"

    def test_curve_max_m_below_two_exits_one(self, capsys):
        assert_one_error_line(run_cli(capsys, [
            "simulate", "--experiment", "curve", "--gammas", "0.5", "--max-m", "-3",
        ]), "domain error: m_max must be >= 2")

    def test_df_curve(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--experiment", "curve", "--df-curve", "--cvs", "0.05,0.1",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cv,df"
        assert float(lines[1].split(",")[1]) == pytest.approx(200.0, rel=1e-12)
        assert float(lines[2].split(",")[1]) == pytest.approx(50.0, rel=1e-12)

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


def test_render_json_floats():
    text = cli.render_json({"a": 0.75, "b": 2, "ok": True, "missing": None, "list": [1.5, 2]})
    parsed = json.loads(text)
    assert parsed == {"a": 0.75, "b": 2, "ok": True, "missing": None, "list": [1.5, 2]}
    assert '"a": 0.75' in text
