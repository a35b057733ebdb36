"""Package metadata: the public names resolve, the version matches
pyproject.toml, and every package name the benchmark uses exists."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

import miplan
from miplan import cli, montecarlo

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PERFBENCH = ROOT / "perfbench"


def project_version(text: str) -> str:
    """The version key of the [project] table, read without tomllib (Python 3.11+)."""
    table = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL)
    assert table, "pyproject.toml has no [project] table"
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', table.group(1), re.MULTILINE)
    assert version, "[project] has no version"
    return version.group(1)


def test_every_export_resolves():
    missing = [name for name in miplan.__all__ if not hasattr(miplan, name)]
    assert missing == []
    assert len(set(miplan.__all__)) == len(miplan.__all__)


def test_version_matches_pyproject():
    assert miplan.__version__ == project_version(PYPROJECT.read_text(encoding="utf-8"))


def test_project_version_reads_only_the_project_table():
    text = '[tool.x]\nversion = "9"\n\n[project]\nname = "a"\nversion = "1.2"\n\n[b]\nversion = "3"\n'
    assert project_version(text) == "1.2"


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py as a module, without installing anything it defines."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports oracle by name
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve(monkeypatch, tmp_path):
    """Every function the benchmark traces or reads a cache of, the
    imputation hook it wraps, and the argv of its CLI workloads, which
    must parse as ``main`` parses it."""
    tracer = load_perfbench("tracer", monkeypatch)
    for module, func in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"miplan.{module}"), func, None)), func
    for name in tracer.CACHED:
        module, func = name.split(".")
        assert hasattr(getattr(importlib.import_module(f"miplan.{module}"), func), "cache_info"), name
    assert callable(montecarlo.impute_m)
    workloads = load_perfbench("workloads", monkeypatch)
    for workload in ("two_stage_small_n", "required_m_search"):
        argv = workloads.make_inputs(workload, 1, str(tmp_path))["argv"]
        args = cli.parse_args([*argv, "--seed", "1", "--out", "X"])
        assert (args.command, args.seed, args.out, args.workers) == ("simulate", 1, "X", 1)


@pytest.mark.parametrize("workload", ["two_stage_small_n", "required_m_search"])
def test_benchmark_cli_call_passes_its_check(monkeypatch, tmp_path, capsys, workload):
    """A CLI workload's argv, run once as the benchmark's worker runs it (in
    process, with --seed and --out, stdout saved to BASE.stdout), passes the
    benchmark's own check of that call, so a change to the CLI cannot break
    the benchmark unseen."""
    workloads = load_perfbench("workloads", monkeypatch)
    argv = workloads.make_inputs(workload, 1, str(tmp_path))["argv"]
    base, seed = str(tmp_path / "call"), 7
    assert cli.main([*argv, "--seed", str(seed), "--out", base]) == 0
    with open(base + ".stdout", "w") as fh:
        fh.write(capsys.readouterr().out)
    if workload == "two_stage_small_n":
        problems = workloads.check_two_stage_call(base, seed)[0]
    else:
        problems = workloads.check_search_call(base)[0]
    assert problems == []
