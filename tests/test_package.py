"""Package metadata: the public names resolve and the version matches pyproject.toml."""

from __future__ import annotations

import re
from pathlib import Path

import miplan

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
