"""The package's public names, and the oldest Python its files parse on."""

import ast
from pathlib import Path

import pytest

import decoyeval

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_every_exported_name_resolves_once():
    names = decoyeval.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(decoyeval, name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    # pyproject.toml requires Python >= 3.10; a newer grammar would pass
    # here on a newer interpreter and fail there.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
