"""The sources parse as Python 3.10, the oldest version pyproject.toml
accepts, even when the tests run on a newer interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src", "tests", "bench", "tools") for path in (ROOT / folder).rglob("*.py")
)


def test_the_source_folders_are_found():
    assert any(path.name == "statespace.py" for path in SOURCES)
    assert any(path.parent.name == "bench" for path in SOURCES)
    assert any(path.parent.name == "tools" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
