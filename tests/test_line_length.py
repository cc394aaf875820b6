"""No line of the package, its scripts or its tests is longer than 99 characters.

No linter ships with the test dependencies, so this stdlib check stands in
for one.
"""
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAX_CHARS = 99
FILES = sorted(p for folder in ("src", "scripts", "tests")
               for p in (ROOT / folder).rglob("*.py"))


def long_lines(source: str) -> list[int]:
    """Numbers of the lines longer than MAX_CHARS characters."""
    return [i for i, line in enumerate(source.splitlines(), start=1) if len(line) > MAX_CHARS]


def test_files_are_found():
    names = {p.name for p in FILES}
    assert {"scoring.py", "default_laws.py", "test_line_length.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_line_is_too_long(path):
    assert long_lines(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,numbers", [
    ("x = 1\n", []),
    ("#" * 99 + "\n", []),
    ("#" * 100 + "\n", [1]),
    ("a\n" + "é" * 100 + "\nb\n", [2]),
], ids=["short", "at-the-limit", "over", "counts-characters"])
def test_the_check_itself(source, numbers):
    assert long_lines(source) == numbers
