"""Every name a package module, script or test imports is used in that file.

No linter ships with the test dependencies, so this stdlib check stands in
for one. The package's ``__init__.py`` is left out: its imports are re-exports.
"""
import ast
from pathlib import Path

import pytest

import digit_forensics

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(digit_forensics.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FILES = MODULES + sorted(p for folder in ("scripts", "tests")
                         for p in (ROOT / folder).glob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_files_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in FILES[len(MODULES):]}
    assert {"scripts/default_laws.py", "tests/test_imports.py"} <= names


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.name if p in MODULES else p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from m import T\n"
     "def f(x: 'T') -> None: ...\n", []),
    ("def f():\n    from m import g\n", ["g"]),
], ids=["plain", "dotted", "alias", "future", "string-annotation", "local"])
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused
