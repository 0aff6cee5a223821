"""Every name a module under `src/guessable` or `tests` imports is read
in that module.  The check parses each module with `ast`, so it needs
nothing beyond the standard library.  The package's `__init__.py` is
left out: it imports names to export them."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import guessable

SOURCE = Path(guessable.__file__).parent
MODULES = sorted(p.name for p in SOURCE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The line and name of each import the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Optional, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == [(2, "Optional")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((SOURCE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_every_test_import_is_read(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []
