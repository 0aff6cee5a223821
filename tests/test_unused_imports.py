"""Every name a module under `src/guessable` or `tests` imports is read
in that module, and every f-string in it has a placeholder.  No module
under `src/guessable` holds an `assert` statement: `python -O` drops
those, so the package's self-checks raise `AssertionError` explicitly.
The checks parse each module with `ast`, so they need nothing beyond
the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import guessable

SOURCE = Path(guessable.__file__).parent
MODULES = sorted(p.name for p in SOURCE.glob("*.py"))
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


def empty_fstrings(source: str) -> list[int]:
    """The line of each f-string with no placeholder.  A format spec such
    as the `.1f` of `{x:.1f}` is an f-string node too, and is not one."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    specs = {id(n.format_spec) for n in nodes if isinstance(n, ast.FormattedValue)}
    return sorted(
        n.lineno
        for n in nodes
        if isinstance(n, ast.JoinedStr)
        and id(n) not in specs
        and not any(isinstance(v, ast.FormattedValue) for v in n.values)
    )


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Optional, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == [(2, "Optional")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((SOURCE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_every_test_import_is_read(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_fstring_with_no_placeholder():
    source = (
        'x = 1.5\na = f"{x:.1f} {x!r:>{x}}"\nb = f"ok"\nc = "plain"\n'
        'd = f"" f"{x}"\n'
    )
    assert empty_fstrings(source) == [3]


@pytest.mark.parametrize(
    "path",
    [*(SOURCE / m for m in MODULES), *(TESTS / m for m in TEST_MODULES)],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_every_fstring_has_a_placeholder(path):
    assert empty_fstrings(path.read_text(encoding="utf-8")) == []


def assert_statements(source: str) -> list[int]:
    """The line of each `assert` statement."""
    nodes = ast.walk(ast.parse(source))
    return sorted(n.lineno for n in nodes if isinstance(n, ast.Assert))


def test_the_check_sees_an_assert_statement():
    source = (
        "def f(x):\n    assert x, 'x'\n    if not x:\n"
        "        raise AssertionError('x')\n    return x  # assert\n"
    )
    assert assert_statements(source) == [2]


@pytest.mark.parametrize("module", MODULES)
def test_the_package_holds_no_assert_statement(module):
    assert assert_statements((SOURCE / module).read_text(encoding="utf-8")) == []
