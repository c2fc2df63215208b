"""Every module of the package and of its tests uses each name it imports."""

import ast
from pathlib import Path

import pytest

import lcsmooth

PACKAGE = Path(lcsmooth.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport json\nimport os.path\n"
    source += "@dataclass\nclass A:\n    x: int = os.path.sep\n"
    assert unused_imports(source) == [(1, "field"), (2, "json")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
