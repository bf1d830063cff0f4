"""Every name a packlab module imports is used in it.  No linter ships with
the project, and code moved between modules leaves dead imports behind."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "packlab").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom typing import Sequence, Iterator\nx: Iterator[int]\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: Sequence"]
