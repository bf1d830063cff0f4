"""Every module-level private function, class and constant in packlab is
referenced by packlab's own code.  Tests may call private helpers, but a
helper that only tests call, or one left behind when its caller went, is
dead code.  Likewise every oracle in ``oracles.py`` is called by a test
module or by another oracle."""

import ast
from collections import Counter
from pathlib import Path

MODULES = sorted((Path(__file__).parent.parent / "src" / "packlab").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _references(node: ast.AST) -> Counter:
    """Names loaded and attributes read anywhere under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _definitions(tree: ast.Module):
    """(name, line, node) of each module-level private definition; a
    function's or class's own body does not count as a reference to it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node.lineno, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and _private(sub.id):
                        yield sub.id, node.lineno, None


def _unreferenced(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{name}:{line}: {ident}"
        for name, tree in trees.items()
        for ident, line, node in _definitions(tree)
        if used[ident] - (_references(node)[ident] if node else 0) <= 0
    ]


def test_every_private_name_is_referenced():
    assert _unreferenced({p.name: p.read_text() for p in MODULES}) == []


def test_an_unreferenced_private_name_is_caught():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE = 4\n\ndef _pick(rows):\n    return _pick(rows[1:])\n",
        "b.py": "from . import a\n\ndef _used():\n    return a._LIMIT\n\nclass _Gone:\n    pass\n"
                "\nX = _used()\n",
    }
    assert _unreferenced(sources) == ["a.py:2: _SPARE", "a.py:4: _pick", "b.py:6: _Gone"]


def _uncalled(sources: dict[str, str], module: str) -> list[str]:
    """The module-level functions of ``sources[module]`` that no source
    references outside their own body."""
    used = sum((_references(ast.parse(text)) for text in sources.values()), Counter())
    return [
        node.name
        for node in ast.parse(sources[module]).body
        if isinstance(node, ast.FunctionDef) and used[node.name] <= _references(node)[node.name]
    ]


def test_every_oracle_is_called():
    assert _uncalled({p.name: p.read_text() for p in TESTS}, "oracles.py") == []


def test_an_uncalled_oracle_is_caught():
    sources = {
        "oracles.py": "def a(n):\n    return a(n - 1)\n\ndef b():\n    return 1\n\n"
                      "def c():\n    return b()\n",
        "test_x.py": "from oracles import a, c\n\ndef test_c():\n    assert c()\n",
    }
    assert _uncalled(sources, "oracles.py") == ["a"]
