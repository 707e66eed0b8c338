"""No unused imports in src/ or tests/: a static check by the standard library's ast."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope):
    """The import statements of a module or function, leaving out those of nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """Sorted (line, name) of each imported name that its scope never reads.

    The scope of a top-level import is the module; that of an import in a
    function is the function.  ``import a.b`` binds ``a``, and ``__future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    out = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    out.append((node.lineno, name))
    return sorted(out)


def test_unused_imports_checker():
    source = (
        "import os.path\n"
        "from math import comb, prod as product\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return loads(os.path.sep)\n"
        "def g():\n"
        "    def h():\n"
        "        import sys\n"
        "    return comb\n"
    )
    assert unused_imports(source) == [(2, "product"), (5, "dumps"), (9, "sys")]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    found = [f"{p.relative_to(ROOT)}:{line} {name}" for p in paths for line, name in unused_imports(p.read_text())]
    assert found == []
