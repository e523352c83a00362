"""Layout check: the library holds only code the library itself reaches.

Every top-level function and class, and every method that is not a dunder,
in `src/smcphd/` must be referenced by name somewhere in `src/smcphd/`
outside its own definition.  `__init__.py` does not count as a reference:
re-exporting a name is not using it.  Code that only the tests call
belongs in `tests/` (see `tests/oracles.py`).
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smcphd"


def _names(node) -> Counter:
    """Every name a subtree reads, as a variable or as an attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of
    each non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_is_referenced_in_the_library():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert trees
    used = Counter()
    for tree in trees.values():
        used += _names(tree)
    unreferenced = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if used[node.name] - _names(node)[node.name] <= 0
    ]
    assert unreferenced == []
