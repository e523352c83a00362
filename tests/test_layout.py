"""Layout check: the library holds only code the library itself reaches.

Every top-level function and class, and every method that is not a dunder,
in `src/smcphd/` must be referenced by name somewhere in `src/smcphd/`
outside its own definition.  `__init__.py` does not count as a reference:
re-exporting a name is not using it.  Code that only the tests call
belongs in `tests/` (see `tests/oracles.py`).  The harness reads no
field of a roughening config but its mode, and neither the harness nor
the CLI names a sweep arm or picks the baseline on its own, only
`particles.py` holds the weight floor, and no module imports at load what
only a pool, a logger or a test needs.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from smcphd.roughening import RougheningConfig

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


def test_harness_reads_no_roughening_field_but_mode():
    # Which variants share a filter run follows from value equality and
    # `RougheningConfig.inert`.  A field the harness read on its own would
    # be a second list of what matters, to keep in step by hand.
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & {field.name for field in fields(RougheningConfig)} == {"mode"}


def test_harness_and_cli_leave_arm_names_and_the_baseline_to_config():
    # `config.arm_name` formats a sweep arm's name and `RunConfig.baseline`
    # is the one test for the baseline's mode.  A copy of either here would
    # have to be kept in step by hand.
    for module in ("harness.py", "cli.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                texts = [v.value for v in node.values if isinstance(v, ast.Constant)]
                assert not any("@" in t for t in texts), f"{module}:{node.lineno} formats an arm name"
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                constants = [v.value for v in operands if isinstance(v, ast.Constant)]
                assert "none" not in constants, f"{module}:{node.lineno} tests for the baseline"
    # `RunConfig.sweep_variants` and `write_sweep_table` lay out the sweep's
    # arms; the CLI prints the summary's variants as they come.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = set(_names(tree))
    names.update(a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names)
    for name in ("SWEEP_MODES", "arm_name"):
        assert name not in names, f"cli.py names {name}"


def test_only_particle_sets_hold_the_weight_floor():
    # `ParticleSet` holds every weight below WEIGHT_FLOOR as zero.  A second
    # definition, or a flush in the filter, would be a copy of that rule.
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "filter.py":
            assert "WEIGHT_FLOOR" not in text, "filter.py names WEIGHT_FLOOR"
        if path.name != "particles.py":
            stored = {
                node.id
                for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            assert "WEIGHT_FLOOR" not in stored, f"{path.name} assigns WEIGHT_FLOOR"


# Modules a serial run never uses: the process pool's, `logging` (nothing
# logs, and code that did would import it where it logs), and exact
# fractions (with `decimal`, which they load).
LAZY_IMPORTS = {"concurrent", "multiprocessing", "logging", "fractions", "decimal"}


def _load_time_imports(node):
    """The top-level module names that a subtree imports when its module
    loads: everything outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.split(".")[0]
        yield from _load_time_imports(child)


def test_no_module_imports_the_pool_logging_or_fractions_at_load():
    # Each is imported where it is used, so a serial run loads none of them.
    # A module-level import here would put it back into every run's set-up.
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = LAZY_IMPORTS.intersection(_load_time_imports(tree))
        assert not found, f"{path.name} imports {sorted(found)} at load"
