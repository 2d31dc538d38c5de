"""Every module-level import in the package is read somewhere in its module."""

import ast
from pathlib import Path

import longipet

PACKAGE = Path(longipet.__file__).parent


def _bound_names(node):
    # The names an import statement binds in the module namespace.
    for alias in node.names:
        if alias.asname is not None:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {name}"
                           for name in _bound_names(node) if name not in read]
    assert unused == []


REPO = Path(__file__).resolve().parent.parent

# Ops that perfbench's tracer looks up by name, so deleting them breaks every
# traced run until the benchmark stops doing so; ROADMAP item 6 deletes them
# and empties this set.
TRACER_PINNED = {"mul", "div", "sigmoid", "tensor_sum", "narrow_channels", "concat_channels"}


def _definitions(tree):
    # Module-level functions and classes, and the methods of those classes;
    # dunder methods are called by the language, not by name.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _references(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def test_every_definition_has_a_caller():
    # A caller is a load of the name in the package (its __init__.py
    # re-exports excluded), the benchmark or the acceptance tests.
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((REPO / "perfbench").glob("*.py")) + [
        REPO / "tests" / "test_acceptance.py"]
    referenced = set().union(*(_references(p) for p in callers))
    dead = {(path.name, name) for path in modules
            for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
            if name not in referenced}
    assert sorted(f"{m}:{name}" for m, name in dead if name not in TRACER_PINNED) == []
    # an op that gains a caller leaves the list
    assert TRACER_PINNED <= {name for _, name in dead}
